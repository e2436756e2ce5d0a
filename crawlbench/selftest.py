"""Self-test of the checks: each is fed the correct answer (it must pass)
and corrupted copies of it (each must be rejected). Needs no Ray session;
the "engine output" is the expected answer itself, corrupted.

    python3 crawlbench/run.py --selftest
"""

from __future__ import annotations

import copy
import sys
import tempfile

from crawlbench import checks, gen, sim, sql
from crawlbench.workloads import ROBOTS


def _rounds(s: sim.SimResult) -> list[dict]:
    keys = ("fetched", "crawled", "misses", "claimed", "deferred")
    return [dict(zip(keys, r)) for r in s.rounds]


def _crawl_cases():
    corpus = gen.make_corpus(3, n_pages=120, n_hosts=8, links_per_page=6, n_words=20, n_seeds=4)
    polite = sim.simulate(corpus, 40, per_host_budget=6, robots=ROBOTS)
    free = sim.simulate(corpus, 40, robots=ROBOTS)
    rows = checks.expected_store_rows(polite)
    rounds = _rounds(polite)

    def run(rows=rows, rounds=rounds, calls=polite.total_calls, crawled=polite.crawled):
        return checks.crawl_errors(rows, rounds, calls, crawled, polite, free)

    def with_row(i, **changes):
        out = list(rows)
        r = dict(zip(checks.STORE_COLS, out[i]))
        r.update(changes)
        out[i] = tuple(r[c] for c in checks.STORE_COLS)
        return out

    def with_round(i, key, delta):
        out = copy.deepcopy(rounds)
        out[i][key] += delta
        return out

    swapped = list(rows)
    a, b = rows[3], rows[4]
    swapped[3], swapped[4] = a[:5] + (b[5],), b[:5] + (a[5],)
    text = rows[5][3]
    yield "correct crawl", run(), True
    yield "swapped ranks", run(rows=sorted(swapped, key=lambda r: r[5])), False
    yield "missing store row", run(rows=rows[:7] + rows[8:]), False
    yield "duplicated store row", run(rows=rows + [rows[7]]), False
    yield "changed text byte", run(rows=with_row(5, text=text[:40] + "X" + text[41:])), False
    yield "changed title", run(rows=with_row(6, title="other")), False
    yield "wrong parent", run(rows=with_row(6, parent="https://h1.example/p0")), False
    yield "wrong depth", run(rows=with_row(9, depth=rows[9][4] + 1)), False
    yield "wrong claimed count", run(rounds=with_round(1, "claimed", 1)), False
    yield "wrong deferred count", run(rounds=with_round(2, "deferred", -1)), False
    yield "wrong total_calls", run(calls=polite.total_calls + 1), False
    yield "wrong crawled", run(crawled=polite.crawled - 1), False
    yield "misses not adding up", run(rounds=with_round(0, "misses", 1)), False
    other = gen.make_corpus(4, n_pages=120, n_hosts=8, links_per_page=6, n_words=20, n_seeds=4)
    other_free = sim.simulate(other, 40, robots=ROBOTS)
    yield "store not the unthrottled page set", checks.crawl_errors(
        rows, rounds, polite.total_calls, polite.crawled, polite, other_free
    ), False

    head = [(r[0], r[1]) for r in rows[:10]]
    yield "catch: correct", checks.equal_errors("catch", list(head), head), True
    yield "catch: missing row", checks.equal_errors("catch", head[1:], head), False
    yield "catch: wrong order", checks.equal_errors("catch", head[::-1], head), False
    yield "count: wrong", checks.equal_errors("count", len(rows) + 1, len(rows)), False
    yield "compact: correct multiset", checks.multiset_errors("compact", rows[::-1], rows), True
    yield "compact: lost row", checks.multiset_errors("compact", rows[1:], rows), False
    yield "compact: duplicated row", checks.multiset_errors("compact", rows + rows[:1], rows), False


def _query_cases():
    with tempfile.TemporaryDirectory(prefix="cb-selftest") as d:
        expected = sql.expected_answers(gen.write_tables(gen.make_tables(5), d))
    for name in sql.ORACLES:
        df = expected[name]
        yield f"{name}: correct", checks.frame_errors(name, df.copy(), df), True
        yield f"{name}: missing row", checks.frame_errors(name, df.iloc[1:], df), False
        yield f"{name}: duplicated row", checks.frame_errors(
            name, df.iloc[list(range(len(df))) + [0]], df), False
        bad = df.copy()
        col = bad.columns[-1]
        bad[col] = bad[col].astype(object)
        v = bad[col].iloc[0]
        bad.loc[bad.index[0], col] = (
            not v if df[col].dtype.kind == "b"
            else v * 1.01 + 1 if df[col].dtype.kind in "iuf"
            else str(v) + "x"
        )
        yield f"{name}: wrong value", checks.frame_errors(name, bad, df), False
        yield f"{name}: renamed column", checks.frame_errors(
            name, df.rename(columns={col: col + "_x"}), df), False

    _sql, key, cols, rel = sql.BOUNDED["distinct_users_hll"]
    exact = expected["distinct_users_hll"]
    est = exact.rename(columns={cols[1]: cols[0]})
    yield "hll: exact estimate", checks.bound_errors("hll", est, exact, key, cols, rel), True
    off = est.copy()
    off[cols[0]] = (off[cols[0]] * 1.08).round().astype("int64")
    yield "hll: 8 % off", checks.bound_errors("hll", off, exact, key, cols, rel), False


def main() -> int:
    bad = 0
    n = 0
    for cases in (_crawl_cases(), _query_cases()):
        for what, errors, should_pass in cases:
            n += 1
            if bool(errors) == should_pass:
                bad += 1
                verdict = errors[:1] if errors else "accepted"
                print(f"FAIL {what}: {verdict}", file=sys.stderr)
    print(f"selftest: {n - bad} of {n} cases behaved as expected", file=sys.stderr)
    return 1 if bad else 0
