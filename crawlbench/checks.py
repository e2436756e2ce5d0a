"""Correctness checks. Each returns a list of error strings (empty = pass).

Engine outputs are read back with pyarrow, never through the engine, and
compared with answers computed without it (``sim.py``, ``sql.py``).
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from crawlbench.sim import SimResult

STORE_COLS = ["url", "title", "parent", "text", "depth", "discovery_rank"]


def store_files(out_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out_dir, "store", "**", "*.parquet"), recursive=True))


def read_store_rows(out_dir: str) -> list[tuple]:
    """Every store row as a tuple of STORE_COLS, sorted by discovery_rank."""
    rows = []
    for f in store_files(out_dir):
        t = pq.read_table(f, columns=STORE_COLS)
        rows += zip(*(t.column(c).to_pylist() for c in STORE_COLS))
    rows.sort(key=lambda r: (r[5], r[0]))
    return rows


def expected_store_rows(sim: SimResult) -> list[tuple]:
    return [(u, title, sim.start_url, text, d, r) for u, title, text, d, r in sim.store]


def _first_diff(actual: list, expected: list, what: str) -> list[str]:
    if actual == expected:
        return []
    if len(actual) != len(expected):
        return [f"{what}: {len(actual)} rows, expected {len(expected)}"]
    i = next(i for i, (a, e) in enumerate(zip(actual, expected)) if a != e)
    a, e = actual[i], expected[i]
    if isinstance(a, tuple):
        cols = [k for k, (x, y) in enumerate(zip(a, e)) if x != y]
        return [f"{what}: row {i} differs in fields {cols}: {str(a)[:160]} != {str(e)[:160]}"]
    return [f"{what}: item {i}: {a!r} != {e!r}"]


def crawl_errors(
    rows: list[tuple], rounds: list[dict], total_calls: int, crawled: int,
    expected: SimResult, unthrottled: SimResult | None = None,
) -> list[str]:
    """The store and per-round counts must equal the simulation of the same
    crawl. For a budgeted crawl, ``unthrottled`` is the simulation without
    budgets: politeness may delay fetches, and so move discovery ranks and
    depths, but the stored pages and their contents stay the same."""
    errs = _first_diff(rows, expected_store_rows(expected), "store")
    if unthrottled is not None:
        errs += _first_diff(
            sorted(r[:4] for r in rows),
            sorted(r[:4] for r in expected_store_rows(unthrottled)),
            "stored pages vs the unthrottled crawl",
        )
    got = [(r["fetched"], r["crawled"], r["misses"], r["claimed"], r["deferred"]) for r in rounds]
    errs += _first_diff(got, expected.rounds, "rounds (fetched, crawled, misses, claimed, deferred)")
    if total_calls != expected.total_calls:
        errs.append(f"total_calls {total_calls} != {expected.total_calls}")
    if crawled != expected.crawled:
        errs.append(f"crawled {crawled} != {expected.crawled}")
    misses = sum(r["misses"] for r in rounds)
    if crawled + misses != total_calls:
        errs.append(f"crawled {crawled} + misses {misses} != total_calls {total_calls}")
    return errs


def equal_errors(what: str, actual, expected) -> list[str]:
    return [] if actual == expected else [f"{what}: {str(actual)[:200]} != {str(expected)[:200]}"]


def multiset_errors(what: str, actual: list[tuple], expected: list[tuple]) -> list[str]:
    return _first_diff(sorted(actual, key=repr), sorted(expected, key=repr), what)


def _normal(df: pd.DataFrame) -> pd.DataFrame:
    """Columns in name order, typed for comparison (ints and bools as
    int64, floats as float64, everything else as text), rows sorted."""
    out = {}
    for c in sorted(df.columns):
        s = df[c]
        if pd.api.types.is_bool_dtype(s) or pd.api.types.is_integer_dtype(s):
            out[c] = s.astype("int64")
        elif pd.api.types.is_float_dtype(s):
            out[c] = s.astype("float64")
        elif pd.api.types.is_datetime64_any_dtype(s):
            out[c] = pd.to_datetime(s).dt.strftime("%Y-%m-%dT%H:%M:%S.%f")
        else:
            out[c] = s.map(lambda v: "<null>" if v is None else str(v))
    norm = pd.DataFrame(out)
    keys = [c for c in norm.columns if norm[c].dtype != "float64"] + [
        c for c in norm.columns if norm[c].dtype == "float64"
    ]
    return norm.sort_values(keys).reset_index(drop=True) if len(norm) else norm


def frame_errors(name: str, actual: pd.DataFrame, expected: pd.DataFrame) -> list[str]:
    a, e = _normal(actual), _normal(expected)
    if list(a.columns) != list(e.columns):
        return [f"{name}: columns {list(a.columns)} != {list(e.columns)}"]
    if len(a) != len(e):
        return [f"{name}: {len(a)} rows, expected {len(e)}"]
    for c in a.columns:
        if a[c].dtype == "float64" or e[c].dtype == "float64":
            ok = np.isclose(a[c].astype(float), e[c].astype(float), rtol=1e-6, atol=1e-9)
        else:
            ok = (a[c].astype(str) == e[c].astype(str)).to_numpy()
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            return [f"{name}.{c}: row {i}: {a[c].iloc[i]!r} != {e[c].iloc[i]!r}"]
    return []


def bound_errors(
    name: str, actual: pd.DataFrame, exact: pd.DataFrame, key: str,
    cols: tuple[str, str], rel: float,
) -> list[str]:
    """``cols`` = (the estimate's column in ``actual``, the exact column)."""
    if {key, cols[0]} - set(actual.columns):
        return [f"{name}: columns {sorted(actual.columns)} lack {key}, {cols[0]}"]
    got = dict(zip(actual[key].astype(str), actual[cols[0]]))
    want = dict(zip(exact[key].astype(str), exact[cols[1]]))
    if set(got) != set(want):
        return [f"{name}: keys {sorted(got)} != {sorted(want)}"]
    return [
        f"{name}[{k}]: {got[k]} is not within {rel:.0%} of {v}"
        for k, v in want.items()
        if abs(float(got[k]) - v) > rel * v
    ]
