"""Multimodal actor-pool stages on a small Ray session."""

import json
import os
import subprocess
import sys
import textwrap

# the child runs the pipelines in a thread and shuts Ray down itself when
# they overrun, so a hang never leaves a second local cluster running
_CHILD = textwrap.dedent(
    """
    import json
    import sys
    import threading

    import ray

    from spider_ray.pipelines.multimodal import audio_meta_stub, frame_sample, resize_plan

    sf_dir = sys.argv[1]
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    counts = {}

    def run():
        for fn in (resize_plan, frame_sample, audio_meta_stub):
            counts[fn.__name__] = fn(sf_dir).count()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(90)
    ray.shutdown()
    print(json.dumps(counts))
    sys.exit(0 if len(counts) == 3 else 3)
    """
)


def test_actor_pools_finish_on_a_two_cpu_session(tmp_path):
    """A fixed two-actor pool that needs one CPU per actor waited forever on
    a 2-CPU session; the pools scale between one and two actors instead."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    texts = [f"document {i} " * (i % 7 + 1) for i in range(100)]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(100), pa.int64()), "text": pa.array(texts)}),
        tmp_path / "documents.parquet",
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert done.returncode == 0, done.stdout + done.stderr[-2000:]
    frames = sum(len(range(0, len(t.encode()) % 24 + 1, 3)) for t in texts)
    assert json.loads(done.stdout.strip().splitlines()[-1]) == {
        "resize_plan": 100,
        "frame_sample": frames,
        "audio_meta_stub": 100,
    }
