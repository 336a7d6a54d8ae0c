"""Guard for the benchmark's traced in-process replay.

``python3 perfbench/run.py --trace 1`` replays each served workload
in-process through :func:`perfbench.served.replay`: every answer is shaped
by :mod:`repro.serve.shaping` over a store stand-in that answers only what
the shaping functions may call, then framed with
:func:`repro.serve.protocol.encode_frame`.  Nothing else runs that path, so
this test replays one point stream and one scan stream on a tiny store.
"""

from __future__ import annotations

import math

from perfbench import inputs, served
from repro.store import ShardStore

#: F(100, 12): 1,200 vertices, enough for the 1,024-vertex hot set.
TINY = (100, 12)


def test_replay_reports_finite_figures(tmp_path):
    store_dir = inputs.build_store(tmp_path, sizes=TINY)
    store = ShardStore(store_dir)
    length = served.WARMUP_OPS + 96
    streams = [inputs.point_stream(store, 5, 0, length),
               inputs.scan_stream(store.n_vertices, 5, 1, length)]
    store.close()
    figures, degree_stages = served.replay(store_dir, 2, streams)
    values = {**figures, **{f"degree.{stage}": value
                            for stage, value in degree_stages.items()}}
    assert all(isinstance(value, (int, float)) and math.isfinite(value)
               for value in values.values()), values
