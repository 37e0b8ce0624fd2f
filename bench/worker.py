"""One fresh benchmark process; prints one JSON object on its last line.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS

MODE is ``setup`` (import scx and build the inputs, nothing more), ``run``
(set up, then the timed phase) or ``trace`` (the same with the per-layer
wrappers installed around the timed phase).  Timings are scaled to the
reference host speed (see ``probe.py``); ``slowdown`` is the timed
phase's overall factor, raw seconds over reported ones.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from probe import WINDOW, SpeedMeter

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv) -> int:
    mode, workload, seed, seconds = argv[1], argv[2], int(argv[3]), int(argv[4])
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports scx

    wl = workloads.WORKLOADS[workload]
    inputs = wl.prepare(seed, seconds)
    setup_s = perf_counter() - start
    meter = SpeedMeter()
    meter.sample(5)
    setup_slowdown = meter.slowdown()
    result = {"setup_s": setup_s / setup_slowdown}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        outcome = wl.run(inputs, meter)
    finally:
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meter.sample(WINDOW // 2)  # so the last operations have probes after them
    op_s = [t / meter.slowdown_at(end) for t, end in zip(outcome.op_s, outcome.op_end)]
    slowdown = sum(outcome.op_s) / sum(op_s)
    result.update(
        wall_s=outcome.wall_s / slowdown,
        op_s=op_s,
        attempted=outcome.attempted,
        failed=outcome.failed,
        errors=dict(outcome.errors),
        statement_s={k: v / slowdown for k, v in outcome.statement_s.items()},
        digests=outcome.digests,
        catalog_s=outcome.catalog_s / setup_slowdown,
        slowdown=slowdown,
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        layers = tracer.metrics()
        for name in layers:
            if name.endswith(".self_s"):
                layers[name] /= slowdown
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
