"""Benchmark of scx: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload verify-default --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports ``scx`` from ``src/``.
Every measured phase runs in a fresh single-threaded Python process
(``bench/worker.py``), one after another, so set-up, imports and caches
start cold each time.  Every reported time is scaled to a reference host
speed by the probe in ``bench/probe.py``.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, plus the
tracing overhead against an untraced run at the same seed.  The process
exits with 1 when an operation fails its correctness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
SCX = Path(__file__).resolve().parents[1] / "src" / "scx"
WORKLOADS = ("verify-default", "rigidity-stress", "classify-distinct")

#: fresh processes whose set-up time is measured; setup_s is their median
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170

#: the 16 registered statements, in registry order
STATEMENTS = (
    "Lemma2.2", "Lemma2.4", "Lemma2.5", "Lemma2.6", "Theorem2.3", "Lemma3.3",
    "Lemma3.4", "Lemma3.6", "Lemma3.8", "Lemma4.1", "Prop4.2", "Lemma4.4",
    "Theorem4.5", "Theorem5.4", "Theorem5.5", "Corollary5.6",
)


def worker(mode: str, args) -> dict:
    cmd = [sys.executable, str(WORKER), mode, args.workload, str(args.seed), str(args.seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(args) -> tuple:
    setups = [worker("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = worker("run", args)
    setups.append(res["setup_s"])
    op_ms = [t * 1000.0 for t in res["op_s"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (res["wall_s"], "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(op_ms, n=10)[-1], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_ratio": (1.0 - res["failed"] / res["attempted"], "ratio"),
    }
    return res, metrics


def per_layer(args) -> tuple:
    plain = worker("run", args)
    res = worker("trace", args)
    layers = res["layers"]
    metrics = {}
    for name, value in layers.items():
        if name != "trace.spans":
            metrics[name] = (value, "s" if name.endswith(".self_s") else "count")
    metrics["generators.standard_catalog.s"] = (res["catalog_s"], "s")
    for sid in STATEMENTS:
        metrics[f"verify.{sid}.s"] = (plain["statement_s"].get(sid, 0.0), "s")
    metrics["errors.too_large.count"] = (res["errors"].get("too_large", 0), "count")
    metrics["errors.precondition.count"] = (res["errors"].get("precondition", 0), "count")
    metrics["trace.overhead_ratio"] = (res["wall_s"] / plain["wall_s"], "ratio")
    metrics["trace.spans"] = (layers["trace.spans"], "count")
    metrics["host.slowdown"] = (plain["slowdown"], "ratio")
    # the traced and the untraced run must compute the same things
    res["failed"] += plain["failed"]
    res["attempted"] += plain["attempted"]
    return res, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SCX.is_dir():
        raise SystemExit(f"bench: no scx sources at {SCX}; run from a source checkout")

    res, metrics = (per_layer if args.trace else end_to_end)(args)
    correct = res["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
