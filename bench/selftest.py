"""Self-test of the traced run; takes about three minutes.

    python3 bench/selftest.py

1. Traced verify-default runs at seeds 0 and 1 give identical counts
   (every ``.calls``, ``.distinct`` and ``.cells`` figure).
2. The traced and the untraced run give the same report digests, and
   those are the digests recorded for the default scale.
3. The traced counts equal the call counts cProfile takes of the same
   timed phase: ``betti``, ``boundary_matrix``, ``SimplicialComplex.faces``,
   and ``_ball_analysis`` as the sum of the four public ball functions,
   each of which runs exactly one ball analysis.  At the seed commit these
   were 119,781, 272,218, 1,138,050 and 1,439.

Exits with 1 if a check fails.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from argparse import Namespace

from probe import SpeedMeter
from run import worker
from worker import SRC

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (imports scx from SRC)

PUBLIC_BALL_FUNCTIONS = (
    "homology.is_homology_ball",
    "homology.ball_boundary",
    "homology.interior_faces",
    "homology.is_r_stacked_ball",
)


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith(".self_s")}


def _profiled_calls() -> dict:
    wl = workloads.VerifyDefault
    inputs = wl.prepare(0, 0)
    profile = cProfile.Profile()
    profile.runcall(wl.run, inputs, SpeedMeter())
    calls = {}
    for (path, _, name), (_, ncalls, *_) in pstats.Stats(profile).stats.items():
        module = path.replace("\\", "/").rsplit("/", 1)[-1]
        calls[f"{module}:{name}"] = calls.get(f"{module}:{name}", 0) + ncalls
    return calls


def main() -> int:
    def args(seed):
        return Namespace(workload="verify-default", seed=seed, seconds=0)

    traced = [worker("trace", args(seed)) for seed in (0, 1)]
    plain = worker("run", args(0))
    layers = traced[0]["layers"]
    profiled = _profiled_calls()
    ball = sum(layers[f"{p}.calls"] for p in PUBLIC_BALL_FUNCTIONS)
    pairs = (
        ("betti", layers["homology.betti.calls"], profiled["homology.py:betti"]),
        (
            "boundary_matrix",
            layers["homology.boundary_matrix.calls"],
            profiled["homology.py:boundary_matrix"],
        ),
        ("faces", layers["complexes.faces.calls"], profiled["complexes.py:faces"]),
        ("_ball_analysis", ball, profiled["homology.py:_ball_analysis"]),
    )

    checks = {
        "counts repeat across seeds 0 and 1": _counts(layers)
        == _counts(traced[1]["layers"]),
        "traced and untraced digests agree with the recorded ones": all(
            r["digests"] == workloads.VERIFY_DIGESTS for r in (*traced, plain)
        ),
        "traced counts equal cProfile's": all(t == p for _, t, p in pairs),
    }
    for name, traced_count, profiled_count in pairs:
        print(f"{name}: traced {traced_count:,} cProfile {profiled_count:,}")
    for name, ok in checks.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
