"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py '{"workload": "qi-basis", "seed": 3, "index": 0, "trace": false}'
    python3 perfbench/worker.py '{"check": "h2"}'

The first form runs pass ``index`` of a workload; with ``"trace": true``
the span recorder is installed first and the line carries its summary.
The second form times ``verify_all`` on a fresh suite running one check.
Importing the package and loading the tables happen before any timing.
"""
from __future__ import annotations

import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from setup_probe import load_tables  # noqa: E402


def grat_timings(seed: int) -> dict:
    """Nanoseconds per GaussianRational operation on seeded operands."""
    from zinbiel5.exactmath import GaussianRational

    rng = random.Random(f"grat:{seed}")

    def frac():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 99))

    real = [(GaussianRational(frac()), GaussianRational(frac())) for _ in range(256)]
    cplx = [
        (GaussianRational(frac(), frac()), GaussianRational(frac(), frac()))
        for _ in range(256)
    ]

    cases = {
        "exactmath.grat.mul_real_ns": (lambda x, y: x * y, real),
        "exactmath.grat.add_real_ns": (lambda x, y: x + y, real),
        "exactmath.grat.mul_complex_ns": (lambda x, y: x * y, cplx),
    }
    rounds = 20
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(5):  # interleaved, so a slow spell hits every case alike
        for name, (fn, pairs) in cases.items():
            t0 = time.perf_counter()
            for _ in range(rounds):
                for x, y in pairs:
                    fn(x, y)
            best[name] = min(best[name], time.perf_counter() - t0)
    return {name: t / (rounds * 256) * 1e9 for name, t in best.items()}


def main(argv) -> int:
    spec = json.loads(argv[1])
    import zinbiel5.cli  # noqa: F401  (every module, as the CLI loads them)

    load_tables()
    if "check" in spec:
        wall, ok = workloads.check_alone(spec["check"])
        print(json.dumps({"wall_s": wall, "ok": ok}))
        return 0
    rec = None
    out = {}
    if spec["trace"]:
        out["grat"] = grat_timings(spec["seed"])
        rec = spans.Recorder()
        spans.install(rec)
    log = workloads.ItemLog(rec)
    workloads.PASSES[spec["workload"]](log, spec["seed"], spec["index"])
    out["wall_s"] = log.wall
    out["items"] = log.items
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        out["trace"] = spans.summarize(rec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
