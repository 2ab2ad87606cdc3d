"""zinbiel5 benchmark: end-to-end metrics, or per-layer metrics from a trace.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Workloads are ``suite``, ``qi-basis`` and
``certificates`` (see ``workloads.py``).  One caller, closed loop: passes
run one after another, each in its own fresh interpreter, so that a pass's
peak memory is its own.  No threads are started and no parallelism flags
are used.

``--trace 0`` measures set-up, then runs passes until ``--seconds`` would
be exceeded (at least one), and reports the end-to-end metrics.
``--trace 1`` runs one traced pass, one untraced pass of the same inputs
(for the tracing overhead), the set-up split and, for ``suite``, each check
on a fresh suite; it reports the per-layer metrics.

Every output is checked (golden suite report, golden fingerprints, the
bundled tables, certificate verdicts and tiers).  Lines before the last
describe the run, including metrics that are not reported to the gate; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment, is also written to
``.bench_out/`` under the checkout root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import REPEAT_TRACKED  # noqa: E402
from workloads import WORKLOADS, load_golden  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 9
SPLIT_REPEATS = 3
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
TAIL_LOWEST = 80  # a lower percentile is no tail: too few items for one

# Gated end-to-end metrics.  item_p50_ms, item_tail_ms and error_rate are
# printed on the lines before the result: over ten seeds the item median
# spread by 11-15% (interquartile range over median, 2-core x86-64 VM)
# against 4-16% for wall_s, and the error rate is 0 on a correct program,
# which leaves a relative bound nothing to act on.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

EXTRA_UNITS = {
    "error_rate": "ratio",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "pass_tree_self_s": "s",
}

SPAN_METRICS = (
    "cohomology.is_cocycle",
    "cohomology.central_extension",
    "cohomology.extension_wellformed",
    "cohomology.h2",
    "cohomology.coboundary_space",
    "exactmath.rank_sparse",
    "exactmath.kernel_basis_sparse",
    "exactmath.nullity_mod_p",
    "exactmath.ExactMatrix.rref",
    "series.PuiseuxSeries.mul",
    "series.expand_series",
    "series.parse_expression",
    "series.evaluate_scalar",
    "degeneration.verify_certificate",
    "degeneration.transported_constants",
    "degeneration.necessary_conditions",
    "degeneration.rset_membership",
    "algebra.fingerprint",
    "algebra.check_identity",
    "algebra.power_filtration",
    "algebra.annihilator",
    "algebra.change_basis",
    "algebra.derivation_dimension",
)
COUNT_METRICS = (
    "exactmath.sparse.rows_in",
    "exactmath.grat.mul.calls",
    "series.Radical.mul.calls",
    "series.expand_series.retry_calls",
    "degeneration.tier_exact",
    "degeneration.tier_numeric",
)
GRAT_METRICS = (
    "exactmath.grat.mul_real_ns",
    "exactmath.grat.add_real_ns",
    "exactmath.grat.mul_complex_ns",
)
CHECKS = tuple(c["name"] for c in load_golden("verify_all.json")["checks"])
LAYER_SELF = ("exactmath", "algebra", "cohomology", "series", "degeneration", "catalog", "bench")
SETUP_SPLIT = ("setup.import_deps_s", "setup.import_zinbiel5_s", "setup.load_tables_s")


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in SPAN_METRICS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [
        (name, "count", "higher" if name == "degeneration.tier_exact" else "lower")
        for name in COUNT_METRICS
    ]
    out += [(name, "ns", "lower") for name in GRAT_METRICS]
    out += [(f"{name}.repeat_share", "ratio", "lower") for name in REPEAT_TRACKED]
    out += [(f"catalog.check.{name}.s", "s", "lower") for name in CHECKS]
    out += [(f"layer.{name}.self_s", "s", "lower") for name in LAYER_SELF]
    out += [(name, "s", "lower") for name in SETUP_SPLIT]
    out += [("trace.overhead_share", "ratio", "lower"), ("trace.spans", "count", "lower")]
    return out


class BenchError(RuntimeError):
    """A child process failed; the run prints no result."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _child(argv, deadline: float, flags=()):
    """Run a Python child from the checkout root; (last stdout line, stderr, seconds)."""
    # The children put src/ first on sys.path themselves.  A fixed hash seed
    # keeps the iteration order of str-keyed sets, and so the work done,
    # the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *flags, *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} exceeded the run's time limit") from exc
    seconds = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(lines[-1]), proc.stderr, seconds


def worker(spec: dict, deadline: float):
    out, _, seconds = _child([str(HERE / "worker.py"), json.dumps(spec)], deadline)
    return out, seconds


def setup_once(deadline: float) -> float:
    return _child([str(HERE / "setup_probe.py")], deadline)[2]


def import_deps_s(importtime: str) -> float:
    """Seconds zinbiel5's imports spend in third-party packages.

    Reads ``-X importtime`` output, which lists each module after the ones
    it imported, indented by depth.  A third-party module counts when a
    ``zinbiel5`` module encloses it and no third-party module does, so each
    package counts once and interpreter start-up counts not at all.
    """
    lines = [ln for ln in importtime.splitlines() if ln.startswith("import time:")]
    stdlib = set(sys.stdlib_module_names)
    total_us = 0
    stack = []  # (depth, top-level package) of the enclosing imports
    for ln in reversed(lines[1:]):  # first line is the header
        _, cumulative, field = ln.split("|")
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        top = field.strip().split(".")[0]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        outer = {pkg for _, pkg in stack}
        third = top not in stdlib and top != "zinbiel5"
        if third and "zinbiel5" in outer and not outer - stdlib - {"zinbiel5"}:
            total_us += int(cumulative)
        stack.append((depth, top))
    return total_us / 1e6


def setup_split(deadline: float) -> dict:
    runs = []
    for _ in range(SPLIT_REPEATS):
        out, stderr, _ = _child([str(HERE / "setup_probe.py")], deadline, ("-X", "importtime"))
        deps = import_deps_s(stderr)
        runs.append((deps, out["import_s"] - deps, out["load_s"]))
    return {
        name: statistics.median(r[k] for r in runs)
        for k, name in enumerate(SETUP_SPLIT)
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values):
    """(percentile, value): the highest whole percentile, by nearest rank,
    that leaves at least TAIL_BEYOND samples above it; None if that
    percentile is below TAIL_LOWEST."""
    n = len(values)
    fit = [p for p in range(TAIL_LOWEST, 100) if math.ceil(p * n / 100) <= n - TAIL_BEYOND]
    if not fit:
        return None
    return fit[-1], sorted(values)[math.ceil(fit[-1] * n / 100) - 1]


def _items(passes):
    return [item for p in passes for item in p["items"]]


def end_to_end(passes, setups):
    items = _items(passes)
    tails = [tail([ms for _, ms, _ in p["items"]]) for p in passes]
    failed = sum(1 for *_, ok in items if not ok)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    extra = {
        "error_rate": failed / len(items),
        "items": len(items),
        "passes": len(passes),
        "item_p50_ms": statistics.median(
            statistics.median(ms for _, ms, _ in p["items"]) for p in passes
        ),
    }
    if all(tails):
        extra["item_tail_ms"] = statistics.median(v for _, v in tails)
        extra["item_tail_percentile"] = tails[0][0]
        extra["item_tail_samples_per_pass"] = len(passes[0]["items"])
    return metrics, extra, len(items), failed


def layer_metrics(traced, plain, checks, split):
    summary = traced["trace"]
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in COUNT_METRICS:
        m[name] = counts.get(name, 0)
    m.update(traced["grat"])
    for name in REPEAT_TRACKED:
        tracked = counts.get(f"{name}.tracked_calls", 0)
        m[f"{name}.repeat_share"] = counts.get(f"{name}.repeat_calls", 0) / tracked if tracked else 0.0
    for name in CHECKS:
        m[f"catalog.check.{name}.s"] = checks.get(name, 0.0)
    for layer in LAYER_SELF:
        m[f"layer.{layer}.self_s"] = sum(
            s for n, s in self_s.items() if n.split(".")[0] == layer
        )
    m.update(split)
    m["trace.overhead_share"] = traced["wall_s"] / plain["wall_s"] - 1.0
    m["trace.spans"] = summary["spans"]
    return m


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_plain(workload: str, seed: int, seconds: int, deadline: float):
    setups = [setup_once(deadline) for _ in range(SETUP_REPEATS)]
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        spec = {"workload": workload, "seed": seed, "index": len(passes), "trace": False}
        out, took = worker(spec, deadline)
        passes.append(out)
        durations.append(took)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break
    metrics, extra, attempted, failed = end_to_end(passes, setups)
    detail = {"extra": extra, "passes": passes, "setups": setups}
    return metrics, attempted, failed, detail


def run_traced(workload: str, seed: int, deadline: float):
    spec = {"workload": workload, "seed": seed, "index": 0}
    traced, _ = worker(dict(spec, trace=True), deadline)
    plain, _ = worker(dict(spec, trace=False), deadline)
    checks, check_ok = {}, []
    if workload == "suite":
        for name in CHECKS:
            out, _ = worker({"check": name}, deadline)
            checks[name] = out["wall_s"]
            check_ok.append(out["ok"])
    split = setup_split(deadline)
    metrics = layer_metrics(traced, plain, checks, split)
    items = _items([traced, plain])
    attempted = len(items) + len(check_ok)
    failed = sum(1 for *_, ok in items if not ok) + check_ok.count(False)
    extra = {
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": plain["wall_s"],
        "pass_tree_self_s": traced["trace"]["tree_self_s"].get("bench.pass"),
    }
    detail = {"extra": extra, "passes": [plain], "trace": traced["trace"]}
    return metrics, attempted, failed, detail


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def git_sha():
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "zinbiel5" / "catalog.py").is_file():
        print(f"no zinbiel5 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            metrics, attempted, failed, detail = run_traced(args.workload, args.seed, deadline)
            units = {name: unit for name, unit, _ in per_layer_metrics()}
        else:
            metrics, attempted, failed, detail = run_plain(
                args.workload, args.seed, args.seconds, deadline
            )
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env = environment()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(
        json.dumps({"args": vars(args), "env": env, "result": result, **detail}, indent=1)
    )
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for k, v in detail["extra"].items():
        print(f"  {k} = {v:.6g} {EXTRA_UNITS.get(k, '')}".rstrip() + "  (not gated)")
    for k in units:
        print(f"  {k} = {metrics[k]:.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
