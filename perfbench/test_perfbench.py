"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _four_dim():
    golden = workloads.load_golden("fingerprints.json")
    return [eid for eid, fp in golden.items() if fp[0] == 4]


def test_qi_inputs_are_deterministic_per_seed_and_differ_across_seeds():
    four = _four_dim()
    assert workloads.qi_inputs(7, 0, four) == workloads.qi_inputs(7, 0, four)
    assert workloads.qi_inputs(7, 0, four) != workloads.qi_inputs(8, 0, four)
    assert workloads.qi_inputs(7, 0, four) != workloads.qi_inputs(7, 1, four)


def test_qi_matrices_are_invertible_and_never_real():
    from zinbiel5.exactmath import I, ONE, ExactMatrix, GaussianRational

    for eid, rows in workloads.qi_inputs(3, 0, _four_dim()):
        assert all(im for row in rows for _, im in row), eid
        P = ExactMatrix([[GaussianRational(re, im) for re, im in row] for row in rows])
        assert P.det() in (ONE, -ONE, I, -I)


def test_certificate_order_is_a_seeded_shuffle():
    a = workloads.certificate_order(1, 0, 49)
    assert a == workloads.certificate_order(1, 0, 49)
    assert a != workloads.certificate_order(2, 0, 49)
    assert sorted(a) == sorted(workloads.certificate_order(2, 0, 49))
    assert len(a) == 98


class _Clock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10]: a [1, 4] with child b [2, 3]; c [5, 9] with child d [6, 8]
    rec = spans.Recorder(clock=_Clock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
    root = rec.open(rec.name_id("root"))
    a = rec.open(rec.name_id("x.a"))
    b = rec.open(rec.name_id("x.b"))
    rec.close(b)
    rec.close(a)
    c = rec.open(rec.name_id("x.a"))
    d = rec.open(rec.name_id("y.d"))
    rec.close(d)
    rec.close(c)
    rec.close(root)
    assert list(rec.parent) == [-1, 0, 1, 0, 3]
    assert spans.self_times(rec.start, rec.end, rec.parent) == [3, 2, 1, 2, 2]
    summary = spans.summarize(rec)
    assert summary["calls"] == {"root": 1, "x.a": 2, "x.b": 1, "y.d": 1}
    assert summary["self_s"] == {"root": 3, "x.a": 4, "x.b": 1, "y.d": 2}
    assert summary["tree_self_s"] == {"root": 10}  # the root's duration
    top = spans.summarize(rec, depth=1)["top_spans"]
    assert [(row[0], row[1], row[4]) for row in top] == [(0, "root", -1), (1, "x.a", 0), (3, "x.a", 0)]


def test_covered_merges_overlaps_and_clips():
    assert spans._covered([(1, 3), (2, 5), (7, 12)], 0, 10) == 7


def test_install_rebinds_names_imported_from_other_modules():
    script = """
import spans
from zinbiel5 import catalog, cohomology
from zinbiel5.exactmath import ExactMatrix
rec = spans.Recorder()
spans.install(rec)
assert catalog.is_cocycle is cohomology.is_cocycle
assert catalog.h2 is cohomology.h2
assert catalog.central_extension is cohomology.central_extension
rec_ = next(r for r in catalog.extension_records() if r.parent_param is None and r.child_param is None)
catalog.central_extension(catalog.instantiate(rec_.parent), catalog.record_form(rec_))
names = [rec.names[n] for n in rec.name]
parents = [names[p] if p >= 0 else None for p in rec.parent]
pairs = set(zip(names, parents))
assert ("cohomology.central_extension", None) in pairs, pairs
assert ("cohomology.is_cocycle", "cohomology.central_extension") in pairs, pairs
assert rec.counts["exactmath.grat.mul.calls"] > 0
"""
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{HERE}", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def _report_from(text):
    from zinbiel5.catalog import CheckResult, SuiteReport

    checks = json.loads(text)["checks"]
    return SuiteReport(tuple(
        CheckResult(c["name"], c["passed"], tuple(c["details"]), tuple(c["info"]))
        for c in checks
    ))


def _logged(report):
    log = workloads.ItemLog()
    log.items = [[c.name, 1.0, True] for c in report.checks]
    return log


def test_golden_comparison_catches_a_one_byte_change():
    golden = (workloads.GOLDEN / "verify_all.json").read_text()
    report = _report_from(golden)
    assert report.as_json() == golden
    log = _logged(report)
    workloads.check_suite(log, report, golden)
    assert all(ok for *_, ok in log.items)
    at = golden.index("instantiations")
    changed = golden[:at] + "J" + golden[at + 1:]
    log = _logged(report)
    workloads.check_suite(log, report, changed)
    assert [name for name, _, ok in log.items if not ok] == ["identity"]


def _subset_golden(name):
    golden = json.loads((workloads.GOLDEN / "verify_all.json").read_text())
    check = next(c for c in golden["checks"] if c["name"] == name)
    body = {"ok": True, "counts": {"passed": 1, "failed": 0}, "checks": [check]}
    return json.dumps(body, sort_keys=True, indent=1)


def _error_rate(config, name):
    from zinbiel5 import catalog

    log = workloads.ItemLog()
    workloads._hook_checks(log, [name])
    report = catalog.verify_all(config)
    workloads.check_suite(log, report, _subset_golden(name))
    passes = [{"wall_s": 1.0, "items": log.items, "peak_rss_mb": 1.0}]
    _, extra, attempted, failed = run.end_to_end(passes, [0.1])
    assert attempted == 1
    return extra["error_rate"]


def test_algebra_perturbed_through_overrides_raises_error_rate():
    from zinbiel5 import algebra, catalog

    A = catalog.instantiate("Z_40")
    bad = algebra.algebra_from_entries(
        A.dim, list(A.entries()) + [(1, 1, 1, 1)], label=A.label
    )
    clean = catalog.SuiteConfig(checks=("identity",))
    assert _error_rate(clean, "identity") == 0
    perturbed = catalog.SuiteConfig(checks=("identity",), overrides=(("Z_40", bad),))
    assert _error_rate(perturbed, "identity") == 1


def test_qi_checks_reject_a_wrong_fingerprint():
    golden = workloads.load_golden("fingerprints.json")
    tables = workloads.qi_tables()
    fp = golden["Z_22"]
    assert workloads.qi_item_ok("Z_22", True, fp, fp, fp[5], fp, tables)
    wrong = fp[:3] + [fp[3] + 1] + fp[4:]
    assert not workloads.qi_item_ok("Z_22", True, wrong, wrong, fp[5], wrong, tables)
    assert not workloads.qi_item_ok("Z_22", True, fp, wrong, fp[5], fp, tables)
    assert not workloads.qi_item_ok("Z_22", False, fp, fp, fp[5], fp, tables)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(40))) is None
    assert run.tail(list(range(50))) == (80, 39)
    assert run.tail(list(range(98))) == (89, 87)
    assert run.tail(list(range(100))) == (90, 89)


def test_import_deps_counts_third_party_under_zinbiel5_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   certifi",
        "import time:       200 |        300 | site",
        "import time:        10 |         10 |     json.decoder",
        "import time:        50 |         50 |       mpmath.libmp",
        "import time:       900 |        950 |     mpmath",
        "import time:        20 |       1000 |   zinbiel5.series",
        "import time:        30 |       1030 | zinbiel5.cli",
    ])
    assert run.import_deps_s(text) == 950e-6


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
