"""Catalog data integrity and verification-suite behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zinbiel5 import catalog as cat
from zinbiel5.algebra import algebra_from_entries, check_identity
from zinbiel5.degeneration import verify_certificate
from zinbiel5.exactmath import grat

# ---------------------------------------------------------------------------
# loading and lookup
# ---------------------------------------------------------------------------

FAMILY_IDS = ("Z_02", "Z_10", "Z_14", "Z_30", "[N1C]^2_02", "[N1C]^2_09")


class TestLoading:
    def test_counts(self):
        assert len(cat.all_entries()) == 84
        assert len(cat.extension_records()) == 40
        assert len(cat.h2_tables()) == 24
        assert len(cat.certificates()) == 49
        assert len(cat.rset_rows()) == 11

    def test_five_dimensional_classification_count(self):
        assert len(cat.list_ids(("theoremA",))) == 59

    def test_component_families(self):
        assert cat.list_ids(("component-family",)) == ("V_4+1", "V_3+2", "V_2+3")

    def test_one_parameter_families(self):
        assert cat.list_ids(("theoremA", "family")) == FAMILY_IDS

    def test_certificate_labels_unique(self):
        labels = [c.label for c in cat.certificates()]
        assert len(labels) == len(set(labels))

    def test_entry_fields(self):
        e = cat.entry("Z_30")
        assert e.dim == 5
        assert e.is_parametric and e.symbols == ("a",)
        z1 = cat.entry("[Z1]^1_1")
        assert z1.dim == 4 and not z1.is_parametric

    def test_unknown_id(self):
        with pytest.raises(cat.CatalogError):
            cat.entry("Z_99")


class TestInstantiate:
    def test_plain(self):
        A = cat.instantiate("Z_01")
        assert A.dim == 5 and A.label == "Z_01"

    def test_family_label_and_value(self):
        A = cat.instantiate("Z_02", {"a": "3"})
        assert A.label == "Z_02^{a=3}"
        # e4 e3 = a e5 is the parameter-carrying product
        assert A.c[3][2][4] == grat(3)

    def test_missing_parameter(self):
        with pytest.raises(cat.CatalogError):
            cat.instantiate("Z_02")

    def test_unknown_parameter_name(self):
        with pytest.raises(cat.CatalogError):
            cat.instantiate("Z_02", {"b": "1"})

    def test_excluded_value_rejected(self):
        with pytest.raises(cat.CatalogError):
            cat.instantiate("Z_30", {"a": "-1"})

    def test_zero_pseudo_entry(self):
        A = cat.get("zero", dim=5)
        assert A.dim == 5
        assert all(not v for pl in A.c for row in pl for v in row)
        with pytest.raises(cat.CatalogError):
            cat.get("zero")

    def test_multi_parameter_family(self):
        A = cat.get("V_4+1", {"lam": "2", "mu": "5"})
        assert A.c[1][0][4] == grat(2)
        assert A.c[3][2][4] == grat(5)


class TestParseRef:
    CASES = [
        ("Z_01", ("Z_01", {})),
        ("[Z1]^1_1", ("[Z1]^1_1", {})),  # the ^ belongs to the id
        ("Z_02^3", ("Z_02", {"a": "3"})),
        ("[N1C]^2_09^1/2", ("[N1C]^2_09", {"a": "1/2"})),
        ("V_4+1^lam=2,mu=5", ("V_4+1", {"lam": "2", "mu": "5"})),
        ("zero^4", ("zero", {"dim": 4})),
    ]

    @pytest.mark.parametrize("text,want", CASES)
    def test_forms(self, text, want):
        assert cat.parse_ref(text) == want

    def test_rejects_nonsense(self):
        for bad in ("", "Z_99", "Z_02^", "V_4+1^2"):
            with pytest.raises(cat.CatalogError):
                cat.parse_ref(bad)

    def test_unknown_parameter_name_fails_at_resolution(self):
        eid, params = cat.parse_ref("Z_01^x=1")
        with pytest.raises(cat.CatalogError):
            cat.get(eid, params)


class TestRoundTrip:
    def test_entry_json_round_trip_is_byte_identical(self):
        for e in cat.all_entries():
            text = cat.entry_to_json(e)
            again = cat.entry_to_json(cat.entry_from_json(text))
            assert text == again


class TestFamilySamples:
    def test_exclusions_respected(self):
        values = [b["a"] for b in cat.family_samples("Z_30")]
        assert "-1" not in {str(grat(v)) for v in values}
        assert len(values) == len(cat.SPEC_SAMPLES)

    def test_single_param_uses_all_samples(self):
        values = [b["a"] for b in cat.family_samples("Z_02")]
        assert len(values) == len(cat.SPEC_SAMPLES)

    def test_multi_param_offsets_disagree(self):
        # paired samples must exercise unequal coordinates somewhere
        bindings = cat.family_samples("V_4+1")
        assert bindings
        assert any(b["lam"] != b["mu"] for b in bindings)

    def test_eight_parameter_family_binds_all_symbols(self):
        for b in cat.family_samples("V_3+2"):
            assert set(b) == set(cat.entry("V_3+2").symbols)


# ---------------------------------------------------------------------------
# certificates from explicit dictionaries
# ---------------------------------------------------------------------------


class TestCertificateFromDict:
    def test_full_grid(self):
        raw = {
            "source": "Z_27",
            "target": "Z_28",
            "basis": [
                ["0", "1", "0", "0", "0"],
                ["t", "0", "1", "0", "0"],
                ["0", "0", "0", "t", "-1"],
                ["0", "0", "t", "0", "0"],
                ["0", "0", "0", "0", "-t"],
            ],
        }
        cert = cat.certificate_from_dict(raw)
        assert cert.label == "Z_27 -> Z_28"
        assert verify_certificate(cert).verdict == "verified"

    def test_diag_shorthand(self):
        raw = {
            "source": "Z_25",
            "target": "Z_26",
            "basis": {"diag": ["1/t", "1/t", "1/t^2", "1/t^2", "1/t^3"]},
        }
        cert = cat.certificate_from_dict(raw)
        assert verify_certificate(cert).verdict == "verified"

    def test_sparse_rows(self):
        raw = {
            "source": "Z_27",
            "target": "Z_28",
            "basis": [
                {"2": "1"},
                {"1": "t", "3": "1"},
                {"4": "t", "5": "-1"},
                {"3": "t"},
                {"5": "-t"},
            ],
        }
        cert = cat.certificate_from_dict(raw)
        assert verify_certificate(cert).verdict == "verified"

    def test_wrong_certificate_fails_exactly(self):
        raw = {
            "source": "Z_27",
            "target": "Z_28",
            "basis": {"diag": ["t", "t", "t^2", "t^2", "t^3"]},
        }
        rep = verify_certificate(cat.certificate_from_dict(raw))
        assert rep.verdict == "failed"
        assert rep.mode == "exact"

    def test_unknown_source(self):
        with pytest.raises(cat.CatalogError):
            cat.certificate_from_dict(
                {"source": "Z_99", "target": "Z_01", "basis": {"diag": ["1"] * 5}}
            )


# ---------------------------------------------------------------------------
# the verification suite
# ---------------------------------------------------------------------------


CHECK_ORDER = (
    "identity",
    "h2",
    "extensions",
    "annihilators",
    "degenerations",
    "necessary",
    "rsets",
    "orbits",
    "squares",
    "fingerprints",
)


class TestSuite:
    def test_everything_passes(self, suite_report):
        assert suite_report.ok, suite_report.as_text()

    def test_check_order_and_count(self, suite_report):
        assert tuple(c.name for c in suite_report.checks) == CHECK_ORDER

    def test_counts(self, suite_report):
        assert suite_report.counts == {"passed": 10, "failed": 0}

    def test_degenerations_all_exact(self, suite_checks):
        assert "49 certificates: exact=49" in suite_checks["degenerations"].info

    def test_known_annihilator_exceptions_are_flagged(self, suite_checks):
        blob = " ".join(suite_checks["annihilators"].info)
        for eid in ("Z_25", "Z_26", "Z_27", "Z_28", "Z_29"):
            assert eid in blob

    def test_known_h2_exception_is_flagged(self, suite_checks):
        blob = " ".join(suite_checks["h2"].info)
        assert "[N1C]^1_01" in blob

    def test_known_orbit_exception_is_flagged(self, suite_checks):
        blob = " ".join(suite_checks["orbits"].info)
        assert "Z_24: orbit dim 19" in blob

    def test_family_orbit_convention_reported(self, suite_checks):
        blob = " ".join(suite_checks["orbits"].info)
        assert "V_3+2: closure dim 24" in blob

    def test_report_serialization(self, suite_report):
        payload = json.loads(suite_report.as_json())
        assert payload["ok"] is True
        assert [c["name"] for c in payload["checks"]] == list(CHECK_ORDER)
        text = suite_report.as_text()
        assert text.count("[PASS]") == 10
        assert "10 passed, 0 failed" in text

    def test_json_deterministic(self, suite_report):
        assert suite_report.as_json() == suite_report.as_json()

    def test_json_matches_golden_report(self, suite_report):
        golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
        assert suite_report.as_json() == (golden / "verify_all.json").read_text()

    def test_checks_subset_runs_in_order(self):
        rep = cat.verify_all(cat.SuiteConfig(checks=("squares", "identity")))
        assert tuple(c.name for c in rep.checks) == ("identity", "squares")
        assert [name for name, _ in rep.timings] == ["identity", "squares"]
        assert all(seconds >= 0 for _, seconds in rep.timings)

    def test_timings_stay_outside_the_report(self, suite_report):
        assert [name for name, _ in suite_report.timings] == list(CHECK_ORDER)
        bare = cat.SuiteReport(suite_report.checks)
        assert bare.timings == () and bare == suite_report
        assert bare.as_json() == suite_report.as_json()
        assert "timings" not in json.loads(suite_report.as_json())

    def test_every_suite_system_takes_the_integer_path(self, suite_report):
        assert [name for name, _ in suite_report.counters] == list(CHECK_ORDER)
        totals = {}
        for _, counts in suite_report.counters:
            for path, n in counts.items():
                totals[path] = totals.get(path, 0) + n
        # all real: no system is reduced over Z[i]
        assert totals["gaussian"] == 0
        assert totals["integer"] > 0 and totals["modular"] > 0
        bare = cat.SuiteReport(suite_report.checks)
        assert bare.counters == () and bare == suite_report
        assert "counters" not in json.loads(suite_report.as_json())

    def test_a_second_run_repeats_the_report_and_its_counters(self, suite_report):
        """Invariants are kept for one run only, so a later run in the same
        process builds, and counts, every system again."""
        again = cat.verify_all()
        assert again == suite_report
        assert again.counters == suite_report.counters

    def test_each_invariant_is_built_once_per_instance(self, monkeypatch):
        from zinbiel5 import algebra, cohomology
        from zinbiel5.exactmath import ELIMINATIONS

        # builder -> {(id(A), check): [A, builds]}; A is kept, so no id is reused
        calls = {}
        current = [None]  # the suite check that is running

        def counting(name, build):
            def wrapped(A):
                calls.setdefault(name, {}).setdefault((id(A), current[0]), [A, 0])[1] += 1
                return build(A)
            return wrapped

        def in_check(name, method):
            def wrapped(self):
                current[0] = name
                return method(self)
            return wrapped

        def per_instance(name):
            out = {}
            for (key, _), (A, builds) in calls[name].items():
                out.setdefault(key, [A, 0])[1] += builds
            return out.values()

        pairs = []  # (A, memo keys before, ELIMINATIONS delta)

        def measured_pair(A):
            # the invariants the fingerprint reads besides Der, Z^2 and B^2
            algebra.power_filtration(A)
            algebra.annihilator(A)
            keys, before = set(A.__dict__), dict(ELIMINATIONS)
            out = algebra._fingerprint_pair(A)
            pairs.append((A, keys, {k: n - before[k] for k, n in ELIMINATIONS.items()}))
            return out

        for name in ("_derivation_rows", "_annihilator", "_power_filtration"):
            monkeypatch.setattr(algebra, name, counting(name, getattr(algebra, name)))
        monkeypatch.setattr(cohomology, "_cocycle_rows",
                            counting("_cocycle_rows", cohomology._cocycle_rows))
        for name in cat.CHECK_ORDER:
            method = getattr(cat._Suite, f"check_{name}")
            monkeypatch.setattr(cat._Suite, f"check_{name}", in_check(name, method))
        monkeypatch.setattr(cat, "_fingerprint_pair", measured_pair)
        assert cat.verify_all().ok
        assert all(len(per_instance(name)) >= 100 for name in calls) and len(calls) == 4
        for name in ("_annihilator", "_power_filtration"):
            assert all(builds == 1 for _, builds in per_instance(name)), name
            # one instance per (id, binding) for the run; only the checked
            # central extensions are built afresh, each its own algebra
            labels = [A.label for A, _ in per_instance(name) if not A.label.endswith("_ext")]
            assert len(labels) == len(set(labels)), name
        # Z^2 once per instance for the run: the H^2 basis and the exact and
        # mod-P nullities share one build, and is_cocycle builds no rows
        assert all(builds == 1 for _, builds in per_instance("_cocycle_rows"))
        # Der once per instance in each check that needs it: the necessary
        # and orbits checks take the exact nullity of some fingerprinted
        # instances, and the fingerprints check builds Der once for the rest
        assert all(builds == 1 for _, builds in calls["_derivation_rows"].values())
        # and for the whole run at most once per Der nullity the instance
        # keeps: exact, and mod P as well for a fingerprinted one
        for A, builds in per_instance("_derivation_rows"):
            assert builds <= sum(key.startswith("_der_") for key in A.__dict__), A
        # a fingerprinted instance builds Der and Z^2 in the fingerprints
        # check, and runs one integer and one modular reduction per system
        assert len(pairs) >= 89
        for A, keys, delta in pairs:
            for name in ("_derivation_rows", "_cocycle_rows"):
                assert calls[name][id(A), "fingerprints"][1] == 1, (A, name)
            kept = {"_der_reduced", "_der_modular", "_z2_reduced", "_z2_modular", "_b2_reduced"}
            assert kept <= set(A.__dict__), A
            assert delta["integer"] == len({"_der_reduced", "_z2_reduced", "_b2_reduced"} - keys), A
            assert (delta["modular"], delta["gaussian"]) == (2, 0), A


class TestMutationSeam:
    """A deliberately corrupted tensor must be caught and located."""

    def _mutant(self, eid, i, j, k, value):
        A = cat.instantiate(eid)
        entries = [e for e in A.entries() if e[:3] != (i, j, k)]
        entries.append((i, j, k, grat(value)))
        return algebra_from_entries(A.dim, entries, label=A.label)

    def test_extension_check_pinpoints_coordinates(self):
        mutant = self._mutant("Z_27", 2, 2, 5, "7")
        rep = cat.verify_all(
            cat.SuiteConfig(checks=("extensions",), overrides=(("Z_27", mutant),))
        )
        assert not rep.ok
        blob = " ".join(rep.checks[0].details)
        assert "Z_27" in blob and "c[2][2]^5" in blob

    def test_identity_check_catches_non_zinbiel_tensor(self):
        # e1 e1 = e1 breaks the defining identity: (e1e1)e1 != e1(2 e1e1)
        mutant = self._mutant("Z_01", 1, 1, 1, "1")
        rep = cat.verify_all(
            cat.SuiteConfig(checks=("identity",), overrides=(("Z_01", mutant),))
        )
        assert not rep.ok
        assert "Z_01" in " ".join(rep.checks[0].details)

    def test_necessary_check_reads_an_overridden_certificate_target(self):
        # e1 e1 = e2 puts e2 into A^2: dim A^2 grows from 3 to 4, above the
        # source Z_27's 3
        mutant = self._mutant("Z_28", 1, 1, 2, "1")
        rep = cat.verify_all(
            cat.SuiteConfig(checks=("necessary",), overrides=(("Z_28", mutant),))
        )
        assert not rep.ok
        assert "Z_27 -> Z_28: power dims do not dominate" in rep.checks[0].details

    def test_square_check_catches_rank_drift(self):
        mutant = algebra_from_entries(5, [(1, 1, 5, 1)], label="Z_40")
        rep = cat.verify_all(
            cat.SuiteConfig(checks=("squares",), overrides=(("Z_40", mutant),))
        )
        assert not rep.ok
        assert "dim A^2 = 1" in " ".join(rep.checks[0].details)


# ---------------------------------------------------------------------------
# property: random members of the families stay in the axiom class
# ---------------------------------------------------------------------------


rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
).filter(lambda q: q != -1)


@given(q=rationals)
def test_family_members_satisfy_defining_identity(q):
    for eid in ("Z_02", "Z_30"):
        A = cat.instantiate(eid, {"a": q})
        assert check_identity(A, "zinbiel").ok


@given(q1=rationals, q2=rationals)
def test_two_parameter_members_satisfy_defining_identity(q1, q2):
    A = cat.get("V_4+1", {"lam": q1, "mu": q2})
    assert check_identity(A, "zinbiel").ok


def test_suite_runs_without_numpy():
    """The mod-p and exact paths of the suite never import numpy."""
    script = (
        "import sys\n"
        "from zinbiel5.catalog import SuiteConfig, verify_all\n"
        "assert verify_all(SuiteConfig(checks=('fingerprints', 'necessary'))).ok\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
