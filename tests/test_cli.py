"""Command-line interface: outputs, exit codes, determinism."""

import json
import logging
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

from zinbiel5 import cli
from zinbiel5.catalog import MAX_DIM, certificates, extension_records, family_samples, rset_rows
from zinbiel5.cli import _form_text, _vector_text, main
from zinbiel5.degeneration import MAX_PRECISION_BITS, MAX_TRUNCATION, MIN_PRECISION_BITS
from zinbiel5.exactmath import ExactMatrix, GaussianRational
from zinbiel5.series import MAX_DEGREE, MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# single-shot computations
# ---------------------------------------------------------------------------


def test_h2_table_example(capsys):
    code, out, _ = run(capsys, "h2", "--algebra", "N_01")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim H2 = 9"
    assert sum(1 for ln in lines if ln.startswith("  [")) == 9


def test_identity_on_zero_algebra(capsys):
    code, out, _ = run(capsys, "identity", "--algebra", "zero^5", "--id", "zinbiel")
    assert code == 0
    assert "pass" in out


def test_identity_failure_produces_witness_and_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "entries": [[1, 1, 1, "1"]]}))
    code, out, _ = run(capsys, "identity", "--file", str(bad))
    assert code == 1
    assert "fail" in out and "witness" in out


# Z_05 moved by the Q(i) matrix of the CI workflow, and the associative
# identity's first violation on it, as printed before identities were
# evaluated over Z[i].
QI_MATRIX = [["1+i", "0", "0", "0", "0"], ["0", "1", "i", "0", "0"], ["0", "0", "1", "0", "0"],
             ["0", "0", "0", "1", "0"], ["0", "0", "0", "0", "1"]]
MOVED_Z05 = {"dim": 5, "entries": [
    [1, 1, 3, "2*i"], [1, 2, 5, "-1+i"], [1, 3, 5, "1+i"], [2, 1, 5, "-2+2*i"],
    [2, 2, 4, "1"], [2, 4, 5, "1"], [3, 1, 5, "2+2*i"], [4, 2, 5, "2"]]}
WITNESS_JSON = (
    '{"algebra":"moved.json","command":"identity","kind":"associative","verdict":"fail",'
    '"witness":{"indices":[1,1,1],"lhs":["0","0","0","0","-4+4*i"],'
    '"rhs":["0","0","0","0","-2+2*i"]}}\n'
)
WITNESS_TEXT = (
    "identity associative on moved.json: fail\n"
    "witness (e1, e1, e1): lhs (-4+4*i)*e5 != rhs (-2+2*i)*e5\n"
)


def test_failing_witness_output_is_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("qi.json").write_text(json.dumps(QI_MATRIX))
    code, out, _ = run(capsys, "act", "--algebra", "Z_05", "--matrix", "qi.json",
                       "--format", "json")
    assert code == 0
    moved = json.loads(out)["result"]
    assert moved == MOVED_Z05
    Path("moved.json").write_text(json.dumps(moved))
    assert run(capsys, "identity", "--file", "moved.json")[:2] == (
        0, "identity zinbiel on moved.json: pass\n")
    argv = ("identity", "--file", "moved.json", "--id", "associative")
    assert run(capsys, *argv, "--format", "json")[:2] == (1, WITNESS_JSON)
    assert run(capsys, *argv)[:2] == (1, WITNESS_TEXT)


def test_ann_lists_basis(capsys):
    code, out, _ = run(capsys, "ann", "--algebra", "Z_25")
    assert code == 0
    assert out.splitlines()[0] == "dim Ann = 2"
    assert "e3+e4" in out and "e5" in out


def test_powers_on_symmetric_example(capsys):
    code, out, _ = run(capsys, "powers", "--algebra", "S_6")
    assert code == 0
    assert "power dims: 6 4 1 0" in out
    assert "nilpotent of index 3" in out


def test_der_orbit(capsys):
    code, out, _ = run(capsys, "der", "--algebra", "Z_22")
    assert code == 0
    assert "dim Der = 3" in out and "orbit dim = 22" in out


def test_fingerprint_json_fields(capsys):
    code, out, _ = run(
        capsys, "fingerprint", "--algebra", "Z_02^3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "Z_02^{a=3}"
    assert payload["verdict"] == "pass"
    assert set(payload) >= {"power_dims", "ann_dim", "der_dim", "z2_dim", "h2_dim"}


# ---------------------------------------------------------------------------
# extensions and basis changes
# ---------------------------------------------------------------------------


def test_extend_catalog_child(capsys):
    code, out, _ = run(capsys, "extend", "--child", "Z_24")
    assert code == 0
    assert "matches catalog constants: True" in out


def test_extend_family_child_requires_binding(capsys):
    code, _, err = run(capsys, "extend", "--child", "Z_30")
    assert code == 2
    assert "bind" in err


def test_extend_family_child_at_value(capsys):
    code, out, _ = run(capsys, "extend", "--child", "Z_30^2")
    assert code == 0
    assert "matches catalog constants: True" in out


# children whose annihilator meets the cocycle's (flagged in the tables)
FLAGGED_CHILDREN = ("Z_25", "Z_26", "Z_27", "Z_28", "Z_29")

CHILD_REFS = [
    (rec.child, rec.child + ("^" + ",".join(f"{k}={v}" for k, v in b.items()) if b else ""))
    for rec in extension_records()
    for b in family_samples(rec.child)
]


@pytest.mark.parametrize("child, ref", CHILD_REFS, ids=[ref for _, ref in CHILD_REFS])
def test_extend_every_catalog_child(capsys, child, ref):
    code, out, _ = run(capsys, "extend", "--child", ref, "--format", "json")
    payload = json.loads(out)
    assert payload["is_cocycle"] is True and payload["matches_catalog"] is True
    assert code == (1 if child in FLAGGED_CHILDREN else 0)


def test_extend_explicit_cocycle(capsys, tmp_path):
    coc = tmp_path / "cocycle.json"
    coc.write_text(json.dumps({"components": [[[1, 2, "1"], [2, 1, "2"]]]}))
    code, out, _ = run(capsys, "extend", "--algebra", "zero^2", "--file", str(coc))
    assert code == 0
    assert "e1 e2 = e3" in out and "e2 e1 = 2*e3" in out


def test_act_permutation(capsys, tmp_path):
    mat = tmp_path / "p.json"
    mat.write_text(
        json.dumps(
            [
                ["0", "1", "0", "0", "0"],
                ["1", "0", "0", "0", "0"],
                ["0", "0", "1", "0", "0"],
                ["0", "0", "0", "1", "0"],
                ["0", "0", "0", "0", "1"],
            ]
        )
    )
    code, out, _ = run(capsys, "act", "--algebra", "Z_01", "--matrix", str(mat))
    assert code == 0
    assert "det" in out


def test_act_rejects_singular_matrix(capsys, tmp_path):
    mat = tmp_path / "s.json"
    mat.write_text(json.dumps([["1", "1"], ["1", "1"]]))
    code, _, err = run(capsys, "act", "--algebra", "zero^2", "--matrix", str(mat))
    assert code == 2
    assert "singular" in err


QI_MATRIX = [
    ["1+i", "0", "0", "0", "0"],
    ["0", "1", "i", "0", "0"],
    ["0", "0", "1", "0", "0"],
    ["0", "0", "0", "1", "0"],
    ["0", "0", "0", "0", "1"],
]


def test_act_renders_complex_coefficients_in_parentheses(capsys, tmp_path):
    mat = tmp_path / "qi.json"
    mat.write_text(json.dumps(QI_MATRIX))
    code, out, _ = run(capsys, "act", "--algebra", "Z_05", "--matrix", str(mat))
    assert code == 0
    assert "e1 e3 = (1+i)*e5" in out.splitlines()
    assert "e1 e1 = 2*i*e3" in out.splitlines()


def test_text_rendering_parenthesizes_only_complex_coefficients():
    g = GaussianRational
    vec = (g(1), g(-1), g(-1, -1), g(0, -2), g(1, 2), g(0), g(-3))
    assert _vector_text(vec) == "e1-e2+(-1-i)*e3-2*i*e4+(1+2*i)*e5-3*e7"
    form = ExactMatrix([[g(0, 1), g(-1, 1)], [g(0), g(1, 0)]])
    assert _form_text(form) == "i*D11+(-1+i)*D12+D22"
    assert _vector_text((g(0), g(0))) == "0"


def test_extend_cocycle_json_parenthesizes_complex_coefficients(capsys, tmp_path):
    coc = tmp_path / "cocycle.json"
    coc.write_text(json.dumps({"components": [[[1, 2, "1/2+i"], [2, 1, "-i"]]]}))
    code, out, _ = run(
        capsys, "extend", "--algebra", "zero^2", "--file", str(coc), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["cocycle"] == ["(1/2+i)*D12-i*D21"]


# ---------------------------------------------------------------------------
# degeneration certificates
# ---------------------------------------------------------------------------


CERT = {
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


def test_degenerate_cert_file_verifies_exactly(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(CERT))
    code, out, _ = run(capsys, "degenerate", "--cert", str(path))
    assert code == 0
    assert "verified (exact)" in out


def test_degenerate_numeric_mode(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(CERT))
    code, out, _ = run(
        capsys, "degenerate", "--cert", str(path), "--mode", "numeric",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "verified"
    assert payload["mode"] == "numeric"


def test_degenerate_catalog_label(capsys):
    code, out, _ = run(capsys, "degenerate", "--label", "Z_14 -> Z_10")
    assert code == 0
    assert "verified" in out


def test_degenerate_wrong_basis_fails_with_exit_1(capsys, tmp_path):
    path = tmp_path / "cert.json"
    wrong = dict(CERT, basis={"diag": ["t", "t", "t^2", "t^2", "t^3"]})
    path.write_text(json.dumps(wrong))
    code, out, _ = run(capsys, "degenerate", "--cert", str(path))
    assert code == 1
    assert "failed" in out and "mismatch" in out


def test_degenerate_rank_deficient_basis(capsys, tmp_path):
    """A repeated basis row leaves a column with no pivot at some rung.

    The numeric tier reports the sample inconclusive; the exact tier finds
    the basis singular.
    """
    path = tmp_path / "cert.json"
    rows = [{"2": "1"}, {"1": "t", "3": "1"}, {"4": "t", "5": "-1"}, {"4": "t", "5": "-1"},
            {"5": "-t"}]
    path.write_text(json.dumps(dict(CERT, basis=rows)))
    code, out, err = run(capsys, "degenerate", "--cert", str(path), "--mode", "numeric",
                         "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert (payload["verdict"], payload["mode"]) == ("inconclusive", "numeric")
    code, out, _ = run(capsys, "degenerate", "--cert", str(path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["verdict"], payload["mode"]) == ("failed", "exact")
    assert payload["samples"][0]["failures"] == [["basis", "singular"]]


def _bundled_row(source, target):
    from zinbiel5.catalog import _load

    raw = next(
        r for r in _load("degenerations")["certificates"]
        if (r["source"], r["target"]) == (source, target)
    )
    return json.loads(json.dumps(raw))


def _z04_z01_row():
    return _bundled_row("Z_04", "Z_01")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("target_pad", 0.5, "target_pad must be an integer in 0..4"),
        ("target_pad", True, "target_pad must be an integer in 0..4"),
        ("target_pad", -1, "target_pad must be an integer in 0..4"),
        ("target_pad", 5, "target_pad must be an integer in 0..4"),
        ("index", 1.5, "invalid scalar 1.5"),
        ("index", True, "invalid scalar true"),
        ("row 5", {"5": 1.0}, "invalid scalar 1.0"),
        ("row 5", ["0", "0", "0", "0", None], "invalid scalar null"),
        ("basis", {"diag": ["1", "1", "1", "1", 1.0]}, "invalid scalar 1.0"),
        ("row 5", {"0": "1"}, "basis column '0' outside 1..5"),
        ("row 5", {"9": "1"}, "basis column '9' outside 1..5"),
        ("source", [1], "source must be an id string"),
        ("basis", 5, "basis must be a list of rows"),
        ("samples", [1], "samples must be a list of objects"),
        (None, [1], "expected a certificate object"),
        ("row 5", ["0", "0", "0", "0", "1/0"], "division by zero in '1/0'"),
        ("row 5", ["0", "0", "0", "0", "t^(1/0)"], "division by zero in 't^(1/0)'"),
    ],
)
def test_malformed_certificate_file_exits_2(capsys, tmp_path, key, value, message):
    cert = _z04_z01_row()
    if key is None:
        cert = value
    elif key == "row 5":
        cert["basis"][4] = value
    else:
        cert[key] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "degenerate", "--cert", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"samples": [{"b": True}]}, "invalid scalar true"),
        ({"samples": [{"b": 2.0}]}, "invalid scalar 2.0"),
        ({"samples": [{"b": None}]}, "invalid scalar null"),
        ({"samples": [{"zz": "2"}]}, "Z_14 -> Z_10: unbound parameter 'b'"),
        ({"samples": []}, "Z_14 -> Z_10: unbound parameter 'b'"),
        ({"target_param": 2.0}, "invalid scalar 2.0"),
        ({"target": {"id": "Z_10", "param": {"b": False}}}, "invalid scalar false"),
        ({"label": ["x"]}, "label must be a string"),
        ({"target_param": "2", "samples": [{"c": "2"}]}, "Z_14 -> Z_10: unbound parameter 'b'"),
    ],
)
def test_certificate_samples_and_params_are_exact_and_bound(capsys, tmp_path, patch, message):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(_bundled_row("Z_14", "Z_10"), **patch)))
    for mode in ("auto", "numeric"):
        code, out, err = run(capsys, "degenerate", "--cert", str(path), "--mode", mode)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_certificate_file_takes_integer_scalars(capsys, tmp_path):
    cert = _z04_z01_row()
    cert["basis"][4] = {"5": 1}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "degenerate", "--cert", str(path))
    assert code == 0 and "verified (exact)" in out


def test_degenerate_timings_go_to_stderr_only(capsys):
    """--timings prints each sample's DEBUG record, then one total line
    covering them, on stderr only, and detaches its handler after the run."""
    logger = logging.getLogger("zinbiel5.degeneration")
    level = logger.level
    label = "Z_22 -> Z_16"
    argv = ["degenerate", "--label", label, "--mode", "numeric"]
    plain = run(capsys, *argv)
    timed = run(capsys, *argv, "--timings")
    assert plain[:2] == timed[:2] and plain[0] == 0
    assert plain[2] == ""
    assert logger.handlers == [] and logger.level == level
    lines = timed[2].splitlines()
    fields = [_SAMPLE_RECORD.fullmatch(ln) for ln in lines[:-1]]
    assert all(fields), lines
    cert = next(c for c in certificates() if c.label == label)
    assert [(f["label"], f["n"], f["tier"]) for f in fields] == [
        (label, str(n), "numeric") for n in range(1, len(cert.samples or ({},)) + 1)]
    assert lines[-1].split()[0] == "total" and lines[-1].endswith(" s")
    sample_ms = sum(float(ln.split()[-2]) for ln in lines[:-1])
    assert float(lines[-1].split()[-2]) >= sample_ms / 1000 - 0.001


def test_degenerate_without_a_selection_verifies_every_certificate(capsys, monkeypatch):
    wanted = ("Z_02 -> Z_03", "Z_02 -> Z_04", "Z_16 -> Z_15")
    subset = tuple(c for c in certificates() if c.label in wanted)
    labels = [c.label for c in subset]
    monkeypatch.setattr(cli, "certificates", lambda: subset)
    numeric = ("--mode", "numeric")
    singles = [run(capsys, "degenerate", "--label", label, *numeric) for label in labels]
    code, out, err = run(capsys, "degenerate", *numeric)
    assert (code, err) == (0, "")
    summary = "3 certificates: verified=3 | tiers: numeric=3"
    assert out == "".join(o for _, o, _ in singles) + f"\n{summary}\n"
    code, out, _ = run(capsys, "degenerate", *numeric, "--format", "json")
    payload = json.loads(out)
    assert (code, payload["command"], payload["verdict"]) == (0, "degenerate", "verified")
    assert payload["certificates"] == [
        json.loads(run(capsys, "degenerate", "--label", label, *numeric, "--format", "json")[1])
        for label in labels
    ]
    # at 53 bits Z_02 -> Z_04 is inconclusive, so the whole run is
    code, out, _ = run(capsys, "degenerate", *numeric, "--precision", "53")
    assert code == 1
    assert out.endswith("\n3 certificates: inconclusive=1 verified=2 | tiers: numeric=3\n")
    code, out, _ = run(capsys, "degenerate", *numeric, "--precision", "53", "--format", "json")
    assert (code, json.loads(out)["verdict"]) == (1, "inconclusive")


# ---------------------------------------------------------------------------
# constraint sets
# ---------------------------------------------------------------------------


def test_rset_membership_and_separation(capsys, tmp_path):
    rset = tmp_path / "rset.json"
    rset.write_text(json.dumps({"containments": [[1, 1, 3], [3, 1, 6]]}))
    code, out, _ = run(capsys, "rset", "--algebra", "Z_27", "--file", str(rset))
    assert code == 0 and "inside" in out
    code, out, _ = run(capsys, "rset", "--algebra", "Z_34", "--file", str(rset))
    assert code == 1 and "outside" in out and "violated" in out


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"containments": [[1, 1, 3.5]]}, "containments must be [p, q, r] triples"),
        ({"containments": [[1, 1, 9]]}, "containments must be [p, q, r] triples"),
        ({"containments": [[0, 1, 2]]}, "containments must be [p, q, r] triples"),
        ({"containments": [[True, 1, 2]]}, "containments must be [p, q, r] triples"),
        ({"containments": [[1, 1]]}, "containments must be [p, q, r] triples"),
        ({"relabel": [1, 2, 3, 4, 9]}, "relabel must be a permutation of 1..5"),
        ({"relabel": [1.5, 2, 3, 4, 5]}, "relabel must be a permutation of 1..5"),
        ({"relabel": [1, 1, 3, 4, 5]}, "relabel must be a permutation of 1..5"),
        ({"equations": "c113"}, "equations must be a list of strings"),
        ({"equations": ["c999"]}, "cannot evaluate an equation"),
        ({"equations": ["c111/0"]}, "division by zero in '(c111/0)'"),
        ({"equations": ["1/(c111)"]}, "division by zero in '(1/c111)'"),
        ({"equations": ["1" + "0" * 400 + "^(1/3) - c111"]}, "no exact 1/3 power of coefficient"),
    ],
)
def test_malformed_rset_file_exits_2(capsys, tmp_path, raw, message):
    rset = tmp_path / "rset.json"
    rset.write_text(json.dumps(raw))
    code, out, err = run(capsys, "rset", "--algebra", "Z_27", "--file", str(rset))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_rset_file_with_relabel_and_zero_term(capsys, tmp_path):
    # A_6 = 0 in dimension 5, so [3, 1, 6] says A_3 A_1 = 0
    rset = tmp_path / "rset.json"
    rset.write_text(json.dumps({"containments": [[3, 1, 6]], "relabel": [1, 2, 3, 4, 5]}))
    code, out, _ = run(capsys, "rset", "--algebra", "Z_27", "--file", str(rset))
    assert code == 0 and "inside" in out


def test_rset_catalog_row(capsys):
    code, out, _ = run(capsys, "rset", "--row", "Z_14")
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("source", [row.source for row in rset_rows()])
def test_rset_every_catalog_row(capsys, source):
    code, out, _ = run(capsys, "rset", "--row", source)
    assert code == 0, out


# powers whose value would take seconds to minutes to compute
POWER_PROBES = [
    ("degenerate", "(1+t)^5000"),
    ("degenerate", "((1+t)^64)^64"),
    ("rset", "2^(2^30)"),
    ("rset", "(((10^64)^64)^64)^64"),
]


@pytest.mark.parametrize("command, expr", POWER_PROBES)
def test_power_beyond_bound_exits_2_in_under_2_s(capsys, tmp_path, command, expr):
    path = tmp_path / "input.json"
    if command == "degenerate":
        cert = _z04_z01_row()
        cert["basis"][4] = ["0", "0", "0", "0", expr]
        path.write_text(json.dumps(cert))
        argv = ("degenerate", "--cert", str(path))
    else:
        path.write_text(json.dumps({"equations": [expr]}))
        argv = ("rset", "--algebra", "Z_27", "--file", str(path))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err == f"error: power too large in {expr!r}: degree above {MAX_DEGREE}\n"


EXPRESSION_PROBES = [
    ("(" * 3000 + "1" + ")" * 3000, "too long"),
    ("+".join(["1"] * 200_000), "too long"),
    ("(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1), "nested too deeply"),
]


@pytest.mark.parametrize(
    "expr, what", EXPRESSION_PROBES, ids=["3000-parentheses", "200000-terms", "nesting"]
)
def test_oversized_expression_exits_2_with_one_line(capsys, tmp_path, expr, what):
    path = tmp_path / "rset.json"
    path.write_text(json.dumps({"equations": [expr]}))
    code, out, err = run(capsys, "rset", "--algebra", "Z_27", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: expression {what} in {expr[:40]!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


# ---------------------------------------------------------------------------
# catalog subcommands
# ---------------------------------------------------------------------------


def test_catalog_list_filters(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--tags", "theoremA,family")
    assert code == 0
    assert out.split() == ["Z_02", "Z_10", "Z_14", "Z_30", "[N1C]^2_02", "[N1C]^2_09"]


def test_catalog_get_instantiates_parameters(capsys):
    code, out, _ = run(capsys, "catalog", "get", "--algebra", "Z_02^3")
    assert code == 0
    assert "Z_02^{a=3}" in out


def test_catalog_verify_all_subset(capsys):
    code, out, _ = run(
        capsys, "catalog", "verify-all", "--checks", "squares,identity"
    )
    assert code == 0
    assert "[PASS] identity" in out and "[PASS] squares" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_all_timings_go_to_stderr_only(capsys, fmt):
    argv = ("catalog", "verify-all", "--checks", "squares,identity", "--format", fmt)
    plain = run(capsys, *argv)
    timed = run(capsys, *argv, "--timings")
    assert plain[:2] == timed[:2] and plain[0] == 0
    assert plain[2] == ""
    lines = timed[2].splitlines()
    assert [ln.split()[0] for ln in lines] == ["identity", "squares", "total"]
    assert all(ln.endswith(" s") for ln in lines)
    seconds = [float(ln.split()[-2]) for ln in lines]
    assert seconds[-1] == pytest.approx(sum(seconds[:-1]), abs=0.002)


def test_verify_all_timings_count_eliminations(capsys):
    """--timings adds the systems per elimination ring, and the rows fed to
    the eliminator, to stderr only; every suite system is real, so none is
    reduced over Z[i]."""
    argv = ("catalog", "verify-all", "--checks", "h2,fingerprints", "--format", "json")
    plain = run(capsys, *argv)
    timed = run(capsys, *argv, "--timings")
    assert plain[:2] == timed[:2] and plain[0] == 0
    lines = timed[2].splitlines()
    assert [ln.split()[0] for ln in lines] == ["h2", "fingerprints", "total"]
    counts = dict(field.split("=") for field in lines[-1].split()[1:-2])
    assert counts["gaussian"] == "0"
    assert int(counts["integer"]) > 0 and int(counts["modular"]) > 0
    assert int(counts["rows"]) > 0


_SAMPLE_RECORD = re.compile(
    r"(?P<label>.+): sample (?P<n>\d+), tier (?P<tier>exact|numeric), "
    r"truncation (?P<trunc>\d+|n/a), det valuation (?P<det>-?\d+(/\d+)?|None), "
    r"\d+\.\d ms"
)


def test_degeneration_log_has_one_debug_record_per_sample(capsys, caplog):
    """The zinbiel5.degeneration logger gets one DEBUG record per certificate
    sample, installs no handler, and leaves the report unchanged."""
    logger = logging.getLogger("zinbiel5.degeneration")
    assert logger.handlers == []
    argv = ("catalog", "verify-all", "--checks", "degenerations", "--format", "json")
    plain = run(capsys, *argv)
    with caplog.at_level(logging.DEBUG, logger="zinbiel5.degeneration"):
        logged = run(capsys, *argv)
    assert logged == plain and plain[0] == 0
    records = [r for r in caplog.records if r.name == "zinbiel5.degeneration"]
    assert {r.levelno for r in records} == {logging.DEBUG}
    fields = [_SAMPLE_RECORD.fullmatch(r.getMessage()) for r in records]
    assert all(fields), [r.getMessage() for r in records]
    expected = [(c.label, str(n)) for c in certificates()
                for n in range(1, len(c.samples or ({},)) + 1)]
    assert [(f["label"], f["n"]) for f in fields] == expected
    # every bundled certificate verifies on the exact tier at the default truncation
    assert {(f["tier"], f["trunc"]) for f in fields} == {("exact", "16")}
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="zinbiel5.degeneration"):
        run(capsys, "degenerate", "--label", "Z_22 -> Z_07", "--truncation", "1")
        run(capsys, "degenerate", "--label", "Z_22 -> Z_07", "--mode", "numeric")
    fields = [_SAMPLE_RECORD.fullmatch(r.getMessage()) for r in caplog.records]
    assert [(f["tier"], f["trunc"], f["det"]) for f in fields] == [
        ("exact", "2", "4"), ("numeric", "n/a", "4")]


def test_verify_all_timings_print_each_certificate_sample(capsys):
    """--timings prints each sample's DEBUG record before the per-check
    lines, on stderr only, and detaches its handler after the run."""
    logger = logging.getLogger("zinbiel5.degeneration")
    level = logger.level
    argv = ("catalog", "verify-all", "--checks", "degenerations")
    plain = run(capsys, *argv)
    timed = run(capsys, *argv, "--timings")
    assert plain[:2] == timed[:2] and plain[0] == 0
    assert logger.handlers == [] and logger.level == level
    lines = timed[2].splitlines()
    assert [ln.split()[0] for ln in lines[-2:]] == ["degenerations", "total"]
    fields = [_SAMPLE_RECORD.fullmatch(ln) for ln in lines[:-2]]
    assert all(fields), lines
    expected = [(c.label, str(n)) for c in certificates()
                for n in range(1, len(c.samples or ({},)) + 1)]
    assert [(f["label"], f["n"]) for f in fields] == expected
    assert {(f["tier"], f["trunc"]) for f in fields} == {("exact", "16")}


# ---------------------------------------------------------------------------
# mpmath is imported by the numeric tier only
# ---------------------------------------------------------------------------


def _fresh_python(script: str) -> str:
    """Run script in a fresh interpreter, as this one has mpmath loaded;
    return its stdout."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_EXACT_RUNS = {
    "cli-and-tables": (
        "import zinbiel5.cli\n"
        "from zinbiel5 import catalog\n"
        "for load in (catalog.all_entries, catalog.extension_records, catalog.h2_tables,\n"
        "             catalog.certificates, catalog.rset_rows, catalog.expected):\n"
        "    load()\n"
    ),
    "verify-all": (
        "from zinbiel5.catalog import SuiteConfig, verify_all\n"
        "report = verify_all(SuiteConfig())\n"
        "assert report.ok and len(report.checks) == 10\n"
    ),
    "certificates-auto-and-exact": (
        "from zinbiel5.catalog import certificates\n"
        "from zinbiel5.degeneration import verify_certificate\n"
        "for mode in ('auto', 'exact'):\n"
        "    reports = [verify_certificate(c, mode=mode) for c in certificates()]\n"
        "    assert {(r.verdict, r.mode) for r in reports} == {('verified', 'exact')}\n"
    ),
    "qi-moved-fingerprint-and-h2": (
        "from zinbiel5.algebra import change_basis, fingerprint\n"
        "from zinbiel5.catalog import instantiate\n"
        "from zinbiel5.cohomology import h2\n"
        "from zinbiel5.exactmath import ZERO, ExactMatrix, grat\n"
        "A = instantiate('Z_05')\n"
        "B = change_basis(A, ExactMatrix([[grat('1+i') if i == j else grat('i')\n"
        "    if j == i + 1 else ZERO for j in range(5)] for i in range(5)]))\n"
        "assert fingerprint(B) == fingerprint(B, method='modular') == fingerprint(A)\n"
        "assert h2(B).h2_dim == h2(A).h2_dim\n"
    ),
}


@pytest.mark.parametrize("script", _EXACT_RUNS.values(), ids=list(_EXACT_RUNS))
def test_exact_paths_never_import_mpmath(script):
    _fresh_python(script + "import sys\nassert 'mpmath' not in sys.modules\n")


# (imports, the first numeric call) per numeric entry point
_NUMERIC_CALLS = {
    "verify_certificate": (
        "from zinbiel5.catalog import certificates\n"
        "from zinbiel5.degeneration import verify_certificate\n"
        "cert = next(c for c in certificates() if c.label == 'Z_27 -> Z_28')\n",
        "verify_certificate(cert, mode='numeric')",
    ),
    "evaluate_numeric": (
        "from zinbiel5.series import evaluate_numeric\n",
        "evaluate_numeric('sqrt(4*t^2-5)/(1+i*t)', '0.01')",
    ),
    "Radical.numeric": (
        "from zinbiel5.exactmath import grat\n"
        "from zinbiel5.series import sqrt_gaussian\n",
        "(sqrt_gaussian(grat(2)) + sqrt_gaussian(grat(-3))).numeric()",
    ),
    "PuiseuxSeries.numeric_at": (
        "from zinbiel5.series import expand_series\n",
        "expand_series('sqrt(1+t)/(1-t)').numeric_at('1e-3')",
    ),
}


@pytest.mark.parametrize("setup,call", _NUMERIC_CALLS.values(), ids=list(_NUMERIC_CALLS))
def test_numeric_entry_point_imports_mpmath_on_first_call(setup, call):
    """Each numeric entry point works as the first numeric call of a fresh
    interpreter, and returns there what it returns here."""
    fresh = _fresh_python(
        f"import sys\n{setup}"
        "assert 'mpmath' not in sys.modules\n"
        f"value = {call}\n"
        "assert 'mpmath' in sys.modules\n"
        "print(repr(value))\n"
    )
    namespace = {}
    exec(setup, namespace)
    with mpmath.workprec(53):  # mpmath's default precision
        here = eval(call, namespace)
    assert fresh == f"{here!r}\n"


# ---------------------------------------------------------------------------
# contracts: determinism and exit codes
# ---------------------------------------------------------------------------


def test_json_output_byte_identical(capsys):
    _, first, _ = run(capsys, "h2", "--algebra", "N_08^2", "--format", "json")
    _, second, _ = run(capsys, "h2", "--algebra", "N_08^2", "--format", "json")
    assert first == second
    _, tf, _ = run(
        capsys, "catalog", "verify-all", "--checks", "squares", "--format", "json"
    )
    _, ts, _ = run(
        capsys, "catalog", "verify-all", "--checks", "squares", "--format", "json"
    )
    assert tf == ts


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "ann", "--algebra", "Z_99")[0] == 2
    assert run(capsys, "ann")[0] == 2
    assert run(capsys, "degenerate", "--label", "nope -> nope")[0] == 2


@pytest.mark.parametrize("argv", [
    ("catalog", "list", "--checks", "nope"),
    ("catalog", "list", "--algebra", "Z_99"),
    ("catalog", "get", "--algebra", "Z_01", "--tags", "theoremA"),
    ("catalog", "get", "--algebra", "Z_01", "--timings"),
    ("catalog", "verify-all", "--checks", "squares", "--algebra", "Z_99"),
    ("catalog", "verify-all", "--checks", "squares", "--tags", "nope"),
    ("catalog", "get"),
    ("catalog",),
], ids="-".join)
def test_catalog_flag_of_another_action_is_a_one_line_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: zinbiel5") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ("catalog", "--format", "json", "list", "--tags", "theoremA"),
    ("catalog", "list", "--tags", "theoremA", "--format", "json"),
    ("catalog", "--format", "json", "get", "--algebra", "Z_02^3"),
    ("catalog", "--format", "text", "get", "--algebra", "Z_02^3", "--format", "json"),
])
def test_catalog_format_goes_before_or_after_the_action(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["verdict"] == "pass"


# Two selections of what to check: each file below is valid on its own, so
# the command must refuse the pair rather than read one and drop the other.
CONFLICTS = {
    "degenerate": (["degenerate", "--label", "Z_27 -> Z_28", "--cert"], CERT),
    "identity": (["identity", "--algebra", "Z_01", "--file"],
                 {"dim": 2, "entries": [[1, 1, 2, "1"]]}),
    "extend": (["extend", "--child", "Z_24", "--algebra", "N_01", "--file"],
               {"components": [[[1, 2, "1"]]]}),
    "rset": (["rset", "--row", "Z_14", "--algebra", "Z_27", "--file"],
             {"equations": ["c111"]}),
}


@pytest.mark.parametrize("command", CONFLICTS)
def test_conflicting_selections_exit_2(capsys, tmp_path, command):
    argv, content = CONFLICTS[command]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("not both\n")
    assert err.count("\n") == 1


def test_data_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run(capsys, "degenerate", "--cert", str(bad))[0] == 2
    missing = tmp_path / "missing.json"
    assert run(capsys, "degenerate", "--cert", str(missing))[0] == 2


@pytest.mark.parametrize("value", ["1/0", "1/2*i*i", "one", 0.5, None])
def test_malformed_scalar_in_file_exits_2(capsys, tmp_path, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "entries": [[1, 1, 2, value]]}))
    code, out, err = run(capsys, "identity", "--file", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid scalar") and err.count("\n") == 1


@pytest.mark.parametrize("dim", [5.5, True, "5", 0, MAX_DIM + 1])
def test_algebra_file_dim_out_of_range_exits_2(capsys, tmp_path, dim):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": dim, "entries": []}))
    code, out, err = run(capsys, "identity", "--file", str(bad))
    assert code == 2
    assert out == ""
    assert err.endswith(f"dim must be an integer in 1..{MAX_DIM}\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("ref", [("zero",), ("zero^0",), (f"zero^{MAX_DIM + 1}",)])
def test_zero_algebra_dim_out_of_range_exits_2(capsys, ref):
    code, out, err = run(capsys, "ann", "--algebra", *ref)
    assert code == 2
    assert out == ""
    assert err == f"error: zero algebra needs an integer dim in 1..{MAX_DIM}\n"


@pytest.mark.parametrize("ref", ["Z_02^1/0", "Z_02^a=1/0"])
def test_division_by_zero_in_parameter_exits_2(capsys, ref):
    code, out, err = run(capsys, "identity", "--algebra", ref)
    assert (code, out) == (2, "")
    assert err == "error: division by zero in '1/0'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--truncation", v), f"truncation must be an integer in 1..{MAX_TRUNCATION}")
        for v in ("0", "-1", str(MAX_TRUNCATION + 1))
    ]
    + [
        (("--precision", v), "precision must be an integer in "
         f"{MIN_PRECISION_BITS}..{MAX_PRECISION_BITS} bits")
        for v in ("0", "-1", str(MAX_PRECISION_BITS + 1))
    ],
)
def test_truncation_and_precision_out_of_range_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "degenerate", "--label", "Z_27 -> Z_28", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_excluded_family_value_exits_2(capsys):
    code, _, err = run(capsys, "catalog", "get", "--algebra", "Z_30^-1")
    assert code == 2
    assert "a" in err


@pytest.mark.parametrize("value", [0.5, None, True, [1]])
def test_non_exact_scalar_in_matrix_or_cocycle_exits_2(capsys, tmp_path, value):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps([["1", value], ["0", "1"]]))
    coc = tmp_path / "c.json"
    coc.write_text(json.dumps({"components": [[[1, 2, value]]]}))
    for argv in (
        ("act", "--algebra", "zero^2", "--matrix", str(mat)),
        ("extend", "--algebra", "zero^2", "--file", str(coc)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid scalar") and err.count("\n") == 1


@pytest.mark.parametrize(
    "components", [[[[0, 2, "1"]]], [[[1, 3, "1"]]], [[[1, 2]]], [[1, 2, "1"]]]
)
def test_malformed_cocycle_file_exits_2(capsys, tmp_path, components):
    coc = tmp_path / "c.json"
    coc.write_text(json.dumps({"components": components}))
    code, _, err = run(capsys, "extend", "--algebra", "zero^2", "--file", str(coc))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["1e9999999", "1e49999999", "2-3E-100000*i"])
def test_huge_exponent_scalar_exits_2_in_bounded_time(tmp_path, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "entries": [[1, 1, 2, value]]}))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "zinbiel5.cli", "identity", "--file", str(bad)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: invalid scalar '{value}': exponent too large\n"
