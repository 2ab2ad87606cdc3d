"""Command-line front end over the library.

Single-shot computations, certificate verification, and the reproduction
suite, with deterministic machine-readable output.  JSON is the canonical
format; the text rendering is derived from the same payload.

Exit codes: 0 when the report's top-level verdict is pass/verified, 1 when
a check fails (including inconclusive verdicts), 2 on usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from .algebra import (
    Algebra,
    algebra_from_entries,
    annihilator,
    change_basis,
    check_identity,
    derivation_dimension,
    fingerprint,
    power_filtration,
)
from .catalog import (
    MAX_DIM,
    CatalogError,
    SuiteConfig,
    _file_scalar,
    _Suite,
    _rset_from_json,
    certificate_from_dict,
    certificates,
    check_extension,
    check_rset_row,
    entry,
    entry_to_json,
    extension_records,
    get,
    list_ids,
    parse_ref,
    rset_rows,
)
from .cohomology import central_extension, delta_form, extension_wellformed, h2
from .degeneration import NUMERIC_PRECISION_BITS, rset_membership, verify_certificate
from .exactmath import ELIMINATIONS, ExactMatrix, grat
from .series import DEFAULT_TRUNCATION, ScalarValueError

PASS_VERDICTS = ("pass", "verified")


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def _combination(terms) -> str:
    """Join (coefficient, symbol) pairs as ``c1*s1+c2*s2``, skipping zeros.

    A coefficient with nonzero real and imaginary parts is parenthesized.
    """
    out = ""
    for v, sym in terms:
        if not v:
            continue
        if v == 1:
            t = sym
        elif v == -1:
            t = f"-{sym}"
        elif v.re and v.im:
            t = f"({v})*{sym}"
        else:
            t = f"{v}*{sym}"
        out += t if not out or t.startswith("-") else "+" + t
    return out or "0"


def _vector_text(vec) -> str:
    """Render a coordinate vector as a combination of basis vectors."""
    return _combination((v, f"e{i}") for i, v in enumerate(vec, start=1))


def _form_text(mat: ExactMatrix) -> str:
    """Render a bilinear form as a combination of Delta_ij symbols."""
    return _combination(
        (v, f"D{i + 1}{j + 1}")
        for i, row in enumerate(mat.rows)
        for j, v in enumerate(row)
    )


def _entries_payload(A: Algebra) -> list:
    return [[i, j, k, str(v)] for (i, j, k, v) in A.entries()]


def _entries_text(A: Algebra) -> list:
    lines = []
    for i in range(A.dim):
        for j in range(A.dim):
            if any(A.c[i][j]):
                lines.append(f"e{i + 1} e{j + 1} = {_vector_text(A.c[i][j])}")
    return lines


def _counts_text(counts: dict) -> str:
    """Systems per elimination ring, as ``integer=12 gaussian=0 ...``."""
    return " ".join(f"{k}={n}" for k, n in counts.items())


def _emit(payload: dict, lines: list, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for ln in lines:
            print(ln)
    return 0 if payload.get("verdict") in PASS_VERDICTS else 1


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CatalogError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CatalogError(f"{path} is not valid JSON: {exc}") from exc


def _algebra_from_file(path: str) -> Algebra:
    raw = _load_json(path)
    if not isinstance(raw, dict) or "dim" not in raw or "entries" not in raw:
        raise CatalogError(f"{path}: expected an object with dim and entries")
    dim = raw["dim"]
    if type(dim) is not int or not 1 <= dim <= MAX_DIM:
        raise CatalogError(f"{path}: dim must be an integer in 1..{MAX_DIM}")
    label = raw.get("label") or raw.get("id") or path
    if not isinstance(label, str):
        raise CatalogError(f"{path}: label must be a string")
    entries = raw["entries"]
    if not _indexed_rows(entries, 4, dim):
        raise CatalogError(
            f"{path}: expected entries: [[i, j, k, coeff], ...] lists with 1 <= i, j, k <= {dim}"
        )
    return algebra_from_entries(dim, [(i, j, k, _file_scalar(v)) for i, j, k, v in entries],
                                label=label)


def _catalog_algebra(args) -> Algebra:
    """The algebra named by --algebra, e.g. Z_02^3 or zero^4."""
    eid, params = parse_ref(args.algebra)
    return get(eid, params or None)


def _resolve_algebra(args) -> Algebra:
    if bool(args.algebra) == bool(args.file):
        raise CatalogError("an algebra is required: pass --algebra or --file, not both")
    if args.file:
        return _algebra_from_file(args.file)
    return _catalog_algebra(args)


def _matrix_from_rows(path: str, rows) -> ExactMatrix:
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise CatalogError(f"{path}: expected a matrix (list of rows)")
    return ExactMatrix([[grat(_file_scalar(v)) for v in row] for row in rows])


def _indexed_rows(rows, width: int, dim: int) -> bool:
    """Is ``rows`` a list of length-``width`` lists whose entries before the
    last (the coefficient) are JSON integers in 1..dim?"""
    return isinstance(rows, list) and all(
        isinstance(t, list) and len(t) == width
        and all(type(x) is int and 1 <= x <= dim for x in t[:-1])
        for t in rows
    )


def _cocycle_components(path: str, raw, dim: int) -> list:
    """The [[i, j, coeff], ...] component lists of a cocycle file."""
    comps = raw.get("components") if isinstance(raw, dict) else raw
    if not (isinstance(comps, list) and comps and all(_indexed_rows(c, 3, dim) for c in comps)):
        raise CatalogError(
            f"{path}: expected components: [[i, j, coeff], ...] lists "
            f"with 1 <= i, j <= {dim}"
        )
    return [[(i, j, _file_scalar(v)) for i, j, v in comp] for comp in comps]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_identity(args) -> int:
    A = _resolve_algebra(args)
    rep = check_identity(A, args.id)
    payload = {
        "command": "identity",
        "algebra": A.label,
        "kind": rep.kind,
        "verdict": "pass" if rep.ok else "fail",
    }
    lines = [f"identity {rep.kind} on {A.label}: {payload['verdict']}"]
    if not rep.ok:
        payload["witness"] = {
            "indices": list(rep.witness),
            "lhs": [str(v) for v in rep.lhs],
            "rhs": [str(v) for v in rep.rhs],
        }
        spot = ", ".join(f"e{i}" for i in rep.witness)
        lines.append(
            f"witness ({spot}): "
            f"lhs {_vector_text(rep.lhs)} != rhs {_vector_text(rep.rhs)}"
        )
    return _emit(payload, lines, args.format)


def _cmd_ann(args) -> int:
    A = _resolve_algebra(args)
    basis = annihilator(A)
    payload = {
        "command": "ann",
        "algebra": A.label,
        "dim": len(basis),
        "basis": [[str(v) for v in vec] for vec in basis],
        "verdict": "pass",
    }
    lines = [f"dim Ann = {len(basis)}"]
    lines += [f"  {_vector_text(vec)}" for vec in basis]
    return _emit(payload, lines, args.format)


def _cmd_powers(args) -> int:
    A = _resolve_algebra(args)
    filt = power_filtration(A)
    payload = {
        "command": "powers",
        "algebra": A.label,
        "dims": list(filt.dims),
        "nilpotent": filt.nilpotent,
        "index": filt.index,
        "verdict": "pass",
    }
    lines = ["power dims: " + " ".join(str(d) for d in filt.dims)]
    if filt.nilpotent:
        lines.append(f"nilpotent of index {filt.index}")
    else:
        lines.append("not nilpotent")
    return _emit(payload, lines, args.format)


def _cmd_der(args) -> int:
    A = _resolve_algebra(args)
    dim = derivation_dimension(A, method=args.method)
    payload = {
        "command": "der",
        "algebra": A.label,
        "dim": dim,
        "method": args.method,
        "orbit_dim": A.dim * A.dim - dim,
        "verdict": "pass",
    }
    lines = [f"dim Der = {dim}", f"orbit dim = {A.dim * A.dim - dim}"]
    return _emit(payload, lines, args.format)


def _cmd_h2(args) -> int:
    A = _resolve_algebra(args)
    basis = h2(A)
    payload = {
        "command": "h2",
        "algebra": A.label,
        "dim_h2": len(basis.reps),
        "dim_z2": len(basis.z2),
        "dim_b2": len(basis.b2),
        "representatives": [_form_text(m) for m in basis.reps],
        "verdict": "pass",
    }
    lines = [f"dim H2 = {len(basis.reps)}"]
    lines += [f"  [{_form_text(m)}]" for m in basis.reps]
    lines.append(f"dim Z2 = {len(basis.z2)}, dim B2 = {len(basis.b2)}")
    return _emit(payload, lines, args.format)


def _cmd_fingerprint(args) -> int:
    A = _resolve_algebra(args)
    fp = fingerprint(A, method=args.method)
    payload = {
        "command": "fingerprint",
        "algebra": A.label,
        "dim": fp.dim,
        "power_dims": list(fp.power_dims),
        "ann_dim": fp.ann_dim,
        "der_dim": fp.der_dim,
        "z2_dim": fp.z2_dim,
        "h2_dim": fp.h2_dim,
        "method": args.method,
        "verdict": "pass",
    }
    lines = [
        f"fingerprint {A.label}: dim={fp.dim} "
        f"powers={'/'.join(str(d) for d in fp.power_dims)} "
        f"ann={fp.ann_dim} der={fp.der_dim} z2={fp.z2_dim} h2={fp.h2_dim}"
    ]
    return _emit(payload, lines, args.format)


def _cmd_extend(args) -> int:
    # central_extension rejects a form that is not a cocycle (exit 2), so a
    # rendered report always has a cocycle
    if args.child and not (args.algebra or args.file):
        eid, binding = parse_ref(args.child)
        rec = next((r for r in extension_records() if r.child == eid), None)
        if rec is None:
            raise CatalogError(f"no extension record with child {eid}")
        if rec.child_param is not None and not binding:
            raise CatalogError(f"{eid} is a family; bind its parameter, e.g. {eid}^1")
        x = check_extension(rec, binding)
        if not x.is_cocycle:
            raise ValueError("component is not a cocycle")
        parent, form, wf = x.parent, x.form, x.wellformed
        verdict = "pass" if wf.ok and x.matches else "fail"
        extra = {"child": x.child.label, "matches_catalog": x.matches}
        head = [
            f"{x.child.label} as a central extension of {parent.label}: {verdict}",
            "cocycle: " + ", ".join(_form_text(m) for m in form.mats),
        ]
        tail = [f"matches catalog constants: {x.matches}"]
    elif args.algebra and args.file and not args.child:
        parent = _catalog_algebra(args)
        comps = _cocycle_components(args.file, _load_json(args.file), parent.dim)
        form = delta_form(parent.dim, *comps)
        built = central_extension(parent, form, label=f"{parent.label} extension")
        wf = extension_wellformed(parent, form, built)
        verdict = "pass" if wf.ok else "fail"
        extra = {"extension": {"dim": built.dim, "entries": _entries_payload(built)}}
        forms = ", ".join(_form_text(m) for m in form.mats)
        head = [f"central extension of {parent.label} by {forms}: {verdict}"]
        tail = _entries_text(built)
    else:
        raise CatalogError(
            "extend needs either --child <id> or --algebra <parent> with "
            "--file <cocycle.json>, not both"
        )
    payload = {
        "command": "extend",
        "parent": parent.label,
        "cocycle": [_form_text(m) for m in form.mats],
        "is_cocycle": True,
        "ann_intersection_trivial": wf.ann_intersection_trivial,
        "classes_independent": wf.classes_independent,
        "ann_decomposition_ok": wf.ann_decomposition_ok,
        "verdict": verdict,
        **extra,
    }
    lines = head + [
        "cocycle condition: ok",
        f"wellformed: intersection_trivial={wf.ann_intersection_trivial} "
        f"classes_independent={wf.classes_independent} "
        f"ann_decomposition={wf.ann_decomposition_ok}",
    ] + tail
    return _emit(payload, lines, args.format)


def _cmd_act(args) -> int:
    A = _resolve_algebra(args)
    raw = _load_json(args.matrix)
    rows = raw.get("matrix") if isinstance(raw, dict) else raw
    P = _matrix_from_rows(args.matrix, rows)
    if P.nrows != A.dim or P.ncols != A.dim:
        raise CatalogError(
            f"matrix is {P.nrows}x{P.ncols}, algebra dimension is {A.dim}"
        )
    det = P.det()
    if not det:
        raise CatalogError("matrix is singular; basis changes must be invertible")
    B = change_basis(A, P)
    payload = {
        "command": "act",
        "algebra": A.label,
        "det": str(det),
        "result": {"dim": B.dim, "entries": _entries_payload(B)},
        "verdict": "pass",
    }
    lines = [f"{A.label} transported along the given basis (det {det}):"]
    lines += _entries_text(B) or ["(zero product)"]
    return _emit(payload, lines, args.format)


def _cmd_degenerate(args) -> int:
    if args.cert and args.label:
        raise CatalogError("degenerate takes --cert or --label, not both")
    if args.cert:
        raw = _load_json(args.cert)
        if not isinstance(raw, dict):
            raise CatalogError(f"{args.cert}: expected a certificate object")
        certs = [certificate_from_dict(raw)]
    elif args.label:
        certs = [c for c in certificates() if c.label == args.label]
        if not certs:
            raise CatalogError(f"no catalog certificate labelled {args.label!r}")
    else:
        certs = certificates()
    with _timings(args.timings):
        reports = [
            verify_certificate(
                cert, mode=args.mode, trunc=args.truncation, precision=args.precision
            )
            for cert in certs
        ]
    payloads, lines = [], []
    for report in reports:
        payloads.append({
            "command": "degenerate",
            "label": report.label,
            "verdict": report.verdict,
            "mode": report.mode,
            "samples": [
                {
                    "params": [list(p) for p in s.params],
                    "verdict": s.verdict,
                    "mode": s.mode,
                    "branch": [list(b) for b in s.branch],
                    "max_residual": str(s.max_residual),
                    "det_valuation": (
                        None if s.det_valuation is None else str(s.det_valuation)
                    ),
                    "failures": [[str(x) for x in f] for f in s.failures],
                }
                for s in report.samples
            ],
        })
        lines.append(f"{report.label}: {report.verdict} ({report.mode})")
        for s in report.samples:
            ptxt = (
                ", ".join(f"{k}={v}" for k, v in s.params) if s.params else "-"
            )
            extra = ""
            if s.mode == "numeric":
                extra = f", max residual {s.max_residual}"
            if s.det_valuation is not None:
                extra += f", det valuation {s.det_valuation}"
            lines.append(f"  sample [{ptxt}]: {s.verdict} ({s.mode}{extra})")
            for f in s.failures:
                lines.append(f"    mismatch: {f}")
    if args.cert or args.label:
        return _emit(payloads[0], lines, args.format)
    verdicts = Counter(p["verdict"] for p in payloads)
    tiers = Counter(p["mode"] for p in payloads)
    lines += ["", f"{len(payloads)} certificates: "
              f"{_counts_text(dict(sorted(verdicts.items())))} "
              f"| tiers: {_counts_text(dict(sorted(tiers.items())))}"]
    verdict = ("verified" if verdicts["verified"] == len(payloads)
               else "failed" if verdicts["failed"] else "inconclusive")
    payload = {"command": "degenerate", "certificates": payloads, "verdict": verdict}
    return _emit(payload, lines, args.format)


def _cmd_rset(args) -> int:
    if args.row and not (args.algebra or args.file):
        return _rset_row(args)
    if args.row or not args.file:
        raise CatalogError("rset needs --file <rset.json> or --row <source-id>, not both")
    raw = _load_json(args.file)
    if not isinstance(raw, dict):
        raise CatalogError(f"{args.file}: expected an object")
    if not args.algebra:
        raise CatalogError("rset membership needs --algebra")
    A = _catalog_algebra(args)
    try:
        member, witness = rset_membership(A, _rset_from_json(raw, A.dim))
    except ScalarValueError as exc:
        raise CatalogError(f"{args.file}: cannot evaluate an equation: {exc}") from exc
    payload = {
        "command": "rset",
        "algebra": A.label,
        "member": member,
        "witness": witness,
        "verdict": "pass" if member else "fail",
    }
    lines = [f"{A.label}: {'inside' if member else 'outside'} the constraint set"]
    if witness:
        lines.append(f"  violated: {witness}")
    return _emit(payload, lines, args.format)


def _rset_row(args) -> int:
    row = next((r for r in rset_rows() if r.source == args.row), None)
    if row is None:
        raise CatalogError(f"no constraint row with source {args.row}")
    checks = [
        {"algebra": A.label, "role": role, "member": member}
        for role, A, member, _ in check_rset_row(row)
    ]
    ok = all(c["member"] == (c["role"] == "source") for c in checks)
    payload = {
        "command": "rset",
        "source": row.source,
        "targets": list(row.targets),
        "checks": checks,
        "verdict": "pass" if ok else "fail",
    }
    lines = [f"constraint row {row.source}: {'pass' if ok else 'fail'}"]
    for c in checks:
        want = "inside" if c["role"] == "source" else "outside"
        got = "inside" if c["member"] else "outside"
        mark = "ok" if want == got else "VIOLATION"
        lines.append(f"  {c['role']} {c['algebra']}: {got} ({mark})")
    return _emit(payload, lines, args.format)


@contextmanager
def _timings(enabled: bool):
    """For ``--timings``: while the block runs, print to stderr, as they are
    written, the DEBUG records of ``zinbiel5.degeneration``: one per
    certificate sample, with its tier, truncation reached, determinant
    valuation and time.  The handler is attached for the block only.

    The block may append (name, counts, seconds) lines to the list it is
    given.  When it ends the clock stops; then each of its lines is printed,
    and one ``total`` line: the systems the block row-reduced per
    elimination path, and its wall time.  So no line's printing is timed."""
    lines = []
    if not enabled:
        yield lines
        return
    import logging

    log = logging.getLogger("zinbiel5.degeneration")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    before, start = dict(ELIMINATIONS), perf_counter()
    try:
        yield lines
    finally:
        seconds = perf_counter() - start
        log.removeHandler(handler)
        log.setLevel(level)
    for line in lines:
        _timing_line(*line)
    _timing_line("total", {k: n - before[k] for k, n in ELIMINATIONS.items()}, seconds)


def _timing_line(name: str, counts: dict, seconds: float):
    print(f"{name:14s} {_counts_text(counts)} {seconds:8.3f} s", file=sys.stderr)


def _cmd_catalog_list(args) -> int:
    tags = tuple(t for t in (args.tags or "").split(",") if t)
    ids = list_ids(tags) if tags else list_ids()
    payload = {"command": "catalog list", "ids": list(ids), "verdict": "pass"}
    return _emit(payload, list(ids), args.format)


def _cmd_catalog_get(args) -> int:
    eid, params = parse_ref(args.algebra)
    if params:
        A = get(eid, params)
        payload = {
            "command": "catalog get",
            "id": eid,
            "label": A.label,
            "dim": A.dim,
            "entries": _entries_payload(A),
            "verdict": "pass",
        }
        lines = [A.label, f"dim {A.dim}"] + _entries_text(A)
        return _emit(payload, lines, args.format)
    e = entry(eid)
    payload = json.loads(entry_to_json(e))
    payload["verdict"] = "pass"
    lines = [e.id, f"dim {e.dim}", "tags: " + ", ".join(e.tags)]
    if e.symbols:
        lines.append("parameters: " + ", ".join(e.symbols))
    lines += _entries_text(get(eid)) if not e.symbols else [
        f"{i},{j},{k} -> {v}" for (i, j, k, v) in e.entries
    ]
    return _emit(payload, lines, args.format)


def _cmd_catalog_verify_all(args) -> int:
    checks = tuple(c for c in (args.checks or "").split(",") if c)
    # the suite and its algebras outlive the block, so that `total` does not
    # time their teardown
    with _timings(args.timings) as lines:
        suite = _Suite(SuiteConfig(checks=checks))
        report = suite.run()
        lines.extend((name, counts, seconds)
                     for (name, seconds), (_, counts) in zip(report.timings, report.counters))
    if args.format == "json":
        print(json.dumps(report.as_dict(), sort_keys=True, separators=(",", ":")))
    else:
        print(report.as_text())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zinbiel5",
        description=(
            "Exact verification toolkit for five-dimensional Zinbiel algebras"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text; json is canonical)",
    )
    src = argparse.ArgumentParser(add_help=False)
    src.add_argument(
        "--algebra", metavar="REF",
        help="catalog reference id[^param], e.g. Z_02^3, V_4+1^lam=2,mu=5 or "
        "zero^N (the zero algebra of dimension N)",
    )
    src.add_argument("--file", metavar="PATH", help="algebra JSON file")

    p = sub.add_parser("identity", parents=[src, fmt], help="check an identity")
    p.add_argument(
        "--id", default="zinbiel", metavar="KIND",
        help="identity kind (default zinbiel)",
    )
    p.set_defaults(fn=_cmd_identity)

    p = sub.add_parser("ann", parents=[src, fmt], help="annihilator basis")
    p.set_defaults(fn=_cmd_ann)

    p = sub.add_parser("powers", parents=[src, fmt], help="power filtration")
    p.set_defaults(fn=_cmd_powers)

    p = sub.add_parser("der", parents=[src, fmt], help="derivation dimension")
    p.add_argument("--method", choices=("exact", "modular"), default="exact")
    p.set_defaults(fn=_cmd_der)

    p = sub.add_parser("h2", parents=[src, fmt], help="second cohomology")
    p.set_defaults(fn=_cmd_h2)

    p = sub.add_parser(
        "fingerprint", parents=[src, fmt], help="invariant fingerprint"
    )
    p.add_argument("--method", choices=("exact", "modular"), default="exact")
    p.set_defaults(fn=_cmd_fingerprint)

    p = sub.add_parser(
        "extend", parents=[src, fmt], help="build/verify a central extension"
    )
    p.add_argument(
        "--child", metavar="REF",
        help="verify the catalog extension record with this child",
    )
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser(
        "act", parents=[src, fmt], help="transport along a basis change"
    )
    p.add_argument(
        "--matrix", required=True, metavar="PATH",
        help="JSON matrix (rows of scalars)",
    )
    p.set_defaults(fn=_cmd_act)

    p = sub.add_parser(
        "degenerate", parents=[fmt],
        help="verify a degeneration certificate, or every bundled one",
    )
    p.add_argument("--cert", metavar="PATH", help="certificate JSON file")
    p.add_argument(
        "--label", metavar="NAME", help="catalog certificate label, e.g. 'Z_27 -> Z_28'"
    )
    p.add_argument("--mode", choices=("auto", "exact", "numeric"), default="auto")
    p.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION, metavar="ORDER")
    p.add_argument(
        "--precision", type=int, default=None, metavar="BITS",
        help=f"numeric working precision in bits (default {NUMERIC_PRECISION_BITS}); "
        "at 53 bits 32 of the 49 bundled certificates are inconclusive, so use at "
        f"least {NUMERIC_PRECISION_BITS}",
    )
    p.add_argument(
        "--timings", action="store_true",
        help="print each certificate sample's tier and time, and the total, to stderr",
    )
    p.set_defaults(fn=_cmd_degenerate)

    p = sub.add_parser("rset", parents=[fmt], help="constraint-set membership")
    p.add_argument("--algebra", metavar="REF", help="algebra to test")
    p.add_argument("--file", metavar="PATH", help="constraint-set JSON file")
    p.add_argument("--row", metavar="ID", help="check the catalog row with this source")
    p.set_defaults(fn=_cmd_rset)

    p = sub.add_parser("catalog", parents=[fmt], help="catalog operations")
    # --format is accepted before or after the action; given after it, it
    # must not reset a value given before it to the default
    action_fmt = argparse.ArgumentParser(add_help=False)
    action_fmt.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS,
        help="output format (default text; json is canonical)",
    )
    actions = p.add_subparsers(dest="action", required=True)

    p = actions.add_parser("list", parents=[action_fmt], help="list catalog ids")
    p.add_argument("--tags", metavar="T1,T2", help="filter ids by tags")
    p.set_defaults(fn=_cmd_catalog_list)

    p = actions.add_parser("get", parents=[action_fmt], help="one catalog entry")
    p.add_argument("--algebra", required=True, metavar="REF", help="catalog reference")
    p.set_defaults(fn=_cmd_catalog_get)

    p = actions.add_parser(
        "verify-all", parents=[action_fmt], help="the reproduction suite"
    )
    p.add_argument("--checks", metavar="C1,C2", help="subset of suite checks")
    p.add_argument(
        "--timings", action="store_true",
        help="print each certificate sample's tier and time, then each "
        "verify-all check's wall time and its systems per elimination path, "
        "to stderr",
    )
    p.set_defaults(fn=_cmd_catalog_verify_all)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (CatalogError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
