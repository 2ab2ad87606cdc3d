"""Structure-constant catalog and the batch verification suite.

The catalog ships every table as plain JSON under ``zinbiel5/data`` and
exposes typed accessors: instantiated tensors, symbolic family tensors,
central-extension records, degeneration certificates, non-degeneration
constraint sets, and the expected invariant values the suite checks against.
"""
from __future__ import annotations

import json
from fractions import Fraction
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from time import perf_counter

from .algebra import (
    Algebra,
    _fingerprint_pair,
    annihilator,
    check_identity,
    fingerprint,
    orbit_dimension,
    power_filtration,
    zero_algebra,
)
from .cohomology import (
    CocycleForm,
    WellformedReport,
    _new_classes,
    central_extension,
    delta_form,
    extension_wellformed,
    h2,
    is_cocycle,
)
from .degeneration import (
    DegenerationCertificate,
    FamilyTensor,
    RSet,
    _bound_samples,
    necessary_conditions,
    rset_membership,
    verify_certificate,
)
from .exactmath import ELIMINATIONS, GaussianRational, grat
from .series import ScalarValueError, evaluate_scalar

__all__ = [
    "CatalogError",
    "CatalogEntry",
    "ExtensionRecord",
    "ExtensionCheck",
    "H2Table",
    "RSetRow",
    "SuiteConfig",
    "CheckResult",
    "SuiteReport",
    "get",
    "instantiate",
    "family_tensor",
    "entry",
    "list_ids",
    "all_entries",
    "parse_ref",
    "entry_to_json",
    "entry_from_json",
    "extension_records",
    "check_extension",
    "h2_tables",
    "certificates",
    "certificate_from_dict",
    "rset_rows",
    "rset_from_dict",
    "check_rset_row",
    "expected",
    "family_samples",
    "family_members",
    "verify_all",
    "SPEC_SAMPLES",
    "MAX_DIM",
]


class CatalogError(ValueError):
    """Unknown id, missing parameter, or parameter outside its domain."""


# Largest dimension accepted from an algebra file or for the zero algebra;
# the catalog's algebras have dimension at most 6.
MAX_DIM = 16


# Deterministic parameter sampling for suite checks; intersected with each
# family's stated domain before use.
SPEC_SAMPLES = ("0", "1", "2", "5", "-2", "1/2")


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    dim: int
    tags: tuple  # strings
    source: str  # provenance label of the table the row came from
    params: tuple  # ({"symbol":…, "note":…, "exclude":…}, …) as loaded
    entries: tuple  # ((i, j, k, coeff-string), …) 1-based

    @property
    def is_parametric(self) -> bool:
        return bool(self.params)

    @property
    def symbols(self) -> tuple:
        return tuple(p["symbol"] for p in self.params)


@dataclass(frozen=True)
class ExtensionRecord:
    child: str
    parent: str
    parent_param: str | None  # expression for the parent's parameter, if any
    child_param: str | None  # symbol shared by cocycle and child family
    cocycle: tuple  # ((i, j, coeff-string), …) over the parent basis


@dataclass(frozen=True)
class H2Table:
    algebra: str
    dim: int
    case: str | None  # None | "generic" | "special"
    param: str | None  # fixed parameter value for special cases
    exclude: tuple  # parameter values the generic case avoids
    generators: tuple  # (((i, j, coeff-string), …), …) one tuple per class
    computed_dim: int | None = None  # set on flagged rows where the printed
    completion: tuple = ()  # dim is off; extra classes completing a basis
    flag: str | None = None


@dataclass(frozen=True)
class RSetRow:
    source: str
    targets: tuple
    rset: RSet


# ---------------------------------------------------------------------------
# data loading
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _load(name: str) -> dict:
    text = resources.files("zinbiel5.data").joinpath(f"{name}.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=1)
def _entries_by_id():
    table = {}
    for raw in _load("algebras")["algebras"]:
        if raw["id"] in table:
            raise CatalogError(f"duplicate catalog id {raw['id']!r}")
        table[raw["id"]] = _entry_from_raw(raw)
    return table


def _entry_from_raw(raw: dict) -> CatalogEntry:
    """A catalog entry from its JSON object (as in algebras.json)."""
    return CatalogEntry(
        id=raw["id"],
        dim=raw["dim"],
        tags=tuple(raw.get("tags", ())),
        source=raw.get("source", ""),
        params=tuple(raw.get("params", ())),
        entries=tuple((e["i"], e["j"], e["k"], e["c"]) for e in raw["entries"]),
    )


def entry(eid: str) -> CatalogEntry:
    table = _entries_by_id()
    if eid not in table:
        raise CatalogError(f"unknown catalog id {eid!r}")
    return table[eid]


def list_ids(tags=None) -> tuple:
    """Ids whose tag set contains every requested tag, in catalog order."""
    wanted = set(tags or ())
    return tuple(
        e.id for e in _entries_by_id().values() if wanted <= set(e.tags)
    )


def all_entries() -> tuple:
    return tuple(_entries_by_id().values())


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------


def _coerce_param(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, str):
        try:
            return evaluate_scalar(value)
        except ScalarValueError as exc:  # a symbol or t in a parameter value
            raise CatalogError(f"parameter value {value[:40]!r}: {exc}") from None
    return grat(value)


@lru_cache(maxsize=None)
def family_tensor(eid: str) -> FamilyTensor:
    """The symbolic structure tensor of a catalog entry."""
    e = entry(eid)
    return FamilyTensor.from_entries(e.dim, e.entries, label=eid)


def instantiate(eid: str, params=None) -> Algebra:
    """Exact tensor of a catalog entry, with family parameters bound.

    ``params`` maps parameter symbols to values (strings, ints, Fractions or
    GaussianRationals).  Every declared parameter must be supplied for a
    parametric entry; values on a declared exclusion list are rejected.
    """
    e = entry(eid)
    bound = {k: _coerce_param(v) for k, v in dict(params or {}).items()}
    declared = set(e.symbols)
    unknown = set(bound) - declared
    if unknown:
        raise CatalogError(
            f"{eid} does not take parameter(s) {sorted(unknown)}"
        )
    missing = declared - set(bound)
    if missing:
        raise CatalogError(
            f"{eid} needs parameter(s) {sorted(missing)}"
        )
    for p in e.params:
        for bad in p.get("exclude", ()):
            if bound[p["symbol"]] == evaluate_scalar(bad):
                raise CatalogError(
                    f"parameter {p['symbol']} = {bad} outside the stated "
                    f"domain of {eid}"
                )
    label = eid + "^{" + ",".join(f"{s}={bound[s]}" for s in e.symbols) + "}"
    return family_tensor(eid).instantiate(bound, label=label if bound else eid)


def get(eid: str, params=None, **kw) -> Algebra:
    """Catalog lookup; ``get("zero", dim=n)`` builds the zero tensor."""
    if eid == "zero":
        dim = kw.pop("dim", None)
        if dim is None and params:
            dim = dict(params).get("dim")
        if type(dim) is not int or not 1 <= dim <= MAX_DIM:
            raise CatalogError(f"zero algebra needs an integer dim in 1..{MAX_DIM}")
        return zero_algebra(dim, label=f"zero^{dim}")
    merged = dict(params or {})
    merged.update(kw)
    return instantiate(eid, merged)


def parse_ref(text: str):
    """Parse a CLI algebra reference ``id[^param]`` into (id, params-dict).

    A trailing ``^value`` binds the entry's single parameter; ``^a=1,b=2``
    binds by name.  Ids that contain ``^`` themselves (e.g. ``[Z1]^1_1``)
    are matched before any split is attempted.
    """
    table = _entries_by_id()
    if text in table or text == "zero":
        return text, {}
    if "^" in text:
        head, _, tail = text.rpartition("^")
        if head in table and tail:
            e = table[head]
            if "=" in tail:
                out = {}
                for piece in tail.split(","):
                    name, _, val = piece.partition("=")
                    if not name or not val:
                        raise CatalogError(f"malformed parameter list {tail!r}")
                    out[name] = val
                return head, out
            if len(e.symbols) != 1:
                raise CatalogError(
                    f"{head} takes parameters {e.symbols}; bind them by name"
                )
            return head, {e.symbols[0]: tail}
        if head == "zero" and tail.isdigit():
            return "zero", {"dim": int(tail)}
    raise CatalogError(f"unknown catalog id {text!r}")


# ---------------------------------------------------------------------------
# canonical serialization (round-trip is byte-identical)
# ---------------------------------------------------------------------------


def entry_to_json(e: CatalogEntry) -> str:
    doc = {
        "id": e.id,
        "dim": e.dim,
        "tags": list(e.tags),
        "source": e.source,
        "entries": [
            {"i": i, "j": j, "k": k, "c": c} for (i, j, k, c) in e.entries
        ],
    }
    if e.params:
        doc["params"] = [dict(p) for p in e.params]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def entry_from_json(text: str) -> CatalogEntry:
    return _entry_from_raw(json.loads(text))


# ---------------------------------------------------------------------------
# extension records
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def extension_records() -> tuple:
    out = []
    for raw in _load("extensions")["extensions"]:
        out.append(
            ExtensionRecord(
                child=raw["child"],
                parent=raw["parent"],
                parent_param=raw.get("parent_param"),
                child_param=raw.get("child_param"),
                cocycle=tuple((i, j, c) for (i, j, c) in raw["cocycle"]),
            )
        )
    return tuple(out)


def _bound_form(dim: int, components, binding=None) -> CocycleForm:
    """A form from ((i, j, coeff-string), …) components, symbols bound."""
    bound = {k: _coerce_param(v) for k, v in dict(binding or {}).items()}
    return delta_form(dim, *(
        [(i, j, evaluate_scalar(c, bound)) for (i, j, c) in comp]
        for comp in components
    ))


def record_form(rec: ExtensionRecord, binding=None) -> CocycleForm:
    """The record's cocycle as a one-component form over the parent."""
    return _bound_form(entry(rec.parent).dim, (rec.cocycle,), binding)


@dataclass(frozen=True)
class ExtensionCheck:
    """An extension record bound at one child binding, and checked.

    ``built`` and ``wellformed`` are None when the form is not a cocycle.
    """

    parent: Algebra
    form: CocycleForm
    is_cocycle: bool
    built: Algebra | None
    child: Algebra
    wellformed: WellformedReport | None

    @property
    def matches(self) -> bool:
        return self.built == self.child


def check_extension(rec: ExtensionRecord, binding=None, tensor=instantiate) -> ExtensionCheck:
    """Bind a record at a child binding, build its extension, compare it.

    The parent parameter is ``rec.parent_param`` evaluated at the binding.
    ``tensor(eid, binding)`` supplies the catalog algebras.
    """
    binding = dict(binding or {})
    child = tensor(rec.child, binding or None)  # rejects a binding the child does not take
    parent_binding = None
    if rec.parent_param is not None:
        scalars = {k: _coerce_param(v) for k, v in binding.items()}
        psym = entry(rec.parent).symbols[0]
        parent_binding = {psym: evaluate_scalar(rec.parent_param, scalars)}
    parent = tensor(rec.parent, parent_binding)
    form = record_form(rec, binding)
    ok = is_cocycle(parent, form.mats[0])
    built = central_extension(parent, form) if ok else None
    return ExtensionCheck(
        parent=parent,
        form=form,
        is_cocycle=ok,
        built=built,
        child=child,
        wellformed=extension_wellformed(parent, form, built) if ok else None,
    )


# ---------------------------------------------------------------------------
# cohomology tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def h2_tables() -> tuple:
    out = []
    for raw in _load("h2_generators")["tables"]:
        out.append(
            H2Table(
                algebra=raw["algebra"],
                dim=raw["dim"],
                case=raw.get("case"),
                param=raw.get("param"),
                exclude=tuple(raw.get("exclude", ())),
                generators=tuple(
                    tuple((i, j, c) for (i, j, c) in g)
                    for g in raw["generators"]
                ),
                computed_dim=raw.get("computed_dim"),
                completion=tuple(
                    tuple((i, j, c) for (i, j, c) in g)
                    for g in raw.get("completion", ())
                ),
                flag=raw.get("flag"),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# degeneration certificates and non-degeneration rows
# ---------------------------------------------------------------------------


def _file_scalar(v):
    """A scalar in an input file is exact: a JSON integer or string."""
    if isinstance(v, str) or (isinstance(v, int) and not isinstance(v, bool)):
        return v
    text = json.dumps(v)
    text = text if len(text) <= 40 else text[:37] + "..."
    raise ValueError(f"invalid scalar {text}: expected an integer or a string")


def _basis_grid(raw, dim: int) -> tuple:
    if isinstance(raw, dict) and isinstance(raw.get("diag"), list):
        d = raw["diag"]
        if len(d) != dim:
            raise CatalogError("diagonal basis length mismatch")
        return tuple(
            tuple(str(_file_scalar(d[i])) if i == j else "0" for j in range(dim))
            for i in range(dim)
        )
    if not isinstance(raw, list):
        raise CatalogError('basis must be a list of rows or {"diag": [...]}')
    rows = []
    cols = {str(k) for k in range(1, dim + 1)}
    for row in raw:
        if isinstance(row, dict):
            filled = ["0"] * dim
            for col, expr in row.items():
                if col not in cols:
                    raise CatalogError(f"basis column {col!r} outside 1..{dim}")
                filled[int(col) - 1] = str(_file_scalar(expr))
            rows.append(tuple(filled))
        elif isinstance(row, list):
            if len(row) != dim:
                raise CatalogError("basis row length mismatch")
            rows.append(tuple(str(_file_scalar(x)) for x in row))
        else:
            raise CatalogError("basis row must be a list or a {column: entry} object")
    if len(rows) != dim:
        raise CatalogError("basis needs one row per dimension")
    return tuple(rows)


def certificate_from_dict(raw: dict) -> DegenerationCertificate:
    """Build a certificate from its JSON form (shipped rows or user files).

    ``source``/``target`` may be bare id strings or ``{"id":…, "param":…}``
    objects; a string-valued ``param`` binds the family's single symbol and
    may reference sample symbols, a dict binds by name.  ``basis`` is a list
    of rows (lists or ``{column: entry}`` objects) or ``{"diag": […]}``, and
    ``samples`` a list of objects.
    """

    def split(key):
        side = raw.get(key)
        if isinstance(side, str):
            return side, None
        if isinstance(side, dict) and isinstance(side.get("id"), str):
            return side["id"], side.get("param")
        raise CatalogError(f'{key} must be an id string or {{"id": ...}}')

    source_id, sparam = split("source")
    target_id, tparam = split("target")
    if sparam is None:
        sparam = raw.get("source_param")
    if tparam is None:
        tparam = raw.get("target_param")

    def bindings(eid, param):
        if param is None:
            return ()
        symbols = family_tensor(eid).symbols
        if isinstance(param, dict):
            return tuple((k, str(_file_scalar(v))) for k, v in param.items())
        if len(symbols) != 1:
            raise CatalogError(
                f"{eid} takes parameters {symbols}; bind them by name"
            )
        return ((symbols[0], str(_file_scalar(param))),)

    source_dim = entry(source_id).dim
    label = raw.get("label") or f"{source_id} -> {target_id}"
    if not isinstance(label, str):
        raise CatalogError("label must be a string")
    pad, index = raw.get("target_pad", 0), raw.get("index")
    if type(pad) is not int or not 0 <= pad < source_dim:
        raise CatalogError(f"target_pad must be an integer in 0..{source_dim - 1}")
    samples = raw.get("samples", [])
    if not (isinstance(samples, list) and all(isinstance(x, dict) for x in samples)):
        raise CatalogError("samples must be a list of objects")
    return DegenerationCertificate(
        source=source_id,
        target=target_id,
        basis=_basis_grid(raw["basis"], source_dim),
        source_index=None if index is None else str(_file_scalar(index)),
        source_params=bindings(source_id, sparam),
        target_params=bindings(target_id, tparam),
        target_pad=pad,
        samples=tuple({k: _file_scalar(v) for k, v in x.items()} for x in samples),
        label=label,
    )


@lru_cache(maxsize=1)
def certificates() -> tuple:
    rows = _load("degenerations")["certificates"]
    out = tuple(certificate_from_dict(raw) for raw in rows)
    labels = [c.label for c in out]
    if len(set(labels)) != len(labels):
        raise CatalogError("duplicate certificate labels")
    return out


def _rset_from_json(raw: dict, dim: int) -> RSet:
    """An R-set from its JSON form, its indices checked against dim.

    A containment index may be dim + 1: A_(dim+1) = 0.
    """
    conts, eqs = raw.get("containments", []), raw.get("equations", [])
    relabel = raw.get("relabel")
    if not (isinstance(conts, list) and all(
        isinstance(t, list) and len(t) == 3
        and all(type(k) is int and 1 <= k <= dim + 1 for k in t) for t in conts
    )):
        raise CatalogError(
            f"containments must be [p, q, r] triples of integers in 1..{dim + 1}")
    if relabel is not None and not (isinstance(relabel, list) and all(
        type(k) is int for k in relabel) and sorted(relabel) == list(range(1, dim + 1))):
        raise CatalogError(f"relabel must be a permutation of 1..{dim}")
    if not (isinstance(eqs, list) and all(isinstance(e, str) for e in eqs)):
        raise CatalogError("equations must be a list of strings")
    return RSet(containments=tuple(map(tuple, conts)), equations=tuple(eqs),
                relabel=None if relabel is None else tuple(relabel),
                label=raw.get("label", ""))


def rset_from_dict(raw: dict) -> RSetRow:
    rset = _rset_from_json(raw, entry(raw["source"]).dim)
    return RSetRow(source=raw["source"], targets=tuple(raw["targets"]), rset=rset)


@lru_cache(maxsize=1)
def rset_rows() -> tuple:
    return tuple(rset_from_dict(raw) for raw in _load("nondegenerations")["rows"])


def check_rset_row(row: RSetRow, tensor=instantiate) -> tuple:
    """Test every sampled member of a row's source and targets.

    Returns (role, algebra, member, witness) tuples, sources first.  A
    target is tested against the set without its relabelling.  The row
    holds when every source is a member and no target is.
    """
    plain = replace(row.rset, relabel=None)
    out = [
        ("source", A, *rset_membership(A, row.rset))
        for A in family_members(row.source, tensor)
    ]
    out += [
        ("target", B, *rset_membership(B, plain))
        for tid in row.targets
        for B in family_members(tid, tensor)
    ]
    return tuple(out)


@lru_cache(maxsize=1)
def expected() -> dict:
    return _load("expected")


# ---------------------------------------------------------------------------
# parameter sampling
# ---------------------------------------------------------------------------


def family_samples(eid: str) -> tuple:
    """Deterministic parameter bindings for suite checks on a family."""
    e = entry(eid)
    if not e.is_parametric:
        return ({},)
    if len(e.symbols) == 1:
        sym = e.symbols[0]
        excluded = {
            str(evaluate_scalar(x)) for x in e.params[0].get("exclude", ())
        }
        return tuple(
            {sym: v}
            for v in SPEC_SAMPLES
            if str(evaluate_scalar(v)) not in excluded
        )
    # multi-parameter families: cycle the sample list across the symbols,
    # once starting at 0 and once starting at 2 — deterministic and generic
    n = len(SPEC_SAMPLES)
    return tuple(
        {s: SPEC_SAMPLES[(offset + idx) % n] for idx, s in enumerate(e.symbols)}
        for offset in (0, 2)
    )


def family_members(eid: str, tensor=instantiate) -> tuple:
    """The entry's algebra at each of its sample bindings."""
    return tuple(tensor(eid, b) for b in family_samples(eid))


# ---------------------------------------------------------------------------
# verification suite
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


@dataclass(frozen=True)
class SuiteConfig:
    checks: tuple = ()  # empty = all, in canonical order
    overrides: tuple = ()  # ((id, Algebra), …) test seam for mutation checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: tuple  # failure descriptions; empty when passed
    info: tuple = ()  # non-failing observations

    def as_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "details": list(self.details),
            "info": list(self.info),
        }


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple
    # ((check name, wall seconds), ...) in run order, and ((check name,
    # {elimination path: systems}), ...) from exactmath.ELIMINATIONS: sidecars,
    # outside the report's dict, JSON and equality
    timings: tuple = field(default=(), compare=False)
    counters: tuple = field(default=(), compare=False)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self):
        passed = sum(1 for c in self.checks if c.passed)
        return {"passed": passed, "failed": len(self.checks) - passed}

    def as_dict(self):
        return {
            "ok": self.ok,
            "counts": self.counts,
            "checks": [c.as_dict() for c in self.checks],
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=1)

    def as_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}")
            for d in c.details:
                lines.append(f"    ! {d}")
            for i in c.info:
                lines.append(f"    - {i}")
        n = self.counts
        lines.append(
            f"{n['passed']} passed, {n['failed']} failed"
            + ("" if self.ok else " -- SUITE FAILED")
        )
        return "\n".join(lines)


class _Suite:
    """One verification run.  Its state lives as long as the run: one
    :class:`Algebra` instance per (id, binding), so that each invariant kept
    on an instance (see :func:`~zinbiel5.algebra._memo`) is computed once per
    run, and the certificate reports that two checks read."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self.overrides = dict(config.overrides)
        self.memo = {}

    def _once(self, key, build):
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def tensor(self, eid: str, binding=None) -> Algebra:
        if eid in self.overrides and not binding:
            return self.overrides[eid]
        key = (eid, *sorted((k, _coerce_param(v)) for k, v in dict(binding or {}).items()))
        return self._once(key, lambda: instantiate(eid, binding))

    # -- individual checks -------------------------------------------------

    def check_identity(self) -> CheckResult:
        bad, info = [], []
        count = 0
        for e in all_entries():
            kind = "symmetric-zinbiel" if "symmetric" in e.tags else "zinbiel"
            for alg in family_members(e.id, self.tensor):
                count += 1
                rep = check_identity(alg, kind)
                if not rep.ok:
                    bad.append(
                        f"{alg.label}: {kind} fails at {rep.witness}"
                    )
            if "symmetric" in e.tags:
                alg = self.tensor(e.id)
                for extra in ("skew-cyclic-left", "skew-cyclic-right"):
                    rep = check_identity(alg, extra)
                    if not rep.ok:
                        bad.append(
                            f"{alg.label}: {extra} fails at {rep.witness}"
                        )
        info.append(f"{count} instantiations checked")
        return CheckResult("identity", not bad, tuple(bad), tuple(info))

    def _h2_bindings(self, table: H2Table):
        e = entry(table.algebra)
        if not e.is_parametric:
            return ({},)
        sym = e.symbols[0]
        if table.param is not None:
            return ({sym: table.param},)
        excluded = {str(evaluate_scalar(x)) for x in table.exclude}
        return tuple(
            b for b in family_samples(table.algebra)
            if str(evaluate_scalar(b[sym])) not in excluded
        )

    def check_h2(self) -> CheckResult:
        bad, info = [], []
        for table in h2_tables():
            want = table.computed_dim or table.dim
            for binding in self._h2_bindings(table):
                alg = self.tensor(table.algebra, binding)
                basis = h2(alg)
                tag = alg.label
                if basis.h2_dim != want:
                    bad.append(
                        f"{tag}: dim H2 = {basis.h2_dim}, table says {want}"
                    )
                    continue
                gens = table.generators + table.completion
                mats = _bound_form(alg.dim, gens, binding).mats
                non_cocycle = [
                    idx + 1 for idx, m in enumerate(mats)
                    if not is_cocycle(alg, m)
                ]
                if non_cocycle:
                    bad.append(f"{tag}: generators {non_cocycle} not cocycles")
                    continue
                if len(_new_classes(basis.b2, mats)) != len(mats):
                    bad.append(
                        f"{tag}: generator classes dependent modulo "
                        f"coboundaries"
                    )
                elif len(basis.b2) + len(mats) != len(basis.z2):
                    bad.append(f"{tag}: generators do not span H2")
            if table.flag:
                info.append(f"{table.algebra}: {table.flag}")
        info.append(f"{len(h2_tables())} table rows checked")
        return CheckResult("h2", not bad, tuple(bad), tuple(info))

    def check_extensions(self) -> CheckResult:
        flagged = set(
            expected()["annihilator_dims"]["computed_exceptions"]
        )
        bad, info = [], []
        for rec in extension_records():
            for binding in family_samples(rec.child):
                x = check_extension(rec, binding, self.tensor)
                tag = f"{rec.child} from {rec.parent}"
                if binding:
                    tag += f" at {sorted(binding.items())}"
                if not x.is_cocycle:
                    bad.append(f"{tag}: cocycle condition fails")
                    continue
                built, target = x.built, x.child
                if built != target:
                    where = next(
                        (
                            (i, j, k)
                            for i in range(built.dim)
                            for j in range(built.dim)
                            for k in range(built.dim)
                            if built.c[i][j][k] != target.c[i][j][k]
                        ),
                        None,
                    )
                    if where:
                        i, j, k = where
                        bad.append(
                            f"{tag}: mismatch at c[{i+1}][{j+1}]^{k+1}: "
                            f"built {built.c[i][j][k]}, "
                            f"catalog {target.c[i][j][k]}"
                        )
                    else:
                        bad.append(f"{tag}: dimension mismatch")
                    continue
                rep = x.wellformed
                if not rep.classes_independent:
                    bad.append(f"{tag}: cocycle class is a coboundary")
                if not rep.ann_decomposition_ok:
                    bad.append(f"{tag}: annihilator decomposition fails")
                if not rep.ann_intersection_trivial:
                    if rec.child in flagged:
                        info.append(
                            f"{tag}: annihilator intersection nontrivial "
                            f"(flagged entry)"
                        )
                    else:
                        bad.append(
                            f"{tag}: annihilator intersection nontrivial"
                        )
        info.append(f"{len(extension_records())} records checked")
        return CheckResult("extensions", not bad, tuple(bad), tuple(info))

    def check_annihilators(self) -> CheckResult:
        exc = expected()["annihilator_dims"]["computed_exceptions"]
        bad, info = [], []
        for e in all_entries():
            if "theoremA" in e.tags:
                claimed = 1 if "ann1" in e.tags else 2
            elif "component-family" in e.tags:
                claimed = None  # whatever the 2-step structure implies
            else:
                continue
            want = exc.get(e.id, claimed)
            for alg in family_members(e.id, self.tensor):
                got = len(annihilator(alg))
                if want is None:
                    # 2-step families: annihilator contains the derived
                    # subalgebra; record the computed value for the report
                    derived = power_filtration(alg).dim(2)
                    if got < derived:
                        bad.append(
                            f"{alg.label}: dim Ann = {got} smaller than "
                            f"dim A^2 = {derived}"
                        )
                    continue
                if got != want:
                    bad.append(
                        f"{alg.label}: dim Ann = {got}, expected {want}"
                    )
        for eid in sorted(exc):
            info.append(
                f"{eid}: recorded dim Ann = {exc[eid]} (flagged row)"
            )
        return CheckResult("annihilators", not bad, tuple(bad), tuple(info))

    def check_degenerations(self) -> CheckResult:
        bad, info = [], []
        reports = self._certificate_reports()
        modes = {"exact": 0, "numeric": 0, "mixed": 0}
        for cert, rep in reports:
            if rep.verdict != "verified":
                bad.append(f"{cert.label}: {rep.verdict}")
            modes[rep.mode] = modes.get(rep.mode, 0) + 1
        info.append(
            f"{len(reports)} certificates: "
            + ", ".join(f"{k}={v}" for k, v in sorted(modes.items()) if v)
        )
        return CheckResult("degenerations", not bad, tuple(bad), tuple(info))

    def _certificate_reports(self):
        return self._once(
            "certificates", lambda: [(c, verify_certificate(c)) for c in certificates()]
        )

    def _member_pair(self, cert: DegenerationCertificate):
        """A concrete (source, target) pair realizing the certificate."""
        scalar, target = next(_bound_samples(cert, self.tensor))
        src_entry = entry(cert.source)
        binding = {}
        if src_entry.is_parametric:
            sym = src_entry.symbols[0]
            if sym in scalar:
                binding[sym] = scalar[sym]
            elif cert.source_index is not None:
                # family-indexed: pick the member at a small generic t
                binding[sym] = evaluate_scalar(
                    cert.source_index, scalar, tval=Fraction(1, 7)
                )
            else:
                raise CatalogError(f"{cert.label}: unbound source parameter")
        source = self.tensor(cert.source, binding or None)
        family_indexed = (
            src_entry.is_parametric and cert.source_index is not None
            and src_entry.symbols[0] not in {k for k, _ in cert.source_params}
        )
        return source, target, family_indexed

    def check_necessary(self) -> CheckResult:
        bad, info = [], []
        n_strict = n_family = 0
        for cert, rep in self._certificate_reports():
            if rep.verdict != "verified":
                continue
            source, target, family_indexed = self._member_pair(cert)
            ncr = necessary_conditions(source, target)
            if not ncr.power_dims_dominate:
                bad.append(f"{cert.label}: power dims do not dominate")
            if not ncr.ann_not_larger:
                bad.append(f"{cert.label}: annihilator shrinks")
            _, der_src, der_tgt = ncr.details[0]  # ("der", dim Der A, dim Der B)
            if family_indexed:
                n_family += 1
                if der_src > der_tgt:
                    bad.append(
                        f"{cert.label}: dim Der drops along a family "
                        f"degeneration ({der_src} > {der_tgt})"
                    )
            else:
                n_strict += 1
                if der_src >= der_tgt:
                    bad.append(
                        f"{cert.label}: dim Der not strictly increasing "
                        f"({der_src} >= {der_tgt})"
                    )
        info.append(
            f"{n_strict} fixed-source rows strict, "
            f"{n_family} family-indexed rows weak"
        )
        return CheckResult("necessary", not bad, tuple(bad), tuple(info))

    def check_rsets(self) -> CheckResult:
        bad, info = [], []
        for row in rset_rows():
            for role, alg, member, witness in check_rset_row(row, self.tensor):
                if role == "source" and not member:
                    bad.append(
                        f"{alg.label} leaves its own constraint set: {witness}"
                    )
                elif role == "target" and member:
                    bad.append(
                        f"{alg.label} satisfies the {row.source} "
                        f"constraint set; separation fails"
                    )
        info.append(f"{len(rset_rows())} constraint rows checked")
        return CheckResult("rsets", not bad, tuple(bad), tuple(info))

    def check_orbits(self) -> CheckResult:
        exp = expected()
        flagged = exp.get("orbit_computed_exceptions", {})
        bad, info = [], []
        for eid, claimed in exp["orbit_dims_nonparametric"].items():
            alg = self.tensor(eid)
            got = orbit_dimension(alg)
            want = flagged.get(eid, claimed)
            if got != want:
                bad.append(f"{eid}: orbit dim {got}, table says {want}")
            elif eid in flagged:
                info.append(
                    f"{eid}: orbit dim {got} differs from the table value "
                    f"{claimed}; recorded as a computed exception"
                )
        family_rows = {
            eid: want
            for eid, want in exp["orbit_closure_dims"].items()
            if entry(eid).is_parametric
        }
        for eid, want in family_rows.items():
            members = [orbit_dimension(alg) for alg in family_members(eid, self.tensor)]
            # Sampled members may include special (non-generic) points of
            # the family, so take the generic orbit dimension to be the
            # maximum, and require the closure dimension to fit between
            # that and the count of family parameters.
            generic = max(members)
            nsym = len(entry(eid).symbols)
            if not generic <= want <= generic + nsym:
                bad.append(
                    f"{eid}: table dim {want} unreachable from member "
                    f"orbit dim {generic} with {nsym} parameter(s)"
                )
                continue
            note = f"{eid}: closure dim {want} = generic member orbit "
            note += f"{generic} + {want - generic} effective of {nsym} "
            note += "parameter(s)"
            if len(set(members)) != 1:
                low = sorted(set(members) - {generic})
                note += f"; special sampled members at orbit dim {low}"
            info.append(note)
        return CheckResult("orbits", not bad, tuple(bad), tuple(info))

    def check_squares(self) -> CheckResult:
        bad, info = [], []
        for eid, want in expected()["square_dims"].items():
            for alg in family_members(eid, self.tensor):
                got = power_filtration(alg).dim(2)
                if got != want:
                    bad.append(
                        f"{alg.label}: dim A^2 = {got}, table says {want}"
                    )
        info.append(
            f"{len(expected()['square_dims'])} table rows checked"
        )
        return CheckResult("squares", not bad, tuple(bad), tuple(info))

    def check_fingerprints(self) -> CheckResult:
        bad, info = [], []
        seen = {}
        for e in all_entries():
            if e.dim != 5 or "theoremA" not in e.tags:
                continue
            for alg in family_members(e.id, self.tensor):
                exact, modular = _fingerprint_pair(alg)
                if exact.as_tuple() != modular.as_tuple():
                    bad.append(
                        f"{alg.label}: exact and modular fingerprints differ"
                    )
                seen.setdefault(exact.as_tuple(), []).append(alg.label)
        # the single documented coincidence inside Theorem A
        a = self.tensor("Z_02", {"a": "3"})
        b = self.tensor("Z_02", {"a": "1/3"})
        if fingerprint(a) != fingerprint(b):
            bad.append("Z_02: fingerprints at a and 1/a differ")
        collisions = sorted(
            tuple(sorted(set(v))) for v in seen.values()
            if len(set(labels_base(v))) > 1
        )
        for group in collisions:
            info.append("shared fingerprint: " + ", ".join(group))
        return CheckResult("fingerprints", not bad, tuple(bad), tuple(info))

    def run(self) -> SuiteReport:
        wanted = self.config.checks or CHECK_ORDER
        unknown = [c for c in wanted if c not in CHECK_ORDER]
        if unknown:
            raise CatalogError(f"unknown checks {unknown}")
        results, timings, counters = [], [], []
        for name in CHECK_ORDER:
            if name not in wanted:
                continue
            before = dict(ELIMINATIONS)
            start = perf_counter()
            results.append(getattr(self, f"check_{name}")())
            timings.append((name, perf_counter() - start))
            counters.append((name, {k: n - before[k] for k, n in ELIMINATIONS.items()}))
        return SuiteReport(tuple(results), tuple(timings), tuple(counters))


def labels_base(labels):
    """Collapse sampled labels like 'Z_02^{a=2}' to their catalog id."""
    return {lbl.split("^{")[0] for lbl in labels}


def verify_all(config: SuiteConfig | None = None) -> SuiteReport:
    """Run the ordered verification suite and aggregate a report."""
    return _Suite(config or SuiteConfig()).run()
