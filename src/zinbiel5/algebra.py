"""Finite-dimensional algebras given by structure constants over Q(i).

An :class:`Algebra` is a structure-constant tensor c[i][j][k] (0-based
internally, 1-based in the file format), with the multiplication
e_i e_j = sum_k c[i][j][k] e_k.  Everything here is exact.

Identities and products are evaluated over Z[i] after scaling c by one common
denominator D, once per algebra (:func:`_integer_tensor`).  This is still
exact: each side of a ternary identity has degree 2 in c (binary: 1), so the
sides agree iff D^2 (D) times them agree in Z[i]; only a violating tuple's
sides are divided back into Q(i).
"""
from __future__ import annotations

import operator
import sys
from dataclasses import astuple, dataclass
from typing import Iterable, Optional, Sequence

from .exactmath import (
    ZERO,
    ExactMatrix,
    _cleared,
    _cleared_basis,
    _eliminate,
    _make,
    _Rows,
    grat,
    kernel_basis_sparse,
    nullity_mod_p,
    rank_sparse,
)

__all__ = [
    "Algebra",
    "algebra_from_entries",
    "product",
    "IDENTITY_KINDS",
    "IdentityReport",
    "check_identity",
    "annihilator",
    "PowerFiltration",
    "power_filtration",
    "derivations",
    "derivation_dimension",
    "orbit_dimension",
    "change_basis",
    "check_isomorphism",
    "Fingerprint",
    "fingerprint",
    "direct_sum",
    "zero_algebra",
]


@dataclass(frozen=True)
class Algebra:
    dim: int
    c: tuple  # c[i][j][k] : GaussianRational, all 0-based
    label: str = ""
    params: tuple = ()  # ((symbol, value), ...) when instantiated from a family

    def entries(self):
        """Yield nonzero entries as 1-based (i, j, k, coeff)."""
        for i in range(self.dim):
            for j in range(self.dim):
                for k, v in enumerate(self.c[i][j]):
                    if v:
                        yield (i + 1, j + 1, k + 1, v)

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.dim == other.dim and self.c == other.c

    def __hash__(self):
        return hash((self.dim, self.c))

    def __repr__(self):
        tag = self.label or "?"
        return f"Algebra({tag}, dim={self.dim})"


def algebra_from_entries(dim: int, entries: Iterable, label: str = "", params=()) -> Algebra:
    """Build an algebra from 1-based (i, j, k, coeff) entries; omitted = 0."""
    c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, v in entries:
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise ValueError(f"entry ({i},{j},{k}) out of range for dim {dim}")
        c[i - 1][j - 1][k - 1] = c[i - 1][j - 1][k - 1] + grat(v)
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in c)
    return Algebra(dim, frozen, label=label, params=tuple(params))


def product(A: Algebra, x: Sequence, y: Sequence) -> tuple:
    """Product of two coordinate vectors, as a coordinate vector."""
    re, im, d = _product(*_integer_tensor(A), _ints(x), _ints(y))
    return tuple(_make(a, b, d) for a, b in zip(re, im))


def _memo(A: Algebra, key: str, build):
    """``build(A)``, computed once per algebra and kept on the frozen instance
    under ``key``.  Only results are kept (ints, tuples, frozen records), so
    no caller can change them; the row systems they come from are not.  The
    key is interned: a key built per call (an f-string) would otherwise be
    kept once per instance."""
    cached = A.__dict__.get(key)
    if cached is None:
        cached = A.__dict__[sys.intern(key)] = build(A)
    return cached


def _integer_tensor(A: Algebra):
    """(T, D): D the lcm of all denominators of A.c, T[i][j] = ((k, re, im), ...)
    the nonzero D*c[i][j][k] as ints, k ascending.  Built once per algebra,
    as tuples so that no caller can change it."""
    return _memo(A, "_integer_tensor", _build_integer_tensor)


def _build_integer_tensor(A: Algebra):
    n = A.dim
    D, flat = _cleared(((i, j, k), v) for i, plane in enumerate(A.c)
                       for j, vec in enumerate(plane) for k, v in enumerate(vec)
                       if v is not ZERO)
    T = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j, k), (re, im) in flat.items():
        T[i][j].append((k, re, im))
    return tuple(tuple(map(tuple, plane)) for plane in T), D


def _system_constants(A: Algebra):
    """(C, real): C[i][j] = ((k, D*c[i][j][k]), ...), k ascending, the nonzero
    constants scaled as in :func:`_integer_tensor`, built once per algebra.

    This is the row-entry contract of the system builders: each entry is an
    int when ``real`` (every constant of A is real), else a Gaussian integer
    (re, im) of ints, and their rows go to the eliminator as a
    :class:`~zinbiel5.exactmath._Rows` list of that ring, so no
    ``GaussianRational`` is built.  Scaling every equation of a homogeneous
    system by D > 0 changes neither its kernel nor its pivots."""
    return _memo(A, "_system_constants", _build_system_constants)


def _build_system_constants(A: Algebra):
    T, _ = _integer_tensor(A)
    real = not any(im for plane in T for vec in plane for _, _, im in vec)
    C = tuple(tuple(tuple((k, re) if real else (k, (re, im)) for k, re, im in vec)
                    for vec in plane) for plane in T)
    return C, real


# real -> (zero, add, neg) of system entries: ints, or (re, im) int pairs
_RINGS = {
    True: (0, operator.add, operator.neg),
    False: ((0, 0), lambda x, y: (x[0] + y[0], x[1] + y[1]), lambda x: (-x[0], -x[1])),
}


def _ints(x: Sequence):
    """(d, {i: (re, im)}): the coordinate vector x cleared to Z[i]."""
    return _cleared((i, grat(v)) for i, v in enumerate(x))


def _product(T, D, x, y) -> tuple:
    """(re, im, d): the product of the :func:`_ints` vectors x and y over the
    tensor of :func:`_integer_tensor` is (re + i*im) / d, as ints."""
    n = len(T)
    (dx, xs), (dy, ys) = x, y
    re = [0] * n
    im = [0] * n
    for i, (xr, xi) in xs.items():
        plane = T[i]
        for j, (yr, yi) in ys.items():
            fr, fi = xr * yr - xi * yi, xr * yi + xi * yr
            for k, cr, ci in plane[j]:
                re[k] += fr * cr - fi * ci
                im[k] += fr * ci + fi * cr
    return re, im, D * dx * dy


# ---------------------------------------------------------------------------
# multilinear identities
# ---------------------------------------------------------------------------

# a term is (coeff, bracketing, permutation); bracketing "LR" means
# (x_p0 x_p1) x_p2, "RL" means x_p0 (x_p1 x_p2), "P" is the binary x_p0 x_p1.
_ZINBIEL = [([(1, "LR", (0, 1, 2))], [(1, "RL", (0, 1, 2)), (1, "RL", (0, 2, 1))])]
IDENTITY_KINDS = {
    "zinbiel": _ZINBIEL,
    "symmetric-zinbiel": _ZINBIEL
    + [([(1, "RL", (0, 1, 2))], [(1, "LR", (0, 1, 2)), (1, "LR", (1, 0, 2))])],
    "two-step-nilpotent": [
        ([(1, "LR", (0, 1, 2))], []),
        ([(1, "RL", (0, 1, 2))], []),
    ],
    "skew-cyclic-left": [([(1, "LR", (0, 1, 2))], [(-1, "RL", (1, 2, 0))])],
    "skew-cyclic-right": [([(1, "LR", (0, 1, 2))], [(-1, "RL", (2, 1, 0))])],
    "associative": [([(1, "LR", (0, 1, 2))], [(1, "RL", (0, 1, 2))])],
    "commutative": [([(1, "P", (0, 1))], [(1, "P", (1, 0))])],
    "anticommutative": [([(1, "P", (0, 1))], [(-1, "P", (1, 0))])],
}


@dataclass(frozen=True)
class IdentityReport:
    kind: str
    ok: bool
    witness: Optional[tuple] = None  # 1-based basis indices of first violation
    lhs: Optional[tuple] = None
    rhs: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def _eval_terms(T, terms, idx) -> tuple:
    """The terms at the basis tuple idx over Z[i], as (re, im) int lists."""
    n = len(T)
    re = [0] * n
    im = [0] * n
    for coeff, kind, perm in terms:
        a = idx[perm[0]]
        b = idx[perm[1]]
        if kind == "P":
            for m, wr, wi in T[a][b]:
                re[m] += coeff * wr
                im[m] += coeff * wi
            continue
        z = idx[perm[2]]
        # "LR": (e_a e_b) e_z = sum_k u_k e_k e_z; "RL": e_a (e_b e_z) = sum_k u_k e_a e_k
        lr = kind == "LR"
        for k, ur, ui in T[a][b] if lr else T[b][z]:
            for m, wr, wi in T[k][z] if lr else T[a][k]:
                re[m] += coeff * (ur * wr - ui * wi)
                im[m] += coeff * (ur * wi + ui * wr)
    return re, im


def check_identity(A: Algebra, kind: str) -> IdentityReport:
    """Check a multilinear identity on all basis tuples.

    Returns the first violating tuple (1-based) together with both sides.
    """
    if kind not in IDENTITY_KINDS:
        raise ValueError(f"unknown identity kind {kind!r}")
    n = A.dim
    T, D = _integer_tensor(A)
    for lhs_terms, rhs_terms in IDENTITY_KINDS[kind]:
        arity = 2 if lhs_terms[0][1] == "P" else 3
        tuples = (
            ((i, j) for i in range(n) for j in range(n))
            if arity == 2
            else ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
        )
        for idx in tuples:
            lhs = _eval_terms(T, lhs_terms, idx)
            rhs = _eval_terms(T, rhs_terms, idx)
            if lhs != rhs:
                scale = D ** (arity - 1)  # the degree of each term in c
                return IdentityReport(
                    kind,
                    False,
                    witness=tuple(i + 1 for i in idx),
                    lhs=tuple(_make(a, b, scale) for a, b in zip(*lhs)),
                    rhs=tuple(_make(a, b, scale) for a, b in zip(*rhs)),
                )
    return IdentityReport(kind, True)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _components(A: Algebra):
    """(mats, real): the structure tensor read as n bilinear forms, form k
    being (i, j) -> D*c[i][j][k], entries as in :func:`_system_constants`
    (0 where the constant is zero)."""
    n = A.dim
    C, real = _system_constants(A)
    mats = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, plane in enumerate(C):
        for j, vec in enumerate(plane):
            for k, v in vec:
                mats[k][i][j] = v
    return mats, real


def _annihilator_rows(mats):
    """Rows of m(x, e_j) = m(e_j, x) = 0 in the coordinates of x, for every
    n x n form m in ``mats`` (indexed m[i][j]) and every j."""
    rows = []
    for m in mats:
        n = len(m)
        for j in range(n):
            rows.append({i: m[i][j] for i in range(n) if m[i][j]})
            rows.append({i: m[j][i] for i in range(n) if m[j][i]})
    return [row for row in rows if row]


def annihilator(A: Algebra):
    """Basis of { x : x A = A x = 0 }, RREF-canonical row vectors, as a new
    list on each call; the basis is computed once per algebra."""
    return list(_memo(A, "_annihilator", _annihilator))


def _annihilator(A: Algebra) -> tuple:
    mats, real = _components(A)
    return tuple(kernel_basis_sparse(_Rows(_annihilator_rows(mats), real), A.dim))


@dataclass(frozen=True)
class PowerFiltration:
    dims: tuple  # dims of A^1, A^2, ... until 0 or stabilization
    nilpotent: bool
    index: Optional[int]  # smallest k with A^(k+1) = 0

    def dim(self, k: int) -> int:
        """dim A^k for any k >= 1: the filtration is constant once it stops."""
        return self.dims[min(k, len(self.dims)) - 1]


def power_filtration(A: Algebra) -> PowerFiltration:
    """Dims of the power filtration A^k = sum_{p+q=k} A^p A^q, computed once
    per algebra."""
    return _memo(A, "_power_filtration", _power_filtration)


def _power_filtration(A: Algebra) -> PowerFiltration:
    n = A.dim
    powers = [[(1, {i: (1, 0)}) for i in range(n)]]  # powers[k]: A^(k+1), cleared
    dims = [n]
    T, D = _integer_tensor(A)
    real = _system_constants(A)[1]
    while True:
        k = len(powers) + 1  # computing A^k
        prods = _Rows((), real)  # each product times its denominator, as a system row
        for p in range(1, k):
            q = k - p
            for u in powers[p - 1]:
                for v in powers[q - 1]:
                    re, im, _ = _product(T, D, u, v)
                    row = ({m: a for m, a in enumerate(re) if a} if real else
                           {m: (a, b) for m, (a, b) in enumerate(zip(re, im)) if a or b})
                    if row:
                        prods.append(row)
        basis = _cleared_basis(prods)
        d = len(basis)
        if d == 0:
            dims.append(0)
            return PowerFiltration(tuple(dims), True, len(dims) - 1)
        if d == dims[-1]:
            dims.append(d)
            return PowerFiltration(tuple(dims), False, None)
        dims.append(d)
        powers.append(basis)


def _derivation_rows(A: Algebra):
    """Sparse rows of the Leibniz system in unknowns D[r][s] -> col r*n+s,
    each equation scaled as in :func:`_system_constants`, as a
    :class:`~zinbiel5.exactmath._Rows` list over the algebra's ring."""
    n = A.dim
    by_ij, real = _system_constants(A)
    zero, add, neg = _RINGS[real]
    by_jm = [[[] for _ in range(n)] for _ in range(n)]  # [j][m] -> [(p, -c[p][j][m])]
    by_im = [[[] for _ in range(n)] for _ in range(n)]  # [i][m] -> [(q, -c[i][q][m])]
    for i in range(n):
        for j in range(n):
            for k, v in by_ij[i][j]:
                v = neg(v)
                by_jm[j][k].append((i, v))
                by_im[i][k].append((j, v))
    rows = _Rows((), real)
    for i in range(n):
        for j in range(n):
            prod = by_ij[i][j]
            for m in range(n):
                row = {k * n + m: v for k, v in prod}
                for p, v in by_jm[j][m]:
                    col = i * n + p
                    row[col] = add(row[col], v) if col in row else v
                for q, v in by_im[i][m]:
                    col = j * n + q
                    row[col] = add(row[col], v) if col in row else v
                row = {c: v for c, v in row.items() if v != zero}
                if row:
                    rows.append(row)
    return rows


def derivations(A: Algebra):
    """Basis of the derivation algebra, as ExactMatrix objects.

    Convention: D(e_i) = sum_j D[i][j] e_j, i.e. rows are images.
    """
    n = A.dim
    vecs = kernel_basis_sparse(_derivation_rows(A), n * n)
    return [
        ExactMatrix([[v[r * n + s] for s in range(n)] for r in range(n)])
        for v in vecs
    ]


def derivation_dimension(A: Algebra, method: str = "exact") -> int:
    return _nullity(A, "der", _derivation_rows, method)


def _reduced(A: Algebra, name: str, build):
    """The record (:func:`~zinbiel5.exactmath._eliminate`) of the exact
    reduction of the system ``build(A)``, called ``name``, reduced once per
    algebra.  Every exact reader of the system reads this record.  Only the
    Z^2 and B^2 systems, whose spaces are read from their pivot rows, keep
    the whole record; any other keeps ``(rank,)``, as Der does: no check
    reads Der's pivot rows, and keeping them slowed a suite run and raised
    its peak RSS, so :func:`derivations` reduces Der again."""
    if name in ("z2", "b2"):
        return _memo(A, f"_{name}_reduced", lambda A: _eliminate(build(A)))
    return _memo(A, f"_{name}_reduced", lambda A: (rank_sparse(build(A), A.dim * A.dim),))


def _nullity(A: Algebra, name: str, build, method: str) -> int:
    """Nullity of the n^2-unknown system ``build(A)``, called ``name``: the
    exact one, read from :func:`_reduced`, or (method="modular") the
    Monte-Carlo one mod P, kept once per algebra under its own key, so a
    modular value never answers an exact call, nor the reverse."""
    n2 = A.dim * A.dim
    if method == "exact":
        return n2 - _reduced(A, name, build)[0]
    if method == "modular":
        return _memo(A, f"_{name}_modular", lambda A: nullity_mod_p(build(A), n2))
    raise ValueError(f"unknown method {method!r}: use 'exact' or 'modular'")


def orbit_dimension(A: Algebra) -> int:
    """dim GL(V) - dim of the stabilizer = n^2 - dim Der(A)."""
    return A.dim * A.dim - derivation_dimension(A)


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------


def change_basis(A: Algebra, P: ExactMatrix) -> Algebra:
    """Structure constants in the basis f_i = sum_j P[i][j] e_j."""
    n = A.dim
    if P.nrows != n or P.ncols != n:
        raise ValueError("basis matrix has wrong shape")
    # w in the f basis is the row w P^-1; Q = q P^-1 is over Z[i] (raises on singular P)
    q, Q = _cleared(((m, k), v) for m, row in enumerate(P.inverse().rows)
                    for k, v in enumerate(row))
    T, D = _integer_tensor(A)
    rows = [_ints(row) for row in P.rows]
    new_c = []
    for i in range(n):
        plane = []
        for j in range(n):
            wr, wi, d = _product(T, D, rows[i], rows[j])
            re = [0] * n
            im = [0] * n
            for (m, k), (qr, qi) in Q.items():
                re[k] += wr[m] * qr - wi[m] * qi
                im[k] += wr[m] * qi + wi[m] * qr
            plane.append(tuple(_make(a, b, d * q) for a, b in zip(re, im)))
        new_c.append(tuple(plane))
    return Algebra(n, tuple(new_c), label=A.label, params=A.params)


def check_isomorphism(A: Algebra, B: Algebra, P: ExactMatrix) -> bool:
    """Does the invertible map f_i = sum_j P[i][j] e_j carry A onto B?"""
    if A.dim != B.dim:
        return False
    return change_basis(A, P).c == B.c


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    dim: int
    power_dims: tuple  # dims of A^2, A^3, A^4, A^5
    ann_dim: int
    der_dim: int
    z2_dim: int
    h2_dim: int

    def as_tuple(self):
        return astuple(self)


def fingerprint(A: Algebra, method: str = "exact") -> Fingerprint:
    """Isomorphism-invariant summary of an algebra.

    method="modular" computes the two large ranks (derivations, cocycles)
    with :func:`~zinbiel5.exactmath.nullity_mod_p`, mod the one prime of
    ``exactmath``, real and complex algebras alike; that path is Monte Carlo
    and meant for bulk screening only — callers compare against an exact
    recomputation before trusting a mismatch.

    Each part is computed once per algebra (and the two ranks once per
    method), so a second fingerprint of the same instance reads them back.
    """
    from .cohomology import _cocycle_rows, coboundary_dimension

    n = A.dim
    pf = power_filtration(A)
    pdims = tuple(pf.dim(k) for k in range(2, 6))
    ann = len(annihilator(A))
    der = derivation_dimension(A, method=method)
    z2 = _nullity(A, "z2", _cocycle_rows, method)
    b2 = coboundary_dimension(A)
    return Fingerprint(n, pdims, ann, der, z2, z2 - b2)


def _fingerprint_pair(A: Algebra) -> tuple:
    """(exact, modular): :func:`fingerprint` by both methods, with the Der
    and the Z^2 rows built at most once each for both reductions.  The
    exact and the mod-P reduction of a system still run separately, on the
    same rows, and keep what :func:`_nullity` reads."""
    from .cohomology import _cocycle_rows

    for name, build in (("der", _derivation_rows), ("z2", _cocycle_rows)):
        once = _once(build)
        for method in ("exact", "modular"):
            _nullity(A, name, once, method)
    return fingerprint(A, "exact"), fingerprint(A, "modular")


def _once(build):
    """``build`` run at most once: later calls return the first result."""
    kept = []

    def once(A):
        if not kept:
            kept.append(build(A))
        return kept[0]

    return once


def direct_sum(A: Algebra, B: Algebra) -> Algebra:
    n = A.dim
    moved = [(i + n, j + n, k + n, v) for i, j, k, v in B.entries()]
    label = f"{A.label}+{B.label}" if A.label or B.label else ""
    return algebra_from_entries(n + B.dim, [*A.entries(), *moved], label=label)


def zero_algebra(dim: int, label: str = "") -> Algebra:
    return algebra_from_entries(dim, [], label=label or f"C^{dim}")
