"""Second cohomology of Zinbiel algebras and central extensions.

A cocycle is a bilinear form theta with theta(xy, z) = theta(x, yz + zy);
coboundaries are the forms (x, y) -> f(xy).  Central extensions glue an
s-component cocycle onto an algebra as s new central directions.  The
automorphism action is theta |-> phi^T theta phi where the *columns* of phi
are the images of the basis vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Algebra,
    _annihilator_rows,
    _components,
    _memo,
    _reduced,
    _RINGS,
    _system_constants,
    algebra_from_entries,
    annihilator,
)
from .exactmath import (
    ZERO,
    ExactMatrix,
    _eliminate,
    _kernel_basis,
    _make,
    _Rows,
    _rref,
    grat,
    kernel_basis_sparse,
)

__all__ = [
    "CocycleForm",
    "delta_form",
    "is_cocycle",
    "cocycle_space",
    "coboundary_space",
    "coboundary_dimension",
    "CohomologyBasis",
    "h2",
    "cocycle_annihilator",
    "central_extension",
    "aut_action",
    "cohomologous",
    "WellformedReport",
    "extension_wellformed",
]


@dataclass(frozen=True)
class CocycleForm:
    """An s-component bilinear form on an n-dimensional space."""

    mats: tuple  # tuple of ExactMatrix, all n x n

    def __post_init__(self):
        if not self.mats:
            raise ValueError("cocycle form needs at least one component")
        n = self.mats[0].nrows
        for m in self.mats:
            if m.nrows != n or m.ncols != n:
                raise ValueError("component shape mismatch")

    @property
    def dim(self) -> int:
        return self.mats[0].nrows

    @property
    def components(self) -> int:
        return len(self.mats)

    def __add__(self, other: "CocycleForm") -> "CocycleForm":
        return CocycleForm(tuple(a + b for a, b in zip(self.mats, other.mats)))


def delta_form(n: int, *components) -> CocycleForm:
    """Build a form from per-component lists of 1-based (i, j, coeff).

    delta_form(4, [(1, 2, 1), (2, 1, 2)]) is the form Delta_12 + 2*Delta_21.
    """
    mats = []
    for comp in components:
        rows = [[ZERO] * n for _ in range(n)]
        for i, j, v in comp:
            rows[i - 1][j - 1] = rows[i - 1][j - 1] + grat(v)
        mats.append(ExactMatrix(rows))
    return CocycleForm(tuple(mats))


def _sym_terms(by_ij, ring, j: int, k: int):
    """Nonzero coordinates of -(e_j e_k + e_k e_j) as (m, coeff) pairs, m
    ascending, the entries in ``ring`` (see :data:`~zinbiel5.algebra._RINGS`)."""
    zero, add, neg = ring
    terms = by_ij[j][k] + by_ij[k][j]
    if not terms:
        return ()
    acc = {}
    for m, v in terms:
        acc[m] = add(acc[m], v) if m in acc else v
    return sorted((m, neg(v)) for m, v in acc.items() if v != zero)


def _cocycle_equations(A: Algebra):
    """The cocycle condition theta(e_i e_j, e_k) = theta(e_i, e_j e_k + e_k e_j)
    for each (i, j, k) in turn, as (i, k, prod, sym): the equation is

        sum of v * theta[m][k] over (m, v) in prod
        + sum of v * theta[i][m] over (m, v) in sym = 0,

    prod the constants of e_i e_j and sym those of -(e_j e_k + e_k e_j),
    scaled and typed as in :func:`~zinbiel5.algebra._system_constants`."""
    n = A.dim
    by_ij, real = _system_constants(A)
    ring = _RINGS[real]
    sym = [[_sym_terms(by_ij, ring, j, k) for k in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(n):
            prod = by_ij[i][j]
            for k in range(n):
                yield i, k, prod, sym[j][k]


def is_cocycle(A: Algebra, mat: ExactMatrix) -> bool:
    """Does ``mat`` satisfy every equation of the cocycle system?

    Each equation of :func:`_cocycle_equations` is evaluated on ``mat``,
    up to the first that fails.  Only the nonzero entries of ``mat`` are
    multiplied, by the equation's constants (ints for a real algebra,
    (re, im) pairs read as Q(i) values for a complex one)."""
    real = _system_constants(A)[1]
    value = (lambda v: _make(v, 0, 1)) if real else (lambda v: _make(*v, 1))
    theta = [[x or None for x in row] for row in mat.rows]
    for i, k, prod, sym in _cocycle_equations(A):
        acc = ZERO
        for m, v in prod:
            x = theta[m][k]
            if x is not None:
                acc = acc + x * value(v)
        row = theta[i]
        for m, v in sym:
            x = row[m]
            if x is not None:
                acc = acc + x * value(v)
        if acc is not ZERO:  # a zero sum is the one object ZERO (see _make)
            return False
    return True


def _cocycle_rows(A: Algebra):
    """Sparse rows of the equations of :func:`_cocycle_equations`.

    The unknowns are theta[i][j] -> column i*n+j, and the rows are a
    :class:`~zinbiel5.exactmath._Rows` list over the algebra's ring.
    """
    n = A.dim
    real = _system_constants(A)[1]
    zero, add, _ = _RINGS[real]
    rows = _Rows((), real)
    for i, k, prod, sym in _cocycle_equations(A):
        row = {m * n + k: v for m, v in prod}
        for m, v in sym:
            col = i * n + m
            row[col] = add(row[col], v) if col in row else v
        row = {c: v for c, v in row.items() if v != zero}
        if row:
            rows.append(row)
    return rows


def _unvec(v, n) -> ExactMatrix:
    return ExactMatrix([[v[i * n + j] for j in range(n)] for i in range(n)])


def _vec(mat: ExactMatrix):
    return tuple(x for row in mat.rows for x in row)


def cocycle_space(A: Algebra):
    """RREF-canonical basis of Z^2(A) as matrices, read from the kept
    reduction of the Z^2 system, which the exact Z^2 nullity reads too."""
    n = A.dim
    return [_unvec(v, n) for v in _kernel_basis(_reduced(A, "z2", _cocycle_rows), n * n)]


def _coboundary_rows(A: Algebra):
    """The forms (x, y) -> D*c[x][y][k] spanning B^2, one row per k, as a
    :class:`~zinbiel5.exactmath._Rows` list over the algebra's ring."""
    n = A.dim
    mats, real = _components(A)
    rows = ({i * n + j: v for i, row in enumerate(m) for j, v in enumerate(row) if v}
            for m in mats)
    return _Rows((row for row in rows if row), real)


def coboundary_space(A: Algebra):
    """Basis of B^2(A) = { (x,y) -> f(xy) }, RREF-canonical, read from the
    kept reduction of the B^2 system."""
    n = A.dim
    pivots = _rref(_reduced(A, "b2", _coboundary_rows))
    return [_unvec([row.get(c, ZERO) for c in range(n * n)], n) for row in pivots.values()]


def coboundary_dimension(A: Algebra) -> int:
    """dim B^2(A), the rank of the kept reduction of the B^2 system."""
    return _reduced(A, "b2", _coboundary_rows)[0]


@dataclass(frozen=True)
class CohomologyBasis:
    z2: tuple  # matrices spanning Z^2
    b2: tuple  # matrices spanning B^2
    reps: tuple  # cocycles whose classes form a basis of H^2

    @property
    def h2_dim(self) -> int:
        return len(self.reps)


def _new_classes(b2, forms) -> list:
    """Indices of the ``forms`` whose classes are new modulo B^2.

    ``b2`` is a basis of B^2 and ``forms`` are n x n matrices.  Form k is
    new when it is not in the span of B^2 and the forms before it.  These
    are the pivot columns past B^2 in the RREF of the matrix whose columns
    are [B^2 | forms]: the pivot columns of a matrix are exactly its greedily
    chosen independent columns.
    """
    cols = [_vec(m) for m in (*b2, *forms)]
    rows = (
        {c: v[r] for c, v in enumerate(cols) if v[r]}
        for r in range(len(cols[0]) if cols else 0)
    )
    k = len(b2)
    return [c - k for c, _ in _eliminate(rows)[1] if c >= k]


def h2(A: Algebra) -> CohomologyBasis:
    """Z^2, B^2 and canonical representatives of H^2 = Z^2/B^2.

    Representatives are chosen greedily from the RREF-canonical Z^2 basis,
    keeping those that enlarge the span of B^2 and the earlier ones
    (:func:`_new_classes`) — deterministic for a given structure tensor.
    Computed once per algebra.
    """
    return _memo(A, "_h2", _h2)


def _h2(A: Algebra) -> CohomologyBasis:
    z2 = cocycle_space(A)
    b2 = coboundary_space(A)
    reps = [z2[k] for k in _new_classes(b2, z2)]
    return CohomologyBasis(tuple(z2), tuple(b2), tuple(reps))


def cocycle_annihilator(form: CocycleForm):
    """Basis of { x : theta(x, V) = theta(V, x) = 0 } for all components."""
    return kernel_basis_sparse(_annihilator_rows([m.rows for m in form.mats]), form.dim)


def central_extension(A: Algebra, form: CocycleForm, label: str = "") -> Algebra:
    """The algebra A_theta on A + C^s with x*y = xy + sum_c theta_c(x,y) z_c."""
    if form.dim != A.dim:
        raise ValueError("form dimension does not match algebra")
    n, s = A.dim, form.components
    for mat in form.mats:
        if not is_cocycle(A, mat):
            raise ValueError("component is not a cocycle")
    entries = list(A.entries())
    for c, mat in enumerate(form.mats):
        for i in range(n):
            for j in range(n):
                v = mat.rows[i][j]
                if v:
                    entries.append((i + 1, j + 1, n + c + 1, v))
    return algebra_from_entries(n + s, entries, label=label or f"{A.label}_ext")


def aut_action(form: CocycleForm, phi: ExactMatrix) -> CocycleForm:
    """phi acts by (phi theta)(x, y) = theta(phi x, phi y) = phi^T theta phi.

    Columns of phi are the images of the basis vectors.
    """
    pt = phi.transpose()
    return CocycleForm(tuple(pt * m * phi for m in form.mats))


def cohomologous(A: Algebra, m1: ExactMatrix, m2: ExactMatrix) -> bool:
    """Do two single-component cocycles differ by a coboundary?"""
    return not _new_classes(coboundary_space(A), [m1 - m2])


@dataclass(frozen=True)
class WellformedReport:
    ann_intersection_trivial: bool
    classes_independent: bool
    ann_decomposition_ok: bool

    @property
    def ok(self) -> bool:
        return self.ann_intersection_trivial and self.classes_independent

    def __bool__(self):
        return self.ok


def extension_wellformed(A: Algebra, form: CocycleForm, ext: Algebra) -> WellformedReport:
    """Sanity report for ``ext = central_extension(A, form)``, the extension
    of A by an s-component cocycle, as built by the caller.

    * the form's annihilator must meet the algebra's annihilator trivially
      (otherwise the extension secretly extends a smaller algebra),
    * the component classes must stay independent in H^2 (otherwise the
      extension splits off an annihilator line),
    * and the annihilator of the extension must be exactly
      (Ann(theta) ∩ Ann(A)) ⊕ C^s — this last item is a consistency check
      and is reported separately.  It checks dim Ann(A_theta) = dim(Ann(A) ∩
      Ann(theta)) + s and that the projection of Ann(A_theta) onto A lies in
      that intersection; the kernel of the projection is Ann(A_theta) ∩ C^s,
      so counting dimensions forces C^s ⊆ Ann(A_theta).
    """
    n, s = A.dim, form.components
    # Ann(A) ∩ Ann(theta): one system over the forms of A and of theta
    inter = kernel_basis_sparse(
        _annihilator_rows(_components(A)[0] + [m.rows for m in form.mats]), n
    )
    inter_dim = len(inter)

    independent = len(_new_classes(coboundary_space(A), form.mats)) == s

    ann_ext = annihilator(ext)
    decomposition_ok = len(ann_ext) == inter_dim + s
    if decomposition_ok:
        # each annihilator vector, truncated to the base, must lie in the
        # intersection
        base_parts = [v[:n] for v in ann_ext if any(v[:n])]
        if base_parts:
            decomposition_ok = ExactMatrix(inter + base_parts).rank() == inter_dim
    return WellformedReport(inter_dim == 0, independent, decomposition_ok)
