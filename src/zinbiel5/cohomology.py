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
    _integer_tensor,
    _ints,
    _nonzero_constants,
    _product,
    _scaled,
    algebra_from_entries,
    annihilator,
)
from .exactmath import (
    ZERO,
    ONE,
    ExactMatrix,
    _sparse_rref,
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

    def scale(self, c) -> "CocycleForm":
        return CocycleForm(tuple(m * grat(c) for m in self.mats))


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


def _sym_terms(by_ij, j: int, k: int):
    """Nonzero coordinates of e_j e_k + e_k e_j as [(m, coeff)], m ascending."""
    acc = {}
    for m, v in by_ij[j][k] + by_ij[k][j]:
        acc[m] = acc.get(m, ZERO) + v
    return sorted((m, v) for m, v in acc.items() if v)


def is_cocycle(A: Algebra, mat: ExactMatrix) -> bool:
    """Does ``mat`` satisfy every equation of the cocycle system?"""
    x = _vec(mat)
    return not any(
        sum((v * x[c] for c, v in row.items()), ZERO) for row in _cocycle_rows(A)
    )


def _cocycle_rows(A: Algebra):
    """Sparse rows of theta(e_i e_j, e_k) = theta(e_i, e_j e_k + e_k e_j).

    The unknowns are theta[i][j] -> column i*n+j.
    """
    n = A.dim
    by_ij = _nonzero_constants(A)
    sym = [[_sym_terms(by_ij, j, k) for k in range(n)] for j in range(n)]
    rows = []
    for i in range(n):
        for j in range(n):
            prod = by_ij[i][j]
            for k in range(n):
                row = {m * n + k: v for m, v in prod}
                for m, v in sym[j][k]:
                    col = i * n + m
                    row[col] = row.get(col, ZERO) - v
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def _unvec(v, n) -> ExactMatrix:
    return ExactMatrix([[v[i * n + j] for j in range(n)] for i in range(n)])


def _vec(mat: ExactMatrix):
    return tuple(x for row in mat.rows for x in row)


def cocycle_space(A: Algebra):
    """RREF-canonical basis of Z^2(A) as matrices."""
    n = A.dim
    return [_unvec(v, n) for v in kernel_basis_sparse(_cocycle_rows(A), n * n)]


def coboundary_space(A: Algebra):
    """Basis of B^2(A) = { (x,y) -> f(xy) }, RREF-canonical."""
    n = A.dim
    cand = []
    for l in range(n):
        mat = [[A.c[i][j][l] for j in range(n)] for i in range(n)]
        vec = tuple(x for row in mat for x in row)
        if any(vec):
            cand.append(vec)
    if not cand:
        return []
    red, piv = ExactMatrix(cand).rref()
    return [_unvec(red.rows[r], n) for r in range(len(piv))]


def coboundary_dimension(A: Algebra) -> int:
    return len(coboundary_space(A))


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
    return [c - k for c in sorted(_sparse_rref(rows)) if c >= k]


def h2(A: Algebra) -> CohomologyBasis:
    """Z^2, B^2 and canonical representatives of H^2 = Z^2/B^2.

    Representatives are chosen greedily from the RREF-canonical Z^2 basis,
    keeping those that enlarge the span of B^2 and the earlier ones
    (:func:`_new_classes`) — deterministic for a given structure tensor.
    """
    z2 = cocycle_space(A)
    b2 = coboundary_space(A)
    reps = [z2[k] for k in _new_classes(b2, z2)]
    return CohomologyBasis(tuple(z2), tuple(b2), tuple(reps))


def _form_annihilator_rows(form: CocycleForm):
    """Rows of theta(x, e_j) = theta(e_j, x) = 0 in the coordinates of x."""
    n = form.dim
    rows = []
    for mat in form.mats:
        for j in range(n):
            rows.append({i: mat.rows[i][j] for i in range(n) if mat.rows[i][j]})
            rows.append({m: mat.rows[j][m] for m in range(n) if mat.rows[j][m]})
    return [row for row in rows if row]


def cocycle_annihilator(A_or_n, form: CocycleForm):
    """Basis of { x : theta(x, V) = theta(V, x) = 0 } for all components."""
    return kernel_basis_sparse(_form_annihilator_rows(form), form.dim)


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


def extension_wellformed(A: Algebra, form: CocycleForm) -> WellformedReport:
    """Sanity report for a central extension by an s-component cocycle.

    * the form's annihilator must meet the algebra's annihilator trivially
      (otherwise the extension secretly extends a smaller algebra),
    * the component classes must stay independent in H^2 (otherwise the
      extension splits off an annihilator line),
    * and the annihilator of the extension must be exactly
      (Ann(theta) ∩ Ann(A)) ⊕ C^s — this last item is a consistency check
      and is reported separately.
    """
    n, s = A.dim, form.components
    # intersection of Ann(theta) and Ann(A): stack both linear systems
    inter = kernel_basis_sparse(_form_annihilator_rows(form) + _annihilator_rows(A), n)
    inter_dim = len(inter)

    independent = len(_new_classes(coboundary_space(A), form.mats)) == s

    ext = central_extension(A, form)
    ann_ext = annihilator(ext)
    decomposition_ok = len(ann_ext) == inter_dim + s
    if decomposition_ok:
        # each annihilator vector, truncated to the base, must lie in the
        # intersection, and the added directions must all annihilate
        base_parts = [v[:n] for v in ann_ext if any(v[:n])]
        if base_parts:
            stacked = [list(v) for v in inter] + [list(v) for v in base_parts]
            decomposition_ok = ExactMatrix(stacked).rank() == inter_dim
        for c in range(s):
            unit = tuple(
                ONE if idx == n + c else ZERO for idx in range(n + s)
            )
            row_ok = all(not x for x in product_vec(ext, unit))
            if not row_ok:
                decomposition_ok = False
    return WellformedReport(inter_dim == 0, independent, decomposition_ok)


def product_vec(A: Algebra, x):
    """All products x*e_j and e_j*x flattened — zero iff x annihilates."""
    out = []
    T, D = _integer_tensor(A)
    x = _ints(x)
    for j in range(A.dim):
        unit = (1, {j: (1, 0)})
        out.extend(_scaled(*_product(T, D, x, unit)))
        out.extend(_scaled(*_product(T, D, unit, x)))
    return out
