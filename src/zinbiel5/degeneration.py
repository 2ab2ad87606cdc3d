"""Degeneration certificates, necessary conditions, and R-set membership.

A certificate names a source family (optionally with a parametrized index
f(t)), a target algebra, and an n x n grid of basis expressions E_i(t).
Verification transports the source structure constants into that basis and
takes t -> 0.  The exact tier expands every entry as a Puiseux series and
reads off the limit; when an expression leaves the exact coefficient field,
the numeric tier evaluates the same transport with mpmath along a ladder of
t values and extrapolates to t = 0 (Neville).  Both tiers evaluate entries
through the one expression evaluator of ``series``, share one transport
loop, and report through ``SampleResult``.

A numeric attempt (one sample on one branch) runs at one precision, so it
computes once what no rung of the ladder changes: each subtree of the basis
grid, the index and the source constants that mentions neither t nor the
index symbol, and the differences of Neville's tableau.  Per rung it
evaluates the rest of each tree, factors the basis and transports the
constants.  A value computed once comes from the same operations on the same
operands at the same precision as the rung's own, so it is the same mpmath
number, and no report can change by a bit.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence

from .algebra import (
    Algebra,
    annihilator,
    change_basis,
    derivation_dimension,
    power_filtration,
)
from .exactmath import ExactMatrix, GaussianRational, ONE, ZERO
from .series import (
    DEFAULT_TRUNCATION,
    NonExpandable,
    PuiseuxSeries,
    Radical,
    ScalarValueError,
    TConst,
    _NumericContext,
    _evaluate,
    _fold_numeric,
    _load_mpmath as _load_series_mpmath,
    _to_mpmath,
    collect_sqrt_keys,
    evaluate_scalar,
    expand_series,
    expression_symbols,
    infer_ramification,
    parse_expression,
)

__all__ = [
    "FamilyTensor",
    "DegenerationCertificate",
    "DegenerationReport",
    "RSet",
    "NecessaryReport",
    "transported_constants",
    "verify_certificate",
    "necessary_conditions",
    "rset_membership",
    "NUMERIC_LADDER",
    "NUMERIC_TOLERANCE",
    "MAX_TRUNCATION",
    "MIN_PRECISION_BITS",
    "MAX_PRECISION_BITS",
]

NUMERIC_LADDER = tuple(f"1e-{k}" for k in range(2, 10))
NUMERIC_TOLERANCE = "1e-10"
NUMERIC_PRECISION_BITS = 256
# Accepted ranges of the caller's truncation and working precision (bits):
# series cost grows steeply with truncation, and below double precision
# the numeric tier cannot resolve NUMERIC_TOLERANCE.
MAX_TRUNCATION = 128
MIN_PRECISION_BITS, MAX_PRECISION_BITS = 53, 8192
# Bound on entry to the numeric tier, as in ``series``.
mpmath = None


def _load_mpmath():
    """Bind ``mpmath`` here and in ``series``: the numeric tier's entry.

    ``_lu``, ``_changes`` and the other helpers below read the bound name,
    so they pay no import per call.
    """
    global mpmath
    mpmath = _load_series_mpmath()
    return mpmath


@dataclass(frozen=True)
class FamilyTensor:
    """Structure constants whose entries may involve parameter symbols."""

    dim: int
    entries: tuple  # ((i, j, k, TExpression), ...) 1-based
    symbols: tuple = ()
    label: str = ""

    @staticmethod
    def from_entries(dim: int, entries: Iterable, label: str = "") -> "FamilyTensor":
        parsed = []
        symbols = set()
        for i, j, k, expr in entries:
            node = parse_expression(expr)
            symbols |= expression_symbols(node)
            parsed.append((i, j, k, node))
        return FamilyTensor(dim, tuple(parsed), tuple(sorted(symbols)), label)

    @staticmethod
    def from_algebra(A: Algebra, label: str = "") -> "FamilyTensor":
        entries = tuple((i, j, k, TConst(v)) for i, j, k, v in A.entries())
        return FamilyTensor(A.dim, entries, (), label or A.label)

    def instantiate(self, params: Dict[str, GaussianRational], label: str = "") -> Algebra:
        from .algebra import algebra_from_entries

        vals = [(i, j, k, v) for i, j, k, e in self.entries if (v := evaluate_scalar(e, params))]
        tag = tuple(sorted((s, params[s]) for s in self.symbols)) if self.symbols else ()
        return algebra_from_entries(
            self.dim, vals, label=label or self.label, params=tag
        )


@dataclass(frozen=True)
class DegenerationCertificate:
    source: object  # FamilyTensor or catalog id string
    target: object  # Algebra or catalog id string
    basis: tuple  # n x n grid of expression strings/nodes
    source_index: Optional[object] = None  # f(t) bound to the source parameter
    source_params: tuple = ()  # ((symbol, expr), ...) fixed scalar bindings
    target_params: tuple = ()  # ((symbol, expr), ...) for parametric targets
    target_pad: int = 0  # extra zero summands to match the source dimension
    samples: tuple = ()  # ({symbol: expr}, ...) bindings for free symbols
    label: str = ""


@dataclass(frozen=True)
class SampleResult:
    verdict: str
    mode: str
    branch: tuple
    max_residual: str
    failures: tuple
    det_valuation: Optional[Fraction]
    params: tuple = ()  # ((symbol, value text), ...) of the sample

    def as_dict(self):
        return {
            "params": {k: str(v) for k, v in self.params},
            "verdict": self.verdict,
            "mode": self.mode,
            "branch": dict(self.branch),
            "max_residual": self.max_residual,
            "failures": list(self.failures),
            "det_valuation": None
            if self.det_valuation is None
            else str(self.det_valuation),
        }


@dataclass(frozen=True)
class DegenerationReport:
    verdict: str  # verified | failed | inconclusive
    mode: str  # exact | numeric | mixed
    samples: tuple
    label: str = ""

    def as_dict(self):
        return {
            "label": self.label,
            "verdict": self.verdict,
            "mode": self.mode,
            "samples": [s.as_dict() for s in self.samples],
        }

    def __bool__(self):
        return self.verdict == "verified"


# ---------------------------------------------------------------------------
# exact transport
# ---------------------------------------------------------------------------


def _series_matrix_inverse(rows: List[List[PuiseuxSeries]], trunc: int):
    """Gauss-Jordan inverse over the series field with min-valuation pivots.

    Returns (inverse, det) where det is the series determinant.  Each pivot
    has a known leading term, so det has a known nonzero leading term.
    The columns of ``work`` left of the pivot's are not read again, so
    only the pivot's column and those right of it are updated.
    """
    n = len(rows)
    work = [list(r) for r in rows]
    ident = [
        [
            PuiseuxSeries.scalar(ONE if i == j else ZERO)
            for j in range(n)
        ]
        for i in range(n)
    ]
    det = PuiseuxSeries.scalar(ONE)
    for col in range(n):
        pivot_row = None
        pivot_val = None
        for r in range(col, n):
            s = work[r][col]
            if s.known_zero:
                continue
            v = s.valuation()
            if pivot_val is None or v < pivot_val:
                pivot_row, pivot_val = r, v
        if pivot_row is None:
            exact_col = all(work[r][col].is_exact for r in range(col, n))
            if exact_col:
                raise ZeroDivisionError("basis matrix is singular")
            raise NonExpandable("pivot hidden below truncation in basis matrix")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            ident[col], ident[pivot_row] = ident[pivot_row], ident[col]
            det = -det
        pivot = work[col][col]
        det = det * pivot
        inv = pivot.inverse(trunc)
        work[col][col:] = [x * inv for x in work[col][col:]]
        ident[col] = [x * inv for x in ident[col]]
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            if f.known_zero:
                continue
            work[r][col:] = [a - f * b for a, b in zip(work[r][col:], work[col][col:])]
            ident[r] = [a - f * b for a, b in zip(ident[r], ident[col])]
    return ident, det


def _transport(dim, entries, E, rows, value, zero):
    """The constants (a, b, k, expr) moved to the basis rows E, times an inverse.

    w[i][j][k] = sum of E[i][a] * E[j][b] * value(expr); the result is the
    grid w . inv, where rows[m] lists the terms (k, inv[m][k]) of row m of
    the inverse that the caller has the contraction sum.  Each result entry
    is zero plus its terms in ascending m, the order a sum over m gives.  A
    term with a falsy factor of w is skipped: falsy means the exact zero,
    for a mpmath number and for a series alike (a truncated series with no
    known term is truthy), so every skipped term is provably zero and the
    nonzero terms keep their arithmetic and order.
    """
    w = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for a, b, k, expr in entries:
        c = value(expr)
        if not c:
            continue
        for i in range(dim):
            Eia = E[i][a - 1]
            if not Eia:
                continue
            for j in range(dim):
                Ejb = E[j][b - 1]
                if not Ejb:
                    continue
                w[i][j][k - 1] = w[i][j][k - 1] + Eia * Ejb * c

    def contract(wij):
        out = [zero] * dim
        for m, wm in enumerate(wij):
            if wm:
                for k, x in rows[m]:
                    out[k] = out[k] + wm * x
        return tuple(out)

    return tuple(tuple(contract(wij) for wij in wi) for wi in w)


def transported_constants(
    dim: int,
    entries: Sequence,
    basis: Sequence,
    *,
    params=None,
    trunc: int = DEFAULT_TRUNCATION,
    branch=None,
):
    """Structure constants of the source in the parametrized basis.

    entries are 1-based (i, j, k, expression); basis is a dim x dim grid of
    expressions; params binds parameter symbols to scalars or series.
    Returns (grid, det) with grid[i][j][k] a PuiseuxSeries and det the basis
    determinant series.
    """
    ram = infer_ramification([e for row in basis for e in row])

    def value(e):
        return expand_series(e, ram=ram, trunc=trunc, params=params, branch=branch)

    E = [[value(e) for e in row] for row in basis]
    inv, det = _series_matrix_inverse(E, trunc)
    # every term, zero ones too: a zero series lifts a sum's ramification,
    # which the returned series record
    rows = [list(enumerate(row)) for row in inv]
    return _transport(dim, entries, E, rows, value, PuiseuxSeries.zero()), det


def _limit_status(s: PuiseuxSeries):
    """('value', Radical) if lim t->0 exists and is known, else ('diverges'|'unknown', None)."""
    if s.terms and s.terms[0][0] < 0:
        return ("diverges", None)
    if s.prec is not None and s.prec <= 0:
        return ("unknown", None)
    return ("value", s.coefficient(0))


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------


def _resolve_source(source) -> FamilyTensor:
    if isinstance(source, FamilyTensor):
        return source
    if isinstance(source, Algebra):
        return FamilyTensor.from_algebra(source)
    from .catalog import family_tensor

    return family_tensor(source)


def _resolve_target(target, params: Dict[str, GaussianRational], pad: int, tensor=None) -> Algebra:
    """The target algebra; a catalog id is bound by ``tensor(eid, params)``,
    by default :func:`~zinbiel5.catalog.instantiate`."""
    from .algebra import direct_sum, zero_algebra

    if isinstance(target, Algebra):
        out = target
    else:
        if tensor is None:
            from .catalog import instantiate as tensor

        out = tensor(target, params)
    if pad:
        out = direct_sum(out, zero_algebra(pad))
    return out


def _bound_samples(cert: DegenerationCertificate, tensor=None):
    """Per sample: its scalar parameters and the target bound at them.

    The parameters are the sample's values, then the certificate's source
    bindings evaluated at them; the target bindings are evaluated at both.
    A binding that names a symbol no sample binds is a ValueError.
    ``tensor`` binds a catalog target, as in :func:`_resolve_target`.
    """
    for raw in cert.samples or ({},):
        try:
            params = {name: evaluate_scalar(expr) for name, expr in dict(raw).items()}
            for name, expr in cert.source_params:
                params[name] = evaluate_scalar(expr, params)
            tparams = {name: evaluate_scalar(expr, params) for name, expr in cert.target_params}
        except ScalarValueError as exc:
            raise ValueError(f"{cert.label}: {exc}") from None
        yield params, _resolve_target(cert.target, tparams, cert.target_pad, tensor)


def _branch_assignments(keys):
    for signs in itertools.product((1, -1), repeat=len(keys)):
        yield dict(zip(keys, signs))


def _exact_attempt(source, basis_grid, target, series_params, branch, trunc):
    """One exact verification pass; returns (status, failures, det_valuation).

    status: 'verified' | 'failed' | 'unknown'; failures lists (i,j,k,limit).
    An entry that is the exact zero series, against a zero target
    constant, can neither fail nor be unknown, and is skipped.
    """
    dim = source.dim
    grid, det = transported_constants(
        dim,
        source.entries,
        basis_grid,
        params=series_params,
        trunc=trunc,
        branch=branch,
    )
    det_val = det.valuation()
    failures = []
    unknown = False
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                s = grid[i][j][k]
                if not s and not target.c[i][j][k]:
                    continue
                status, limit = _limit_status(s)
                if status == "unknown":
                    unknown = True
                    continue
                if status == "diverges":
                    failures.append((i + 1, j + 1, k + 1, "diverges"))
                    continue
                expect = Radical.from_gaussian(target.c[i][j][k])
                if limit != expect:
                    failures.append((i + 1, j + 1, k + 1, str(limit - expect)))
    if failures:
        return "failed", tuple(failures), det_val
    if unknown:
        return "unknown", (), det_val
    return "verified", (), det_val


def _neville_differences(xs):
    """The denominators x_(k+level) - x_k of Neville's tableau over xs, per level."""
    n = len(xs)
    return [[xs[k + level] - xs[k] for k in range(n - level)] for level in range(1, n)]


def _neville_at_zero(xs, dxs, ys):
    """Neville extrapolation of (xs, ys) to x = 0; dxs is ``_neville_differences(xs)``.

    An all-zero ladder extrapolates to its own exact zero, which is what
    the recurrence computes from it term by term.
    """
    if not any(ys):
        return ys[0]
    tab = list(ys)
    for level, dx in enumerate(dxs, 1):
        tab = [
            (xs[k + level] * tab[k] - xs[k] * tab[k + 1]) / d
            for k, d in enumerate(dx)
        ]
    return tab[0]


def _extrapolator(xs):
    """``_neville_at_zero`` over the ladder xs, run once per distinct ys.

    A ladder's key is the raw tuple of each of its numbers: an mpf's is four
    integers, an mpc's a pair of such tuples.  So ladders share a key only
    when their numbers have equal types and bits, and then the same
    operations give them the same limit.
    """
    dxs = _neville_differences(xs)
    mpf = mpmath.mpf
    limits = {}

    def limit_at_zero(ys):
        key = tuple([y._mpf_ if type(y) is mpf else y._mpc_ for y in ys])
        limit = limits.get(key)
        if limit is None:
            limit = limits[key] = _neville_at_zero(xs, dxs, ys)
        return limit

    return limit_at_zero


def _lu(A):
    """mpmath's ``LU_decomp`` of the square list A, in place.

    The same decisions and the same values at the caller's precision: the
    tolerance |mnorm_1(A) * eps|, the pivot with the largest |A[k][j]| over
    its row's reciprocal absolute sum (first strict maximum), the row swap,
    and the ``/=`` and ``-=`` updates, so every entry is bit-identical to
    mpmath's.  Every zero of A must be ``mpmath.mp.zero`` itself, as
    ``_det_and_inverse`` stores it, and an entry that becomes zero is
    stored as that zero, as mpmath's matrix class reads it back: so every
    zero in the factor is mpmath's ``mpf`` zero, and is tested by identity.

    The search, ``tol`` and the singularity tests compute mpmath's
    magnitudes, sums, ratios and comparisons on the raw ``_mpf_`` values
    through ``mpmath.libmp``, with the rounding mpmath uses for each; all of
    these values are real.  Only work whose result nobody reads is left out:

    - zero terms of the absolute sums, which add nothing;
    - the ratio of a lone candidate (the only row nonzero in the column):
      its ratio is positive and every other row's is 0, and a lone
      candidate wins the strict ``>`` against 0;
    - the absolute sum of a row whose ratio is not computed, when one of
      its magnitudes exceeds ``tol``: a correctly rounded sum of
      magnitudes is at least its largest term, so the row passes the
      singularity test;
    - the elimination in rows that are zero in the pivot column, and in
      the other rows in the columns where the pivot row is zero: the
      multiplier or the pivot row's entry is the ``mpf`` zero, so the
      product is a zero.  Where ``_changes`` finds that this zero is an
      ``mpc`` that turns a real entry complex (a complex multiplier or
      pivot row entry makes it one), the entry is still updated.

    Returns the pivot rows, or None when A is numerically singular or a
    column has no pivot.
    """
    libmp = mpmath.libmp
    mpf_abs, mpc_abs, mpf_sum = libmp.mpf_abs, libmp.mpc_abs, libmp.mpf_sum
    mpf_le, mpf_gt = libmp.mpf_le, libmp.mpf_gt
    mpf, mpc, zero = mpmath.mpf, mpmath.mpc, mpmath.mp.zero
    prec, rnd = mpmath.mp._prec_rounding  # what every mpf operation rounds to
    n = len(A)
    # mnorm's fsum(absolute=True) takes an mpc's magnitude at its default
    # rounding, and an mpf's sign off
    norm = libmp.fzero
    for col in zip(*A):
        s = mpf_sum([x._mpf_ if type(x) is mpf else mpc_abs(x._mpc_, prec)
                     for x in col if x is not zero], prec, rnd, True)
        if mpf_gt(s, norm):
            norm = s
    tol = mpf_abs(libmp.mpf_mul(norm, mpmath.eps._mpf_, prec, rnd), prec, rnd)

    def magnitude(x):
        """abs(x), as mpmath rounds it."""
        return mpf_abs(x._mpf_, prec, rnd) if type(x) is mpf else mpc_abs(x._mpc_, prec, rnd)

    def singular(row, j):
        """Whether the absolute sum of row[j:] is at most tol."""
        mags = []
        for x in row[j:]:
            if x is not zero:
                m = magnitude(x)
                if mpf_gt(m, tol):
                    return False
                mags.append(m)
        return mpf_le(mpf_sum(mags, prec, rnd), tol)

    p = []
    for j in range(n - 1):
        candidates = [k for k in range(j, n) if A[k][j] is not zero]
        if not candidates:
            return None
        pj = candidates[0]
        lone = len(candidates) == 1
        if not lone:
            biggest = libmp.fzero
            for k in candidates:
                mags = [magnitude(x) for x in A[k][j:] if x is not zero]
                s = mpf_sum(mags, prec, rnd)
                if mpf_le(s, tol):
                    return None
                current = libmp.mpf_mul(libmp.mpf_rdiv_int(1, s, prec, rnd), mags[0], prec, rnd)
                if mpf_gt(current, biggest):
                    biggest, pj = current, k
        if any(singular(A[k], j) for k in range(j, n) if lone or A[k][j] is zero):
            return None
        p.append(pj)
        A[j], A[pj] = A[pj], A[j]
        Aj = A[j]
        pivot = Aj[j]
        if mpf_le(magnitude(pivot), tol):
            return None
        nonzero_cols = [k for k in range(j + 1, n) if Aj[k] is not zero]
        complex_cols = [k for k in nonzero_cols if type(Aj[k]) is mpc]
        for i in range(j + 1, n):
            Ai = A[i]
            f = Ai[j]
            if f is zero:
                cols = complex_cols
            else:
                f = Ai[j] = f / pivot
                if type(f) is not mpc:
                    for k in nonzero_cols:
                        Ai[k] = Ai[k] - f * Aj[k] or zero
                    continue
                cols = range(j + 1, n)
            for k in cols:
                if _changes(Ai[k], f, Aj[k]):
                    Ai[k] = Ai[k] - f * Aj[k] or zero
    if mpf_le(magnitude(A[n - 1][n - 1]), tol):
        return None
    return p


def _changes(a, x, y):
    """Whether mpmath's a - x*y differs from a, for numbers at the precision.

    It does when x*y is nonzero, or when x*y is a complex zero and a is
    real (the difference is then complex).  Subtracting any other zero only
    rounds a to the precision it already has.  A zero times a complex
    number is a complex zero, so a zero entry of the factor still changes
    a real a when the other operand is complex.
    """
    mpc = mpmath.mpc
    return (x and y) or (type(a) is not mpc and mpc in (type(x), type(y)))


def _subtract_terms(b, i, terms, complex_before):
    """b[i] minus x * b[j] over the (j, x) of terms in order, as mpmath's
    solve loops compute it over the whole row.

    terms lists the row's nonzero factor entries.  A zero entry's product
    is a zero, so it changes b[i] only when b[j] is complex and b[i] real,
    and then only b[i]'s type: complex_before says whether any b[j] the
    loop reads is complex, and a real b[i] left after the nonzero terms
    takes its complex zero then.  Arithmetic on a real number and on the
    same number as a complex one with imaginary part 0 gives the same
    parts, so where in the row the type changes moves no bit.
    """
    bi = b[i]
    for j, x in terms:
        if _changes(bi, x, b[j]):
            bi = bi - x * b[j]
    if complex_before and type(bi) is not mpmath.mpc:
        bi = bi - mpmath.mpc(0)
    return bi


def _det_and_inverse(E):
    """The determinant and inverse of the square list E, as mpmath computes them.

    E holds mpmath numbers at the working precision.  det is
    ``mpmath.det``: the signed pivot product of an LU at the working
    precision.  The inverse is ``mpmath.inverse``: an LU at 10 more bits,
    then one ``L_solve`` / ``U_solve`` per unit vector.  Each factorisation
    keeps its own precision, so each decides numerical singularity where
    mpmath does.  The solves walk each row's nonzero L and U entries, listed
    once per factorisation (``_subtract_terms``): every zero of the factor
    is mpmath's ``mpf`` zero, whose products change no value.  Returns
    (0, None) when E is singular.
    """
    zero, one, mpc = mpmath.mp.zero, mpmath.mp.one, mpmath.mpc
    n = len(E)
    A = [[x or zero for x in row] for row in E]
    p = _lu(A)
    if p is None:
        return 0, None
    det = 1
    for i, pi in enumerate(p):
        if i != pi:
            det *= -1
    for i in range(n):
        det *= A[i][i]
    with mpmath.extraprec(10):
        A = [[x or zero for x in row] for row in E]
        p = _lu(A)
        if p is None:
            return 0, None
        lower = [[(j, x) for j, x in enumerate(row[:i]) if x is not zero]
                 for i, row in enumerate(A)]
        upper = [[(j, x) for j, x in enumerate(row[i + 1:], i + 1) if x is not zero]
                 for i, row in enumerate(A)]
        cols = []
        for c in range(n):
            b = [zero] * n
            b[c] = one
            for k, pk in enumerate(p):
                b[k], b[pk] = b[pk], b[k]
            complex_before = False
            for i in range(n):
                b[i] = _subtract_terms(b, i, lower[i], complex_before)
                complex_before = complex_before or type(b[i]) is mpc
            complex_before = False
            for i in range(n - 1, -1, -1):
                b[i] = _subtract_terms(b, i, upper[i], complex_before) / A[i][i]
                complex_before = complex_before or type(b[i]) is mpc
            cols.append(b)
    return det, [[col[i] or zero for col in cols] for i in range(n)]


def _numeric_attempt(source, basis_grid, target, scalar_params, index_expr, branch):
    """Numeric transport along the t-ladder with Neville extrapolation to t = 0.

    The attempt runs at one precision and on one branch, so what no rung
    changes is computed once, before the ladder: ``_fold_numeric`` evaluates
    every subtree of the basis grid, the index and the source constants
    that mentions neither t nor the index symbol, and ``_neville_differences``
    the denominators of the extrapolation.  Each is the same mpmath number
    the rung would compute, so every report is bit-identical to evaluating
    whole trees per rung.  Per rung: the t-dependent rest of the trees,
    evaluated through one ``_NumericContext`` (t, the parameters with the
    index's value, and the branch are the same for every tree of the rung,
    so one context per tree would only repeat its set-up), and the basis's
    determinant and inverse from ``_det_and_inverse``, plain-list LUs that
    compute what ``mpmath.det`` (at the working precision) and
    ``mpmath.inverse`` (at 10 bits more) compute.  A basis
    that is numerically singular at any rung, including one with a column
    left without a pivot, makes the attempt inconclusive.  An entry whose
    ladder and target are both the exact zero has error exactly 0 and takes
    no extrapolation, and a ladder met before reuses its limit.

    The transport sums from mpmath's real zero and skips the inverse's
    exact zeros, so a rung whose basis, inverse and constants are real
    stays real.  Every operand is already rounded at the precision, so a
    real number is bit for bit the real part complex arithmetic would
    give, with an imaginary part of exactly 0, and every report is
    bit-identical to transporting in complex arithmetic.
    """
    dim = source.dim
    try:
        ram = infer_ramification([e for row in basis_grid for e in row])
    except NonExpandable:
        ram = 12
    tol = mpmath.mpf(NUMERIC_TOLERANCE)
    # a finer ramification spreads the ladder in s = t^(1/ram); deepen it so
    # the Neville product error stays well under the tolerance
    ladder = (
        NUMERIC_LADDER
        if ram <= 3
        else tuple(f"1e-{k}" for k in range(2, 14))
    )
    free = () if index_expr is None else source.symbols[:1]
    basis = [[_fold_numeric(e, scalar_params, branch, free) for e in row] for row in basis_grid]
    entries = [(a, b, k, _fold_numeric(e, scalar_params, branch, free))
               for a, b, k, e in source.entries]
    index = None if index_expr is None else _fold_numeric(index_expr, scalar_params, branch)
    samples = []
    dets = []
    for tstr in ladder:
        tval = mpmath.mpf(tstr)
        ctx = _NumericContext(tval, dict(scalar_params), branch)
        if index is not None:
            ctx.params[source.symbols[0]] = _evaluate(index, ctx)

        def value(e):
            return _evaluate(e, ctx)

        E = [[value(e) for e in row] for row in basis]
        det, inv = _det_and_inverse(E)
        if inv is None:
            return "inconclusive", (), None, str(mpmath.mpf(1))
        dets.append((tval, det))
        # only the nonzero inverse entries: adding a zero term changes no
        # bit of a sum's parts, at most its type from mpf to mpc
        rows = [[(k, x) for k, x in enumerate(row) if x] for row in inv]
        grid = _transport(dim, entries, E, rows, value, mpmath.mp.zero)
        samples.append((tval, grid))
    limit_at_zero = _extrapolator(
        [mpmath.power(tval, mpmath.mpf(1) / ram) for tval, _ in samples]
    )
    failures = []
    worst = mpmath.mpf(0)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                ys = [g[i][j][k] for _, g in samples]
                c = target.c[i][j][k]
                if not c and not any(ys):
                    continue
                limit = limit_at_zero(ys)
                tnum = _to_mpmath(c)
                err = abs(limit - tnum) / max(1, abs(tnum))
                worst = max(worst, err)
                if err > tol:
                    failures.append((i + 1, j + 1, k + 1, mpmath.nstr(err, 5)))
    # slope of log|det| against log t estimates the determinant valuation
    (t1, d1), (t2, d2) = dets[-2], dets[-1]
    slope = (mpmath.log(abs(d1)) - mpmath.log(abs(d2))) / (
        mpmath.log(t1) - mpmath.log(t2)
    )
    det_val = Fraction(round(float(slope) * ram), ram)
    status = "verified" if not failures else "inconclusive"
    return status, tuple(failures), det_val, mpmath.nstr(worst, 5)


def verify_certificate(
    cert: DegenerationCertificate,
    mode: str = "auto",
    trunc: int = DEFAULT_TRUNCATION,
    precision: int = None,
) -> DegenerationReport:
    """Verify a degeneration certificate.

    mode: 'exact' (no fallback), 'numeric', or 'auto' (exact first, numeric
    when an expression cannot be expanded exactly).  Exact failures are
    definite; numeric mismatches are reported as inconclusive.  precision
    overrides the working precision (in bits) of the numeric tier.  trunc
    must be an integer in 1..MAX_TRUNCATION and precision one in
    MIN_PRECISION_BITS..MAX_PRECISION_BITS.  A symbol that the basis, the
    index or the source uses and a sample leaves unbound is a ValueError.
    """
    if mode not in ("auto", "exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    if type(trunc) is not int or not 1 <= trunc <= MAX_TRUNCATION:
        raise ValueError(f"truncation must be an integer in 1..{MAX_TRUNCATION}")
    if precision is None:
        precision = NUMERIC_PRECISION_BITS
    if type(precision) is not int or not MIN_PRECISION_BITS <= precision <= MAX_PRECISION_BITS:
        raise ValueError(
            f"precision must be an integer in {MIN_PRECISION_BITS}..{MAX_PRECISION_BITS} bits"
        )
    source = _resolve_source(cert.source)
    dim = source.dim
    basis_grid = [
        [parse_expression(cert.basis[i][j]) for j in range(dim)] for i in range(dim)
    ]
    index_expr = None if cert.source_index is None else parse_expression(cert.source_index)
    if index_expr is not None and not source.symbols:
        raise ValueError("certificate has an index but the source is not parametric")
    branch_targets = [e for row in basis_grid for e in row]
    if index_expr is not None:
        branch_targets.append(index_expr)
    keys = collect_sqrt_keys(branch_targets)
    needed = set(source.symbols).union(*map(expression_symbols, branch_targets))
    if index_expr is not None:
        needed.discard(source.symbols[0])

    # One DEBUG record per sample: its tier, the truncation the exact tier
    # reached, the determinant valuation and the wall time.  No handler is
    # installed here.  logging is imported at the first verification, not at
    # start-up, where it cost every command about 0.4 MiB of peak RSS and
    # 5 ms (2-core x86-64 VM).
    import logging

    log = logging.getLogger(__name__)
    results = []
    for number, (scalar_params, target) in enumerate(_bound_samples(cert), 1):
        unbound = sorted(needed - set(scalar_params))
        if unbound:
            raise ValueError(f"{cert.label}: unbound parameter {unbound[0]!r}")
        if target.dim != dim:
            raise ValueError(
                f"target dimension {target.dim} != source dimension {dim}"
            )
        start = time.perf_counter()
        result = reached = None
        if mode in ("auto", "exact"):
            result, reached = _verify_exact_sample(
                source, basis_grid, target, scalar_params, index_expr, keys, trunc
            )
        if result is None and mode in ("auto", "numeric"):
            result = _verify_numeric_sample(
                source, basis_grid, target, scalar_params, index_expr, keys,
                precision,
            )
        if result is None:
            result = SampleResult(
                "inconclusive", "exact", (), "n/a", (("non-expandable",),), None
            )
        params = tuple(sorted((k, str(v)) for k, v in scalar_params.items()))
        results.append(replace(result, params=params))
        log.debug("%s: sample %d, tier %s, truncation %s, det valuation %s, %.1f ms",
                  cert.label, number, result.mode, reached or "n/a",
                  result.det_valuation, 1000 * (time.perf_counter() - start))
    verdicts = [r.verdict for r in results]
    if all(v == "verified" for v in verdicts):
        verdict = "verified"
    elif any(v == "failed" for v in verdicts):
        verdict = "failed"
    else:
        verdict = "inconclusive"
    modes = {r.mode for r in results}
    overall_mode = modes.pop() if len(modes) == 1 else "mixed"
    return DegenerationReport(verdict, overall_mode, tuple(results), label=cert.label)


def _verify_exact_sample(source, basis_grid, target, scalar_params, index_expr, keys, trunc):
    """Try every branch exactly: (result, truncation reached), and
    (None, None) to fall back to numerics."""
    best_failed = None, None
    saw_unknown = False
    for branch in _branch_assignments(keys):
        for attempt_trunc in (trunc, 2 * trunc):
            try:
                params = dict(scalar_params)
                if index_expr is not None:
                    params[source.symbols[0]] = expand_series(
                        index_expr,
                        trunc=attempt_trunc,
                        params=scalar_params,
                        branch=branch,
                    )
                status, failures, det_val = _exact_attempt(
                    source, basis_grid, target, params, branch, attempt_trunc
                )
            except NonExpandable:
                return None, None
            except ZeroDivisionError:
                status, failures, det_val = "failed", (("basis", "singular"),), None
            if status == "verified":
                return SampleResult(
                    "verified", "exact", tuple(sorted(branch.items())), "0", (), det_val
                ), attempt_trunc
            if status == "failed":
                best_failed = SampleResult(
                    "failed",
                    "exact",
                    tuple(sorted(branch.items())),
                    "n/a",
                    failures,
                    det_val,
                ), attempt_trunc
                break  # doubling truncation will not undo an exact mismatch
            saw_unknown = True
    if saw_unknown:
        return SampleResult("inconclusive", "exact", (), "n/a", (), None), 2 * trunc
    return best_failed


def _verify_numeric_sample(
    source, basis_grid, target, scalar_params, index_expr, keys,
    precision=NUMERIC_PRECISION_BITS,
):
    with _load_mpmath().workprec(precision):
        best = None
        for branch in _branch_assignments(keys):
            status, failures, det_val, worst = _numeric_attempt(
                source, basis_grid, target, scalar_params, index_expr, branch
            )
            attempt = SampleResult(
                status,
                "numeric",
                tuple(sorted(branch.items())),
                worst,
                failures,
                det_val,
            )
            if status == "verified":
                return attempt
            if best is None:
                best = attempt
        return best


# ---------------------------------------------------------------------------
# necessary conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NecessaryReport:
    der_strictly_smaller: bool
    power_dims_dominate: bool
    ann_not_larger: bool
    details: tuple

    @property
    def ok(self) -> bool:
        return (
            self.der_strictly_smaller
            and self.power_dims_dominate
            and self.ann_not_larger
        )

    def __bool__(self):
        return self.ok


def necessary_conditions(A: Algebra, B: Algebra) -> NecessaryReport:
    """Standard necessary conditions for a proper degeneration A -> B."""
    if A.dim != B.dim:
        raise ValueError("degeneration requires equal dimensions")
    der_a = derivation_dimension(A)
    der_b = derivation_dimension(B)
    pa = power_filtration(A)
    pb = power_filtration(B)
    powers = [(f"power{k}", pa.dim(k), pb.dim(k)) for k in range(2, A.dim + 1)]
    power_ok = all(da >= db for _, da, db in powers)
    ann_a = len(annihilator(A))
    ann_b = len(annihilator(B))
    details = (("der", der_a, der_b), *powers, ("ann", ann_a, ann_b))
    return NecessaryReport(der_a < der_b, power_ok, ann_a <= ann_b, details)


# ---------------------------------------------------------------------------
# R-sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RSet:
    """A Borel-stable constraint set on structure constants.

    containments: (p, q, r) meaning A_p A_q ⊆ A_r with A_m = span(e_m..e_n);
    equations: expressions over symbols c<i><j><k> that must vanish;
    relabel: permutation sigma (1-based) applied first, f_i = e_sigma(i).
    """

    containments: tuple = ()
    equations: tuple = ()
    relabel: Optional[tuple] = None
    label: str = ""


def _apply_relabel(S: Algebra, relabel) -> Algebra:
    n = S.dim
    rows = [[ONE if j == relabel[i] - 1 else ZERO for j in range(n)] for i in range(n)]
    return change_basis(S, ExactMatrix(rows))


def rset_membership(S: Algebra, R: RSet):
    """(member?, witness) — witness names the first violated constraint."""
    work = _apply_relabel(S, R.relabel) if R.relabel else S
    n = work.dim
    for (p, q, r) in R.containments:
        for i in range(p - 1, n):
            for j in range(q - 1, n):
                for k in range(r - 1):
                    if work.c[i][j][k]:
                        return False, (
                            f"A_{p}A_{q} ⊆ A_{r} fails: c[{i+1}][{j+1}]^{k+1} = "
                            f"{work.c[i][j][k]}"
                        )
    if R.equations:
        bindings = {
            f"c{i}{j}{k}": work.c[i - 1][j - 1][k - 1]
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for k in range(1, n + 1)
        }
        for eq in R.equations:
            val = evaluate_scalar(eq, bindings)
            if val:
                return False, f"{eq} = {val} ≠ 0"
    return True, None
