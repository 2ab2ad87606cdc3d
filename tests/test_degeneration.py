import hashlib
import json
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from zinbiel5 import degeneration
from zinbiel5.algebra import algebra_from_entries, change_basis, zero_algebra
from zinbiel5.catalog import certificates, family_members, list_ids
from zinbiel5.degeneration import (
    NUMERIC_LADDER,
    DegenerationCertificate,
    FamilyTensor,
    NecessaryReport,
    RSet,
    necessary_conditions,
    rset_membership,
    _bound_samples,
    _branch_assignments,
    _det_and_inverse,
    _extrapolator,
    _load_mpmath,
    _neville_at_zero,
    _neville_differences,
    _resolve_source,
    _transport,
    transported_constants,
    verify_certificate,
)
from zinbiel5.exactmath import ExactMatrix, GaussianRational, grat
from zinbiel5.series import (
    NonExpandable,
    PuiseuxSeries,
    Radical,
    TAdd,
    TConst,
    TDiv,
    TImag,
    TMul,
    TNeg,
    TNum,
    TPow,
    TSqrt,
    TSub,
    TSym,
    TVar,
    collect_sqrt_keys,
    evaluate_numeric,
    expand_series,
    parse_expression,
    _TFolded,
    _fold_numeric,
)


def alg(dim, *entries):
    return algebra_from_entries(dim, entries)


SQUARE2 = alg(2, (1, 1, 2, 1))
THREE_STEP4 = alg(4, (1, 1, 2, 1), (1, 2, 3, 1), (2, 1, 3, 2))


def identity_basis(n):
    return tuple(
        tuple("1" if i == j else "0" for j in range(n)) for i in range(n)
    )


def cert(source, target, basis, **kw):
    return DegenerationCertificate(source=source, target=target, basis=basis, **kw)


# family tensors ---------------------------------------------------------------


def test_family_instantiate():
    fam = FamilyTensor.from_entries(2, [(1, 1, 2, "a")])
    assert fam.symbols == ("a",)
    inst = fam.instantiate({"a": grat(3)})
    assert inst.c[0][0][1] == grat(3)
    assert inst.params == (("a", grat(3)),)


def test_family_from_algebra_round_trip():
    fam = FamilyTensor.from_algebra(THREE_STEP4)
    assert fam.instantiate({}) == THREE_STEP4


# transport ---------------------------------------------------------------------


def test_transport_identity_basis():
    fam = FamilyTensor.from_algebra(THREE_STEP4)
    grid, det = transported_constants(4, fam.entries, identity_basis(4))
    assert det.coefficient(0) == Radical.from_gaussian(grat(1))
    for i, j, k, v in THREE_STEP4.entries():
        assert grid[i - 1][j - 1][k - 1].coefficient(0) == Radical.from_gaussian(v)


def test_transport_scaling_basis_multiplies_by_t():
    # diag(t, ..., t) multiplies every structure constant by t
    fam = FamilyTensor.from_algebra(THREE_STEP4)
    basis = tuple(
        tuple("t" if i == j else "0" for j in range(4)) for i in range(4)
    )
    grid, det = transported_constants(4, fam.entries, basis)
    assert det.valuation() == 4
    for i, j, k, v in THREE_STEP4.entries():
        s = grid[i - 1][j - 1][k - 1]
        assert s.coefficient(1) == Radical.from_gaussian(v)
        assert s.coefficient(0) == Radical(())


def test_transport_vanishing_constant():
    # basis (t e1, e2) sends c_11^2 to t^2, which vanishes in the limit
    fam = FamilyTensor.from_algebra(SQUARE2)
    grid, _ = transported_constants(2, fam.entries, (("t", "0"), ("0", "1")))
    s = grid[0][0][1]
    assert s.coefficient(2) == Radical.from_gaussian(grat(1))
    assert s.coefficient(0) == Radical(())


def test_transport_matches_change_basis_for_constant_matrices():
    fam = FamilyTensor.from_algebra(THREE_STEP4)
    p_rows = [[1, 2, 0, 0], [0, 1, 0, 0], [0, 3, 1, 0], [1, 0, 0, 1]]
    p = ExactMatrix(p_rows)
    moved = change_basis(THREE_STEP4, p)
    basis = tuple(tuple(str(x) for x in row) for row in p_rows)
    grid, det = transported_constants(4, fam.entries, basis)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert grid[i][j][k].coefficient(0) == Radical.from_gaussian(
                    moved.c[i][j][k]
                ), (i, j, k)
    assert det.coefficient(0) == Radical.from_gaussian(p.det())


# certificates -------------------------------------------------------------------


def test_certificate_identity():
    rep = verify_certificate(
        cert(THREE_STEP4, THREE_STEP4, identity_basis(4))
    )
    assert rep.verdict == "verified"
    assert rep.mode == "exact"
    assert rep.samples[0].det_valuation == 0


def test_certificate_to_zero_algebra():
    rep = verify_certificate(
        cert(SQUARE2, zero_algebra(2), (("t", "0"), ("0", "1")))
    )
    assert rep.verdict == "verified"
    assert rep.mode == "exact"


def test_certificate_divergence_fails():
    rep = verify_certificate(
        cert(SQUARE2, zero_algebra(2), (("1/t", "0"), ("0", "1")))
    )
    assert rep.verdict == "failed"
    assert any("diverges" in str(f) for f in rep.samples[0].failures)


def test_certificate_wrong_target_fails_exactly():
    wrong = alg(2, (1, 1, 2, 5))
    rep = verify_certificate(cert(SQUARE2, wrong, identity_basis(2)))
    assert rep.verdict == "failed"
    assert rep.mode == "exact"
    (i, j, k, diff) = rep.samples[0].failures[0]
    assert (i, j, k) == (1, 1, 2)
    assert diff == "-4"


def test_certificate_with_radical_coefficients():
    basis = (("sqrt(4*t^2-5)", "0"), ("0", "4*t^2-5"))
    rep = verify_certificate(cert(SQUARE2, SQUARE2, basis))
    assert rep.verdict == "verified"
    assert rep.mode == "exact"
    assert rep.samples[0].det_valuation == 0


def test_certificate_with_half_powers():
    basis = (("t^(1/2)", "0"), ("0", "t"))
    rep = verify_certificate(cert(SQUARE2, SQUARE2, basis))
    assert rep.verdict == "verified"
    assert rep.samples[0].det_valuation == Fraction(3, 2)


def test_certificate_numeric_fallback():
    # cube roots leave the exact coefficient field -> numeric tier
    basis = (("(1+t)^(1/3)", "0"), ("0", "(1+t)^(2/3)"))
    rep = verify_certificate(cert(SQUARE2, SQUARE2, basis))
    assert rep.verdict == "verified"
    assert rep.mode == "numeric"
    assert rep.samples[0].det_valuation == 0


def test_certificate_numeric_mode_forced():
    rep = verify_certificate(
        cert(SQUARE2, SQUARE2, identity_basis(2)), mode="numeric"
    )
    assert rep.verdict == "verified"
    assert rep.mode == "numeric"


@pytest.mark.parametrize("source, target", [(SQUARE2, zero_algebra(2)), (zero_algebra(2), SQUARE2)])
def test_numeric_tier_flags_a_zero_against_a_nonzero_constant(source, target):
    """A ladder of exact zeros is skipped only where the target is zero too."""
    rep = verify_certificate(cert(source, target, identity_basis(2)), mode="numeric")
    assert (rep.verdict, rep.mode) == ("inconclusive", "numeric")
    (sample,) = rep.samples
    assert sample.failures == ((1, 1, 2, "1.0"),)
    assert sample.max_residual == "1.0"


def test_certificate_exact_mode_no_fallback():
    basis = (("(1+t)^(1/3)", "0"), ("0", "(1+t)^(2/3)"))
    rep = verify_certificate(cert(SQUARE2, SQUARE2, basis), mode="exact")
    assert rep.verdict == "inconclusive"


def test_certificate_parametrized_index():
    fam = FamilyTensor.from_entries(2, [(1, 1, 2, "a")])
    target = alg(2, (1, 1, 2, 2))
    rep = verify_certificate(
        cert(fam, target, identity_basis(2), source_index="t+2")
    )
    assert rep.verdict == "verified"
    assert rep.mode == "exact"


def test_certificate_samples():
    fam = FamilyTensor.from_algebra(SQUARE2)
    basis = (("lam", "0"), ("0", "lam^2"))
    rep = verify_certificate(
        cert(
            fam,
            SQUARE2,
            basis,
            samples=({"lam": "2"}, {"lam": "-1/2"}),
        )
    )
    assert rep.verdict == "verified"
    assert len(rep.samples) == 2
    assert rep.samples[1].params == (("lam", "-1/2"),)


def test_certificate_target_padding():
    core = alg(1, (1, 1, 1, 0))  # zero algebra dim 1
    rep = verify_certificate(
        cert(SQUARE2, core, (("t", "0"), ("0", "1")), target_pad=1)
    )
    assert rep.verdict == "verified"


def test_certificate_index_requires_parametric_source():
    with pytest.raises(ValueError):
        verify_certificate(
            cert(SQUARE2, SQUARE2, identity_basis(2), source_index="t")
        )


@pytest.mark.parametrize("mode", ["exact", "auto"])
def test_nonzero_target_at_an_exact_zero_entry_fails_there(mode):
    """The exact tier skips an entry whose transported series is the exact
    zero only when the target constant is zero too: a nonzero constant
    there is a named failure."""
    import dataclasses

    (c,) = [c for c in certificates() if c.label == "Z_22 -> Z_17"]
    source = _resolve_source(c.source)
    grid, _ = transported_constants(source.dim, source.entries, c.basis)
    (_, target), = _bound_samples(c)
    assert verify_certificate(c, mode=mode).verdict == "verified"
    n = source.dim
    i, j, k = next((i, j, k) for i in range(n) for j in range(n) for k in range(n)
                   if not grid[i][j][k] and not target.c[i][j][k])
    mutant = algebra_from_entries(n, [*target.entries(), (i + 1, j + 1, k + 1, 3)])
    rep = verify_certificate(dataclasses.replace(c, target=mutant), mode=mode)
    assert (rep.verdict, rep.mode) == ("failed", "exact")
    assert rep.samples[0].failures == ((i + 1, j + 1, k + 1, "-3"),)


def _identity_rows(n, start):
    return tuple(
        tuple("1" if i == j else "0" for j in range(n)) for i in range(start, n)
    )


@pytest.mark.parametrize(
    "basis",
    [
        # two equal rows
        (("1", "t", "0", "0", "0"),) * 2 + _identity_rows(5, 2),
        # two equal rows and a zero first column, which has no pivot
        (("0", "1", "0", "0", "0"),) * 2
        + (("0", "0", "0", "t", "-1"), ("0", "0", "t", "0", "0"), ("0", "0", "0", "0", "-t")),
    ],
)
def test_singular_basis_on_both_tiers(basis):
    sing = cert("Z_27", "Z_27", basis)
    for mode in ("exact", "auto"):
        rep = verify_certificate(sing, mode=mode)
        assert rep.verdict == "failed" and rep.mode == "exact", mode
        assert rep.samples[0].failures == (("basis", "singular"),), mode
    rep = verify_certificate(sing, mode="numeric")
    assert (rep.verdict, rep.mode) == ("inconclusive", "numeric")
    (sample,) = rep.samples
    assert sample.max_residual == "1.0"
    assert sample.det_valuation is None
    assert sample.failures == ()


def _neville_recurrence(xs, ys):
    """The full Neville tableau at x = 0, with no shortcut."""
    tab = list(ys)
    for level in range(1, len(xs)):
        tab = [
            (xs[k + level] * tab[k] - xs[k] * tab[k + 1]) / (xs[k + level] - xs[k])
            for k in range(len(xs) - level)
        ]
    return tab[0]


def test_neville_shortcut_matches_the_recurrence():
    with mpmath.workprec(256):
        xs = [mpmath.power(mpmath.mpf(t), mpmath.mpf(1) / 3) for t in NUMERIC_LADDER]
        zero = mpmath.mpc(0)
        ladders = [
            [zero] * len(xs),
            [mpmath.mpc(3, -1)] + [zero] * (len(xs) - 1),
            [zero] * (len(xs) - 1) + [mpmath.mpc("1e-40")],
        ]
        for ys in ladders:
            fast = _neville_at_zero(xs, _neville_differences(xs), ys)
            full = _neville_recurrence(xs, ys)
            assert type(fast) is type(full)
            assert fast == full
            assert mpmath.nstr(fast, 5) == mpmath.nstr(full, 5)
        assert not _neville_at_zero(xs, _neville_differences(xs), ladders[0])
        assert _neville_at_zero(xs, _neville_differences(xs), ladders[1])


# numeric tier: work done once per attempt against the per-rung oracles ---------


def _bits(x):
    """The exact content of a mpmath number: its type and its mpf/mpc tuple."""
    return type(x), x._mpc_ if isinstance(x, mpmath.mpc) else x._mpf_


def _numeric_outcome(expr, tval, params, branch):
    try:
        return _bits(evaluate_numeric(expr, tval, params=params, branch=branch))
    except Exception as exc:
        return type(exc), exc.args


_small_fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
# t, the index symbol b (free: it takes a new value at every rung), a bound
# symbol a (zero in some examples, so 1/a raises) and c, bound in some
# examples only (unbound, it raises NonExpandable)
_fold_leaves = st.one_of(
    st.builds(TNum, _small_fraction),
    st.sampled_from([TImag(), TVar(), TVar(), TSym("a"), TSym("b"), TSym("b"), TSym("c")]),
)
_fold_trees = st.recursive(
    _fold_leaves,
    lambda sub: st.one_of(
        st.builds(TNeg, sub),
        st.builds(TSqrt, sub),
        st.builds(TPow, sub, st.sampled_from(
            [Fraction(n, d) for n, d in ((-2, 1), (-1, 1), (2, 1), (3, 1), (1, 2),
                                         (-1, 2), (3, 2), (1, 3), (-2, 3), (1, 4))])),
        *(st.builds(op, sub, sub) for op in (TAdd, TSub, TMul, TDiv)),
    ),
    max_leaves=10,
)


@settings(max_examples=300)
@given(_fold_trees, st.sampled_from([53, 256, 512]), st.sampled_from([1, -1]),
       _small_fraction, st.booleans())
def test_folded_evaluation_is_bit_identical_at_every_rung(tree, precision, sign, a, bind_c):
    """A tree folded once per attempt evaluates, at every rung, to the very
    number (type and mpf/mpc tuple) that the whole tree evaluates to, and a
    raising subtree raises the whole tree's exception."""
    # a sample may bind the index symbol too; the rungs' values override it
    params = {"a": grat(a), "b": GaussianRational(7)}
    if bind_c:
        params["c"] = GaussianRational(2, -1)
    branch = {key: sign for key in collect_sqrt_keys([tree])}
    with mpmath.workprec(precision):
        folded = _fold_numeric(tree, params, branch, ("b",))
        for tstr in NUMERIC_LADDER[::3] + ("1e-13",):
            tval = mpmath.mpf(tstr)
            params_t = dict(params, b=3 * tval - mpmath.mpc(1, tval))
            assert _numeric_outcome(folded, tval, params_t, branch) == _numeric_outcome(
                tree, tval, params_t, branch
            ), tstr


def test_fold_keeps_what_a_rung_changes_and_what_raises():
    with mpmath.workprec(256):
        folded = _fold_numeric("(1+a)*t + sqrt(2)*b + 1/(a-a)", {"a": grat(3)}, {}, ("b",))
    left, raising = folded.left, folded.right
    assert type(left.left.left) is _TFolded and left.left.left.value == 4
    assert type(left.left.right) is TVar
    assert type(left.right.left) is _TFolded and type(left.right.right) is TSym
    # 1/(a-a) raises, so it stays a quotient; its parts are folded
    assert type(raising) is TDiv
    assert [type(x) for x in (raising.left, raising.right)] == [_TFolded, _TFolded]
    whole = _fold_numeric("2*a + i", {"a": grat(3)})
    assert type(whole) is _TFolded and whole.value == mpmath.mpc(6, 1)
    constant = _fold_numeric(TConst(GaussianRational(Fraction(1, 3), -1)))
    assert _bits(constant.value) == _bits(evaluate_numeric(constant.source, 1))


def _transport_per_k(dim, entries, E, inv, value, zero):
    """``_transport`` as it was, scanning w[i][j] for nonzero terms once per k:
    the oracle of the scan hoisted out of the k loop."""
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
    return tuple(
        tuple(
            tuple(
                sum((wm * inv[m][k] for m, wm in enumerate(w[i][j]) if wm), zero)
                for k in range(dim)
            )
            for j in range(dim)
        )
        for i in range(dim)
    )


_MPMATH_CELLS = ("0", "0c", "1/3", "-5/11", "(2-i)/7", "i/13", "1/10^30")
_SERIES_CELLS = ("0", "0 ram 2", "1", "t", "1-t", "2*i", "t^(1/2)", "1/(1-t)", "sqrt(1+t)",
                 "t^(1/2) - t^(1/2)")


def _series_cell(text):
    if text == "0 ram 2":
        return PuiseuxSeries.zero(ram=2)
    return expand_series(text, trunc=4)


def _mpmath_cell(text):
    if text == "0":
        return mpmath.mpf(0)
    if text == "0c":
        return mpmath.mpc(0)
    return evaluate_numeric(text, 0)


def _flat(grid):
    return [x for plane in grid for row in plane for x in row]


@st.composite
def transport_inputs(draw, cells):
    dim = draw(st.integers(1, 4))
    idx = st.integers(1, dim)
    cell = st.sampled_from(cells)
    entries = draw(st.lists(st.tuples(idx, idx, idx, cell), max_size=12))
    E = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    inv = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    return dim, entries, E, inv


def _every_term(inv):
    """Each row of inv as the (k, inv[m][k]) terms of the exact tier's contraction."""
    return [list(enumerate(row)) for row in inv]


def _nonzero_terms(inv):
    """Each row of inv as the numeric tier's terms: its nonzero entries only."""
    return [[(k, x) for k, x in enumerate(row) if x] for row in inv]


@settings(max_examples=150)
@given(transport_inputs(_MPMATH_CELLS), st.sampled_from([53, 256, 512]))
def test_hoisted_contraction_matches_per_k_scan_on_mpmath(spec, precision):
    dim, entries, E, inv = spec
    with mpmath.workprec(precision):
        E, inv = ([[_mpmath_cell(x) for x in row] for row in M] for M in (E, inv))
        got = _transport(dim, entries, E, _every_term(inv), _mpmath_cell, mpmath.mpc(0))
        want = _transport_per_k(dim, entries, E, inv, _mpmath_cell, mpmath.mpc(0))
    assert [_bits(x) for x in _flat(got)] == [_bits(x) for x in _flat(want)]


@settings(max_examples=150)
@given(transport_inputs(_SERIES_CELLS))
def test_hoisted_contraction_matches_per_k_scan_on_series(spec):
    dim, entries, E, inv = spec
    E, inv = ([[_series_cell(x) for x in row] for row in M] for M in (E, inv))
    zero = PuiseuxSeries.zero()
    got = _transport(dim, entries, E, _every_term(inv), _series_cell, zero)
    assert repr(got) == repr(_transport_per_k(dim, entries, E, inv, _series_cell, zero))


@settings(max_examples=150)
@given(
    st.sampled_from([53, 256, 512]),
    st.sampled_from([1, 2, 3, 4, 12]),
    st.lists(st.sampled_from(_MPMATH_CELLS), min_size=12, max_size=12),
)
def test_neville_with_shared_differences_matches_the_recurrence(precision, ram, cells):
    ladder = NUMERIC_LADDER if ram <= 3 else tuple(f"1e-{k}" for k in range(2, 14))
    with mpmath.workprec(precision):
        xs = [mpmath.power(mpmath.mpf(t), mpmath.mpf(1) / ram) for t in ladder]
        ys = [_mpmath_cell(x) for x in cells[: len(xs)]]
        fast = _neville_at_zero(xs, _neville_differences(xs), ys)
        full = _neville_recurrence(xs, ys)
    assert _bits(fast) == _bits(full)


def _real_where_possible(got, want):
    """got is want, a complex oracle, computed in real arithmetic where it
    can be: an mpc is bit-identical, and an mpf appears only where want's
    imaginary part is exactly 0, with want's real part bit for bit."""
    re, im = want._mpc_
    if type(got) is mpmath.mpf:
        return got._mpf_ == re and im == mpmath.mpf(0)._mpf_
    return type(got) is mpmath.mpc and got._mpc_ == (re, im)


@st.composite
def attempt_inputs(draw, rungs=4):
    """(dim, entries, [(E, inv), ...]): one attempt's constants and its rungs."""
    dim, entries, E, inv = draw(transport_inputs(_MPMATH_CELLS))
    cell = st.sampled_from(_MPMATH_CELLS)
    more = [[[[draw(cell) for _ in range(dim)] for _ in range(dim)] for _ in range(2)]
            for _ in range(rungs - 1)]
    return dim, entries, [(E, inv)] + more


@settings(max_examples=150)
@given(attempt_inputs(), st.sampled_from([53, 256, 512]), st.sampled_from([1, 2, 3]))
def test_real_zero_transport_and_neville_match_the_complex_path(spec, precision, ram):
    """Transport from mpmath's real zero, then Neville over the rungs, against
    the complex path (per-k sums from ``mpmath.mpc(0)``, then the full
    recurrence): real parts bit-equal, and a real result only where the
    oracle's imaginary part is exactly 0."""
    dim, entries, rungs = spec
    got, want = [], []
    with mpmath.workprec(precision):
        for E, inv in rungs:
            E, inv = ([[_mpmath_cell(x) for x in row] for row in M] for M in (E, inv))
            got.append(_transport(dim, entries, E, _every_term(inv), _mpmath_cell, mpmath.mp.zero))
            want.append(_transport_per_k(dim, entries, E, inv, _mpmath_cell, mpmath.mpc(0)))
        xs = [mpmath.power(mpmath.mpf(t), mpmath.mpf(1) / ram) for t in NUMERIC_LADDER[:len(rungs)]]
        ladders = list(zip(*map(_flat, got)))
        oracles = list(zip(*map(_flat, want)))
        limits = [_neville_at_zero(xs, _neville_differences(xs), ys) for ys in ladders]
        oracle_limits = [_neville_recurrence(xs, ys) for ys in oracles]
    for ys, oracle in zip(ladders, oracles):
        assert all(map(_real_where_possible, ys, oracle))
    assert all(map(_real_where_possible, limits, oracle_limits))


@settings(max_examples=150)
@given(transport_inputs(_MPMATH_CELLS), st.sampled_from([53, 256, 512]))
def test_contraction_without_zero_inverse_entries_matches_the_complex_path(spec, precision):
    """The numeric tier's contraction, which sums no exact-zero inverse entry,
    against the per-k sums over every entry from ``mpmath.mpc(0)``."""
    dim, entries, E, inv = spec
    with mpmath.workprec(precision):
        E, inv = ([[_mpmath_cell(x) for x in row] for row in M] for M in (E, inv))
        got = _transport(dim, entries, E, _nonzero_terms(inv), _mpmath_cell, mpmath.mp.zero)
        want = _transport_per_k(dim, entries, E, inv, _mpmath_cell, mpmath.mpc(0))
    assert all(map(_real_where_possible, _flat(got), _flat(want)))


def _ladder_cell(kind, text, precision):
    """A cell as a mpf, as a mpc, or one unit in the last place above it."""
    x = _mpmath_cell(text)
    if kind == "ulp" and x:
        x += mpmath.ldexp(1, int(mpmath.floor(mpmath.log(abs(x), 2))) + 1 - precision)
    return mpmath.mpc(x) if kind == "mpc" else x


@settings(max_examples=150)
@given(st.sampled_from([53, 256, 512]),
       st.lists(st.sampled_from(["0", "1/3", "-5/11", "i/13"]), min_size=4, max_size=4),
       st.lists(st.lists(st.sampled_from(["mpf", "mpc", "ulp"]), min_size=4, max_size=4),
                min_size=1, max_size=8))
def test_extrapolator_shares_a_limit_only_between_identical_ladders(precision, texts, kinds):
    """Ladders of the same cells, each as a mpf, a mpc or one last bit up:
    ladders equal in value but of another type (mpf against real mpc) or
    another last bit do not share a limit.  Every limit the memo returns is
    the one a fresh extrapolation gives, type and bits."""
    _load_mpmath()  # called here without the numeric tier's entry
    with mpmath.workprec(precision):
        xs = [mpmath.power(mpmath.mpf(t), mpmath.mpf(1) / 2) for t in NUMERIC_LADDER[:4]]
        limit_at_zero = _extrapolator(xs)
        for ladder in kinds:
            ys = [_ladder_cell(kind, text, precision) for kind, text in zip(ladder, texts)]
            fresh = _neville_at_zero(xs, _neville_differences(xs), ys)
            assert _bits(limit_at_zero(ys)) == _bits(fresh)


NUMERIC_REPORTS = Path(__file__).resolve().parent / "data" / "numeric_reports.json"


def test_numeric_reports_of_all_bundled_certificates():
    """Every bundled certificate's numeric-tier report, byte for byte."""
    expected = json.loads(NUMERIC_REPORTS.read_text(encoding="utf-8"))
    certs = certificates()
    assert [rep["label"] for rep in expected] == [c.label for c in certs]
    for c, want in zip(certs, expected):
        got = verify_certificate(c, mode="numeric").as_dict()
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), c.label


NUMERIC_REPORT_DIGESTS = (
    Path(__file__).resolve().parent / "data" / "numeric_report_digests.json"
)


@pytest.mark.parametrize("precision", [53, 512])
def test_numeric_report_digests_at_other_precisions(precision):
    """sha256 of every bundled certificate's canonical numeric report at 53 and 512 bits.

    At 53 bits many ladders reach the LU's numerical-singularity threshold
    (32 of the 49 certificates are inconclusive), so a change in where the
    numeric tier factors its bases, or at what precision, shows here.
    """
    expected = json.loads(NUMERIC_REPORT_DIGESTS.read_text(encoding="utf-8"))
    certs = certificates()
    assert [rec["label"] for rec in expected] == [c.label for c in certs]
    for c, want in zip(certs, expected):
        got = verify_certificate(c, mode="numeric", precision=precision).as_dict()
        digest = hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest()
        assert digest == want[str(precision)], c.label


@st.composite
def lu_inputs(draw):
    """(precision, n x n spec) with real, complex and zero cells, zero columns,
    rows duplicated up to the signs of their cells and rows with one nonzero
    cell; a cell is (kind, re, im, denominator).  A row whose cells only
    change sign ties with its original in the pivot search."""
    n = draw(st.integers(1, 6))
    small = st.integers(-3, 3)
    cell = st.tuples(
        st.sampled_from(["0", "0c", "mpf", "mpf", "mpc", "real mpc"]),
        small, small, st.integers(1, 7),
    )
    rows = [[draw(cell) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = ("0", 0, 0, 1)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        rows[j] = [(kind, s * re, s * im, den) for s, (kind, re, im, den) in zip(signs, rows[i])]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        # a row with exactly one nonzero cell: its absolute sums have one term
        j = draw(st.integers(0, n - 1))
        rows[i] = [("0", 0, 0, 1)] * n
        rows[i][j] = (draw(st.sampled_from(["mpf", "mpc", "real mpc"])),
                      draw(small.filter(bool)), draw(small), draw(st.integers(1, 7)))
    return draw(st.sampled_from([53, 64, 256, 1000])), rows


def _lu_entry(kind, re, im, den):
    if kind == "0":
        return mpmath.mpf(0)
    if kind == "0c":
        return mpmath.mpc(0)
    if kind == "mpf":
        return mpmath.mpf(re) / den
    return mpmath.mpc(mpmath.mpf(re) / den, 0 if kind == "real mpc" else mpmath.mpf(im) / den)


@settings(max_examples=300)
@given(lu_inputs())
def test_list_lu_matches_mpmath(spec):
    """_det_and_inverse is bit-identical to mpmath.det and mpmath.inverse, types included."""
    precision, rows = spec
    _load_mpmath()  # called here without the numeric tier's entry
    with mpmath.workprec(precision):
        E = [[_lu_entry(*c) for c in row] for row in rows]
        got_det, got_inv = _det_and_inverse(E)
        try:
            want_det = mpmath.det(mpmath.matrix(E))
            want_inv = mpmath.inverse(mpmath.matrix(E)).tolist()
        except (ZeroDivisionError, TypeError):
            assert got_det == 0 and got_inv is None
            return
    assert type(got_det) is type(want_det) and got_det == want_det
    if want_det == 0:  # singular at the working precision, not at 10 bits more
        assert got_inv is None
        return
    assert [[type(x) for x in row] for row in got_inv] == [
        [type(x) for x in row] for row in want_inv
    ]
    assert got_inv == want_inv


EXACT_GRIDS = Path(__file__).resolve().parent / "data" / "exact_grids.json"
EXACT_TRUNCATIONS = (4, 16, 32)


def _exact_grid_digests(c, trunc):
    """sha256 of repr((grid, det)) for each sample and branch of a certificate.

    The inputs are those of an exact verification attempt; an attempt the
    exact tier cannot make is recorded by its exception's name.
    """
    source = _resolve_source(c.source)
    basis = [[parse_expression(e) for e in row] for row in c.basis]
    index = None if c.source_index is None else parse_expression(c.source_index)
    keys = collect_sqrt_keys([e for row in basis for e in row] + [index] * (index is not None))
    out = []
    for scalar_params, _ in _bound_samples(c):
        for branch in _branch_assignments(keys):
            params = dict(scalar_params)
            try:
                if index is not None:
                    params[source.symbols[0]] = expand_series(
                        index, trunc=trunc, params=scalar_params, branch=branch)
                got = transported_constants(source.dim, source.entries, basis,
                                            params=params, trunc=trunc, branch=branch)
                out.append(hashlib.sha256(repr(got).encode()).hexdigest())
            except (NonExpandable, ZeroDivisionError) as exc:
                out.append(type(exc).__name__)
    return out


def _exact_tier_record(c):
    return {
        "label": c.label,
        "grids": {str(n): _exact_grid_digests(c, n) for n in EXACT_TRUNCATIONS},
        "reports": {str(n): verify_certificate(c, mode="exact", trunc=n).as_dict()
                    for n in EXACT_TRUNCATIONS},
    }


def test_exact_tier_of_all_bundled_certificates():
    """Every bundled certificate's exact grids and exact reports at truncations 4, 16, 32.

    The grids are compared by the sha256 of their repr, so the series'
    representation (ramification, precision, term order) is pinned too.
    """
    expected = json.loads(EXACT_GRIDS.read_text(encoding="utf-8"))
    certs = certificates()
    assert [rec["label"] for rec in expected] == [c.label for c in certs]
    for c, want in zip(certs, expected):
        assert _exact_tier_record(c) == want, c.label


# necessary conditions -----------------------------------------------------------


def test_necessary_conditions_direction():
    rep = necessary_conditions(SQUARE2, zero_algebra(2))
    assert rep.ok
    back = necessary_conditions(zero_algebra(2), SQUARE2)
    assert not back.der_strictly_smaller
    assert not back.power_dims_dominate
    assert not back.ann_not_larger


def test_necessary_conditions_self():
    rep = necessary_conditions(SQUARE2, SQUARE2)
    assert not rep.der_strictly_smaller  # proper degenerations only
    assert rep.power_dims_dominate
    assert rep.ann_not_larger


def test_necessary_conditions_on_every_same_dimension_catalog_pair():
    """The power rows pad each filtration with its last dim, as first stated."""
    # each invariant is computed once per algebra and kept on it; every pair
    # then runs the report's own logic
    by_dim = {}
    for A in [A for eid in list_ids() for A in family_members(eid)] + [
        zero_algebra(n) for n in (4, 5, 6)
    ]:
        by_dim.setdefault(A.dim, []).append(A)
    assert {n: len(v) for n, v in by_dim.items()} == {4: 42, 5: 100, 6: 2}
    seen = set()
    for algebras in by_dim.values():
        for A in algebras:
            for B in algebras:
                pa = degeneration.power_filtration(A).dims
                pb = degeneration.power_filtration(B).dims
                powers = tuple(
                    (f"power{k}",
                     pa[k - 1] if k - 1 < len(pa) else pa[-1],
                     pb[k - 1] if k - 1 < len(pb) else pb[-1])
                    for k in range(2, A.dim + 1)
                )
                der = (degeneration.derivation_dimension(A),
                       degeneration.derivation_dimension(B))
                ann = len(degeneration.annihilator(A)), len(degeneration.annihilator(B))
                want = NecessaryReport(
                    der[0] < der[1],
                    all(da >= db for _, da, db in powers),
                    ann[0] <= ann[1],
                    (("der", *der),) + powers + (("ann", *ann),),
                )
                got = necessary_conditions(A, B)
                assert got == want, (A.label, B.label)
                seen.add(got.power_dims_dominate)
    assert seen == {True, False}


# R-sets ---------------------------------------------------------------------------


def test_rset_containment():
    S = alg(3, (1, 1, 3, 1))
    ok, witness = rset_membership(S, RSet(containments=((1, 1, 3),)))
    assert ok and witness is None
    bad = alg(3, (1, 1, 2, 1))
    ok, witness = rset_membership(bad, RSet(containments=((1, 1, 3),)))
    assert not ok
    assert "A_1A_1" in witness


def test_rset_equations():
    S = alg(3, (1, 1, 3, 1))
    ok, witness = rset_membership(S, RSet(equations=("c113-1", "c223")))
    assert ok
    ok, witness = rset_membership(S, RSet(equations=("c113",)))
    assert not ok
    assert "c113" in witness


def test_rset_relabel():
    S = alg(3, (2, 2, 3, 1))  # e2 e2 = e3
    R = RSet(equations=("c113-1",), relabel=(2, 1, 3))
    ok, _ = rset_membership(S, R)
    assert ok


# property: transport at constant bases equals change_basis ------------------------


@st.composite
def invertible(draw, n=3):
    vals = st.integers(-2, 2)
    lower = [[1 if i == j else (draw(vals) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (draw(vals) if j > i else 0) for j in range(n)] for i in range(n)]
    return ExactMatrix(lower) * ExactMatrix(upper)


@st.composite
def small_algebras(draw):
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        entries.append(
            (
                draw(st.integers(1, 3)),
                draw(st.integers(1, 3)),
                draw(st.integers(1, 3)),
                draw(st.integers(-2, 2).filter(bool)),
            )
        )
    return algebra_from_entries(3, entries)


@given(small_algebras(), invertible())
def test_transport_equals_change_basis(a, p):
    fam = FamilyTensor.from_algebra(a)
    moved = change_basis(a, p)
    basis = tuple(
        tuple(str(Fraction(x.re)) for x in row) for row in p.rows
    )
    grid, _ = transported_constants(3, fam.entries, basis)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert grid[i][j][k].coefficient(0) == Radical.from_gaussian(
                    moved.c[i][j][k]
                )


@pytest.mark.parametrize("power, attempts", [("1/4", 1), ("1/2", 2)])
def test_only_half_integer_powers_get_a_branch(monkeypatch, power, attempts):
    """A quarter power takes its principal value on every branch, so it
    gets no branch key and a certificate that does not verify is tried
    once; a half power gets a key and is tried on both branches."""
    entry = f"(1+t)^({power})"
    assert collect_sqrt_keys([entry]) == ([] if attempts == 1 else ["(1+t)"])
    basis = ((entry,) + ("0",) * 4,) + _identity_rows(5, 1)
    tried = []
    attempt = degeneration._numeric_attempt

    def counting_attempt(*args):
        tried.append(args[-1])
        return attempt(*args)

    monkeypatch.setattr(degeneration, "_numeric_attempt", counting_attempt)
    rep = verify_certificate(cert("Z_27", "Z_28", basis), mode="numeric")
    assert rep.verdict != "verified"
    assert len(tried) == attempts
    assert rep.samples[0].branch == (() if attempts == 1 else (("(1+t)", 1),))
