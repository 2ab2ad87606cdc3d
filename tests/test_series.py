import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from zinbiel5 import series
from zinbiel5.exactmath import ONE, ZERO, GaussianRational, grat
from zinbiel5.series import (
    DEFAULT_TRUNCATION,
    MAX_DEGREE,
    NonExpandable,
    PuiseuxSeries,
    Radical,
    ScalarValueError,
    TAdd,
    TConst,
    TMul,
    TNum,
    TPow,
    TSqrt,
    TVar,
    collect_sqrt_keys,
    evaluate_numeric,
    evaluate_scalar,
    expand_series,
    infer_ramification,
    parse_expression,
    sqrt_gaussian,
    to_text,
    _int_root,
)

F = Fraction


def rad(x):
    return Radical.from_gaussian(grat(x))


def agree(a: PuiseuxSeries, b: PuiseuxSeries) -> bool:
    """Equality of all coefficients below the coarser truncation."""
    ram = a.ram * b.ram
    a = a.lift_to_at_least(ram)
    b = b.lift_to_at_least(ram)
    precs = [p for p in (a.prec, b.prec) if p is not None]
    bound = min(precs) if precs else None
    keys = {k for k, _ in a.coeffs} | {k for k, _ in b.coeffs}
    for k in keys:
        if bound is not None and k >= bound:
            continue
        ca = dict(a.coeffs).get(k, Radical(()))
        cb = dict(b.coeffs).get(k, Radical(()))
        if ca != cb:
            return False
    return True


# parser ----------------------------------------------------------------------


def test_parse_round_trip():
    samples = [
        "t^2+3",
        "1/(t-1)",
        "sqrt(4*t^2-5)",
        "t^(3/2)",
        "t^(-2/3)",
        "(1+i)*t - 1/2",
        "-(a+1)/(a-1)",
        "2.5*t",
    ]
    for s in samples:
        e = parse_expression(s)
        assert parse_expression(to_text(e)) == e


def test_parse_decimal_is_exact():
    e = parse_expression("0.125")
    assert e == TNum(F(1, 8))


def test_parse_power_forms():
    assert parse_expression("t^2") == parse_expression("t**2")
    assert parse_expression("t^(1/2)").exponent == F(1, 2)
    assert parse_expression("t^-1").exponent == F(-1)
    # a t-free exponent is folded by the scalar evaluator
    assert parse_expression("t^(4^(1/2))") == parse_expression("t^2")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_expression("t +* 2")
    with pytest.raises(ValueError):
        parse_expression("sqrt 4")
    for text in ("t^a", "t^t", "t^i", "t^(2^(1/3))"):
        with pytest.raises(ValueError, match="exponent is not a rational constant"):
            parse_expression(text)
    for text in ("1/0", "t^(1/0)", "t^(1/(1-1))"):
        with pytest.raises(ValueError, match="division by zero"):
            parse_expression(text)


@pytest.mark.parametrize(
    "text, ok",
    [
        ("t^64", True),
        ("(1+t)^-64", True),
        ("t^32*t^32", True),
        ("(t^8)^8", True),
        ("t^65", False),
        ("t^33*t^32", False),
        ("(t^8)^9", False),
        ("(2*t)^33", False),
        ("t^(2^(2^30))", False),
    ],
)
def test_parse_bounds_the_degree(text, ok):
    # powers multiply the degree and products add it, so nested or chained
    # powers cannot build an unbounded value
    if ok:
        parse_expression(text)
    else:
        with pytest.raises(ValueError, match=f"power too large.*degree above {MAX_DEGREE}"):
            parse_expression(text)


def test_parse_caches_each_text_but_no_error():
    from zinbiel5.series import _parse_text

    text = "(t - 2/7)^3 * sqrt(1 + t)"
    tree = parse_expression(text)
    assert parse_expression(text) is tree
    assert parse_expression(to_text(tree)) == tree
    cached = _parse_text.cache_info().currsize
    for bad in ("t^65", "(" * 40 + "1" + ")" * 40, "t +* 2"):
        for _ in range(2):
            with pytest.raises(ValueError):
                parse_expression(bad)
    assert _parse_text.cache_info().currsize == cached


def test_ramification_inference():
    assert infer_ramification(["t^(1/2)+t^(2/3)"]) == 6
    assert infer_ramification(["t^2", "1/t"]) == 1
    with pytest.raises(NonExpandable):
        infer_ramification(["t^(1/13)"])


def test_sqrt_keys():
    keys = collect_sqrt_keys(["sqrt(4*t^2-5)+sqrt(t)", "(4*t^2-5)^(1/2)"])
    assert len(keys) == 2  # the power spelling shares the sqrt key


_GAUSSIAN_PARTS = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5))


@given(st.builds(GaussianRational, _GAUSSIAN_PARTS, _GAUSSIAN_PARTS))
def test_constant_renders_as_text_that_parses_back(z):
    """A TConst renders as text that parses back to its value, alone and
    under a power, so every path that renders a branch key accepts it."""
    text = to_text(TConst(z))
    assert evaluate_scalar(parse_expression(text)) == z
    assert evaluate_scalar(parse_expression(to_text(TPow(TConst(z), F(3))))) == z**3
    assert collect_sqrt_keys([TSqrt(TConst(z))]) == [text]
    assert expand_series(TPow(TConst(z), F(2))) == PuiseuxSeries.scalar(z * z)
    with mpmath.workprec(64):
        assert evaluate_numeric(TSqrt(TConst(z)), 0) ** 2 == pytest.approx(
            complex(z.re, z.im), abs=1e-15)
    if z.im == 0 and z.re >= 0 and z.re.denominator == 1:
        assert text == to_text(TNum(z.re))  # so both spellings share a branch key


def test_only_half_integer_powers_render_their_branch_key(monkeypatch):
    """The contexts read a power's branch key only when its exponent has
    denominator 2, so no other power renders its base as text."""
    rendered = []

    def counting_to_text(e):
        rendered.append(e)
        return to_text(e)

    cube = TPow(TAdd(TVar(), TNum(F(1))), F(3))
    third = TPow(TNum(F(8)), F(1, 3))
    root = TPow(TAdd(TVar(), TNum(F(4))), F(1, 2))
    expanded = expand_series("1+3*t+3*t^2+t^3")
    monkeypatch.setattr(series, "to_text", counting_to_text)
    assert expand_series(cube) == expanded
    assert evaluate_scalar(cube, tval=F(1)) == grat(8)
    assert evaluate_scalar(third) == grat(2)
    with mpmath.workprec(64):
        assert evaluate_numeric(cube, 1) == 8
    assert rendered == []
    key = "(t+4)"
    assert evaluate_scalar(root, tval=F(0)) == grat(2)
    with mpmath.workprec(64):
        assert evaluate_numeric(root, 0, branch={key: -1}) == -2
    assert expand_series(root, branch={key: -1}).coefficient(0) == rad(-2)
    assert rendered.count(root.base) == 3  # once per context; to_text recurses too


# radicals ---------------------------------------------------------------------


def test_radical_contraction():
    r2 = sqrt_gaussian(grat(2))
    r6 = sqrt_gaussian(grat(6))
    assert r2 * r6 == rad(2) * sqrt_gaussian(grat(3))


def test_radical_inverse_single():
    r2 = sqrt_gaussian(grat(2))
    x = rad(1) + r2
    assert x * x.inverse() == rad(1)
    assert x.inverse() == r2 - rad(1)


def test_radical_inverse_two_primes():
    r2 = sqrt_gaussian(grat(2))
    r3 = sqrt_gaussian(grat(3))
    x = r2 + r3
    assert x * x.inverse() == rad(1)
    assert x.inverse() == r3 - r2


def test_sqrt_gaussian_cases():
    assert sqrt_gaussian(grat(4)) == rad(2)
    assert sqrt_gaussian(grat(F(9, 4))) == rad(F(3, 2))
    assert sqrt_gaussian(grat(-9)) == rad(3) * GaussianRational(0, 1)
    # pure imaginary: principal sqrt of 2i is 1+i, of -2i is 1-i
    assert sqrt_gaussian(GaussianRational(0, 2)) == rad(GaussianRational(1, 1))
    assert sqrt_gaussian(GaussianRational(0, -2)) == rad(GaussianRational(1, -1))
    # full complex square: (2+i)^2 = 3+4i
    assert sqrt_gaussian(GaussianRational(3, 4)) == rad(GaussianRational(2, 1))
    with pytest.raises(NonExpandable):
        sqrt_gaussian(GaussianRational(1, 1))


def test_sqrt_of_five_adjunction():
    r5 = sqrt_gaussian(grat(5))
    assert not r5.is_gaussian
    assert r5 * r5 == rad(5)
    assert str(r5) == "(1)*sqrt(5)"


# series expansion -------------------------------------------------------------


def test_expand_polynomial():
    s = expand_series("t^2+3")
    assert s.is_exact
    assert s.coefficient(0) == rad(3)
    assert s.coefficient(2) == rad(1)
    assert s.coefficient(1) == Radical(())


def test_expand_geometric():
    s = expand_series("1/(t-1)")
    for k in range(10):
        assert s.coefficient(k) == rad(-1)
    assert s.precision() == 16


def test_expand_sqrt_principal_branch():
    # sqrt(4t^2 - 1) = i (1 - 2t^2 - 2t^4 - 4t^6 - ...)
    s = expand_series("sqrt(4*t^2-1)")
    i = GaussianRational(0, 1)
    assert s.coefficient(0) == rad(i)
    assert s.coefficient(2) == rad(-2 * i)
    assert s.coefficient(4) == rad(-2 * i)
    assert s.coefficient(6) == rad(-4 * i)


def test_expand_sqrt_adjoined_root():
    # sqrt(4t^2 - 5) = i sqrt(5) (1 - (2/5) t^2 - (2/25) t^4 - ...)
    s = expand_series("sqrt(4*t^2-5)")
    i5 = sqrt_gaussian(grat(-5))
    assert s.coefficient(0) == i5
    assert s.coefficient(2) == i5 * grat(F(-2, 5))
    assert s.coefficient(4) == i5 * grat(F(-2, 25))


def test_expand_sqrt_odd_valuation():
    s = expand_series("sqrt(t+t^2)")
    assert s.valuation() == F(1, 2)
    assert s.coefficient(F(1, 2)) == rad(1)
    assert s.coefficient(F(3, 2)) == rad(F(1, 2))
    assert agree(s * s, expand_series("t+t^2"))


def test_expand_fractional_powers():
    s = expand_series("t^(3/2)")
    assert s.is_exact and s.valuation() == F(3, 2)
    s = expand_series("t^(2/3)*t^(1/2)")
    assert s.valuation() == F(7, 6)
    with pytest.raises(NonExpandable):
        expand_series("(1+t)^(1/3)")


def test_expand_exact_monomial_inverse():
    s = expand_series("1/t^3")
    assert s.is_exact
    assert s.valuation() == -3
    assert s.coefficient(-3) == rad(1)


def test_expand_negative_powers_mix():
    s = expand_series("(t^2+t^3)/t^2")
    assert s.coefficient(0) == rad(1)
    assert s.coefficient(1) == rad(1)


def test_branch_flip():
    key = collect_sqrt_keys(["sqrt(t^2)"])[0]
    plus = expand_series("sqrt(t^2)")
    minus = expand_series("sqrt(t^2)", branch={key: -1})
    assert plus == expand_series("t")
    assert minus == expand_series("-t")


def _series(ram, prec, terms):
    """The series sum c t^e over terms {e: c}, known modulo t^(prec/ram)."""
    return PuiseuxSeries(
        ram, tuple(sorted((int(F(e) * ram), rad(c)) for e, c in terms.items())), prec
    )


_4T2 = _series(1, None, {2: 4})
_4T2_O5 = _series(1, 5, {2: 4})
_1_PLUS_T = _series(1, None, {0: 1, 1: 1})
_4T2_4T3_O5 = _series(1, 5, {2: 4, 3: 4})
_T_PLUS_T2 = _series(1, None, {1: 1, 2: 1})
_4T_O4 = _series(1, 4, {1: 4})


@pytest.mark.parametrize(
    "x, op, expected",
    [
        # u = 0: a monomial stays exact, or keeps its relative precision
        (_4T2, "inverse", _series(1, None, {-2: F(1, 4)})),
        (_4T2, "sqrt", _series(1, None, {1: 2})),
        (_4T2_O5, "inverse", _series(1, 1, {-2: F(1, 4)})),
        (_4T2_O5, "sqrt", _series(1, 4, {1: 2})),
        # u != 0, exact input: the budget is trunc relative orders
        (_1_PLUS_T, "inverse", _series(1, 4, {0: 1, 1: -1, 2: 1, 3: -1})),
        (_1_PLUS_T, "sqrt", _series(1, 4, {0: 1, 1: F(1, 2), 2: F(-1, 8), 3: F(1, 16)})),
        # u != 0, truncated input: the budget is the known relative span
        (_4T2_4T3_O5, "inverse", _series(1, 1, {-2: F(1, 4), -1: F(-1, 4), 0: F(1, 4)})),
        (_4T2_4T3_O5, "sqrt", _series(1, 4, {1: 2, 2: 1, 3: F(-1, 4)})),
        # odd valuation under sqrt lifts the ramification to 2
        (
            _T_PLUS_T2,
            "sqrt",
            _series(2, 9, {F(1, 2): 1, F(3, 2): F(1, 2), F(5, 2): F(-1, 8), F(7, 2): F(1, 16)}),
        ),
        (_T_PLUS_T2, "inverse", _series(1, 3, {-1: 1, 0: -1, 1: 1, 2: -1})),
        (_4T_O4, "sqrt", _series(2, 7, {F(1, 2): 2})),
    ],
)
def test_inverse_and_sqrt_precision(x, op, expected):
    out = getattr(x, op)(trunc=4)
    assert out == expected
    assert (out.ram, out.prec) == (expected.ram, expected.prec)


@pytest.mark.parametrize("trunc", [4, DEFAULT_TRUNCATION, 32])
def test_quotient_honours_the_truncation(trunc):
    quotient = expand_series("1/(1-t)", trunc=trunc)
    assert quotient.precision() == trunc
    assert repr(quotient) == repr(expand_series("(1-t)^(-1)", trunc=trunc))
    assert expand_series("(2+t)/(1-t)", trunc=trunc).precision() == trunc


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        expand_series("1/(t-t)")
    blurred = expand_series("sqrt(1+t)") - expand_series("sqrt(1+t)")
    assert not blurred.is_exact and blurred.known_zero
    with pytest.raises(NonExpandable):
        blurred.inverse()


def test_truthiness_means_not_the_exact_zero():
    assert not PuiseuxSeries.zero()
    assert not PuiseuxSeries.zero(ram=3)
    assert not expand_series("t-t")
    # O(t^k) with no known term may still be nonzero
    assert _series(1, 4, {})
    assert _series(2, 1, {})
    assert expand_series("sqrt(1+t)") - expand_series("sqrt(1+t)")
    for x in (_4T2, _4T2_O5, _1_PLUS_T, _T_PLUS_T2, _series(3, None, {F(1, 3): -1})):
        assert x


def test_equal_series_hash_equal_at_any_ramification():
    t = expand_series("t")
    lifted = t.lift_to_at_least(2)
    assert lifted.ram == 2 and t == lifted and hash(t) == hash(lifted)
    assert len({t, lifted}) == 1
    # truncated series too: O(t^2) at ram 1 is O(t^(4/2)) at ram 2
    x = expand_series("1+t") + _series(1, 2, {})
    assert x.lift_to_at_least(3) == x and hash(x.lift_to_at_least(3)) == hash(x)
    assert x != _series(1, 3, {0: 1, 1: 1})
    assert len({x, x.lift_to_at_least(6), x.lift_to_at_least(4)}) == 1


def test_equality_across_ramifications_beyond_the_cap():
    # lcm(5, 7) = 35 exceeds RAMIFICATION_CAP; equality needs no common lift
    fifth, seventh = PuiseuxSeries.t_power(F(1, 5)), PuiseuxSeries.t_power(F(1, 7))
    assert fifth != seventh and not fifth == seventh
    t = expand_series("t")
    assert t.lift_to_at_least(5) == t.lift_to_at_least(7)
    assert hash(t.lift_to_at_least(5)) == hash(t.lift_to_at_least(7))


def test_parameter_substitution_with_series():
    # substituting a series-valued parameter composes the family
    f = expand_series("t-1")
    s = expand_series("a^2+a", params={"a": f})
    assert agree(s, expand_series("(t-1)^2+(t-1)"))
    assert s.coefficient(0) == rad(0)
    assert s.coefficient(1) == rad(-1)
    assert s.coefficient(2) == rad(1)


def test_scalar_evaluation():
    a = grat(F(1, 2))
    assert evaluate_scalar("(1+a)/(1-a)", {"a": a}) == grat(3)
    assert evaluate_scalar("sqrt(4)") == grat(2)
    assert evaluate_scalar("sqrt(2*i)") == GaussianRational(1, 1)
    assert evaluate_scalar("2^(-2)") == grat(F(1, 4))
    with pytest.raises(ScalarValueError):
        evaluate_scalar("sqrt(5)")
    with pytest.raises(ScalarValueError):
        evaluate_scalar("t")
    with pytest.raises(ValueError, match=r"division by zero in '\(1/\(a-a\)\)'"):
        evaluate_scalar("1/(a-a)", {"a": a})


def test_scalar_without_a_value_is_a_value_error():
    for text, message in (("zz", "unbound parameter 'zz'"),
                          ("t", "the deformation variable has no scalar value"),
                          ("sqrt(5)", r"sqrt\(5\) is irrational")):
        with pytest.raises(ValueError, match=message):
            evaluate_scalar(text)
    assert evaluate_scalar("t", tval=2) == grat(2)


def test_int_root_is_exact_beyond_float_range():
    big = 10**100 + 1
    assert _int_root(big**3, 3) == big
    assert _int_root(big**3 + 1, 3) is None
    assert _int_root(big**3 - 1, 3) is None
    assert _int_root(2**64, 64) == 2
    assert _int_root(2, 10**12) is None
    assert [_int_root(n, 2) for n in (1, 2, 3, 4, 9, 10)] == [1, None, None, 2, 3, None]
    assert evaluate_scalar(f"({big**3})^(1/3)") == grat(big)
    assert evaluate_scalar(f"1/({big**3})^(2/3)") == grat(F(1, big**2))


def test_rational_power_error_clips_the_coefficient():
    with pytest.raises(ScalarValueError) as info:
        evaluate_scalar("1" + "0" * 400 + "^(1/3)")
    assert str(info.value) == f"no exact 1/3 power of coefficient {'1' + '0' * 39!r}"


def test_numeric_evaluation_matches_series():
    exprs = ["1/(t-1)", "sqrt(4*t^2-5)", "t^(3/2)*(2-t)", "(1+i)/(1+t^2)"]
    with mpmath.workdps(60):
        for text in exprs:
            s = expand_series(text)
            for tval in ("1e-3", "1e-4"):
                direct = evaluate_numeric(text, tval)
                via_series = s.numeric_at(tval)
                err = abs(direct - via_series) / max(1, abs(direct))
                assert err < mpmath.mpf("1e-10"), (text, tval)


def test_numeric_branch_flip():
    key = collect_sqrt_keys(["sqrt(4*t^2-5)"])[0]
    with mpmath.workdps(30):
        plus = evaluate_numeric("sqrt(4*t^2-5)", "0.01")
        minus = evaluate_numeric("sqrt(4*t^2-5)", "0.01", branch={key: -1})
        assert abs(plus + minus) < mpmath.mpf("1e-25")


# hypothesis: ring homomorphism ------------------------------------------------

_small = st.integers(-3, 3)


@st.composite
def safe_exprs(draw, depth=2):
    """Expressions guaranteed to expand: denominators have nonzero lead."""
    if depth == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return TNum(F(draw(_small.filter(bool))))
        if choice == 1:
            return TVar()
        return TMul(TNum(F(draw(_small.filter(bool)))), TVar())
    left = draw(safe_exprs(depth=depth - 1))
    right = draw(safe_exprs(depth=depth - 1))
    op = draw(st.integers(0, 3))
    if op == 0:
        return TAdd(left, right)
    if op == 1:
        return TMul(left, right)
    if op == 2:
        # divide by something with a nonzero constant term
        unit = TAdd(TNum(F(draw(st.sampled_from([1, 2, -1, 3])))), TMul(TVar(), right))
        return TMul(left, parse_expression(f"1/({to_text(unit)})"))
    return TMul(left, left)


@given(safe_exprs(), safe_exprs())
def test_product_homomorphism(e1, e2):
    s1 = expand_series(e1)
    s2 = expand_series(e2)
    assert agree(s1 * s2, expand_series(TMul(e1, e2)))


@given(safe_exprs())
def test_square_matches_product(e):
    s = expand_series(e)
    assert agree(s * s, expand_series(TMul(e, e)))


@given(st.sampled_from([1, 4, 9, -1, -4]), safe_exprs())
def test_sqrt_squares_back(c, e):
    expr = TAdd(TNum(F(c)), TMul(TVar(), e))
    s = expand_series(TSqrt(expr))
    assert agree(s * s, expand_series(expr))


@given(safe_exprs())
def test_numeric_agreement_random(e):
    s = expand_series(e)
    with mpmath.workdps(60):
        direct = evaluate_numeric(e, "1e-4")
        via = s.numeric_at("1e-4")
        assert abs(direct - via) / max(1, abs(direct)) < mpmath.mpf("1e-10")


# hypothesis: the binomial kernel against the plain power loop -----------------


def _binomial_by_powers(s, alpha, root, trunc):
    """s^alpha by summing binom(alpha, j) u^j power by power: the reference for _binomial."""
    v, lead = s.coeffs[0]
    rel = trunc * s.ram if s.prec is None else s.prec - v
    u = s * PuiseuxSeries(s.ram, ((-v, lead.inverse()),)) - 1
    shift = int(v * alpha)
    mono = PuiseuxSeries(s.ram, ((shift, root),))
    if not u.coeffs:
        return mono.truncate_units(None if s.prec is None else rel + shift)
    total = term = PuiseuxSeries.scalar(1, s.ram)
    coeff = F(1)
    for j in range(1, rel // u.coeffs[0][0] + 2):
        coeff *= (alpha - j + 1) / j
        term = (term * u).truncate_units(rel)
        if not term.coeffs:
            break
        total = total + term * grat(coeff)
    return (total * mono).truncate_units(rel + shift)


_GAUSS = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-2, 2)).filter(bool)
# z_1 sqrt(d_1) + z_2 sqrt(d_2) with d_1 != d_2 in {1, 2, 3}: never zero
_COEFF = st.dictionaries(st.sampled_from([1, 2, 3]), _GAUSS, min_size=1, max_size=2).map(
    lambda terms: sum(Radical.from_gaussian(z) * sqrt_gaussian(grat(d)) for d, z in terms.items())
)


@st.composite
def unit_series(draw, lead):
    """lead t^(v/ram) times 1 + higher terms, exact or truncated; v may be negative."""
    ram = draw(st.sampled_from([1, 2, 3]))
    v = 2 * draw(st.integers(-2, 2))
    tail = draw(st.dictionaries(st.integers(1, 12), _COEFF, max_size=4))
    prec = draw(st.one_of(st.none(), st.integers(1, 14).map(lambda p: v + p)))
    terms = {v: lead, **{v + k: c for k, c in tail.items()}}
    return PuiseuxSeries(ram, terms.items(), prec)


_TRUNCS = st.sampled_from([1, 2, 4, 16])


def _relative_order(s, trunc):
    """The relative precision of s^alpha: None for an exact monomial, else rel."""
    if s.prec is None and len(s.coeffs) == 1:
        return None
    return trunc * s.ram if s.prec is None else s.prec - s.coeffs[0][0]


@given(_COEFF, st.data(), _TRUNCS)
def test_binomial_inverse_matches_power_sum(lead, data, trunc):
    s = data.draw(unit_series(lead))
    root = lead.inverse()
    new, old = s._binomial(F(-1), root, trunc), _binomial_by_powers(s, F(-1), root, trunc)
    assert (repr(new), new.prec, new.ram) == (repr(old), old.prec, old.ram)
    rel = _relative_order(s, trunc)
    assert s * s.inverse(trunc) == PuiseuxSeries.scalar(1, s.ram).truncate_units(rel)


@given(_GAUSS, st.data(), _TRUNCS)
def test_binomial_sqrt_matches_power_sum(z, data, trunc):
    root = rad(z)
    s = data.draw(unit_series(root * root))
    new, old = s._binomial(F(1, 2), root, trunc), _binomial_by_powers(s, F(1, 2), root, trunc)
    assert (repr(new), new.prec, new.ram) == (repr(old), old.prec, old.ram)
    r = s.sqrt(trunc=trunc)
    rel = _relative_order(s, trunc)
    assert r * r == s.truncate_units(None if rel is None else s.coeffs[0][0] + rel)


# hypothesis: the cleared kernel against the Radical-coefficient arithmetic ------
#
# The reference keeps the deleted arithmetic on Radical coefficients, as
# {k: {d: GaussianRational}} dicts with its own sqrt(d1) sqrt(d2) contraction,
# so a wrong contraction or a missing reduction in the kernel shows up.

def _rad_add(a, b):
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, ZERO) + c
    return {d: c for d, c in out.items() if c}


def _rad_mul(a, b):
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            g = math.gcd(d1, d2)
            d = (d1 // g) * (d2 // g)
            out[d] = out.get(d, ZERO) + c1 * c2 * g
    return {d: c for d, c in out.items() if c}


def _rad_inverse(a):
    if set(a) == {1}:
        return {1: 1 / a[1]}
    dmax = max(a)
    p = next(q for q in range(2, dmax + 1) if dmax % q == 0)
    conj = {d: -c if d % p == 0 else c for d, c in a.items()}
    return _rad_mul(conj, _rad_inverse(_rad_mul(a, conj)))


class _Ref:
    """A Puiseux series with {k: {d: GaussianRational}} coefficients."""

    def __init__(self, ram, coeffs, prec):
        self.ram, self.prec = ram, prec
        self.c = {k: c for k, c in coeffs.items() if c and (prec is None or k < prec)}

    @staticmethod
    def of(s):
        return _Ref(s.ram, {k: dict(c.terms) for k, c in s.coeffs}, s.prec)

    def series(self):
        return PuiseuxSeries(self.ram, [(k, Radical(tuple(sorted(c.items()))))
                                        for k, c in self.c.items()], self.prec)

    def text(self):
        coeffs = tuple((k, Radical(tuple(sorted(self.c[k].items())))) for k in sorted(self.c))
        return f"PuiseuxSeries(ram={self.ram!r}, coeffs={coeffs!r}, prec={self.prec!r})"

    def lift(self, ram):
        f = ram // self.ram
        return _Ref(ram, {k * f: c for k, c in self.c.items()},
                    None if self.prec is None else self.prec * f)

    def common(self, other):
        ram = math.lcm(self.ram, other.ram)
        if ram > 12:
            raise NonExpandable("ramification cap")
        return self.lift(ram), other.lift(ram)

    def __bool__(self):
        return bool(self.c) or self.prec is not None

    def __add__(self, other):
        a, b = self.common(other)
        data = dict(a.c)
        for k, c in b.c.items():
            data[k] = _rad_add(data.get(k, {}), c)
        precs = [p for p in (a.prec, b.prec) if p is not None]
        return _Ref(a.ram, data, min(precs) if precs else None)

    def __neg__(self):
        return _Ref(self.ram, {k: {d: -z for d, z in c.items()} for k, c in self.c.items()},
                    self.prec)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        a, b = self.common(other)
        if not a or not b:
            return _Ref(a.ram, {}, None)
        va = min(a.c) if a.c else a.prec
        vb = min(b.c) if b.c else b.prec
        bounds = [p + v for p, v in ((a.prec, vb), (b.prec, va)) if p is not None]
        prec = min(bounds) if bounds else None
        data = {}
        for k1, c1 in a.c.items():
            for k2, c2 in b.c.items():
                if prec is None or k1 + k2 < prec:
                    data[k1 + k2] = _rad_add(data.get(k1 + k2, {}), _rad_mul(c1, c2))
        return _Ref(a.ram, data, prec)

    def binomial(self, alpha, root, trunc):
        v = min(self.c)
        rel = trunc * self.ram if self.prec is None else self.prec - v
        u = self * _Ref(self.ram, {-v: _rad_inverse(self.c[v])}, None) - _Ref(1, {0: {1: ONE}}, None)
        shift = int(v * alpha)
        if not u.c:
            prec = None if self.prec is None else rel + shift
            return _Ref(self.ram, {shift: root}, prec)
        g = [{1: ONE}]
        for n in range(1, rel):
            gn = {}
            for k, c in u.c.items():
                if k <= n and g[n - k] and alpha * k != n - k:
                    w = {1: grat((alpha * k - n + k) / n)}
                    gn = _rad_add(gn, _rad_mul(_rad_mul(c, g[n - k]), w))
            g.append(gn)
        return _Ref(self.ram, {n + shift: _rad_mul(gn, root) for n, gn in enumerate(g)},
                    rel + shift)

    def inverse(self, trunc):
        if not self.c:
            raise ZeroDivisionError if self.prec is None else NonExpandable
        return self.binomial(F(-1), _rad_inverse(self.c[min(self.c)]), trunc)

    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError
        if other.prec is None and len(other.c) == 1:
            (k, c), = other.c.items()
            return self * _Ref(other.ram, {-k: _rad_inverse(c)}, None)
        return self * other.inverse(DEFAULT_TRUNCATION)

    def sqrt(self, branch, trunc):
        if not self.c:
            if self.prec is None:
                return self
            raise NonExpandable
        work = self if min(self.c) % 2 == 0 else self.lift(2 * self.ram)
        if work.ram > 12:
            raise NonExpandable
        lead = work.c[min(work.c)]
        if set(lead) != {1}:
            raise NonExpandable
        root = {d: z * branch for d, z in sqrt_gaussian(lead[1]).terms}
        return work.binomial(F(1, 2), root, trunc)

    def pow(self, e, branch, trunc):
        if e.denominator == 2:
            return self.sqrt(branch, trunc).pow(F(e.numerator), 1, trunc)
        n = int(e)
        if n < 0:
            return self.inverse(trunc).pow(F(-n), 1, trunc)
        out = _Ref(self.ram, {0: {1: ONE}}, None)
        for _ in range(n):
            out = out * self
        return out


@st.composite
def radical_series(draw):
    """Exact or truncated series at ram 1-3, negative valuations allowed,
    with Gaussian and sqrt(2), sqrt(3) coefficients."""
    ram = draw(st.sampled_from([1, 2, 3]))
    terms = draw(st.dictionaries(st.integers(-4, 6), _COEFF, max_size=3))
    prec = draw(st.one_of(st.none(), st.integers(-2, 9)))
    return PuiseuxSeries(ram, terms.items(), prec)


def _outcome(fn):
    """('ok', result) or ('raised', exception type) of fn()."""
    try:
        return "ok", fn()
    except (NonExpandable, ZeroDivisionError) as exc:
        return "raised", type(exc)


_OPS = {
    "+": (lambda a, b, t: a + b),
    "-": (lambda a, b, t: a - b),
    "*": (lambda a, b, t: a * b),
    "/": (lambda a, b, t: a / b),
}


@given(radical_series(), radical_series(), st.sampled_from(sorted(_OPS)), st.sampled_from([1, 2, 4]))
def test_cleared_arithmetic_matches_radical_reference(x, y, op, trunc):
    fn = _OPS[op]
    got = _outcome(lambda: fn(x, y, trunc))
    want = _outcome(lambda: fn(_Ref.of(x), _Ref.of(y), trunc))
    assert got[0] == want[0]
    if got[0] == "ok":
        assert repr(got[1]) == want[1].text()
        assert got[1] == want[1].series() and hash(got[1]) == hash(want[1].series())
    else:
        assert got[1] is want[1]


@given(
    radical_series(),
    st.sampled_from(["inverse", "sqrt", *(F(n, q) for n in (-2, -1, 0, 1, 2, 3) for q in (1, 2))]),
    st.sampled_from([1, -1]),
    st.sampled_from([1, 2, 4]),
)
def test_cleared_inverse_sqrt_pow_match_radical_reference(x, op, branch, trunc):
    if op == "inverse":
        got = _outcome(lambda: x.inverse(trunc))
        want = _outcome(lambda: _Ref.of(x).inverse(trunc))
    elif op == "sqrt":
        got = _outcome(lambda: x.sqrt(branch, trunc))
        want = _outcome(lambda: _Ref.of(x).sqrt(branch, trunc))
    else:
        got = _outcome(lambda: x.pow(op, branch, trunc))
        want = _outcome(lambda: _Ref.of(x).pow(op, branch, trunc))
    assert got[0] == want[0]
    if got[0] == "ok":
        assert repr(got[1]) == want[1].text()
        assert got[1] == want[1].series()
    else:
        assert got[1] is want[1]
