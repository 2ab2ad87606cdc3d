from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from zinbiel5 import exactmath
from zinbiel5.exactmath import (
    I,
    ONE,
    ZERO,
    ExactMatrix,
    GaussianRational,
    grat,
    kernel_basis_sparse,
    nullity_mod_p,
    rank_sparse,
)

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
scalars = st.builds(GaussianRational, small_fractions, small_fractions)
nonzero_scalars = scalars.filter(bool)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(scalars, min_size=n, max_size=n), min_size=m, max_size=m
            ).map(ExactMatrix)
        )
    )


def test_division_example():
    assert (ONE + 2 * I) / (grat(3) - I) == GaussianRational(
        Fraction(1, 10), Fraction(7, 10)
    )


def test_parse_roundtrip_examples():
    for text in ["3", "-3/2", "i", "-i", "2*i", "1/2-3/4*i", "1+i", "0"]:
        v = grat(text)
        assert grat(str(v)) == v


def test_parse_mixed():
    assert grat("1/2-3/4*i") == GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert grat("-2+i") == GaussianRational(-2, 1)


@given(scalars, scalars, scalars)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * (ONE / a) == ONE


@given(scalars)
def test_conjugate_norm(a):
    n = a * a.conjugate()
    assert n.im == 0
    assert n.re >= 0


def test_rank_one_example():
    m = ExactMatrix([[ONE, I], [-I, ONE]])
    assert m.rank() == 1


def test_inverse_roundtrip():
    m = ExactMatrix([[1, I, 0], [0, 2, 1], [1, 0, -1]])
    assert m * m.inverse() == ExactMatrix.identity(3)


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 1], [2, 2]]).inverse()


@given(matrices())
def test_rref_idempotent(m):
    red, piv = m.rref()
    red2, piv2 = red.rref()
    assert red == red2 and piv == piv2


@given(matrices(max_rows=4, max_cols=4))
def test_det_zero_iff_singular(m):
    if m.nrows != m.ncols:
        return
    assert (m.det() == ZERO) == (m.rank() < m.nrows)


def _to_sparse(m):
    return [
        {j: x for j, x in enumerate(row) if x} for row in m.rows
    ], m.ncols


def _textbook_rref(m):
    """Reference Gauss-Jordan, column by column, on lists of GaussianRational."""
    rows = [list(row) for row in m.rows]
    pivots = []
    for c in range(m.ncols):
        r = len(pivots)
        pr = next((k for k in range(r, m.nrows) if rows[k][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(m.nrows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows, pivots


def _textbook_kernel(m):
    red, pivots = _textbook_rref(m)
    basis = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        v = [ZERO] * m.ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


@given(matrices())
def test_sparse_matches_dense(m):
    rows, ncols = _to_sparse(m)
    red, pivots = _textbook_rref(m)
    assert m.rref() == (ExactMatrix(red), tuple(pivots))
    assert rank_sparse(rows, ncols) == m.rank() == len(pivots)
    assert kernel_basis_sparse(rows, ncols) == _textbook_kernel(m)


@given(matrices())
def test_modp_nullity_matches_exact(m):
    rows, ncols = _to_sparse(m)
    exact = len(_textbook_kernel(m))
    assert nullity_mod_p(rows, ncols) == exact


def _sparse_textbook_rref(rows, ncols):
    """The textbook RREF of sparse rows, as :func:`exactmath._rref` reads it
    from the record of :func:`exactmath._eliminate`: dict pivot_col ->
    {col: nonzero entry}."""
    m = ExactMatrix([[grat(row.get(c, 0)) for c in range(ncols)] for row in rows])
    red, pivots = _textbook_rref(m)
    return {p: {c: x for c, x in enumerate(row) if x} for row, p in zip(red, pivots)}


# ---------------------------------------------------------------------------
# fraction-free elimination of complex systems over Z[i]
# ---------------------------------------------------------------------------


@given(matrices(max_rows=6, max_cols=6), st.data())
def test_gaussian_path_matches_textbook(m, data):
    """A system with a non-real entry, and maybe a dependent row, reduces
    over Z[i] to the textbook RREF; real integral entries may come as ints,
    as the system builders pass them."""
    rows = [list(row) for row in m.rows]
    r = data.draw(st.integers(0, m.nrows - 1))
    c = data.draw(st.integers(0, m.ncols - 1))
    rows[r][c] = data.draw(complex_scalars)
    if data.draw(st.booleans()):  # a dependent row, so ranks drop too
        z = data.draw(scalars)
        rows.append([a * z + b for a, b in zip(rows[0], rows[-1])])
    sparse, ncols = _to_sparse(ExactMatrix(rows))
    if data.draw(st.booleans()):
        sparse = [{c: int(x.re) if not x.im and x.re.denominator == 1 else x
                   for c, x in row.items()} for row in sparse]
    before = [dict(row) for row in sparse]
    counts = dict(exactmath.ELIMINATIONS)
    expected = _sparse_textbook_rref(sparse, ncols)
    assert exactmath._rref(exactmath._eliminate(sparse)) == expected
    assert rank_sparse(sparse, ncols) == len(expected)
    assert sparse == before  # the input rows are not modified
    assert exactmath.ELIMINATIONS["gaussian"] == counts["gaussian"] + 2
    assert exactmath.ELIMINATIONS["integer"] == counts["integer"]


P = exactmath._P
TALL = 2**64 + 1


@pytest.mark.parametrize(
    "rows, rref",
    [
        (  # RREF entries with numerator and denominator above 2**64
            [{0: GaussianRational(TALL), 1: GaussianRational(TALL + 2, 1)}],
            {0: {0: ONE, 1: GaussianRational(Fraction(TALL + 2, TALL), Fraction(1, TALL))}},
        ),
        (  # an entry above Wang's bound sqrt(P/2) for rational reconstruction
            [{0: ONE, 1: GaussianRational(Fraction(TALL, 2), 1)}],
            {0: {0: ONE, 1: GaussianRational(Fraction(TALL, 2), 1)}},
        ),
        (  # det = P: full rank, though the rank drops mod P
            [{0: ONE, 1: GaussianRational(1, 1)}, {0: ONE, 1: GaussianRational(1 + P, 1)}],
            {0: {0: ONE}, 1: {1: ONE}},
        ),
        (  # a denominator of P
            [{0: ONE, 1: GaussianRational(Fraction(1, P), 1)}],
            {0: {0: ONE, 1: GaussianRational(Fraction(1, P), 1)}},
        ),
    ],
    ids=["above-2**64", "above-wang-bound", "det-P", "denominator-P"],
)
def test_tall_complex_systems_reduce_exactly(rows, rref):
    assert exactmath._rref(exactmath._eliminate(rows)) == rref == _sparse_textbook_rref(rows, 2)
    assert rank_sparse(rows, 2) == len(rref)


def test_modp_nullity_stays_an_upper_bound_when_p_divides_the_system():
    # a row whose common denominator is P: its image mod P is still nonzero
    assert nullity_mod_p([{0: ONE, 1: GaussianRational(Fraction(1, P), 1)}], 2) == 1
    # det = P: the rank drops mod P, so the nullity is one too high
    rows = [{0: ONE, 1: GaussianRational(1, 1)}, {0: ONE, 1: GaussianRational(1 + P, 1)}]
    assert rank_sparse(rows, 2) == 2 and nullity_mod_p(rows, 2) == 1


def test_gaussian_path_keeps_pivot_rows_primitive():
    # the int 3 is cleared with the 1/2 in its row: (6, 1, 2i)
    rows = [{0: GaussianRational(1, 1), 1: 2}, {0: 3, 1: grat("1/2"), 2: I}]
    record = exactmath._eliminate(rows)
    rank, pivots, real = record
    assert not real and rank == 2
    # each pivot entry a positive int, the parts of each row coprime
    assert pivots == ((0, ((0, (61, 0)), (2, (-2, 22)))), (1, ((1, (61, 0)), (2, (12, -10)))))
    assert exactmath._rref(record) == {
        0: {0: ONE, 2: grat("-2/61+22/61*i")},
        1: {1: ONE, 2: grat("12/61-10/61*i")},
    }


def test_certified_prime_is_a_proth_prime():
    k, rest = divmod(P - 1, 2**64)
    assert rest == 0 and k % 2 == 1 and k < 2**64  # P = k * 2**64 + 1
    assert pow(29, (P - 1) // 2, P) == P - 1  # Proth's theorem: P is prime
    assert P % 4 == 1 and P.bit_length() == 127
    assert exactmath._S**2 % P == P - 1


# ---------------------------------------------------------------------------
# fraction-free integer elimination of real systems
# ---------------------------------------------------------------------------

# a real entry as the system builders pass it (an int) or as a real
# GaussianRational, with fractional, negative and large numerators
real_entries = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**70), 2**70),
    st.builds(GaussianRational, small_fractions),
    st.builds(
        lambda n, d: GaussianRational(Fraction(n, d)),
        st.integers(-(2**70), 2**70),
        st.integers(1, 2**40),
    ),
).filter(bool)


@st.composite
def real_systems(draw):
    """(rows, ncols): sparse real rows, some empty, with a duplicate row and
    a dependent row (a combination of two others) mixed in."""
    ncols = draw(st.integers(1, 6))
    cols = st.integers(0, ncols - 1)
    rows = draw(st.lists(st.dictionaries(cols, real_entries, max_size=ncols), max_size=8))
    if rows and draw(st.booleans()):
        rows.append(dict(draw(st.sampled_from(rows))))
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
        r, q = rows[0], rows[-1]
        comb = {c: a * grat(r.get(c, 0)) + b * grat(q.get(c, 0)) for c in r.keys() | q.keys()}
        rows.append({c: v for c, v in comb.items() if v})
    order = draw(st.permutations(range(len(rows))))
    return [rows[k] for k in order], ncols


@given(real_systems())
@example(([{0: 3}, {0: -(2**80)}, {}], 1))
@example(([{0: GaussianRational(Fraction(-2, 3))}, {0: 4}], 1))
def test_integer_path_matches_fraction_loop(system):
    """Real rows reduce over Z to the RREF of the textbook loop, which
    works in Fraction arithmetic."""
    rows, ncols = system
    before = [dict(row) for row in rows]
    counts = dict(exactmath.ELIMINATIONS)
    expected = _sparse_textbook_rref(rows, ncols)
    assert exactmath._rref(exactmath._eliminate(rows)) == expected
    assert rank_sparse(rows, ncols) == len(expected)
    assert nullity_mod_p(rows, ncols) == ncols - len(expected)
    assert rows == before  # the input rows are not modified
    assert exactmath.ELIMINATIONS["integer"] == counts["integer"] + 2
    assert exactmath.ELIMINATIONS["gaussian"] == counts["gaussian"]


def test_rows_counter_counts_every_row_fed_to_the_eliminator():
    before = dict(exactmath.ELIMINATIONS)
    rank_sparse([{0: 1}, {}, {1: grat("1/2")}], 2)  # cleared over Z
    nullity_mod_p(iter([{0: I}, {0: 1, 1: 2}]), 2)  # cleared over Z[i], then mod P
    kernel_basis_sparse(exactmath._Rows([{0: (1, 1)}, {0: (2, 2)}], False), 2)
    rank_sparse(ExactMatrix([[1, 2], [3, 4], [5, 6]])._sparse_rows(), 2)
    counts = {k: n - before[k] for k, n in exactmath.ELIMINATIONS.items()}
    assert counts == {"integer": 2, "gaussian": 1, "modular": 1, "rows": 3 + 2 + 2 + 3}


def test_integer_path_keeps_pivot_rows_primitive():
    record = exactmath._eliminate([{0: 6, 1: 4, 2: 2}, {0: 9, 1: 3}])
    rank, pivots, integral = record
    assert integral and rank == 2
    assert pivots == ((0, ((0, 3), (2, -1))), (1, ((1, 1), (2, 1))))
    assert exactmath._rref(record) == {
        0: {0: ONE, 2: grat("-1/3")},
        1: {1: ONE, 2: ONE},
    }


# ---------------------------------------------------------------------------
# every operator, on real and complex operands alike, agrees with the
# textbook complex formula and returns the canonical three-int form
# ---------------------------------------------------------------------------

nonzero_fractions = small_fractions.filter(bool)
real_scalars = st.builds(GaussianRational, small_fractions)
complex_scalars = st.builds(GaussianRational, small_fractions, nonzero_fractions)
KINDS = {"real": real_scalars, "complex": complex_scalars}
PAIRINGS = [(x, y) for x in KINDS for y in KINDS]


def _pair(z):
    return (z.re, z.im)


def _mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def _div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return ((a * c + b * d) / n, (b * c - a * d) / n)


def _pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = _mul(out, x)
    return out if k >= 0 else _div((Fraction(1), Fraction(0)), out)


def _assert_exact(z, expected):
    assert type(z) is GaussianRational
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert _pair(z) == expected
    # the stored form (a + b*i)/d is canonical, and the public views agree
    ints = (z.a, z.b, z.d)
    assert z.d > 0 and gcd(*ints) == 1
    w = GaussianRational(z.re, z.im)
    assert (w.a, w.b, w.d) == ints
    if z.im:
        assert hash(z) == hash((z.re, z.im))
    assert GaussianRational.parse(str(z)) == z


@pytest.mark.parametrize("kinds", PAIRINGS, ids="-".join)
@given(data=st.data())
def test_binary_ops_match_complex_formula(kinds, data):
    x = data.draw(KINDS[kinds[0]])
    y = data.draw(KINDS[kinds[1]])
    (a, b), (c, d) = _pair(x), _pair(y)
    _assert_exact(x + y, (a + c, b + d))
    _assert_exact(x - y, (a - c, b - d))
    _assert_exact(x * y, _mul((a, b), (c, d)))
    if y:
        _assert_exact(x / y, _div((a, b), (c, d)))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), k=st.integers(-4, 5))
def test_unary_ops_match_complex_formula(kind, data, k):
    x = data.draw(KINDS[kind])
    a, b = _pair(x)
    _assert_exact(-x, (-a, -b))
    _assert_exact(x.conjugate(), (a, -b))
    if x or k >= 0:
        _assert_exact(x**k, _pow((a, b), k))
    else:
        with pytest.raises(ZeroDivisionError):
            x**k


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), q=small_fractions, n=st.integers(-50, 50))
def test_mixed_operands_coerce(kind, data, q, n):
    x = data.draw(KINDS[kind])
    for r in (q, n):
        g = GaussianRational(r)
        _assert_exact(x + r, _pair(x + g))
        _assert_exact(r - x, _pair(g - x))
        _assert_exact(r * x, _pair(g * x))
        if r:
            _assert_exact(x / r, _pair(x / g))


@given(small_fractions, st.integers(-10**30, 10**30))
def test_real_values_hash_and_compare_like_fractions(q, n):
    for r in (q, n, Fraction(n, 7)):
        g = GaussianRational(r)
        assert g == r and r == g
        assert hash(g) == hash(r)
        assert type(g.re) is Fraction and type(g.im) is Fraction


@given(complex_scalars)
def test_real_results_of_complex_arithmetic_hash_like_fractions(z):
    n = z * z.conjugate()
    assert n.im == 0
    assert n == n.re and hash(n) == hash(n.re)
    assert (z - z) == 0 and hash(z - z) == hash(0) and not (z - z)


@pytest.mark.parametrize(
    "text", ["1/0", "0/0", "-3/0*i", "abc", "1//2", "i*i", "+", "1/2-", "2**3"]
)
def test_malformed_scalar_raises_one_line_value_error(text):
    with pytest.raises(ValueError) as info:
        grat(text)
    assert "\n" not in str(info.value)


def test_constructor_rejects_bad_values_with_value_error():
    for bad in ("1/0", float("inf"), float("nan"), "x" * 500):
        with pytest.raises(ValueError) as info:
            GaussianRational(0, bad)
        assert len(str(info.value)) < 80


# ---------------------------------------------------------------------------
# feed order: the reduction of a row space does not depend on its row order
# ---------------------------------------------------------------------------


@st.composite
def complex_systems(draw):
    """(rows, ncols): a real system (see :func:`real_systems`) with one
    entry made non-real, so that it reduces over Z[i]."""
    rows, ncols = draw(real_systems())
    if not rows:
        rows.append({})
    row = draw(st.sampled_from(rows))
    row[draw(st.integers(0, ncols - 1))] = draw(complex_scalars)
    return rows, ncols


def _modp_pivots(rows):
    """The GF(P) pivot rows of :func:`nullity_mod_p`'s reduction of rows."""
    cleared, real = exactmath._cleared_rows(rows)
    image = [{c: m for c, v in row.items()
              if (m := (v if real else v[0] + v[1] * exactmath._S) % P)}
             for row in cleared]
    return exactmath._gauss_jordan(image, exactmath._modp_subtract,
                                   exactmath._modp_normalize)


def _assert_order_free(rows, fed, ncols):
    """rows and fed, a permutation of them, reduce alike over Z or Z[i] and
    over GF(P), as lists and as generators."""
    assert exactmath._eliminate(fed) == exactmath._eliminate(rows)
    assert _modp_pivots(fed) == _modp_pivots(rows)
    rank = rank_sparse(rows, ncols)
    nullity = nullity_mod_p(rows, ncols)
    assert rank_sparse(fed, ncols) == rank_sparse((r for r in fed), ncols) == rank
    assert nullity_mod_p(fed, ncols) == nullity_mod_p((r for r in fed), ncols) == nullity
    assert kernel_basis_sparse(fed, ncols) == kernel_basis_sparse(rows, ncols)


@given(st.one_of(real_systems(), complex_systems()), st.data())
def test_row_order_does_not_change_the_reduction(system, data):
    rows, ncols = system
    order = data.draw(st.permutations(range(len(rows))))
    _assert_order_free(rows, [rows[k] for k in order], ncols)
    _assert_order_free(rows, rows[::-1], ncols)


@pytest.mark.parametrize("builder", ["derivation", "cocycle"])
@settings(max_examples=5)
@given(data=st.data())
def test_builder_systems_reduce_alike_in_any_row_order(qi_moved_z05, builder, data):
    """The derivation and cocycle systems of Z_05 (over Z) and of Z_05 in a
    Q(i) basis (over Z[i]), shuffled or reversed, keep their pivot rows."""
    from zinbiel5.algebra import _derivation_rows
    from zinbiel5.cohomology import _cocycle_rows

    build = _derivation_rows if builder == "derivation" else _cocycle_rows
    for A in qi_moved_z05:
        rows = build(A)
        order = data.draw(st.permutations(range(len(rows))))
        for fed in ([rows[k] for k in order], rows[::-1]):
            _assert_order_free(rows, exactmath._Rows(fed, rows.real), A.dim**2)
