from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zinbiel5.algebra import (
    Algebra,
    Fingerprint,
    _derivation_rows,
    algebra_from_entries,
    annihilator,
    change_basis,
    check_identity,
    check_isomorphism,
    derivation_dimension,
    derivations,
    direct_sum,
    fingerprint,
    orbit_dimension,
    power_filtration,
    product,
    zero_algebra,
)
from zinbiel5.cohomology import _cocycle_rows
from zinbiel5.exactmath import ONE, ZERO, ExactMatrix, grat


def alg(dim, *entries):
    return algebra_from_entries(dim, entries)


# a handful of fixed specimens ----------------------------------------------

SQUARE4 = alg(4, (1, 1, 2, 1))  # e1^2 = e2 in dim 4
THREE_STEP4 = alg(4, (1, 1, 2, 1), (1, 2, 3, 1), (2, 1, 3, 2))
TWO_OUTPUT4 = alg(4, (1, 2, 3, 1), (2, 1, 4, 1))

# 3-step nilpotent 6-dim algebra satisfying the symmetric variant
SYM6 = alg(
    6,
    (1, 2, 3, 1),
    (2, 1, 4, 1),
    (2, 2, 5, 1),
    (1, 5, 6, 1),
    (5, 1, 6, -1),
    (2, 4, 6, -2),
    (4, 2, 6, -1),
    (2, 3, 6, 1),
    (3, 2, 6, 2),
)


def test_product_on_basis():
    x = (ONE, ZERO, ZERO, ZERO)
    assert product(SQUARE4, x, x) == (ZERO, ONE, ZERO, ZERO)


def test_zinbiel_specimens():
    for a in (SQUARE4, THREE_STEP4, TWO_OUTPUT4, SYM6):
        assert check_identity(a, "zinbiel").ok


def test_identity_violation_witness():
    idem = alg(1, (1, 1, 1, 1))
    rep = check_identity(idem, "zinbiel")
    assert not rep.ok
    assert rep.witness == (1, 1, 1)
    assert rep.lhs == (ONE,)
    assert rep.rhs == (grat(2),)


def test_symmetric_six_dimensional_example():
    assert check_identity(SYM6, "symmetric-zinbiel").ok
    assert check_identity(SYM6, "skew-cyclic-left").ok
    assert check_identity(SYM6, "skew-cyclic-right").ok
    pf = power_filtration(SYM6)
    assert pf.dims == (6, 4, 1, 0)
    assert pf.nilpotent and pf.index == 3


def test_symmetric_fails_on_plain_zinbiel_example():
    # e1^2=e2 satisfies zinbiel but not the symmetric strengthening in dim 4?
    # it does satisfy it (3-step with trivial mixed products), so use a
    # genuinely asymmetric one: the 3-step algebra with e1e2=e3, e2e1=2e3.
    rep = check_identity(THREE_STEP4, "symmetric-zinbiel")
    assert not rep.ok


def test_two_step_kind():
    flat = alg(3, (1, 2, 3, 1), (2, 1, 3, -1))
    assert check_identity(flat, "two-step-nilpotent").ok
    assert not check_identity(THREE_STEP4, "two-step-nilpotent").ok


def test_commutative_kinds():
    sym = alg(3, (1, 2, 3, 1), (2, 1, 3, 1))
    skew = alg(3, (1, 2, 3, 1), (2, 1, 3, -1))
    assert check_identity(sym, "commutative").ok
    assert not check_identity(sym, "anticommutative").ok
    assert check_identity(skew, "anticommutative").ok
    assert check_identity(SQUARE4, "associative").ok


def test_annihilator_of_square4():
    basis = annihilator(SQUARE4)
    assert len(basis) == 3
    spanned = {tuple(1 if x == ONE else 0 for x in v) for v in basis}
    assert spanned == {
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    }


def test_power_filtration_square4():
    pf = power_filtration(SQUARE4)
    assert pf.dims == (4, 1, 0)
    assert pf.nilpotent and pf.index == 2


def test_power_filtration_three_step():
    pf = power_filtration(THREE_STEP4)
    assert pf.dims == (4, 2, 1, 0)
    assert pf.index == 3


def test_power_filtration_non_nilpotent():
    idem = alg(2, (1, 1, 1, 1))
    pf = power_filtration(idem)
    assert not pf.nilpotent
    assert pf.index is None


def test_derivations_of_square2():
    a = alg(2, (1, 1, 2, 1))
    ders = derivations(a)
    assert len(ders) == 2
    assert derivation_dimension(a) == 2
    assert orbit_dimension(a) == 2
    # Leibniz check by hand for each basis element
    for d in ders:
        lhs = tuple(d.rows[1])  # D(e2) since e1 e1 = e2
        e1 = (ONE, ZERO)
        rhs_vec = product(a, d.rows[0], e1)
        rhs_vec2 = product(a, e1, d.rows[0])
        rhs = tuple(x + y for x, y in zip(rhs_vec, rhs_vec2))
        assert lhs == rhs


def test_derivation_dimension_modular_agrees():
    for a in (SQUARE4, THREE_STEP4, TWO_OUTPUT4, SYM6):
        assert derivation_dimension(a, "modular") == derivation_dimension(a)


def test_zero_algebra_derivations():
    z = zero_algebra(2)
    assert derivation_dimension(z) == 4
    assert orbit_dimension(z) == 0


def test_change_basis_scaling():
    p = ExactMatrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    scaled = change_basis(SQUARE4, p)
    assert scaled.c[0][0][1] == grat(4)


def test_change_basis_identity():
    p = ExactMatrix.identity(4)
    assert change_basis(THREE_STEP4, p) == THREE_STEP4


def test_check_isomorphism():
    p = ExactMatrix([[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    target = change_basis(SQUARE4, p)
    assert check_isomorphism(SQUARE4, target, p)
    assert not check_isomorphism(THREE_STEP4, target, p)


def test_direct_sum_matches_padding():
    core = alg(2, (1, 1, 2, 1))
    padded = direct_sum(core, zero_algebra(2))
    assert padded == SQUARE4


def test_fingerprint_square4():
    fp = fingerprint(SQUARE4)
    assert fp.dim == 4
    assert fp.power_dims == (1, 0, 0, 0)
    assert fp.ann_dim == 3
    assert fp.z2_dim == 10
    assert fp.h2_dim == 9


# property tests -------------------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@st.composite
def algebras(draw, max_dim=4, max_entries=4):
    dim = draw(st.integers(2, max_dim))
    n_entries = draw(st.integers(0, max_entries))
    entries = []
    for _ in range(n_entries):
        i = draw(st.integers(1, dim))
        j = draw(st.integers(1, dim))
        k = draw(st.integers(1, dim))
        entries.append((i, j, k, draw(coeffs)))
    return algebra_from_entries(dim, entries)


@st.composite
def invertible_matrices(draw, n):
    # unit lower-triangular times unit upper-triangular with small entries
    vals = st.integers(-3, 3)
    lower = [[1 if i == j else (draw(vals) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (draw(vals) if j > i else 0) for j in range(n)] for i in range(n)]
    return ExactMatrix(lower) * ExactMatrix(upper)


@given(algebras())
def test_derivations_satisfy_leibniz(a):
    n = a.dim
    units = [tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]
    for d in derivations(a):
        for i in range(n):
            for j in range(n):
                lhs = [ZERO] * n
                for k, v in enumerate(a.c[i][j]):
                    if v:
                        for m in range(n):
                            lhs[m] = lhs[m] + v * d.rows[k][m]
                r1 = product(a, d.rows[i], units[j])
                r2 = product(a, units[i], d.rows[j])
                assert tuple(lhs) == tuple(x + y for x, y in zip(r1, r2))


@given(algebras())
def test_modular_derivation_dimension(a):
    assert derivation_dimension(a, "modular") == derivation_dimension(a)


@given(st.data())
def test_change_basis_composition(data):
    a = data.draw(algebras(max_dim=3))
    p = data.draw(invertible_matrices(a.dim))
    q = data.draw(invertible_matrices(a.dim))
    once = change_basis(change_basis(a, p), q)
    combined = change_basis(a, q * p)
    assert once == combined


@given(st.data())
def test_fingerprint_invariant_small(data):
    a = data.draw(algebras(max_dim=3, max_entries=3))
    p = data.draw(invertible_matrices(a.dim))
    assert fingerprint(change_basis(a, p)) == fingerprint(a)


@given(st.data())
def test_product_bilinear(data):
    a = data.draw(algebras(max_dim=3))
    n = a.dim
    vec = st.tuples(*[st.integers(-3, 3) for _ in range(n)])
    x = data.draw(vec)
    y = data.draw(vec)
    z = data.draw(vec)
    lam = data.draw(st.integers(-3, 3))
    xs = tuple(grat(v) for v in x)
    ys = tuple(grat(v) for v in y)
    zs = tuple(grat(v) for v in z)
    left = product(a, tuple(xi + lam * zi for xi, zi in zip(xs, zs)), ys)
    expect = tuple(
        u + lam * w for u, w in zip(product(a, xs, ys), product(a, zs, ys))
    )
    assert left == expect


# ---------------------------------------------------------------------------
# the system builders against the dense loops they replaced
# ---------------------------------------------------------------------------


@st.composite
def sparse_algebras(draw):
    """A random algebra with few nonzero constants, real or complex."""
    n = draw(st.integers(1, 4))
    idx = st.integers(1, n)
    coeff = st.sampled_from(["1", "-1", "2", "1/2", "i", "1-i"])
    return algebra_from_entries(n, draw(st.lists(st.tuples(idx, idx, idx, coeff), max_size=10)))


def _dense_derivation_rows(A):
    """The builder as first written: it tests every structure-constant slot."""
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(n):
            plane = A.c[i][j]
            for m in range(n):
                row = {}
                for k in range(n):
                    v = plane[k]
                    if v:
                        col = k * n + m
                        row[col] = row.get(col, ZERO) + v
                for p in range(n):
                    v = A.c[p][j][m]
                    if v:
                        col = i * n + p
                        row[col] = row.get(col, ZERO) - v
                for q in range(n):
                    v = A.c[i][q][m]
                    if v:
                        col = j * n + q
                        row[col] = row.get(col, ZERO) - v
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


@given(sparse_algebras())
def test_derivation_rows_match_dense_loop(A):
    got = [list(row.items()) for row in _derivation_rows(A)]
    assert got == [list(row.items()) for row in _dense_derivation_rows(A)]


def _dense_cocycle_rows(A):
    """The builder as first written: it tests every structure-constant slot."""
    n = A.dim
    sym = [[[a + b for a, b in zip(A.c[j][k], A.c[k][j])] for k in range(n)] for j in range(n)]
    rows = []
    for i in range(n):
        for j in range(n):
            prod = A.c[i][j]
            for k in range(n):
                row = {}
                for m in range(n):
                    v = prod[m]
                    if v:
                        col = m * n + k
                        row[col] = row.get(col, ZERO) + v
                s = sym[j][k]
                for m in range(n):
                    v = s[m]
                    if v:
                        col = i * n + m
                        row[col] = row.get(col, ZERO) - v
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


@given(sparse_algebras())
def test_cocycle_rows_match_dense_loop(A):
    got = [list(row.items()) for row in _cocycle_rows(A)]
    assert got == [list(row.items()) for row in _dense_cocycle_rows(A)]
