import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zinbiel5.algebra import (
    IDENTITY_KINDS,
    Algebra,
    Fingerprint,
    IdentityReport,
    PowerFiltration,
    _derivation_rows,
    _integer_tensor,
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
from zinbiel5.catalog import family_members, list_ids
from zinbiel5.cohomology import _cocycle_rows
from zinbiel5.exactmath import (
    ONE,
    ZERO,
    ExactMatrix,
    GaussianRational,
    grat,
    kernel_basis_sparse,
)


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


def test_power_filtration_dim_past_the_end():
    pf = power_filtration(SYM6)  # dims (6, 4, 1, 0)
    assert [pf.dim(k) for k in (1, 2, 3, 4, 5, 9)] == [6, 4, 1, 0, 0, 0]
    idem = power_filtration(alg(2, (1, 1, 1, 1)))  # dims (2, 1, 1): stabilizes
    assert [idem.dim(k) for k in (1, 2, 3, 4, 7)] == [2, 1, 1, 1, 1]
    assert PowerFiltration((3, 0), True, 1).dim(6) == 0  # the zero algebra


def _annihilator_rows_by_pairs(A):
    """The Ann(A) system as first stated: rows of x e_j = e_j x = 0, one per (j, k)."""
    n = A.dim
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append({i: A.c[i][j][k] for i in range(n) if A.c[i][j][k]})
            rows.append({m: A.c[j][m][k] for m in range(n) if A.c[j][m][k]})
    return [row for row in rows if row]


def test_annihilator_matches_pairwise_rows_on_the_catalog():
    algebras = [A for eid in list_ids() for A in family_members(eid)]
    assert len(algebras) == 141
    for A in algebras:
        want = kernel_basis_sparse(_annihilator_rows_by_pairs(A), A.dim)
        assert annihilator(A) == want, A.label


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


def _assert_rows_are_dense_rows_times_d(A, got, dense):
    """Each built row, in order, is the dense loop's row times D, the common
    denominator of A's constants; every entry is an int when A is real, and
    a Gaussian integer (re, im) of ints when it is not."""
    D = _integer_tensor(A)[1]
    got = [list(row.items()) for row in got]
    if all(not v.im for *_, v in A.entries()):
        assert all(type(v) is int for row in got for _, v in row)
    else:
        assert all(type(v) is tuple and len(v) == 2 and all(type(x) is int for x in v)
                   for row in got for _, v in row)
        got = [[(c, GaussianRational(*v)) for c, v in row] for row in got]
    assert got == [[(c, v * D) for c, v in row.items()] for row in dense]


def test_integer_tensor_is_built_once_per_algebra_as_tuples():
    A = alg(3, (1, 1, 2, "1/2"), (1, 2, 3, "2/3"), (2, 1, 3, "i"))
    T, D = _integer_tensor(A)
    assert _integer_tensor(A) is _integer_tensor(A)
    assert D == 6 and T[0][0] == ((1, 3, 0),) and T[1][0] == ((2, 0, 6),)
    assert all(type(T) is type(plane) is type(vec) is tuple for plane in T for vec in plane)
    # an equal algebra builds its own, equal tensor
    B = alg(3, *A.entries())
    assert B == A and _integer_tensor(B) is not _integer_tensor(A)
    assert _integer_tensor(B) == (T, D)


@pytest.mark.parametrize("first, then", [("modular", "exact"), ("exact", "modular")])
def test_fingerprint_methods_keep_separate_ranks_on_one_instance(first, then):
    """A fingerprint by one method leaves the other method's Der and Z^2
    systems to its own eliminator: a kept mod-P rank never answers an exact
    call, nor the reverse."""
    from zinbiel5.catalog import instantiate
    from zinbiel5.exactmath import ELIMINATIONS

    A = instantiate("Z_05")
    fingerprint(A, first)
    path = "integer" if then == "exact" else "modular"
    before = ELIMINATIONS[path]
    got = fingerprint(A, then)
    assert ELIMINATIONS[path] - before >= 2  # the Der and the Z^2 system
    assert got == fingerprint(instantiate("Z_05"), then) == fingerprint(instantiate("Z_05"))
    before = dict(ELIMINATIONS)
    assert fingerprint(A, first) == got  # both methods are now kept on A
    assert dict(ELIMINATIONS) == before


@pytest.mark.parametrize("method", ["modualr", "MODULAR", "Exact", ""])
def test_unknown_method_is_rejected(method):
    """Only "exact" and "modular" name a method, also once both are kept."""
    from zinbiel5.catalog import instantiate

    A = instantiate("Z_05")
    fingerprint(A, "exact")
    fingerprint(A, "modular")
    for call in (derivation_dimension, fingerprint):
        with pytest.raises(ValueError) as info:
            call(A, method=method)
        assert repr(method) in str(info.value) and "\n" not in str(info.value)


def test_exact_readers_share_one_reduction_per_system(qi_moved_z05):
    """Once fingerprint and h2 have run, every exact reader of the Der rank
    and of the Z^2 and B^2 systems reads the kept reductions: none reduces a
    system again.  Der keeps only its rank, so derivations reduces it once."""
    from zinbiel5.catalog import instantiate
    from zinbiel5.cohomology import coboundary_dimension, coboundary_space, cocycle_space, h2
    from zinbiel5.exactmath import ELIMINATIONS

    for A in (instantiate("Z_05"), qi_moved_z05[1]):
        fingerprint(A)
        h2(A)
        before = dict(ELIMINATIONS)
        got = (derivation_dimension(A), cocycle_space(A), coboundary_space(A),
               coboundary_dimension(A))
        assert dict(ELIMINATIONS) == before, A
        der = derivations(A)
        reduced = lambda counts: counts["integer"] + counts["gaussian"]
        assert reduced(ELIMINATIONS) == reduced(before) + 1, A
        fresh = algebra_from_entries(A.dim, A.entries(), label=A.label)
        assert der == derivations(fresh) and len(der) == got[0], A


def test_kept_annihilator_is_not_aliased():
    A = alg(3, (1, 1, 2, 1))
    basis = annihilator(A)
    want = list(basis)
    basis.append(basis[0])
    basis.clear()
    assert annihilator(A) == want and annihilator(A) is not annihilator(A)


@given(sparse_algebras())
def test_derivation_rows_match_dense_loop(A):
    _assert_rows_are_dense_rows_times_d(A, _derivation_rows(A), _dense_derivation_rows(A))


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
    _assert_rows_are_dense_rows_times_d(A, _cocycle_rows(A), _dense_cocycle_rows(A))


# ---------------------------------------------------------------------------
# the Z[i] evaluators against the Q(i) loops they replaced
# ---------------------------------------------------------------------------


def _qi_product(A, x, y):
    """product over Q(i), as it was before the Z[i] kernel: zero slots skipped."""
    n = A.dim
    out = [ZERO] * n
    for i in range(n):
        xi = grat(x[i])
        if not xi:
            continue
        for j in range(n):
            yj = grat(y[j])
            if not yj:
                continue
            f = xi * yj
            for k, ck in enumerate(A.c[i][j]):
                if ck:
                    out[k] = out[k] + f * ck
    return tuple(out)


def _qi_eval_terms(A, terms, idx):
    """_eval_terms over Q(i), as it was before the Z[i] kernel: dense term vectors."""
    n = A.dim
    out = [ZERO] * n
    for coeff, kind, perm in terms:
        a = idx[perm[0]]
        b = idx[perm[1]]
        if kind == "P":
            vec = A.c[a][b]
        else:
            z = idx[perm[2]]
            inner, outer = (A.c[a][b], lambda k: A.c[k][z]) if kind == "LR" else (
                A.c[b][z], lambda k: A.c[a][k])
            vec = [ZERO] * n
            for k, u in enumerate(inner):
                if u:
                    for m, w in enumerate(outer(k)):
                        if w:
                            vec[m] = vec[m] + u * w
        for m in range(n):
            if vec[m]:
                out[m] = out[m] + coeff * vec[m]
    return tuple(out)


def _qi_check_identity(A, kind):
    n = A.dim
    for lhs_terms, rhs_terms in IDENTITY_KINDS[kind]:
        arity = 2 if lhs_terms[0][1] == "P" else 3
        for idx in itertools.product(range(n), repeat=arity):
            lhs = _qi_eval_terms(A, lhs_terms, idx)
            rhs = _qi_eval_terms(A, rhs_terms, idx)
            if lhs != rhs:
                return IdentityReport(kind, False, tuple(i + 1 for i in idx), lhs, rhs)
    return IdentityReport(kind, True)


def _qi_change_basis(A, P):
    n = A.dim
    pinv = P.inverse()
    return tuple(
        tuple(
            tuple(
                sum((w[m] * pinv.rows[m][k] for m in range(n)), ZERO) for k in range(n)
            )
            for w in (_qi_product(A, P.rows[i], P.rows[j]) for j in range(n))
        )
        for i in range(n)
    )


def _qi_power_dims(A):
    n = A.dim
    powers = [[tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]]
    dims = [n]
    while True:
        k = len(powers) + 1
        prods = [
            w
            for p in range(1, k)
            for u in powers[p - 1]
            for v in powers[k - p - 1]
            if any(w := _qi_product(A, u, v))
        ]
        if prods:
            red, piv = ExactMatrix(prods).rref()
            basis = [red.rows[r] for r in range(len(piv))]
        else:
            basis = []
        dims.append(len(basis))
        if not basis or len(basis) == dims[-2]:
            return tuple(dims)
        powers.append(basis)


QI_SCALARS = ["1", "-1", "2", "1/2", "-3/5", "i", "1-i", "2/3+1/7*i", "-5/4*i"]
ZINBIEL_SPECIMENS = [
    (2, [(1, 1, 2, 1)]),
    (3, [(1, 1, 2, 1), (1, 2, 3, 1), (2, 1, 3, 2)]),
    (4, [(1, 1, 2, 1), (1, 2, 3, 1), (2, 1, 3, 2)]),
    (4, [(1, 2, 3, 1), (2, 1, 4, 1)]),
    (4, [(1, 1, 3, 1), (2, 2, 4, "1/2")]),
]


@st.composite
def qi_matrices(draw, n):
    """L*U over Q(i), L unit lower and U upper triangular with nonzero diagonal."""
    s = st.sampled_from(QI_SCALARS)
    lower = [[draw(s) if j < i and draw(st.booleans()) else int(i == j) for j in range(n)]
             for i in range(n)]
    upper = [[draw(s) if j >= i else 0 for j in range(n)] for i in range(n)]
    return ExactMatrix(lower) * ExactMatrix(upper)


@st.composite
def moved_specimens(draw):
    """A Zinbiel algebra of dim 2-4 in a random Q(i) basis; about one in four
    gets one structure constant changed, which usually breaks the identity."""
    n, entries = draw(st.sampled_from(ZINBIEL_SPECIMENS))
    A = alg(n, *entries)
    c = _qi_change_basis(A, draw(qi_matrices(n)))
    moved = Algebra(n, c)
    if draw(st.integers(0, 3)) == 0:
        idx = st.integers(1, n)
        extra = (draw(idx), draw(idx), draw(idx), draw(st.sampled_from(QI_SCALARS)))
        moved = algebra_from_entries(n, list(moved.entries()) + [extra])
    return moved


@given(moved_specimens())
def test_check_identity_matches_qi_loop(A):
    for kind in IDENTITY_KINDS:
        assert check_identity(A, kind) == _qi_check_identity(A, kind)


@given(moved_specimens(), st.data())
def test_product_and_powers_match_qi_loop(A, data):
    vec = st.lists(st.sampled_from(QI_SCALARS + ["0"] * 4), min_size=A.dim, max_size=A.dim)
    x, y = (tuple(grat(v) for v in data.draw(vec)) for _ in range(2))
    assert product(A, x, y) == _qi_product(A, x, y)
    assert power_filtration(A).dims == _qi_power_dims(A)
    P = data.draw(qi_matrices(A.dim))
    assert change_basis(A, P).c == _qi_change_basis(A, P)


@given(moved_specimens())
def test_annihilator_matches_pairwise_rows_after_qi_basis_change(A):
    assert annihilator(A) == kernel_basis_sparse(_annihilator_rows_by_pairs(A), A.dim)


def test_complex_systems_build_no_gaussian_rational(monkeypatch, qi_moved_z05):
    """The derivation, cocycle, annihilator, coboundary and power systems of
    a Q(i)-moved algebra, and their ranks, construct no GaussianRational:
    the builders hand the eliminator (re, im) int pairs, as a _Rows list."""
    from zinbiel5 import algebra, cohomology, exactmath
    from zinbiel5.algebra import _annihilator, _annihilator_rows, _components, _power_filtration
    from zinbiel5.cohomology import _coboundary_rows

    A, B = qi_moved_z05
    n = B.dim
    mats, real = _components(B)
    assert not real and _components(A)[1]

    def nullity(rows, ncols, method):
        if method == "modular":
            return exactmath.nullity_mod_p(rows, ncols)
        return ncols - exactmath.rank_sparse(rows, ncols)

    # the builders themselves: the public entry points keep their results
    # on the instance, and the fixture is shared
    def invariants(X, method):
        mats, real = _components(X)
        return (
            nullity(_derivation_rows(X), n * n, method),
            nullity(_cocycle_rows(X), n * n, method),
            nullity(exactmath._Rows(_annihilator_rows(mats), real), n, method),
            _power_filtration(X).dims,
            exactmath.rank_sparse(_coboundary_rows(X), n * n),
        )

    want = {method: invariants(A, method) for method in ("exact", "modular")}
    fed = []
    cleared_rows = exactmath._cleared_rows

    def recording(rows):
        fed.append(rows)
        return cleared_rows(rows)

    built = []
    make, init = exactmath._make, GaussianRational.__init__

    def counting_make(a, b, d):
        built.append((a, b, d))
        return make(a, b, d)

    def counting_init(self, re=0, im=0):
        built.append((re, im))
        init(self, re, im)

    monkeypatch.setattr(exactmath, "_cleared_rows", recording)
    # the allocator as exactmath and the builders' modules call it
    for module in (exactmath, algebra, cohomology):
        monkeypatch.setattr(module, "_make", counting_make)
    monkeypatch.setattr(GaussianRational, "__init__", counting_init)
    got = {method: invariants(B, method) for method in ("exact", "modular")}
    assert built == []
    _annihilator(B)  # its kernel vectors are read, so they are built
    assert built
    monkeypatch.undo()
    assert got == want
    assert len(fed) >= 2 * 5 + 1  # at least one system per invariant and method
    for rows in fed:
        assert type(rows) is exactmath._Rows and not rows.real
        assert all(row for row in rows)
        assert all(type(v) is tuple and len(v) == 2 and all(type(x) is int for x in v)
                   and v != (0, 0) for row in rows for v in row.values())


def test_purely_imaginary_products():
    A = alg(3, (1, 1, 2, "i"), (1, 2, 3, "-1/2*i"))
    assert product(A, (ONE, ZERO, ZERO), (ONE, ZERO, ZERO)) == (ZERO, grat("i"), ZERO)
    assert power_filtration(A).dims == (3, 2, 1, 0)
