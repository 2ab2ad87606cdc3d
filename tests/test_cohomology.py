import pytest
from hypothesis import example, given, strategies as st

from zinbiel5.algebra import (
    _annihilator_rows,
    _components,
    algebra_from_entries,
    annihilator,
    check_identity,
    power_filtration,
    product,
    zero_algebra,
)
from zinbiel5.cohomology import (
    CocycleForm,
    aut_action,
    central_extension,
    coboundary_space,
    cocycle_annihilator,
    cocycle_space,
    cohomologous,
    delta_form,
    extension_wellformed,
    h2,
    _cocycle_rows,
    is_cocycle,
)
from zinbiel5.exactmath import (
    ONE,
    ZERO,
    ExactMatrix,
    GaussianRational,
    grat,
    kernel_basis_sparse,
    nullity_mod_p,
    rank_sparse,
)


def alg(dim, *entries):
    return algebra_from_entries(dim, entries)


SQUARE4 = alg(4, (1, 1, 2, 1))  # e1^2 = e2
TWO_OUTPUT4 = alg(4, (1, 2, 3, 1), (2, 1, 4, 1))  # e1e2 = e3, e2e1 = e4


def mat(form):
    return form.mats[0]


def test_cocycle_space_dimension():
    assert len(cocycle_space(SQUARE4)) == 10
    assert len(coboundary_space(SQUARE4)) == 1
    basis = h2(SQUARE4)
    assert basis.h2_dim == 9


def test_coboundary_is_delta_of_dual_basis():
    (b,) = coboundary_space(SQUARE4)
    assert b == mat(delta_form(4, [(1, 1, 1)]))


def test_cocycle_recognition():
    good = delta_form(4, [(1, 2, 1), (2, 1, 2)])  # Delta_12 + 2 Delta_21
    bad = delta_form(4, [(2, 1, 1)])  # Delta_21 alone
    assert is_cocycle(SQUARE4, mat(good))
    assert not is_cocycle(SQUARE4, mat(bad))


def test_every_coboundary_is_a_cocycle_on_zinbiel_specimens():
    specimens = [
        SQUARE4,
        TWO_OUTPUT4,
        alg(4, (1, 1, 2, 1), (1, 2, 3, 1), (2, 1, 3, 2)),
    ]
    for a in specimens:
        assert check_identity(a, "zinbiel").ok
        for b in coboundary_space(a):
            assert is_cocycle(a, b)


def test_h2_reps_are_independent_cocycles():
    basis = h2(SQUARE4)
    vecs = [tuple(x for row in m.rows for x in row) for m in basis.b2 + basis.reps]
    assert ExactMatrix(vecs).rank() == len(vecs)
    for m in basis.reps:
        assert is_cocycle(SQUARE4, m)


def test_cocycle_annihilator_example():
    form = delta_form(4, [(1, 3, 1), (3, 1, 1)])  # Delta_13 + Delta_31
    basis = cocycle_annihilator(form)
    assert [tuple(v) for v in basis] == [
        (ZERO, ONE, ZERO, ZERO),
        (ZERO, ZERO, ZERO, ONE),
    ]


def test_central_extension_products():
    form = delta_form(4, [(1, 2, 1), (2, 1, 2), (1, 3, 1), (4, 4, 1)])
    ext = central_extension(SQUARE4, form)
    expected = alg(
        5,
        (1, 1, 2, 1),
        (1, 2, 5, 1),
        (2, 1, 5, 2),
        (1, 3, 5, 1),
        (4, 4, 5, 1),
    )
    assert ext == expected
    assert check_identity(ext, "zinbiel").ok


def test_central_extension_rejects_non_cocycle():
    with pytest.raises(ValueError):
        central_extension(SQUARE4, delta_form(4, [(2, 1, 1)]))


def test_central_extension_shape_mismatch():
    with pytest.raises(ValueError):
        central_extension(SQUARE4, delta_form(3, [(1, 1, 1)]))


def test_aut_action_scaling_example():
    phi = ExactMatrix(
        [[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    form = delta_form(4, [(1, 2, 1), (2, 1, 2)])
    moved = aut_action(form, phi)
    assert mat(moved) == mat(form) * grat(8)


def test_aut_action_composes():
    phi = ExactMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    psi = ExactMatrix([[2, 0, 0, 0], [0, 1, 3, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    form = delta_form(4, [(1, 2, 1), (3, 1, 5), (4, 4, 2)])
    twice = aut_action(aut_action(form, phi), psi)
    combined = aut_action(form, phi * psi)
    assert twice.mats == combined.mats


def test_cohomologous():
    zero = ExactMatrix.zeros(4, 4)
    cob = mat(delta_form(4, [(1, 1, 1)]))
    other = mat(delta_form(4, [(1, 3, 1)]))
    assert cohomologous(SQUARE4, cob, zero)
    assert not cohomologous(SQUARE4, other, zero)
    assert cohomologous(SQUARE4, other + cob, other)


def test_wellformed_good_extension():
    form = delta_form(4, [(1, 2, 1), (2, 1, 2), (1, 3, 1), (4, 4, 1)])
    rep = extension_wellformed(SQUARE4, form, central_extension(SQUARE4, form))
    assert rep.ann_intersection_trivial
    assert rep.classes_independent
    assert rep.ann_decomposition_ok
    assert rep.ok


def test_wellformed_detects_shared_annihilator():
    # theta(x, y) = x1 (y4 - y3) annihilates e3 + e4, which also
    # annihilates the base algebra, so the extension is degenerate.
    form = delta_form(4, [(1, 4, 1), (1, 3, -1)])
    assert is_cocycle(TWO_OUTPUT4, mat(form))
    rep = extension_wellformed(TWO_OUTPUT4, form, central_extension(TWO_OUTPUT4, form))
    assert not rep.ann_intersection_trivial
    assert not rep.ok


def test_wellformed_detects_dependent_class():
    form = delta_form(4, [(1, 1, 1)])
    rep = extension_wellformed(SQUARE4, form, central_extension(SQUARE4, form))
    assert not rep.classes_independent
    assert not rep.ok


def test_two_component_extension():
    form = delta_form(3, [(1, 1, 1)], [(2, 2, 1)])
    base = zero_algebra(3)
    ext = central_extension(base, form)
    assert ext.dim == 5
    assert ext.c[0][0][3] == ONE
    assert ext.c[1][1][4] == ONE
    rep = extension_wellformed(base, form, ext)
    assert rep.classes_independent
    assert not rep.ann_intersection_trivial  # e3 annihilates both


def test_extension_annihilator_dimension():
    form = delta_form(4, [(1, 2, 1), (2, 1, 2), (1, 3, 1), (4, 4, 1)])
    ext = central_extension(SQUARE4, form)
    assert len(annihilator(ext)) == 1
    # e1e2 = e5 lands in A^2 . A, so the extension is 3-step
    assert power_filtration(ext).dims == (5, 2, 1, 0)


# property tests -------------------------------------------------------------


@st.composite
def forms(draw, n=3):
    vals = st.integers(-3, 3)
    rows = [[draw(vals) for _ in range(n)] for _ in range(n)]
    return CocycleForm((ExactMatrix(rows),))


@st.composite
def invertible(draw, n=3):
    vals = st.integers(-2, 2)
    lower = [[1 if i == j else (draw(vals) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (draw(vals) if j > i else 0) for j in range(n)] for i in range(n)]
    return ExactMatrix(lower) * ExactMatrix(upper)


@given(forms(), invertible())
def test_aut_action_preserves_annihilator_dimension(form, phi):
    moved = aut_action(form, phi)
    assert len(cocycle_annihilator(moved)) == len(cocycle_annihilator(form))


@given(forms())
def test_every_form_is_cocycle_on_zero_algebra(form):
    base = zero_algebra(3)
    assert is_cocycle(base, mat(form))
    ext = central_extension(base, form)
    assert check_identity(ext, "two-step-nilpotent").ok or not any(
        x for row in mat(form).rows for x in row
    )


@given(forms(), forms())
def test_cocycle_space_closed_under_addition(f, g):
    base = alg(3, (1, 1, 2, 1))
    z2 = cocycle_space(base)
    vecs = [tuple(x for row in m.rows for x in row) for m in z2]
    span_rank = ExactMatrix(vecs).rank()
    total = f + g
    if is_cocycle(base, mat(f)) and is_cocycle(base, mat(g)):
        assert is_cocycle(base, mat(total))
        joined = vecs + [tuple(x for row in mat(total).rows for x in row)]
        assert ExactMatrix(joined).rank() == span_rank


@st.composite
def algebras_with_forms(draw):
    """A random sparse algebra with a cocycle from Z^2 or an arbitrary form."""
    n = draw(st.integers(2, 3))
    idx = st.integers(1, n)
    entries = draw(st.lists(st.tuples(idx, idx, idx, st.integers(-2, 2)), max_size=4))
    base = algebra_from_entries(n, entries)
    vals = st.integers(-2, 2)
    if draw(st.booleans()):
        total = ExactMatrix.zeros(n, n)
        for z in cocycle_space(base):
            total = total + z * draw(vals)
        return base, total
    return base, ExactMatrix([[draw(vals) for _ in range(n)] for _ in range(n)])


def _satisfies_cocycle_definition(base, m):
    """theta(e_i e_j, e_k) = theta(e_i, e_j e_k + e_k e_j) for all i, j, k."""
    n = base.dim
    e = [tuple(ONE if a == b else ZERO for b in range(n)) for a in range(n)]

    def theta(x, y):
        return sum((x[a] * m.rows[a][b] * y[b] for a in range(n) for b in range(n)), ZERO)

    for i in range(n):
        for j in range(n):
            for k in range(n):
                jk = product(base, e[j], e[k])
                kj = product(base, e[k], e[j])
                sym = tuple(a + b for a, b in zip(jk, kj))
                if theta(product(base, e[i], e[j]), e[k]) != theta(e[i], sym):
                    return False
    return True


@given(algebras_with_forms())
def test_is_cocycle_matches_definition(case):
    base, m = case
    assert is_cocycle(base, m) == _satisfies_cocycle_definition(base, m)


@st.composite
def real_algebras_with_qi_forms(draw):
    """A real algebra with fractional constants, and a real or complex form:
    a combination of cocycles or an arbitrary form."""
    n = draw(st.integers(2, 3))
    idx = st.integers(1, n)
    coeff = st.sampled_from(["1", "-1", "2", "1/2", "-3/4"])
    base = algebra_from_entries(n, draw(st.lists(st.tuples(idx, idx, idx, coeff), max_size=4)))
    vals = st.sampled_from(["0", "1", "-2", "1/3", "i", "1-1/2*i"]).map(grat)
    z2 = cocycle_space(base)
    if z2 and draw(st.booleans()):
        total = ExactMatrix.zeros(n, n)
        for z in z2:
            total = total + z * draw(vals)
        return base, total
    return base, ExactMatrix([[draw(vals) for _ in range(n)] for _ in range(n)])


@given(real_algebras_with_qi_forms())
def test_is_cocycle_on_integer_rows_matches_definition(case):
    base, m = case
    assert all(type(v) is int for row in _cocycle_rows(base) for v in row.values())
    assert is_cocycle(base, m) == _satisfies_cocycle_definition(base, m)


def test_is_cocycle_on_gaussian_rows_of_a_moved_algebra(qi_moved_z05):
    """The cocycle rows of a Q(i)-moved algebra are (re, im) pairs; is_cocycle
    accepts its H^2 representatives and rejects a non-cocycle."""
    _, B = qi_moved_z05
    n = B.dim
    rows = _cocycle_rows(B)
    assert all(type(v) is tuple for row in rows for v in row.values())
    basis = h2(B)
    assert basis.reps
    rep = basis.reps[0]
    assert is_cocycle(B, rep) and _satisfies_cocycle_definition(B, rep)
    # a dense cocycle with non-real entries meets the non-real row entries
    combo = ExactMatrix.zeros(n, n)
    for k, z in enumerate(basis.z2):
        combo = combo + z * grat(f"{k + 1}-{k}/3*i")
    assert sum(1 for x in _vec(combo) if x.im) > n
    assert is_cocycle(B, combo) and _satisfies_cocycle_definition(B, combo)
    units = [ExactMatrix([[ONE if (a, b) == (i, j) else ZERO for b in range(n)]
                          for a in range(n)]) for i in range(n) for j in range(n)]
    bad = next(u for u in units if not _satisfies_cocycle_definition(B, u))
    assert not is_cocycle(B, bad)
    assert not is_cocycle(B, combo + bad * grat("i"))


def _all_gaussian(rows):
    """The rows with every entry, int or (re, im) pair, as a GaussianRational."""
    return [{c: GaussianRational(*v) if type(v) is tuple else grat(v) for c, v in row.items()}
            for row in rows]


@st.composite
def mixed_systems(draw):
    """The Ann(A) and Ann(theta) system of extension_wellformed: the forms of
    an algebra (ints, or (re, im) pairs when a constant is not real) and
    GaussianRational forms, plus one row that mixes both kinds."""
    n = draw(st.integers(2, 3))
    idx = st.integers(1, n)
    coeff = st.sampled_from(["1", "-1", "2", "1/2", "i", "1-i", "-3/4*i"])
    A = algebra_from_entries(n, draw(st.lists(st.tuples(idx, idx, idx, coeff), max_size=5)))
    val = st.sampled_from(["0", "0", "1", "-2", "1/3", "i", "1-1/2*i"]).map(grat)
    forms = draw(st.lists(st.lists(st.lists(val, min_size=n, max_size=n),
                                   min_size=n, max_size=n), min_size=1, max_size=2))
    rows = _annihilator_rows(_components(A)[0] + forms)
    # and a row that mixes the entries of an algebra row and a form row
    return A, rows + [{**rows[-1], **rows[0]}] if rows else rows


@given(mixed_systems())
@example((zero_algebra(3), [
    {0: (1, 2), 1: grat("1/2"), 2: 1},
    {0: 3, 1: (0, 1), 2: grat("-1/3*i")},
    {0: (2, 4), 1: 1, 2: (2, 0)},  # the first row times 2 over Z[i]
]))
def test_mixed_and_gaussian_rows_reduce_alike(case):
    """Mixed rows give the ranks and kernels of the same rows stated in
    GaussianRational entries, and each kernel vector solves every row."""
    A, rows = case
    n = A.dim
    exact = _all_gaussian(rows)
    kernel = kernel_basis_sparse(rows, n)
    assert kernel == kernel_basis_sparse(exact, n)
    assert rank_sparse(rows, n) == rank_sparse(exact, n) == n - len(kernel)
    assert nullity_mod_p(rows, n) == nullity_mod_p(exact, n) == len(kernel)
    for v in kernel:
        assert not any(sum((x * v[c] for c, x in row.items()), ZERO) for row in exact)


# which forms are new classes modulo B^2 -------------------------------------


def _vec(m):
    return tuple(x for row in m.rows for x in row)


def _greedy_reps(basis):
    """Reference: H^2 representatives by one rank per Z^2 vector."""
    working = [_vec(m) for m in basis.b2]
    reps = []
    for z in basis.z2:
        trial = working + [_vec(z)]
        if ExactMatrix(trial).rank() > len(working):
            working = trial
            reps.append(z)
    return tuple(reps)


def _independent_mod_b2(b2, mats):
    """Reference: the classes of ``mats`` are independent modulo B^2."""
    vecs = [_vec(m) for m in (*b2, *mats)]
    return ExactMatrix(vecs).rank() == len(vecs)


def _cohomologous_by_rank(b2, m1, m2):
    """Reference: m1 - m2 adds nothing to the rank of B^2."""
    diff = _vec(m1 - m2)
    vecs = [_vec(m) for m in b2]
    return not any(diff) or bool(vecs) and (
        ExactMatrix(vecs + [diff]).rank() == ExactMatrix(vecs).rank()
    )


@pytest.fixture(scope="module")
def class_question_inputs():
    """Every catalog entry at one sample binding, and Q(i) basis changes."""
    from zinbiel5 import catalog
    from zinbiel5.algebra import change_basis
    from zinbiel5.exactmath import I

    algebras = [
        catalog.instantiate(eid, catalog.family_samples(eid)[-1])
        for eid in catalog.list_ids()
    ]
    for eid in ("Z_05", "Z_24", "Z_27", "[N1]^2_08"):
        A = catalog.instantiate(eid)
        n = A.dim
        P = ExactMatrix([
            [1 + I if i == j else (I if j == i + 1 else ZERO) for j in range(n)]
            for i in range(n)
        ])
        algebras.append(change_basis(A, P))
    return algebras


def test_h2_reps_match_greedy_rank_loop(class_question_inputs):
    for A in class_question_inputs:
        basis = h2(A)
        assert basis.reps == _greedy_reps(basis), A.label


def test_cohomologous_and_wellformed_match_rank_references(class_question_inputs):
    answers = set()
    for A in class_question_inputs:
        basis = h2(A)
        if not basis.reps:
            continue
        r, z = basis.reps[0], basis.z2[-1]
        pairs = [(r, z), (r, ExactMatrix.zeros(A.dim, A.dim)), (z, z)]
        pairs += [(r + b, r) for b in basis.b2[:1]]
        for m1, m2 in pairs:
            got = cohomologous(A, m1, m2)
            assert got == _cohomologous_by_rank(basis.b2, m1, m2), A.label
            answers.add(got)
        forms = [basis.reps[:2]]
        forms += [(r, r + b) for b in basis.b2[:1]]  # one class twice
        for mats in forms:
            form = CocycleForm(tuple(mats))
            report = extension_wellformed(A, form, central_extension(A, form))
            want = _independent_mod_b2(basis.b2, mats)
            assert report.classes_independent == want, A.label
            answers.add(want)
    assert answers == {True, False}
