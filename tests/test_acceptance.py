"""Acceptance gate: one test per headline claim of the catalog.

Nine numbered checks cover the identity suite, the H^2 dimension table,
central-extension reconstruction, the degeneration certificates, the
monotonicity laws, the orbit- and square-dimension tables, the
constraint-set separation evidence, and the cross-cutting property
suites.  Companion tests marked strict-xfail pin printed table values
that the toolkit computes differently; the verification suite records
each of those as a flagged exception with an info line, and the ledger
in the repository notes explains the discrepancies.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from zinbiel5 import catalog as cat
from zinbiel5.algebra import (
    annihilator,
    change_basis,
    check_identity,
    derivation_dimension,
    fingerprint,
    power_filtration,
)
from zinbiel5.cohomology import central_extension, h2, is_cocycle
from zinbiel5.degeneration import verify_certificate
from zinbiel5.exactmath import ExactMatrix, grat
from zinbiel5.series import (
    NonExpandable,
    PuiseuxSeries,
    Radical,
    TAdd,
    TMul,
    TNum,
    TSqrt,
    TVar,
    expand_series,
)

SEED = 20260814


def _passed(check):
    __tracebackhide__ = True
    assert check.passed, "\n".join(check.details)


def _sample_binding(eid):
    e = cat.entry(eid)
    if not e.is_parametric:
        return None
    return cat.family_samples(eid)[-1]


# 1. identity suite -----------------------------------------------------------


def test_01_identity_suite(suite_checks):
    """Every catalog algebra satisfies its tagged identity with zero tolerance."""
    _passed(suite_checks["identity"])

    # the three two-step component families at random parameter tuples
    rng = random.Random(SEED)
    for fid in ("V_4+1", "V_3+2", "V_2+3"):
        syms = cat.entry(fid).symbols
        done = 0
        while done < 5:
            binding = {
                s: str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for s in syms
            }
            try:
                alg = cat.instantiate(fid, binding)
            except cat.CatalogError:
                continue
            rep = check_identity(alg, "zinbiel")
            assert rep.ok, f"{fid} at {binding}: fails at {rep.witness}"
            done += 1

    # the six-dimensional symmetric example: stronger identities and
    # three-step (but not four-step) nilpotency
    s6 = cat.instantiate("S_6")
    for kind in ("symmetric-zinbiel", "skew-cyclic-left", "skew-cyclic-right"):
        rep = check_identity(s6, kind)
        assert rep.ok, f"S_6 fails {kind} at {rep.witness}"
    dims = power_filtration(s6).dims
    assert dims[2] > 0, "A^3 should be nonzero"
    assert dims[3] == 0, "A^4 should vanish"


# 2. H^2 dimension table ------------------------------------------------------


def test_02_h2_dimension_table(suite_checks):
    """dim H^2 matches the table on every row; listed generators span."""
    _passed(suite_checks["h2"])

    # every row except the flagged one is verified at its printed value
    flagged = [t.algebra for t in cat.h2_tables() if t.flag]
    assert flagged == ["[N1C]^1_01"]
    for t in cat.h2_tables():
        if not t.flag:
            assert t.computed_dim is None, (
                f"{t.algebra}: table value overridden without a flag"
            )

    # spot recomputation, independent of the suite plumbing
    spots = []
    for t in cat.h2_tables():
        if t.algebra in ("N_01", "N_03", "N_13", "Z1", "[Z1]^1_1"):
            spots.append((t, {}))
        elif t.param is not None and t.algebra in ("N_08", "N_14"):
            spots.append((t, {cat.entry(t.algebra).symbols[0]: t.param}))
    assert len(spots) == 8
    for t, binding in spots:
        alg = cat.instantiate(t.algebra, binding or None)
        assert h2(alg).h2_dim == t.dim, f"{alg.label}: dim H2 != {t.dim}"


@pytest.mark.xfail(
    reason="printed table row lists 2 classes; the quotient has dimension 3",
    strict=True,
)
def test_02b_printed_h2_dim_for_flagged_row():
    assert h2(cat.instantiate("[N1C]^1_01")).h2_dim == 2


# 3. central-extension reconstruction -----------------------------------------


def test_03_extension_reconstruction_and_annihilators(suite_checks):
    """Every child rebuilds from its parent cocycle; annihilator dims match."""
    _passed(suite_checks["extensions"])
    _passed(suite_checks["annihilators"])

    # the parent -> children map, exactly as tabulated
    by_parent = {}
    for rec in cat.extension_records():
        by_parent.setdefault(rec.parent, []).append(rec.child)
        if rec.parent == "N_08":
            assert rec.parent_param == "1", rec.child
    assert {k: sorted(v) for k, v in by_parent.items()} == {
        "N_01": ["Z_01", "Z_02", "Z_03", "Z_04"],
        "N_02": ["Z_05"],
        "N_03": sorted(f"Z_{i:02d}" for i in range(6, 23)),
        "N_07": ["Z_23"],
        "N_08": ["Z_24", "Z_25", "Z_26"],
        "N_12": ["Z_27", "Z_28", "Z_29"],
        "N_14": sorted(f"Z_{i:02d}" for i in range(30, 38)),
        "Z1": ["Z_38", "Z_39"],
        "[Z1]^1_1": ["Z_40"],
    }

    # one reconstruction re-done from scratch
    rec = next(r for r in cat.extension_records() if r.child == "Z_27")
    assert rec.parent_param is None
    parent = cat.instantiate(rec.parent)
    form = cat.record_form(rec)
    assert is_cocycle(parent, form.mats[0])
    assert central_extension(parent, form) == cat.instantiate("Z_27")

    # annihilator dimensions across both five-dimensional tables
    exceptions = set(
        cat.expected()["annihilator_dims"]["computed_exceptions"]
    )
    assert exceptions == {"Z_25", "Z_26", "Z_27", "Z_28", "Z_29"}
    seen = {1: 0, 2: 0}
    for e in cat.all_entries():
        if "theoremA" not in e.tags or e.id in exceptions:
            continue
        want = 1 if "ann1" in e.tags else 2
        alg = cat.instantiate(e.id, _sample_binding(e.id))
        assert len(annihilator(alg)) == want, e.id
        seen[want] += 1
    assert seen[1] >= 30 and seen[2] >= 10


@pytest.mark.xfail(
    reason="table claims dim Ann = 1; e3+e4 is a second central vector",
    strict=True,
)
def test_03b_printed_annihilator_dims_for_flagged_children():
    for eid in ("Z_25", "Z_26", "Z_27", "Z_28", "Z_29"):
        assert len(annihilator(cat.instantiate(eid))) == 1


# 4. degeneration certificates -------------------------------------------------


def test_04_degeneration_certificates(suite_checks):
    """All 49 rows verify exactly; numeric mode agrees on representatives."""
    check = suite_checks["degenerations"]
    _passed(check)
    assert "49 certificates: exact=49" in check.info

    kinds = [c["kind"] for c in cat._load("degenerations")["certificates"]]
    assert kinds.count("detailed") == 27
    assert kinds.count("compact") == 22

    by_label = {c.label: c for c in cat.certificates()}
    # label: (det valuation, max residual) of the one numeric sample
    representative = {
        "Z_02 -> Z_03": ("0", "0.0"),  # parametrized index t - 1
        "Z_14 -> Z_11": ("-3", "1.1187e-68"),  # parametrized index (t + 1)/4
        "[N1C]^2_09 -> [N1C]^2_08": ("17/3", "2.5909e-76"),  # exponent 1/t
        "Z_40 -> [Z1]^1_1": ("-1", "2.303e-77"),  # padded lower-dim target
        "Z_27 -> Z_28": ("4", "0.0"),  # plain detailed row
    }
    for label, (det_valuation, residual) in representative.items():
        rep = verify_certificate(by_label[label], mode="numeric")
        assert rep.as_dict() == {
            "label": label,
            "verdict": "verified",
            "mode": "numeric",
            "samples": [{
                "params": {},
                "verdict": "verified",
                "mode": "numeric",
                "branch": {},
                "max_residual": residual,
                "failures": [],
                "det_valuation": det_valuation,
            }],
        }, label
    ramified = verify_certificate(by_label["[N1C]^2_09 -> [N1C]^2_08"])
    assert {s.det_valuation for s in ramified.samples} == {Fraction(17, 3)}


# 5. monotonicity laws ---------------------------------------------------------


def test_05_monotonicity_laws(suite_checks):
    """der/square/annihilator monotonicity holds across all certificates."""
    check = suite_checks["necessary"]
    _passed(check)
    assert "40 fixed-source rows strict, 9 family-indexed rows weak" in check.info

    src = cat.instantiate("Z_27")
    tgt = cat.instantiate("Z_28")
    assert derivation_dimension(src) < derivation_dimension(tgt)
    assert power_filtration(src).dims[1] >= power_filtration(tgt).dims[1]
    assert len(annihilator(src)) <= len(annihilator(tgt))


# 6. orbit-dimension table -----------------------------------------------------


def test_06_orbit_dimension_table(suite_checks):
    """25 - dim Der reproduces the tabulated orbit dimensions."""
    check = suite_checks["orbits"]
    _passed(check)

    table = cat.expected()["orbit_dims_nonparametric"]
    flagged = cat.expected()["orbit_computed_exceptions"]
    assert flagged == {"Z_24": 19}
    assert len(table) == 11
    for eid, want in table.items():
        if eid in flagged:
            continue
        alg = cat.instantiate(eid)
        assert 25 - derivation_dimension(alg) == want, eid

    # parametric families: consistent closure decomposition across samples
    for fid in ("V_4+1", "V_3+2", "Z_02", "Z_14", "Z_30"):
        want = cat.expected()["orbit_closure_dims"][fid]
        assert any(
            line.startswith(f"{fid}: closure dim {want}") for line in check.info
        ), f"{fid}: no closure decomposition recorded"


@pytest.mark.xfail(
    reason="table prints orbit dim 20; the derivation algebra has dim 6",
    strict=True,
)
def test_06b_printed_orbit_dimension_z24():
    assert 25 - derivation_dimension(cat.instantiate("Z_24")) == 20


# 7. square-dimension table ----------------------------------------------------


def test_07_square_dimension_table(suite_checks):
    """dim A^2 equals the tabulated value on all fifteen rows."""
    _passed(suite_checks["squares"])

    table = cat.expected()["square_dims"]
    assert len(table) == 15
    grouped = {2: set(), 3: set(), 4: set()}
    for eid, want in table.items():
        alg = cat.instantiate(eid, _sample_binding(eid))
        got = power_filtration(alg).dim(2)
        assert got == want, f"{eid}: dim A^2 = {got}, table says {want}"
        grouped[want].add(eid)
    assert grouped[2] == {"Z_02", "Z_14", "Z_22", "V_3+2"}
    assert grouped[4] == {"Z_40"}


# 8. constraint-set separation evidence ----------------------------------------


def test_08_rset_separation_evidence(suite_checks):
    """Sources satisfy their constraint sets; listed targets violate them."""
    check = suite_checks["rsets"]
    _passed(check)
    assert "11 constraint rows checked" in check.info

    from dataclasses import replace

    from zinbiel5.degeneration import rset_membership

    row = next(r for r in cat.rset_rows() if r.rset.relabel)
    src = cat.instantiate(row.source, _sample_binding(row.source))
    member, witness = rset_membership(src, row.rset)
    assert member, f"{row.source} leaves its own set: {witness}"
    plain = replace(row.rset, relabel=None)
    for tid in row.targets:
        tgt = cat.instantiate(tid, _sample_binding(tid))
        member, witness = rset_membership(tgt, plain)
        assert not member, f"{tid} satisfies the {row.source} set"
        assert witness is not None


# 9. property suites -----------------------------------------------------------
#
# Bulk invariance runs over GF(p): the ranks of the defining linear
# systems (powers, annihilator, derivations, cocycles, coboundaries) are
# computed for all 100 transported tensors of an algebra in one
# synchronized batched elimination.  The reference vector of every
# algebra is pinned against the library fingerprint, so a rank lost to
# the modular shadow or to the row compression below can only surface as
# a failure, never hide one.

_P = 1_000_003


def _tensor_mod_p(alg, p=_P):
    n = alg.dim
    c = np.zeros((n, n, n), dtype=np.int64)
    for (i, j, k, v) in alg.entries():
        assert v.im == 0
        c[i - 1, j - 1, k - 1] = (
            v.re.numerator % p * pow(v.re.denominator, -1, p) % p
        )
    return c


def _gf_rref_basis(M, p=_P):
    M = M % p
    rows, cols = M.shape
    r = 0
    for col in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(M[r:, col])
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r] = M[r] * pow(int(M[r, col]), -1, p) % p
        others = np.flatnonzero(M[:, col])
        others = others[others != r]
        if others.size:
            M[others] = (M[others] - M[others, col][:, None] * M[r]) % p
        r += 1
    return M[:r]


def _gf_inv(A, p=_P):
    n = A.shape[0]
    aug = np.concatenate([A % p, np.eye(n, dtype=np.int64)], axis=1)
    R = _gf_rref_basis(aug, p)
    assert R.shape[0] == n, "matrix not invertible mod p"
    return R[:, n:]


def _gf_rank_batch(Ms, p=_P):
    """Ranks of a (B, R, C) batch by synchronized forward elimination.

    Matrices without a pivot in the current column pass through with a
    unit pivot and an empty elimination mask.  On exit rows >= rank are
    zero, rows < rank form an echelon basis of the row space.
    """
    Ms = Ms % p
    B, R, Cn = Ms.shape
    maxrank = min(R, Cn)
    r = np.zeros(B, dtype=np.int64)
    rowidx = np.arange(R)
    bidx = np.arange(B)
    for col in range(Cn):
        colv = Ms[:, :, col]
        active = rowidx[None, :] >= r[:, None]
        nzmask = (colv != 0) & active
        has = nzmask.any(axis=1)
        if not has.any():
            continue
        piv = np.where(has, nzmask.argmax(axis=1), 0)
        rr = np.where(has, r, 0)
        need = has & (piv != rr)
        if need.any():
            bs, ps, rs = bidx[need], piv[need], rr[need]
            tmp = Ms[bs, rs].copy()
            Ms[bs, rs] = Ms[bs, ps]
            Ms[bs, ps] = tmp
            colv = Ms[:, :, col]
        pivrow = Ms[bidx, rr]
        pivval = np.where(has, pivrow[:, col], 1)
        below = (rowidx[None, :] > rr[:, None]) & has[:, None]
        coef = np.where(below, colv, 0)
        # cross-multiplication keeps ranks: every pivot is a unit mod p
        upd = (Ms * pivval[:, None, None] - coef[:, :, None] * pivrow[:, None, :]) % p
        Ms = np.where(below[:, :, None], upd, Ms)
        r += has
        if (r == maxrank).all():
            break
    return r, Ms


_COMPRESS = {}


def _compress_rows(Ms, target, p=_P):
    """Random row compression (B, R, C) -> (B, target, C).

    target always exceeds the highest possible rank, so the compressed
    row space equals the original except with probability O(1/p) per
    matrix; the fixed seed makes the outcome reproducible and the pin
    against the exact library fingerprint rules out a silent drop.
    """
    _, R, _ = Ms.shape
    key = (target, R)
    if key not in _COMPRESS:
        _COMPRESS[key] = np.random.default_rng(11).integers(0, p, (target, R))
    return np.einsum("tr,brc->btc", _COMPRESS[key], Ms) % p


def _transport_batch(c, Pb, p=_P):
    """Structure tensors of c in the 100 bases f_a = sum_i Pb[b,a,i] e_i."""
    Qb = np.stack([_gf_inv(Pb[b], p) for b in range(Pb.shape[0])])
    x = np.einsum("bai,ijm->bajm", Pb, c) % p
    y = np.einsum("bcj,bajm->bacm", Pb, x) % p
    return np.einsum("bacm,bmk->back", y, Qb) % p


def _fp_vectors_batch(cB, p=_P):
    """Fingerprint vectors for a batch (B, n, n, n) of structure tensors."""
    B, n = cB.shape[0], cB.shape[1]
    I = np.broadcast_to(np.eye(n, dtype=np.int64), (B, n, n)).copy()
    spans = {1: I}
    power_dims = []
    for k in range(2, n + 1):
        blocks = []
        for i in range(1, k):
            U, V = spans[i], spans[k - i]
            t = np.einsum("bui,bijk->bujk", U, cB) % p
            prod = np.einsum("bvj,bujk->buvk", V, t) % p
            blocks.append(prod.reshape(B, -1, n))
        stacked = np.concatenate(blocks, axis=1)
        if stacked.shape[1] > 3 * n:
            stacked = _compress_rows(stacked, 2 * n, p)
        ranks, ech = _gf_rank_batch(stacked, p)
        spans[k] = ech[:, :n, :]
        power_dims.append(ranks)
    ann_sys = np.concatenate(
        [
            cB.transpose(0, 2, 3, 1).reshape(B, n * n, n),
            cB.transpose(0, 1, 3, 2).reshape(B, n * n, n),
        ],
        axis=1,
    )
    ann = n - _gf_rank_batch(_compress_rows(ann_sys, 2 * n, p), p)[0]
    I1 = np.eye(n, dtype=np.int64)
    M1 = np.einsum("bijr,ks->bijkrs", cB, I1)
    M2 = np.einsum("ir,bsjk->bijkrs", I1, cB)
    M3 = np.einsum("jr,bisk->bijkrs", I1, cB)
    nsq = n * n
    der_sys = _compress_rows((M1 - M2 - M3).reshape(B, n**3, nsq), nsq + 8, p)
    der = nsq - _gf_rank_batch(der_sys, p)[0]
    sym = (cB + cB.transpose(0, 2, 1, 3)) % p
    Mz = (M1 - np.einsum("ir,bjks->bijkrs", I1, sym)).reshape(B, n**3, nsq)
    z2 = nsq - _gf_rank_batch(_compress_rows(Mz, nsq + 8, p), p)[0]
    b2 = _gf_rank_batch(cB.reshape(B, nsq, n), p)[0]
    return [
        (
            n,
            tuple(int(d[b]) for d in power_dims),
            int(ann[b]),
            int(der[b]),
            int(z2[b]),
            int(z2[b] - b2[b]),
        )
        for b in range(B)
    ]


def _rand_invertible_batch(rng, B, n, p=_P):
    eye = np.eye(n, dtype=np.int64)
    out = np.empty((B, n, n), dtype=np.int64)
    for b in range(B):
        perm = eye[rng.permutation(n)]
        L = np.tril(rng.integers(0, p, (n, n)), -1) + eye
        U = np.triu(rng.integers(0, p, (n, n)), 1) + eye
        out[b] = perm @ L % p @ U % p
    return out


def test_09a_fingerprint_invariant_under_basis_changes():
    """No fingerprint component moves under 100 random basis changes each."""
    rng = np.random.default_rng(SEED)
    for e in cat.all_entries():
        alg = cat.instantiate(e.id, _sample_binding(e.id))
        c = _tensor_mod_p(alg)
        base = _fp_vectors_batch(c[None])[0]

        # pin the reference vector against the library fingerprint
        fp = fingerprint(alg, method="modular")
        powers = (list(base[1]) + [0] * len(fp.power_dims))[: len(fp.power_dims)]
        assert (
            fp.dim,
            tuple(fp.power_dims),
            fp.ann_dim,
            fp.der_dim,
            fp.z2_dim,
            fp.h2_dim,
        ) == (base[0], tuple(powers)) + base[2:], e.id

        Pb = _rand_invertible_batch(rng, 100, alg.dim)
        for b, moved in enumerate(_fp_vectors_batch(_transport_batch(c, Pb))):
            assert moved == base, f"{e.id}: fingerprint moved (change {b})"

    # exact spot checks with integer basis-change matrices
    sys_rng = random.Random(SEED)
    for eid in ("N_03", "Z_27", "S_6"):
        alg = cat.instantiate(eid)
        want = fingerprint(alg)
        assert fingerprint(alg, method="modular") == want
        for _ in range(2):
            n = alg.dim
            lower = [
                [
                    grat(1 if i == j else (sys_rng.randint(-3, 3) if i > j else 0))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            upper = [
                [
                    grat(1 if i == j else (sys_rng.randint(-3, 3) if i < j else 0))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            P = ExactMatrix(lower) * ExactMatrix(upper)
            assert fingerprint(change_basis(alg, P)) == want, eid


def test_09b_cohomology_dimension_identity():
    """dim Z^2 = dim B^2 + dim H^2 on every catalog algebra."""
    for e in cat.all_entries():
        alg = cat.instantiate(e.id, _sample_binding(e.id))
        basis = h2(alg)
        assert len(basis.z2) == len(basis.b2) + len(basis.reps), e.id
        assert basis.h2_dim == len(basis.reps), e.id


def _agree(a: PuiseuxSeries, b: PuiseuxSeries) -> bool:
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


def _random_expr(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.5:
            return TVar()
        return TNum(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    if roll < 0.6:
        return TAdd(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if roll < 0.9:
        return TMul(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    return TSqrt(_random_expr(rng, depth - 1))


def test_09c_series_engine_homomorphism_and_sqrt():
    """expand is multiplicative and sqrt squares back, on 1000 expressions."""
    rng = random.Random(SEED)
    exprs = [_random_expr(rng, 3) for _ in range(1000)]
    expanded = []
    for expr in exprs:
        try:
            expanded.append((expr, expand_series(expr, trunc=8)))
        except NonExpandable:
            continue
    assert len(expanded) >= 900

    products = squares = 0
    for (ea, sa), (eb, sb) in zip(expanded[0::2], expanded[1::2]):
        assert _agree(sa * sb, expand_series(TMul(ea, eb), trunc=8))
        products += 1
    for expr, s in expanded:
        if squares == 200:
            break
        try:
            root = expand_series(TSqrt(expr), trunc=8)
        except NonExpandable:
            continue
        assert _agree(root * root, s)
        squares += 1
    assert products >= 450 and squares == 200


def test_09d_fingerprint_parameter_inversion_symmetry():
    """fingerprint(Z_02^a) = fingerprint(Z_02^(1/a)) at a in {2, 3, 1/5}."""
    for a in ("2", "3", "1/5"):
        inv = str(Fraction(1) / Fraction(a))
        f1 = fingerprint(cat.instantiate("Z_02", {"a": a}))
        f2 = fingerprint(cat.instantiate("Z_02", {"a": inv}))
        assert f1 == f2, f"a = {a}"
