"""Every invariant of catalog algebras moved into a Q(i) basis, pinned.

The complex systems of these algebras (derivations, cocycles, annihilators,
powers, and the inverse of the basis matrix) are the ones the eliminator
reduces over Z[i].  Their outputs are compared by the sha256 of their repr
with ``tests/data/qi_outputs.json``, so any change to an RREF entry, to the
order of a basis or to a representative shows.  Run this file as a script
to print the records.
"""
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from zinbiel5 import catalog
from zinbiel5.algebra import (
    annihilator,
    change_basis,
    derivations,
    direct_sum,
    fingerprint,
    power_filtration,
    zero_algebra,
)
from zinbiel5.cohomology import h2
from zinbiel5.exactmath import ExactMatrix, GaussianRational

QI_OUTPUTS = Path(__file__).resolve().parent / "data" / "qi_outputs.json"

# the algebras of the orbit-dimension table, every 4-dimensional fixed
# catalog algebra, and Z_40 + C^2, whose dimension 7 makes its RREF
# entries the tallest of the set
ORBIT_TABLE_IDS = tuple(catalog.expected()["orbit_dims_nonparametric"])
FOUR_DIM_IDS = tuple(
    e.id for e in catalog.all_entries() if e.dim == 4 and not e.is_parametric
)
SUM_ID = "Z_40+C^2"
PARTS = tuple(Fraction(x) for x in ("-2", "-1", "-1/2", "1/2", "1", "2"))


def qi_basis(name: str, n: int) -> ExactMatrix:
    """A seeded invertible n x n matrix L U over Q(i): L unit lower
    triangular, U upper triangular with +-i on its diagonal, the other
    entries drawn from PARTS + PARTS*i."""
    rng = random.Random(f"qi-outputs:{name}")

    def draw():
        return GaussianRational(rng.choice(PARTS), rng.choice(PARTS))

    L = ExactMatrix([[1 if i == j else draw() if j < i else 0 for j in range(n)]
                     for i in range(n)])
    U = ExactMatrix([[GaussianRational(0, rng.choice((1, -1))) if i == j
                      else draw() if j > i else 0 for j in range(n)] for i in range(n)])
    return L * U


def _source(name: str):
    if name == SUM_ID:
        return direct_sum(catalog.instantiate("Z_40"), zero_algebra(2))
    return catalog.instantiate(name)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def qi_record(name: str) -> dict:
    """sha256 of the repr of each invariant of the moved algebra B."""
    A = _source(name)
    P = qi_basis(name, A.dim)
    B = change_basis(A, P)
    coh = h2(B)
    return {
        "h2": _digest((coh.z2, coh.b2, coh.reps)),
        "annihilator": _digest(annihilator(B)),
        "derivations": _digest(derivations(B)),
        "power_filtration": _digest(power_filtration(B)),
        "fingerprint": _digest(fingerprint(B)),
        "fingerprint_modular": _digest(fingerprint(B, method="modular")),
        "inverse": _digest(P.inverse()),
    }


def qi_records() -> dict:
    return {name: qi_record(name) for name in (*ORBIT_TABLE_IDS, *FOUR_DIM_IDS, SUM_ID)}


def test_qi_basis_outputs_are_pinned():
    expected = json.loads(QI_OUTPUTS.read_text(encoding="utf-8"))
    assert list(expected) == [*ORBIT_TABLE_IDS, *FOUR_DIM_IDS, SUM_ID]
    for name, want in expected.items():
        assert qi_record(name) == want, name


def test_qi_bases_are_invertible_and_make_complex_algebras():
    units = {GaussianRational(1), GaussianRational(-1),
             GaussianRational(0, 1), GaussianRational(0, -1)}
    for name in (*ORBIT_TABLE_IDS, *FOUR_DIM_IDS, SUM_ID):
        A = _source(name)
        P = qi_basis(name, A.dim)
        assert P.det() in units, name
        B = change_basis(A, P)
        assert any(x.im for plane in B.c for row in plane for x in row), name


if __name__ == "__main__":
    print(json.dumps(qi_records(), indent=1))
