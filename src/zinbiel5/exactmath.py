"""Exact arithmetic over Q(i) and exact linear algebra.

Values that a caller reads (structure constants, cocycles, echelon entries,
series coefficients) are :class:`GaussianRational`: (a + b*i)/d stored as
three ints in canonical form, d > 0 and gcd(a, b, d) = 1, so ``==`` compares
ints.  Each operator is one integer formula over the common denominator,
real or not, and every result is reduced once, by :func:`_make`.  Only this
module reads the stored ints; ``re`` and ``im`` read the parts back as
``Fraction``s, and a module that holds ints builds its values with
``_make``.  The work in between runs on Python ints where it can.

Every linear system, dense (``ExactMatrix``) or sparse (:func:`rank_sparse`,
:func:`kernel_basis_sparse`, :func:`nullity_mod_p`), is row-reduced by one
Gauss-Jordan loop, :func:`_gauss_jordan`, given the two row operations of its
ring.  It takes the rows last-first, which the system builders' mostly
ascending leading columns make the cheaper order, and the unique RREF makes
a safe one (see :func:`_gauss_jordan`).  Its rows are {col: coeff} dicts
over Z or Z[i]:

* over Z, a real system: row <- (L*row - f*pivot)/gcd(L, f), with L the
  pivot entry, each row kept primitive and positive at its pivot;
* over Z[i], a system with a non-real entry, as {col: (re, im)} ints: the
  same with f a Gaussian integer, and a row whose pivot entry is not real
  is multiplied by its conjugate first, so every pivot entry is a positive
  int;
* over GF(P), the Monte-Carlo rank :func:`nullity_mod_p`: the Z or Z[i]
  rows mod the 127-bit Proth prime P, with i mapped to a square root s of
  -1.

The system builders of ``algebra`` and ``cohomology`` state their rows over
the algebra's ring (a :class:`_Rows` list), which the eliminator takes as
they are; any other rows are cleared of denominators once
(:func:`_cleared_rows`).

Z and Z[i] are integral domains and the work is fraction-free, so the RREF
is exact with no proof step; no ``Fraction`` is built during elimination,
and the RREF entries a caller reads are built once each, as v/L.  The cost
is coefficient growth on large dense systems (a random dense full-rank
80 x 80 Q(i) matrix takes seconds, in either row order); the systems here
come from algebras of dimension at most 16, the input cap.
``ExactMatrix.det`` keeps its own elimination as an independent oracle for
rank.  ``ELIMINATIONS`` counts the systems reduced over each ring and the
rows fed to the eliminator.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "GaussianRational",
    "grat",
    "ZERO",
    "ONE",
    "I",
    "ExactMatrix",
    "kernel_basis_sparse",
    "rank_sparse",
    "nullity_mod_p",
]

# Systems row-reduced so far, per ring: "integer" (a real system, over Z),
# "gaussian" (a system with a non-real entry, over Z[i]) and "modular" (the
# Monte-Carlo rank of nullity_mod_p, over GF(P)); and "rows", the rows of
# all those systems fed to the eliminator.
ELIMINATIONS = dict.fromkeys(("integer", "gaussian", "modular", "rows"), 0)

# Largest |exponent| accepted in a decimal literal such as "3e-5":
# ``Fraction("1e9999999")`` builds 10**9999999 and takes seconds to minutes.
MAX_SCALAR_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][+-]?0*([0-9_]*)")


def _check_exponent(text: str) -> None:
    for digits in _EXPONENT.findall(text):
        digits = digits.replace("_", "")
        # the length test first: int() of a long digit string is slow too
        if len(digits) > 6 or (digits and int(digits) > MAX_SCALAR_EXPONENT):
            raise ValueError(f"invalid scalar {_clip(text)}: exponent too large")


def _ratio(x) -> tuple:
    """(numerator, denominator) in lowest terms of an int, a Fraction or
    anything else ``Fraction`` takes, such as the text "-3/4"."""
    if type(x) is int:
        return x, 1
    if type(x) is not Fraction:
        if isinstance(x, str):
            _check_exponent(x)
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"invalid scalar {_clip(x)}") from exc
    return x.numerator, x.denominator


def _clip(x) -> str:
    """repr of rejected input, cut to 40 characters for a one-line error."""
    text = repr(x)
    return text if len(text) <= 40 else text[:37] + "..."


class GaussianRational:
    """A number (a + b*i)/d, stored as three ints in canonical form: d > 0
    and gcd(a, b, d) == 1, so equal numbers store equal ints.  ``re`` and
    ``im`` read the parts back as ``Fraction``s."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        (p, q), (r, s) = _ratio(re), _ratio(im)
        # d, the lcm of two reduced denominators, leaves gcd(a, b, d) == 1:
        # a prime's full power in d divides q (say), so the prime divides
        # neither p nor d // q
        d = lcm(q, s)
        _set_a(self, p * (d // q))
        _set_b(self, r * (d // s))
        _set_d(self, d)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- construction ------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse strings like ``3``, ``-1/2``, ``i``, ``2*i``, ``1/2-3/4*i``.

        This is the little closed format used in the data files; general
        expressions (parameters, t) go through the expression parser instead.
        A malformed literal, a zero denominator or a decimal exponent beyond
        ``MAX_SCALAR_EXPONENT`` raises ``ValueError``.
        """
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar")
        _check_exponent(s)
        # split into signed terms at top level (format has no parentheses)
        terms = []
        start = 0
        for k in range(1, len(s)):
            if s[k] in "+-" and s[k - 1] not in "+-*/eE":
                terms.append(s[start:k])
                start = k
        terms.append(s[start:])
        re = Fraction(0)
        im = Fraction(0)
        try:
            for term in terms:
                if term in ("i", "+i"):
                    im += 1
                elif term == "-i":
                    im -= 1
                elif term.endswith("*i"):
                    im += Fraction(term[:-2])
                elif term.endswith("i"):
                    im += Fraction(term[:-1] or "1")
                else:
                    re += Fraction(term)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid scalar {_clip(text)}") from exc
        return GaussianRational(re, im)

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- arithmetic --------------------------------------------------------
    #
    # Each operator is one integer formula over the common denominator;
    # ``_make`` reduces the result to the canonical form.

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = grat(other)
        d, f = self.d, other.d
        return _make(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = grat(other)
        d, f = self.d, other.d
        return _make(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __rsub__(self, other):
        return grat(other) - self

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = grat(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _make(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (a + b*i)/d / ((c + e*i)/f) = (a + b*i)(c - e*i) f / (d (c^2 + e^2))
        if type(other) is not GaussianRational:
            other = grat(other)
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _make((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __rtruediv__(self, other):
        return grat(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers on GaussianRational")
        if k < 0:
            return (ONE / self) ** -k
        a, b = self.a, self.b
        x, y = 1, 0  # (a + b*i)^k, by repeated squaring
        dk = self.d**k
        while k:
            if k & 1:
                x, y = x * a - y * b, x * b + y * a
            k >>= 1
            if k:
                a, b = a * a - b * b, 2 * a * b
        return _make(x, y, dk)

    def conjugate(self) -> "GaussianRational":
        return _make(self.a, -self.b, self.d)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = grat(other)
            except TypeError:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # a real value hashes as its Fraction, so 3 and GaussianRational(3)
        # meet in one set
        return hash((self.re, self.im)) if self.b else hash(self.re)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if im == 1:
            itxt = "i"
        elif im == -1:
            itxt = "-i"
        else:
            itxt = f"{im}*i"
        if not re:
            return itxt
        sign = "+" if not itxt.startswith("-") else ""
        return f"{re}{sign}{itxt}"

    def __repr__(self):
        return f"GaussianRational({self})"


_alloc = object.__new__
_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The allocator behind every arithmetic result: (a + b*i)/d for ints
    a, b and d > 0, reduced by gcd(a, b, d) to the canonical form; zero is
    the one object ``ZERO``."""
    if not a and not b:
        return ZERO
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _alloc(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def grat(x) -> GaussianRational:
    """Coerce ints, Fractions and strings into GaussianRational."""
    if type(x) is GaussianRational or isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, str):
        return GaussianRational.parse(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Dense matrix over Q(i); rows are tuples of GaussianRational."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = tuple(tuple(grat(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(m: int, n: int) -> "ExactMatrix":
        return ExactMatrix([[ZERO] * n for _ in range(m)])

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.rows))
            return ExactMatrix(
                [
                    [sum((a * b for a, b in zip(row, col)), ZERO) for col in cols]
                    for row in self.rows
                ]
            )
        c = grat(other)
        return ExactMatrix([[c * x for x in row] for row in self.rows])

    __rmul__ = __mul__

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.rows)))

    def _sparse_rows(self):
        return [{c: x for c, x in enumerate(row) if x} for row in self.rows]

    def rref(self):
        """Reduced row echelon form.  Returns (matrix, pivot column tuple)."""
        pivots = _sparse_rref(self._sparse_rows())
        order = sorted(pivots)
        rows = [[pivots[p].get(c, ZERO) for c in range(self.ncols)] for p in order]
        rows += [[ZERO] * self.ncols for _ in range(self.nrows - len(order))]
        return ExactMatrix(rows), tuple(order)

    def rank(self) -> int:
        return rank_sparse(self._sparse_rows(), self.ncols)

    def det(self) -> GaussianRational:
        if self.nrows != self.ncols:
            raise ValueError("det of non-square matrix")
        m = [list(row) for row in self.rows]
        n = self.nrows
        out = ONE
        for c in range(n):
            pr = next((k for k in range(c, n) if m[k][c]), None)
            if pr is None:
                return ZERO
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                out = -out
            out = out * m[c][c]
            inv = ONE / m[c][c]
            for k in range(c + 1, n):
                if m[k][c]:
                    f = m[k][c] * inv
                    m[k] = [a - f * b for a, b in zip(m[k], m[c])]
        return out

    def inverse(self) -> "ExactMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        aug = ExactMatrix(
            [
                list(row) + [ONE if i == j else ZERO for j in range(n)]
                for i, row in enumerate(self.rows)
            ]
        )
        red, pivots = aug.rref()
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return ExactMatrix([row[n:] for row in red.rows])

    def __repr__(self):
        body = "; ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows
        )
        return f"ExactMatrix({body})"


# ---------------------------------------------------------------------------
# the eliminator: one Gauss-Jordan loop over Z, Z[i] or GF(P)
# ---------------------------------------------------------------------------

# The prime of the modular rank: the Proth prime k * 2**64 + 1 with
# k = 2**62 + 311 (odd, k < 2**64).  By Proth's theorem,
# pow(29, (P - 1) // 2, P) == P - 1 proves it prime, and then
# s = 29**((P - 1) / 4) is a square root of -1 mod P, the image of i.
_P = (2**62 + 311) * 2**64 + 1
_S = pow(29, (_P - 1) // 4, _P)


def _gauss_jordan(rows, subtract, normalize):
    """Online RREF of a list of sparse rows over the ring of the two row
    operations.

    ``subtract(row, c, pivot)`` clears column c of ``row`` with the pivot
    row of c, in place; ``normalize(row, lead)`` scales a row to its normal
    form at its least column ``lead``.  Returns dict pivot_col -> row: each
    row is nonzero at its pivot, its least column, and zero in every other
    pivot column.  The input rows are not modified.

    The rows are taken last-first.  A new pivot column is cleared from
    every earlier pivot row that holds it, and each such row is normalized
    again; a row can hold only columns right of its own pivot.  The system
    builders emit rows with mostly ascending leading columns, so in their
    own order a new pivot tends to land right of the earlier ones and be
    held by them; taken last-first it tends to land left of them.  Each
    pivot row is the unique RREF row of its column in normal form, so the
    order changes the work and the dict's insertion order, nothing else.
    """
    pivots: dict[int, dict] = {}
    for row in reversed(rows):
        row = dict(row)
        for c in [c for c in row if c in pivots]:
            subtract(row, c, pivots[c])
        if not row:
            continue
        lead = min(row)
        normalize(row, lead)
        # eliminate the new pivot column from existing pivot rows
        for p, prow in pivots.items():
            if lead in prow:
                subtract(prow, lead, row)
                normalize(prow, p)
        pivots[lead] = row
    return pivots


def _int_subtract(row: dict, p: int, pivot: dict) -> None:
    """Over Z: row <- (L*row - f*pivot) / gcd(L, f) in place, with
    L = pivot[p] > 0 and f = row[p], which clears column p; zeros are
    dropped."""
    L, f = pivot[p], row[p]
    g = gcd(L, f)
    if g != 1:
        L //= g
        f //= g
    if L != 1:
        for c in row:
            row[c] *= L
    for c, v in pivot.items():
        nv = row.get(c, 0) - f * v
        if nv:
            row[c] = nv
        else:
            del row[c]


def _make_primitive(row: dict, p: int) -> None:
    """Over Z: divide a nonzero int row by the gcd of its entries, signed so
    that row[p] > 0."""
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


def _gaussian_subtract(row: dict, p: int, pivot: dict) -> None:
    """Over Z[i], entries (re, im): row <- (L*row - f*pivot) / g in place,
    with L = pivot[p] a positive int, f = row[p] and g = gcd(L, Re f, Im f),
    which clears column p; zeros are dropped."""
    L = pivot[p][0]
    fr, fi = row[p]
    g = gcd(L, fr, fi)
    if g != 1:
        L //= g
        fr //= g
        fi //= g
    if L != 1:
        for c, (x, y) in row.items():
            row[c] = (x * L, y * L)
    for c, (a, b) in pivot.items():
        x, y = row.get(c, (0, 0))
        x -= fr * a - fi * b
        y -= fr * b + fi * a
        if x or y:
            row[c] = (x, y)
        else:
            del row[c]


def _gaussian_normalize(row: dict, p: int) -> None:
    """Over Z[i]: scale a nonzero row so that row[p] is a positive int and
    its parts have gcd 1: times conj(row[p]) when that is not real, then
    divided by the gcd of the parts."""
    a, b = row[p]
    if b:
        for c, (x, y) in row.items():
            row[c] = (x * a + y * b, y * a - x * b)
        a = a * a + b * b
    g = gcd(*[part for v in row.values() for part in v])
    if a < 0:
        g = -g
    if g != 1:
        for c, (x, y) in row.items():
            row[c] = (x // g, y // g)


def _modp_subtract(row: dict, p: int, pivot: dict) -> None:
    """Over GF(P), pivot[p] == 1: row <- row - row[p]*pivot in place."""
    f = row[p]
    for c, v in pivot.items():
        nv = (row.get(c, 0) - f * v) % _P
        if nv:
            row[c] = nv
        else:
            del row[c]


def _modp_normalize(row: dict, p: int) -> None:
    """Over GF(P): scale a nonzero row so that row[p] == 1."""
    inv = pow(row[p], -1, _P)
    if inv != 1:
        for c, v in row.items():
            row[c] = v * inv % _P


class _Rows(list):
    """Sparse rows stated over one ring by a system builder: {col: int}
    when ``real``, else {col: (re, im)} Gaussian integers, with no empty row
    and no zero entry.  :func:`_cleared_rows` takes them as they are."""

    __slots__ = ("real",)

    def __init__(self, rows, real: bool):
        super().__init__(rows)
        self.real = real


def _eliminate(rows):
    """Row-reduce sparse rows.  Returns (pivots, real).

    The entries of the rows are ints when the system is real and (re, im)
    int pairs when it is not, as the system builders state them in a
    :class:`_Rows` list; ``GaussianRational`` entries come only from public
    callers, alone or mixed with the others.  The rows are cleared
    (:func:`_cleared_rows`) and reduced by :func:`_gauss_jordan` over Z when
    every entry is real (``real`` True, int entries), else over Z[i]
    ((re, im) entries).  Either way each pivot row is its RREF row times its
    pivot entry, a positive int.
    """
    rows, real = _cleared_rows(rows)
    if real:
        ELIMINATIONS["integer"] += 1
        return _gauss_jordan(rows, _int_subtract, _make_primitive), True
    ELIMINATIONS["gaussian"] += 1
    return _gauss_jordan(rows, _gaussian_subtract, _gaussian_normalize), False


def _cleared_rows(rows):
    """(rows, real): a :class:`_Rows` list as it is; other rows, with int,
    (re, im) int pair or ``GaussianRational`` entries, each times the lcm
    of its denominators (:func:`_cleared`), as {col: int} rows when every
    entry is real, else as {col: (re, im)} Gaussian integer rows.  Counts
    the rows in ``ELIMINATIONS``."""
    if type(rows) is _Rows:
        ELIMINATIONS["rows"] += len(rows)
        return rows, rows.real
    out = [_cleared(row.items())[1] for row in rows]
    ELIMINATIONS["rows"] += len(out)
    if any(b for row in out for _, b in row.values()):
        return out, False
    return [{c: a for c, (a, _) in row.items()} for row in out], True


def _sparse_rref(rows):
    """Online RREF of sparse rows.  Returns dict pivot_col -> row dict.

    Each pivot row is normalized (1 at its pivot, its least column) and
    kept zero in every other pivot column; its entries are
    GaussianRationals, each built once from the integer pivot row of
    :func:`_eliminate`.
    """
    return _read_rref(*_eliminate(rows))


def _frozen_pivots(rows):
    """(rank, pivots, real): the integer pivot rows of :func:`_eliminate` as
    a tuple of (pivot column, ((column, entry), ...)) pairs, which a caller
    can keep and none can change.  An entry is an int when ``real`` and a
    (re, im) int pair otherwise.  :func:`_frozen_rref` reads them back."""
    pivots, real = _eliminate(rows)
    return len(pivots), tuple((p, tuple(row.items())) for p, row in pivots.items()), real


def _frozen_rref(frozen):
    """The RREF rows, as :func:`_sparse_rref` returns them, of the pivot
    rows kept by :func:`_frozen_pivots`."""
    _, pivots, real = frozen
    return _read_rref({p: dict(row) for p, row in pivots}, real)


def _read_rref(pivots, real):
    """The RREF rows of the integer pivot rows of :func:`_eliminate`, as
    :func:`_sparse_rref` returns them: each divided by its pivot entry."""
    if real:
        return {p: {c: _make(v, 0, row[p]) for c, v in row.items()}
                for p, row in pivots.items()}
    return {p: {c: _make(a, b, row[p][0]) for c, (a, b) in row.items()}
            for p, row in pivots.items()}


def _cleared_basis(rows):
    """A basis of the span of sparse rows (as :func:`_eliminate` takes
    them), each vector as (d, {col: (re, im)}) over Z[i]: the integer pivot
    rows, with d = 1."""
    pivots, real = _eliminate(rows)
    if real:
        return [(1, {c: (v, 0) for c, v in row.items()}) for row in pivots.values()]
    return [(1, row) for row in pivots.values()]


def _cleared(pairs):
    """(d, {key: (re, im)}): the nonzero values of (key, value) pairs times
    d, the lcm of their denominators, as ints.  A value is a
    ``GaussianRational``, an int or a Gaussian integer (re, im) of ints."""
    parts = [(key, p) for key, x in pairs if (p := _parts(x))[0] or p[1]]
    d = lcm(*[e for _, (_, _, e) in parts])
    return d, {key: (a * (d // e), b * (d // e)) for key, (a, b, e) in parts}


def _parts(x) -> tuple:
    """(a, b, d) with x = (a + b*i)/d, for a value as :func:`_cleared` takes it."""
    if type(x) is int:
        return x, 0, 1
    if type(x) is tuple:
        return x[0], x[1], 1
    x = grat(x)
    return x.a, x.b, x.d


def rank_sparse(rows, ncols: int) -> int:
    """Rank of a sparse system given as iterables of {col: coeff} rows."""
    return len(_eliminate(rows)[0])


def kernel_basis_sparse(rows, ncols: int):
    """Kernel basis of a sparse homogeneous system, RREF-canonical.

    ``rows`` is an iterable of {col: int or GaussianRational} dicts (or the
    rows of a system builder, see :func:`_eliminate`).  Returns a list
    of dense tuple vectors of length ncols, one per free column, ordered by
    free column index.
    """
    return _kernel_basis(_sparse_rref(rows), ncols)


def _kernel_basis(pivots, ncols: int):
    """The kernel basis of :func:`kernel_basis_sparse`, read from the RREF
    rows ``pivots`` of the system."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for p, prow in pivots.items():
            if f in prow:
                v[p] = -prow[f]
        basis.append(tuple(v))
    return basis


def nullity_mod_p(rows, ncols: int) -> int:
    """Monte-Carlo nullity: the rows cleared as in :func:`_eliminate`, then
    mapped to GF(P) by i -> s and reduced there.

    Clearing first leaves no denominator to invert mod P.  Reduction mod P
    can only lower rank, so this is an *upper bound* on the true nullity;
    with the 127-bit P it is almost surely exact.
    """
    ELIMINATIONS["modular"] += 1
    rows, real = _cleared_rows(rows)
    if real:
        image = [{c: m for c, v in row.items() if (m := v % _P)} for row in rows]
    else:
        image = [{c: m for c, (a, b) in row.items() if (m := (a + b * _S) % _P)}
                 for row in rows]
    return ncols - len(_gauss_jordan(image, _modp_subtract, _modp_normalize))
