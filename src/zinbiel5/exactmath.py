"""Exact arithmetic over Q(i) and exact linear algebra.

Everything downstream (structure constants, cocycle solving, series
coefficients) runs on :class:`GaussianRational`, a pair of
``fractions.Fraction`` components.  Real values (imaginary part zero, the
case of every catalog structure constant) take a real-only branch that costs
one ``Fraction`` operation.

Every linear system, dense (``ExactMatrix``) or sparse (:func:`rank_sparse`,
:func:`kernel_basis_sparse`), is row-reduced by :func:`_eliminate`; its rows
are {col: coeff} dicts whose entries are ints or GaussianRationals.
``ExactMatrix.det`` keeps its own elimination as an independent oracle for
rank.

A real system (the derivation, cocycle, annihilator and power systems of a
real algebra, whose builders pass D times the structure constants as ints)
is cleared to integer rows once and reduced fraction-free (Bareiss 1968) in
Python ints by :func:`_int_rref`: row <- L*row - f*pivot, each row kept
primitive by ``math.gcd``.  No ``Fraction`` is built for a rank; the RREF
entries a caller reads are built once each, as v/L.

One prime serves the complex and modular paths: the 127-bit Proth prime P,
with i mapped to a square root s of -1.  Rows are cleared to Gaussian
integers first, so no denominator is ever inverted mod P.  A system with a
non-real entry is not eliminated in ``Fraction`` arithmetic first:
:func:`_certified_rref` eliminates it mod P under both embeddings i -> ±s,
rebuilds the RREF by rational reconstruction and proves it exactly over
Z[i] (a kernel check plus the mod-P rank bound), so its answer is exact, not
Monte Carlo.  It trusts only P's primality (a Proth certificate, tested) and
that check; when anything fails it logs the reason at DEBUG on
``zinbiel5.exactmath`` and the ``Fraction`` loop :func:`_rref_loop` runs
instead, the one use of that loop over Q(i).  The Monte-Carlo rank
:func:`nullity_mod_p` is the first of those two eliminations alone,
unproved: it can only *underestimate* rank, and its one caller in the
suite, the ``fingerprints`` check, cross-checks it against the exact path.
``ELIMINATIONS`` counts the systems taken by each path.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

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

# Systems row-reduced so far, per path: "integer" (a real system, reduced
# fraction-free), "certified" (a complex system, proved from GF(P)),
# "fallback" (a complex system the certified path left to the Fraction loop)
# and "modular" (the Monte-Carlo rank of nullity_mod_p).
ELIMINATIONS = dict.fromkeys(("integer", "certified", "fallback", "modular"), 0)

# Both constructors (``GaussianRational()`` and ``_make``) store a zero
# imaginary part as this one object, so "is real" is an identity test.
_F0 = Fraction(0)


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


def _fraction(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        _check_exponent(x)
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"invalid scalar {_clip(x)}") from exc


def _clip(x) -> str:
    """repr of rejected input, cut to 40 characters for a one-line error."""
    text = repr(x)
    return text if len(text) <= 40 else text[:37] + "..."


class GaussianRational:
    """A number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, _fraction(re))
        im = _fraction(im)
        _set_im(self, im if im else _F0)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("GaussianRational is immutable")

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
        return self.im is not _F0 or bool(self.re)

    # -- arithmetic --------------------------------------------------------
    #
    # Each operator tests for real operands (imaginary part ``_F0``) first;
    # complex operands use the textbook formulas.  Results go through
    # ``_make``, which takes two ready Fractions and re-validates nothing.

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = grat(other)
        if self.im is _F0 and other.im is _F0:
            return _make(self.re + other.re, _F0)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = grat(other)
        if self.im is _F0 and other.im is _F0:
            return _make(self.re - other.re, _F0)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return grat(other) - self

    def __neg__(self):
        if self.im is _F0:
            return _make(-self.re, _F0)
        return _make(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = grat(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if d is _F0:
            if b is _F0:
                return _make(a * c, _F0)
            return _make(a * c, b * c)
        if b is _F0:
            return _make(a * c, a * d)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = grat(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if d is _F0:
            if not c:
                raise ZeroDivisionError("division by zero in Q(i)")
            if b is _F0:
                return _make(a / c, _F0)
            return _make(a / c, b / c)
        n = c * c + d * d
        return _make((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        return grat(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers on GaussianRational")
        if self.im is _F0:
            if k < 0 and not self.re:
                raise ZeroDivisionError("division by zero in Q(i)")
            return _make(self.re**k, _F0)
        if k < 0:
            return ONE / (self ** (-k))
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        if self.im is _F0:
            return self
        return _make(self.re, -self.im)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = grat(other)
            except TypeError:
                return NotImplemented
        return self.re == other.re and (self.im is other.im or self.im == other.im)

    def __hash__(self):
        if self.im is _F0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            itxt = "i"
        elif self.im == -1:
            itxt = "-i"
        else:
            itxt = f"{self.im}*i"
        if self.re == 0:
            return itxt
        sign = "+" if not itxt.startswith("-") else ""
        return f"{self.re}{sign}{itxt}"

    def __repr__(self):
        return f"GaussianRational({self})"


_alloc = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _make(re: Fraction, im: Fraction) -> GaussianRational:
    """The allocator behind every arithmetic result: two ready Fractions."""
    z = _alloc(GaussianRational)
    _set_re(z, re)
    _set_im(z, im if im is _F0 or im else _F0)
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

    def scale(self, c) -> "ExactMatrix":
        return self * grat(c)

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

    def kernel_basis(self):
        """RREF-canonical basis of the right kernel, as row vectors."""
        return kernel_basis_sparse(self._sparse_rows(), self.ncols)

    def solve(self, b):
        """One exact solution of A x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("rhs length mismatch")
        aug = ExactMatrix(
            [list(row) + [grat(x)] for row, x in zip(self.rows, b)]
        )
        red, pivots = aug.rref()
        if self.ncols in pivots:  # pivot in the augmented column
            return None
        x = [ZERO] * self.ncols
        for r, p in enumerate(pivots):
            x[p] = red.rows[r][self.ncols]
        return tuple(x)

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
# the eliminator: sparse rows over Q(i), or over GF(p) when p is given
# ---------------------------------------------------------------------------


def _subtract(row: dict, f, pivot: dict, p) -> None:
    """row -= f * pivot in place (mod p when p is given), dropping zeros."""
    for c, v in pivot.items():
        nv = row[c] - f * v if c in row else -f * v
        if p:
            nv %= p
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)


def _reduce_against(row: dict, pivots: dict, p=None) -> dict:
    """A copy of a sparse row (col -> coeff) with every pivot column cleared.

    One pass suffices: each pivot row is zero in every other pivot column.
    """
    row = dict(row)
    for c in [c for c in row if c in pivots]:
        _subtract(row, row[c], pivots[c], p)
    return row


def _sparse_rref(rows):
    """Online RREF of sparse rows.  Returns dict pivot_col -> row dict.

    Each pivot row is normalized (1 at its pivot, its least column) and
    kept zero in every other pivot column.  Its entries are
    GaussianRationals, whatever the path :func:`_eliminate` took.
    """
    pivots, integral = _eliminate(rows)
    if not integral:
        return pivots
    return {p: {c: _make(Fraction(v, row[p]), _F0) for c, v in row.items()}
            for p, row in pivots.items()}


def _cleared_basis(rows):
    """A basis of the span of sparse rows (as :func:`_eliminate` takes
    them), each vector as (d, {col: (re, im)}) cleared to Z[i]: the
    primitive integer pivot rows of a real system, else the RREF rows."""
    pivots, integral = _eliminate(rows)
    if integral:
        return [(1, {c: (v, 0) for c, v in row.items()}) for row in pivots.values()]
    return [_cleared(row.items()) for row in pivots.values()]


def _eliminate(rows):
    """Row-reduce sparse rows whose nonzero entries are ints or
    GaussianRationals.  Returns (pivots, integral).

    A real system is cleared to integer rows once and reduced fraction-free
    (:func:`_int_rref`): ``integral`` is True and each pivot row is an
    integer multiple of its RREF row.  A system with a non-real entry is
    first tried on the certified modular path (:func:`_certified_rref`),
    with the ``Fraction`` loop :func:`_rref_loop` as its fallback, and its
    pivot rows are the RREF rows over Q(i).
    """
    rows = list(rows)
    ints = _integer_rows(rows)
    if ints is not None:
        ELIMINATIONS["integer"] += 1
        return _int_rref(ints), True
    rows = _qi_rows(rows)
    try:
        pivots = _certified_rref(rows)
        ELIMINATIONS["certified"] += 1
        return pivots, False
    except _Uncertified as exc:
        _log_fallback(exc)
    ELIMINATIONS["fallback"] += 1
    return _rref_loop(rows), False


def _qi_rows(rows):
    """The rows with every entry a GaussianRational: a system that is not
    real may still have rows of ints."""
    if any(type(v) is int for row in rows for v in row.values()):
        return [{c: grat(v) for c, v in row.items()} for row in rows]
    return rows


def _integer_rows(rows):
    """Each row times the lcm of its denominators, as an int row; None as
    soon as an entry is not real."""
    out = []
    for row in rows:
        if all(type(v) is int and v for v in row.values()):
            out.append(row)
            continue
        d = 1
        for v in row.values():
            if type(v) is not int:
                if v.im is not _F0:
                    return None
                d = lcm(d, v.re.denominator)
        out.append({c: v * d if type(v) is int
                    else v.re.numerator * (d // v.re.denominator)
                    for c, v in row.items() if v})
    return out


def _int_rref(rows):
    """Fraction-free RREF of integer rows (Bareiss 1968): dict pivot_col ->
    primitive int row, positive at its pivot (its least column) and zero in
    every other pivot column.  Dividing a row by its pivot entry gives its
    RREF row.  The input rows are not modified."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in pivots]:
            _int_subtract(row, c, pivots[c])
        if not row:
            continue
        lead = min(row)
        _make_primitive(row, lead)
        # eliminate the new pivot column from existing pivot rows
        for p, prow in pivots.items():
            if lead in prow:
                _int_subtract(prow, lead, row)
                _make_primitive(prow, p)
        pivots[lead] = row
    return pivots


def _int_subtract(row: dict, p: int, pivot: dict) -> None:
    """row <- (L*row - f*pivot) / gcd(L, f) in place, with L = pivot[p] > 0
    and f = row[p], which clears column p; zeros are dropped."""
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
    """Divide a nonzero int row by the gcd of its entries, signed so that
    row[p] > 0."""
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


def _rref_loop(rows, p=None):
    """Row-by-row RREF over GF(p) for a prime ``p``, entries ints in [0, p);
    with ``p=None``, over Q(i) in ``Fraction`` arithmetic, the fallback of
    the certified path for a complex system."""
    pivots: dict[int, dict] = {}
    for row in rows:
        red = _reduce_against(row, pivots, p)
        if not red:
            continue
        lead = min(red)
        if p is None:
            inv = ONE / red[lead]
            norm = {c: v * inv for c, v in red.items()}
        else:
            inv = pow(red[lead], -1, p)
            norm = {c: v * inv % p for c, v in red.items()}
        # eliminate the new pivot column from existing pivot rows
        for prow in pivots.values():
            if lead in prow:
                _subtract(prow, prow[lead], norm, p)
        pivots[lead] = norm
    return pivots


# ---------------------------------------------------------------------------
# certified modular elimination over Q(i)
# ---------------------------------------------------------------------------

# The Proth prime k * 2**64 + 1 with k = 2**62 + 311 (odd, k < 2**64): by
# Proth's theorem, pow(29, (P - 1) // 2, P) == P - 1 proves it prime, and
# then s = 29**((P - 1) / 4) is a square root of -1 mod P.
_CERT_P = (2**62 + 311) * 2**64 + 1
_CERT_S = pow(29, (_CERT_P - 1) // 4, _CERT_P)
# Wang's bound: a fraction n/d with |n|, d <= sqrt(P/2) is the only such
# fraction congruent to its residue mod P.
_CERT_BOUND = isqrt(_CERT_P // 2)
# the inverses of 2 and of 2s mod P
_HALF = (_CERT_P + 1) // 2
_HALF_S = pow(2 * _CERT_S, -1, _CERT_P)


class _Uncertified(Exception):
    """The modular candidate RREF was not proved; the message says why."""


def _log_fallback(reason) -> None:
    import logging  # only a fallback pays for the import, not CLI start-up

    logging.getLogger(__name__).debug(
        "certified Q(i) elimination fell back to the exact loop: %s", reason
    )


def _reconstruct(u: int) -> Fraction:
    """The fraction n/d with |n|, d <= _CERT_BOUND and n = d*u mod P.

    Half-extended Euclid (Wang 1981); raises ``_Uncertified`` if none exists.
    """
    r0, r1, t0, t1 = _CERT_P, u, 0, 1
    while r1 > _CERT_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > _CERT_BOUND or gcd(r1, t1) != 1:
        raise _Uncertified("rational reconstruction failed")
    return Fraction(r1, t1)


def _cleared(pairs):
    """(d, {key: (re, im)}): the nonzero values of (key, Q(i) value) pairs
    times d, the lcm of their denominators, as ints."""
    pairs = [(key, x) for key, x in pairs if x]
    d = lcm(*[e for _, x in pairs for e in (x.re.denominator, x.im.denominator)])
    return d, {key: (x.re.numerator * (d // x.re.denominator),
                     x.im.numerator * (d // x.im.denominator)) for key, x in pairs}


def _gaussian_integer_row(row: dict) -> dict:
    """A Q(i) row times the lcm of its denominators: {col: (re, im)} ints."""
    m, ints = _cleared(row.items())
    if m % _CERT_P == 0:
        raise _Uncertified("a denominator is divisible by P")
    return ints


def _image_mod_p(rows, s: int):
    """The Q(i) rows cleared to Gaussian integers and mapped to GF(P) by i -> s."""
    for row in rows:
        yield {
            c: m
            for c, (a, b) in _gaussian_integer_row(row).items()
            if (m := (a + b * s) % _CERT_P)
        }


def _certified_rref(rows):
    """The RREF of Q(i) rows from GF(P) elimination, proved exactly over Z[i].

    The rows are cleared to Gaussian integers and eliminated mod P under
    both embeddings i -> s and i -> -s; the real and imaginary parts of each
    candidate entry are recovered from the two images and reconstructed as
    fractions.  The candidate is then proved to be the RREF:

    * rank >= #pivots, because the GF(P) elimination is a ring-homomorphic
      image of the integer rows, and a nonzero minor mod P is nonzero in Z[i];
    * rank <= #pivots, because the kernel vector of every free column
      annihilates every integer row exactly (and every column that occurs is
      a pivot or occurs in a pivot row, so every free column is tested);
    * each candidate row has its pivot as least column, 1 there and 0 at the
      other pivots, and is orthogonal to that kernel, so it lies in the row
      space and the rows are the reduced echelon basis.

    ``rows`` is a list, read three times: the integer rows are rebuilt on
    each pass rather than stored, which keeps the peak memory near that of
    the ``Fraction`` loop.  Raises
    ``_Uncertified`` when any step fails; the caller then runs that loop.
    """
    P = _CERT_P
    piv_up = _rref_loop(_image_mod_p(rows, _CERT_S), P)
    piv_down = _rref_loop(_image_mod_p(rows, P - _CERT_S), P)
    if piv_up.keys() != piv_down.keys():
        raise _Uncertified("the two embeddings of i give different pivots")

    pivots: dict[int, dict] = {}
    free_in: dict[int, dict] = {}  # free column -> {pivot: entry}
    for p, row_up in piv_up.items():
        row_down = piv_down[p]
        row = {p: ONE}
        for c in sorted(row_up.keys() | row_down.keys()):
            if c == p:
                continue
            if c < p or c in piv_up:
                raise _Uncertified("the candidate is not in reduced echelon form")
            u, w = row_up.get(c, 0), row_down.get(c, 0)
            x = _make(_reconstruct((u + w) * _HALF % P),
                      _reconstruct((u - w) * _HALF_S % P))
            row[c] = x
            free_in.setdefault(c, {})[p] = x
        pivots[p] = row

    kernel = []  # the kernel vector of each free column, scaled to Z[i]
    for f, entries in free_in.items():
        m = lcm(*[x.re.denominator for x in entries.values()],
                *[x.im.denominator for x in entries.values()])
        vec = {f: (m, 0)}
        for p, x in entries.items():
            vec[p] = (-x.re.numerator * (m // x.re.denominator),
                      -x.im.numerator * (m // x.im.denominator))
        kernel.append(vec)
    for row in rows:
        zrow = _gaussian_integer_row(row)
        if any(c not in pivots and c not in free_in for c in zrow):
            raise _Uncertified("a column is neither a pivot nor in a pivot row")
        for vec in kernel:
            re = im = 0
            for c, (a, b) in zrow.items():
                y = vec.get(c)
                if y is not None:
                    re += a * y[0] - b * y[1]
                    im += a * y[1] + b * y[0]
            if re or im:
                raise _Uncertified("a kernel vector does not annihilate the rows")
    return pivots


def rank_sparse(rows, ncols: int) -> int:
    """Rank of a sparse system given as iterables of {col: coeff} rows."""
    return len(_eliminate(rows)[0])


def kernel_basis_sparse(rows, ncols: int):
    """Kernel basis of a sparse homogeneous system, RREF-canonical.

    ``rows`` is an iterable of {col: int or GaussianRational} dicts.  Returns a list
    of dense tuple vectors of length ncols, one per free column, ordered by
    free column index.
    """
    pivots = _sparse_rref(rows)
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


# ---------------------------------------------------------------------------
# Monte-Carlo rank mod P (exact fallback is the caller's job)
# ---------------------------------------------------------------------------


def nullity_mod_p(rows, ncols: int) -> int:
    """Nullity of the system reduced mod the prime P of the certified path.

    The rows are cleared to integers (a real system, as in :func:`_eliminate`)
    or Gaussian integers first, so no entry has a denominator to invert.
    Specialization can only lower rank, so this is an *upper bound* on the
    true nullity; with the 127-bit P it is almost surely exact.  In the one
    case a complex system cannot be reduced (a row's common denominator
    divisible by P) the exact rank is used instead.
    """
    rows = list(rows)
    ELIMINATIONS["modular"] += 1
    ints = _integer_rows(rows)
    if ints is not None:
        image = ({c: m for c, v in row.items() if (m := v % _CERT_P)} for row in ints)
        return ncols - len(_rref_loop(image, _CERT_P))
    try:
        return ncols - len(_rref_loop(_image_mod_p(_qi_rows(rows), _CERT_S), _CERT_P))
    except _Uncertified:
        return ncols - rank_sparse(rows, ncols)
