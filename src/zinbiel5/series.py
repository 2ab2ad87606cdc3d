"""Expression trees in one deformation parameter and exact Puiseux series.

Expressions cover Gaussian-rational literals, the deformation variable t,
named parameter symbols, field operations, rational powers and sqrt.  A text
is read with Python's own expression grammar (``ast.parse``) over the words
of ``_tokenize``: ASCII names, numerals d or d.d, ``+ - * / ^ **`` and
parentheses; it is parsed once while it stays cached.  One evaluator walks a
tree under an exact-series, Q(i)-scalar or mpmath context; sqrt is the power
1/2, and exponents are folded by the scalar context.  The exact tier expands
expressions as Laurent–Puiseux series whose coefficients live in Q(i)
extended by lazily adjoined square roots of square-free integers.  A series
is stored cleared: one positive denominator per series and, per nonzero part
(re + i im)/den * sqrt(d) of the coefficient of t^(k/ram), the ints
(k, d, re, im), with the gcd divided out once per result, so sums, products
and the binomial-series kernel shared by inverses and square roots build no
``Fraction``.  ``Radical`` and ``GaussianRational`` values are built only
where a coefficient is read.  The numeric tier evaluates with mpmath.
"""
from __future__ import annotations

import ast
import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from typing import Iterable, Optional

from .exactmath import ONE, ZERO, GaussianRational, _cleared, _make, grat

__all__ = [
    "NonExpandable",
    "ScalarValueError",
    "TExpression",
    "TNum",
    "TImag",
    "TVar",
    "TSym",
    "TNeg",
    "TAdd",
    "TSub",
    "TMul",
    "TDiv",
    "TPow",
    "TSqrt",
    "TConst",
    "parse_expression",
    "to_text",
    "expression_symbols",
    "collect_sqrt_keys",
    "infer_ramification",
    "Radical",
    "sqrt_gaussian",
    "PuiseuxSeries",
    "expand_series",
    "evaluate_scalar",
    "evaluate_numeric",
    "DEFAULT_TRUNCATION",
    "RAMIFICATION_CAP",
    "MAX_DEGREE",
    "MAX_EXPRESSION_LENGTH",
    "MAX_NESTING",
]

DEFAULT_TRUNCATION = 16
RAMIFICATION_CAP = 12
# Largest degree (see _degree) of a parsed expression.  The bundled tables
# reach 19; (1+t)^64 expands in milliseconds, (1+t)^800 takes seconds.
MAX_DEGREE = 64
# The parser and the tree walks recurse once per level of the tree, so the
# text is capped before it is parsed: its length bounds the depth of an
# operator chain such as 1+1+...+1, and MAX_NESTING the depth of parentheses.
# The bundled tables reach 110 characters and depth 2.
MAX_EXPRESSION_LENGTH = 500
MAX_NESTING = 32

# mpmath serves the numeric tier only.  It is imported at the first numeric
# evaluation, not at start-up, where it cost every command about 4 MiB of
# peak RSS and 30 ms of cold start (2-core x86-64 VM).
mpmath = None


def _load_mpmath():
    """Import mpmath, bind it as this module's ``mpmath`` and return it.

    Each numeric entry point calls this first; the helpers they reach, such
    as ``_to_mpmath``, read the bound name and pay no import per call.
    """
    global mpmath
    if mpmath is None:
        import mpmath
    return mpmath


class NonExpandable(Exception):
    """The exact tier cannot represent this value; fall back to numerics."""


class ScalarValueError(ValueError):
    """An expression has no exact scalar value: an unbound name, t with no
    value, or an irrational power.  :func:`evaluate_scalar` raises it as a
    data error; it is not a ``NonExpandable``, so no numeric fallback
    catches it."""


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------


class TExpression:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class TNum(TExpression):
    value: Fraction


@dataclass(frozen=True)
class TImag(TExpression):
    pass


@dataclass(frozen=True)
class TVar(TExpression):
    pass


@dataclass(frozen=True)
class TSym(TExpression):
    name: str


@dataclass(frozen=True)
class TNeg(TExpression):
    arg: TExpression


@dataclass(frozen=True)
class TAdd(TExpression):
    left: TExpression
    right: TExpression


@dataclass(frozen=True)
class TSub(TExpression):
    left: TExpression
    right: TExpression


@dataclass(frozen=True)
class TMul(TExpression):
    left: TExpression
    right: TExpression


@dataclass(frozen=True)
class TDiv(TExpression):
    left: TExpression
    right: TExpression


@dataclass(frozen=True)
class TPow(TExpression):
    base: TExpression
    exponent: Fraction


@dataclass(frozen=True)
class TSqrt(TExpression):
    arg: TExpression


@dataclass(frozen=True)
class TConst(TExpression):
    """A Gaussian-rational constant, such as a given algebra's structure constant."""

    value: GaussianRational


class _TFolded(TExpression):
    """A subtree of the numeric tier evaluated once: its mpmath value and the
    subtree itself, which ``to_text`` renders (a branch key reads it).  A
    plain class: a dataclass would add about a millisecond to every start-up."""

    __slots__ = ("value", "source")

    def __init__(self, value, source: TExpression):
        self.value = value
        self.source = source


# each binary node's spelling and operation; a quotient is the evaluation
# context's ``divide``, so that the series context can honour its truncation
_BINARY = {
    TAdd: ("+", operator.add),
    TSub: ("-", operator.sub),
    TMul: ("*", operator.mul),
    TDiv: ("/", None),
}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\*\*|[()+\-*/^]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot tokenize {rest[:20]!r}")
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", Fraction(m.group("num"))))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
    tokens.append(("end", None))
    return tokens


# the binary operators of Python's grammar that the tokenizer can spell
_AST_BINARY = {ast.Add: TAdd, ast.Sub: TSub, ast.Mult: TMul, ast.Div: TDiv, ast.Pow: TPow}


def _syntax_tree(text: str) -> TExpression:
    """Parse text with Python's grammar over ``_tokenize``'s words.

    The tokens are re-spelled as Python: the k-th numeral as the name ``Nk``
    and a name x as ``_x``, so that no word is a keyword or a literal (a
    called literal, as in 2(3), would be a SyntaxWarning), and ``^`` as
    ``**``.  Python then gives ``+ - * /``, the unary signs and the
    right-associative power their usual precedence.  Literal quotients and
    negated literals fold to one TNum, so 5/2 and -5 round-trip as numbers.
    """
    words, numerals = [], []
    for kind, val in _tokenize(text)[:-1]:
        if kind == "num":
            words.append(f"N{len(numerals)}")
            numerals.append(val)
        else:
            words.append("_" + val if kind == "name" else "**" if val == "^" else val)
    try:
        body = ast.parse(" ".join(words), mode="eval").body
    except SyntaxError:
        raise ValueError(f"malformed expression {text[:40]!r}") from None

    def tree(node) -> TExpression:
        if isinstance(node, ast.BinOp) and type(node.op) in _AST_BINARY:
            op, left, right = _AST_BINARY[type(node.op)], tree(node.left), tree(node.right)
            if op is TPow:
                return TPow(left, _fold_rational(right))
            if op is TDiv and isinstance(left, TNum) and isinstance(right, TNum):
                return TNum(left.value / right.value)
            return op(left, right)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            arg = tree(node.operand)
            if isinstance(node.op, ast.UAdd):
                return arg
            return TNum(-arg.value) if isinstance(arg, TNum) else TNeg(arg)
        if isinstance(node, ast.Name) and node.id != "_sqrt":
            if node.id[0] == "N":
                return TNum(numerals[int(node.id[1:])])
            name = node.id[1:]
            return TImag() if name == "i" else TVar() if name == "t" else TSym(name)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_sqrt" and len(node.args) == 1 and not node.keywords):
            return TSqrt(tree(node.args[0]))
        raise ValueError(f"unexpected {type(node).__name__.lower()} in {text[:40]!r}")

    return tree(body)


def _degree(e: TExpression) -> int:
    """A bound on the size of an expression's value, known before computing it.

    A number, symbol, i or t counts 1; a sum counts its larger side, a
    product or quotient both sides, and a power p/q its base |p| times.
    """
    if isinstance(e, (TNeg, TSqrt)):
        return _degree(e.arg)
    if isinstance(e, (TAdd, TSub)):
        return max(_degree(e.left), _degree(e.right))
    if isinstance(e, (TMul, TDiv)):
        return _degree(e.left) + _degree(e.right)
    if isinstance(e, TPow):
        return _degree(e.base) * abs(e.exponent.numerator)
    return 1


def _bounded(e: TExpression, text: str) -> TExpression:
    if _degree(e) > MAX_DEGREE:
        raise ValueError(f"power too large in {text[:40]!r}: degree above {MAX_DEGREE}")
    return e


def _fold_rational(e: TExpression) -> Fraction:
    """Constant-fold an exponent expression to a rational number."""
    try:
        value = _evaluate(_bounded(e, to_text(e)), _ScalarContext(None))
        if not value.im:
            return value.re
    except NonExpandable:
        pass
    raise ValueError("exponent is not a rational constant")


def parse_expression(text) -> TExpression:
    """Parse an expression string; numbers and Fractions pass through.

    Text longer than ``MAX_EXPRESSION_LENGTH`` or with parentheses nested
    deeper than ``MAX_NESTING`` raises ``ValueError`` before it is parsed.
    """
    if isinstance(text, TExpression):
        return text
    if isinstance(text, (int, Fraction)):
        return TNum(Fraction(text))
    return _parse_text(str(text))


@functools.lru_cache(maxsize=1024)
def _parse_text(text: str) -> TExpression:
    """parse_expression of a string.  Trees are immutable, so a text is
    parsed (and checked) once while it stays cached; errors are not cached."""
    if len(text) > MAX_EXPRESSION_LENGTH:
        raise ValueError(f"expression too long in {text[:40]!r}: "
                         f"{len(text)} characters, at most {MAX_EXPRESSION_LENGTH}")
    depth = max(accumulate((c == "(") - (c == ")") for c in text), default=0)
    if depth > MAX_NESTING:
        raise ValueError(f"expression nested too deeply in {text[:40]!r}: "
                         f"depth {depth}, at most {MAX_NESTING}")
    try:
        return _bounded(_syntax_tree(text), text)
    except ZeroDivisionError:
        raise ValueError(f"division by zero in {text[:40]!r}") from None


def to_text(e: TExpression) -> str:
    """Canonical, re-parseable rendering (used as the sqrt branch key)."""
    if isinstance(e, TNum):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(e, TImag):
        return "i"
    if isinstance(e, TVar):
        return "t"
    if isinstance(e, TSym):
        return e.name
    if isinstance(e, TNeg):
        return f"(-{to_text(e.arg)})"
    if type(e) in _BINARY:
        return f"({to_text(e.left)}{_BINARY[type(e)][0]}{to_text(e.right)})"
    if isinstance(e, TPow):
        x = e.exponent
        ex = str(x.numerator) if x.denominator == 1 else f"({x.numerator}/{x.denominator})"
        return f"({to_text(e.base)}^{ex})"
    if isinstance(e, TSqrt):
        return f"sqrt({to_text(e.arg)})"
    if isinstance(e, TConst):
        # a Gaussian rational reads back as itself; bracketed unless a
        # natural number, so that it parses whole under a power
        v = str(e.value)
        return v if v.isdigit() else f"({v})"
    if isinstance(e, _TFolded):
        return to_text(e.source)
    raise TypeError(f"not an expression node: {e!r}")


def _postorder(e: TExpression):
    """Every node of the tree, each after its children (left to right)."""
    if isinstance(e, (TNeg, TSqrt)):
        yield from _postorder(e.arg)
    elif type(e) in _BINARY:
        yield from _postorder(e.left)
        yield from _postorder(e.right)
    elif isinstance(e, TPow):
        yield from _postorder(e.base)
    yield e


def expression_symbols(e: TExpression) -> set:
    """Parameter symbols appearing in the expression."""
    return {node.name for node in _postorder(e) if isinstance(node, TSym)}


def _branch_key(e: TExpression) -> Optional[str]:
    """The branch key of a power node: the canonical text of its base for a
    square root or a half-integer power, which have two branches, else None.
    The evaluation contexts choose a branch for these powers only; any other
    rational power takes its principal value."""
    if isinstance(e, TSqrt):
        return to_text(e.arg)
    if isinstance(e, TPow) and e.exponent.denominator == 2:
        return to_text(e.base)
    return None


def collect_sqrt_keys(exprs: Iterable[TExpression]):
    """Branch keys (:func:`_branch_key`) of all square roots and
    half-integer powers, in order; a power ``t^(k/2)`` of t itself adds
    none (``sqrt(t)`` does).

    A half-integer power contributes the same key as sqrt of its base, so
    the two spellings share one branch choice.
    """
    keys = {}
    for e in exprs:
        for node in _postorder(parse_expression(e)):
            key = _branch_key(node)
            if key is not None and not (isinstance(node, TPow) and isinstance(node.base, TVar)):
                keys[key] = None
    return list(keys)


def infer_ramification(exprs: Iterable[TExpression]) -> int:
    """LCM of rational-exponent denominators across the expressions."""
    den = math.lcm(*(
        node.exponent.denominator
        for e in exprs
        for node in _postorder(parse_expression(e))
        if isinstance(node, TPow)
    ))
    if den > RAMIFICATION_CAP:
        raise NonExpandable(f"ramification {den} exceeds cap {RAMIFICATION_CAP}")
    return den


# ---------------------------------------------------------------------------
# coefficients: Q(i) with adjoined real square roots
# ---------------------------------------------------------------------------


def _squarefree(n: int):
    """n = s^2 * d with d squarefree; returns (s, d) for n >= 1."""
    s, d, m = 1, 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if m > 1:
        d *= m
    return s, d


@dataclass(frozen=True)
class Radical:
    """Element of Q(i)(sqrt(d_1), ..., sqrt(d_k)), d_j squarefree positive.

    Stored as a sorted tuple of (d, coefficient) with d = 1 the rational
    part and no zero coefficient, which is canonical since the sqrt(d) are
    independent over Q(i).  This is the form callers read; its arithmetic
    runs on constant series, in the cleared form of :class:`PuiseuxSeries`.
    """

    terms: tuple

    @staticmethod
    def from_gaussian(z) -> "Radical":
        z = grat(z)
        return _radical(((1, z),) if z else ())

    @property
    def is_gaussian(self) -> bool:
        return all(d == 1 for d, _ in self.terms)

    def gaussian_value(self) -> GaussianRational:
        if not self.is_gaussian:
            raise NonExpandable(f"{self} is irrational")
        return self.terms[0][1] if self.terms else ZERO

    def __bool__(self):
        return bool(self.terms)

    @staticmethod
    def _coerce(other):
        if isinstance(other, Radical):
            return other
        return Radical.from_gaussian(other)

    def __add__(self, other):
        return (PuiseuxSeries.scalar(self) + other).coefficient(0)

    __radd__ = __add__

    def __neg__(self):
        return _radical(tuple((d, -c) for d, c in self.terms))

    def __sub__(self, other):
        return (PuiseuxSeries.scalar(self) - other).coefficient(0)

    def __rsub__(self, other):
        return (PuiseuxSeries.scalar(other) - self).coefficient(0)

    def __mul__(self, other):
        return (PuiseuxSeries.scalar(self) * other).coefficient(0)

    __rmul__ = __mul__

    def _conjugate_by(self, p: int) -> "Radical":
        return _radical(tuple((d, -c if d % p == 0 else c) for d, c in self.terms))

    def inverse(self) -> "Radical":
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        if self.is_gaussian:
            return Radical.from_gaussian(ONE / self.terms[0][1])
        # peel one adjoined prime at a time: x * sigma_p(x) omits sqrt(p)
        dmax = max(d for d, _ in self.terms if d > 1)
        p = next(q for q in range(2, dmax + 1) if dmax % q == 0)
        conj = self._conjugate_by(p)
        norm = self * conj
        return conj * norm.inverse()

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for d, c in self.terms:
            parts.append(str(c) if d == 1 else f"({c})*sqrt({d})")
        return " + ".join(parts)


def _radical(terms: tuple) -> Radical:
    """The allocator behind every Radical: terms already canonical."""
    r = object.__new__(Radical)
    object.__setattr__(r, "terms", terms)
    return r


def _radical_of(terms, den: int) -> Radical:
    """The Radical sum of (re + i*im)/den * sqrt(d) over (k, d, re, im) terms."""
    return _radical(tuple((d, _make(x, y, den)) for _, d, x, y in terms))


_RAD_ZERO = _radical(())
_RAD_ONE = Radical.from_gaussian(ONE)
_HALF = Fraction(1, 2)


def _rational_sqrt(fr: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if fr < 0:
        return None
    ns = math.isqrt(fr.numerator)
    ds = math.isqrt(fr.denominator)
    if ns * ns == fr.numerator and ds * ds == fr.denominator:
        return Fraction(ns, ds)
    return None


def _sqrt_positive_fraction(fr: Fraction) -> Radical:
    """sqrt of a positive rational as (s/den) * sqrt(d)."""
    s, d = _squarefree(fr.numerator * fr.denominator)
    coeff = _make(s, 0, fr.denominator)
    return _radical(((d, coeff),))


def sqrt_gaussian(z: GaussianRational) -> Radical:
    """Principal square root of a Gaussian rational, exact or NonExpandable.

    Principal means the result with positive real part (or, on the negative
    real axis, positive imaginary part), matching mpmath.sqrt.
    """
    z = grat(z)
    if not z:
        return _RAD_ZERO
    a, b = z.re, z.im
    if b == 0:
        if a > 0:
            return _sqrt_positive_fraction(a)
        return _sqrt_positive_fraction(-a) * GaussianRational(0, 1)
    if a == 0:
        half = _sqrt_positive_fraction(abs(b) / 2)
        unit = GaussianRational(1, 1) if b > 0 else GaussianRational(1, -1)
        return half * unit
    r = _rational_sqrt(a * a + b * b)
    if r is not None:
        x = _rational_sqrt((a + r) / 2)
        if x is not None and x != 0:
            y = b / (2 * x)
            return Radical.from_gaussian(GaussianRational(x, y))
    raise NonExpandable(f"no exact square root of {z}")


# ---------------------------------------------------------------------------
# Puiseux series
# ---------------------------------------------------------------------------


def _times(d1, x1, y1, d2, x2, y2):
    """(d, re, im) with (x1 + i y1) sqrt(d1) * (x2 + i y2) sqrt(d2) equal to
    (re + i im) sqrt(d), by sqrt(d1) sqrt(d2) = g sqrt(d1 d2 / g^2)."""
    if y1 or y2:
        x, y = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2
    else:
        x, y = x1 * x2, 0
    if d1 == 1 or d2 == 1:
        return d1 * d2, x, y
    g = math.gcd(d1, d2)
    return (d1 // g) * (d2 // g), x * g, y * g


def _series(ram: int, prec: Optional[int], den: int, data: dict) -> "PuiseuxSeries":
    """The series sum (re + i im)/den sqrt(d) t^(k/ram) over data
    {(k, d): (re, im)}, known modulo t^(prec/ram), in canonical form: zero
    parts and k >= prec dropped, the gcd divided out once, terms sorted."""
    terms = [(k, d, x, y) for (k, d), (x, y) in data.items()
             if (x or y) and (prec is None or k < prec)]
    if den != 1:
        g = math.gcd(den, *[v for t in terms for v in t[2:]])
        if g != 1:
            den //= g
            terms = [(k, d, x // g, y // g) for k, d, x, y in terms]
    terms.sort()
    return _raw(ram, prec, den, tuple(terms))


def _raw(ram, prec, den, terms) -> "PuiseuxSeries":
    """The allocator behind every series: terms already canonical."""
    s = object.__new__(PuiseuxSeries)
    s.ram, s.prec, s.den, s.terms = ram, prec, den, terms
    return s


_ONE = ((0, 1, 1, 0),)  # the terms of the constant 1 (with den 1)


class PuiseuxSeries:
    """sum_k c_k t^(k/ram), known modulo O(t^(prec/ram)); prec None = exact.

    Exponents may be negative (Laurent tails appear when bases are inverted);
    "exact" series are finite sums.  The coefficients are stored cleared:
    ``terms`` is a sorted tuple of (k, d, re, im) ints, one per nonzero part
    (re + i im)/den * sqrt(d) of c_k, over one denominator ``den`` > 0 with
    gcd(den, every re and im) = 1, so the form is canonical.  ``coeffs``
    reads the coefficients back as sorted (k, Radical) pairs.
    """

    __slots__ = ("ram", "prec", "den", "terms")

    def __init__(self, ram: int, coeffs=(), prec: Optional[int] = None):
        """sum c t^(k/ram) over (k, c) pairs with distinct k, each c a
        Radical or a Gaussian rational."""
        s = _series(ram, prec, *_cleared(
            ((k, d), z) for k, c in coeffs for d, z in Radical._coerce(c).terms))
        self.ram, self.prec, self.den, self.terms = ram, prec, s.den, s.terms

    # construction ----------------------------------------------------------

    @staticmethod
    def scalar(value, ram: int = 1) -> "PuiseuxSeries":
        if isinstance(value, Radical):
            return PuiseuxSeries(ram, ((0, value),))
        return _series(ram, None, *_cleared((((0, 1), grat(value)),)))

    @staticmethod
    def zero(ram: int = 1) -> "PuiseuxSeries":
        return _raw(ram, None, 1, ())

    @staticmethod
    def t_power(exp: Fraction, coeff=None) -> "PuiseuxSeries":
        exp = Fraction(exp)
        return PuiseuxSeries(exp.denominator, ((exp.numerator, ONE if coeff is None else coeff),))

    # views ------------------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """((k, Radical), ...), sorted by k, all coefficients nonzero."""
        return tuple((k, _radical_of(group, self.den))
                     for k, group in groupby(self.terms, operator.itemgetter(0)))

    @property
    def is_exact(self) -> bool:
        return self.prec is None

    @property
    def known_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        """False only for the exact zero; O(t^k) with no known term is true."""
        return bool(self.terms) or self.prec is not None

    def valuation(self) -> Optional[Fraction]:
        """Exponent of the first known nonzero term (None if none known)."""
        if not self.terms:
            return None
        return Fraction(self.terms[0][0], self.ram)

    def coefficient(self, exp) -> Radical:
        k = exp * self.ram if type(exp) is int else Fraction(exp) * self.ram
        if self.prec is not None and k >= self.prec:
            raise ValueError(f"coefficient of t^{Fraction(exp)} is beyond truncation")
        return _radical_of([t for t in self.terms if t[0] == k], self.den)

    def _lead(self) -> Radical:
        return self.coefficient(self.valuation())

    def precision(self) -> Optional[Fraction]:
        return None if self.prec is None else Fraction(self.prec, self.ram)

    # ramification plumbing ---------------------------------------------------

    def _lift(self, ram: int) -> "PuiseuxSeries":
        if ram == self.ram:
            return self
        if ram % self.ram:
            raise ValueError("can only lift to a multiple of the ramification")
        f = ram // self.ram
        return _raw(ram, None if self.prec is None else self.prec * f, self.den,
                    tuple((k * f, d, x, y) for k, d, x, y in self.terms))

    @staticmethod
    def _common(a: "PuiseuxSeries", b: "PuiseuxSeries"):
        ram = math.lcm(a.ram, b.ram)
        if ram > RAMIFICATION_CAP:
            raise NonExpandable(f"ramification {ram} exceeds cap {RAMIFICATION_CAP}")
        return a._lift(ram), b._lift(ram)

    @staticmethod
    def _coerce(value) -> "PuiseuxSeries":
        if isinstance(value, PuiseuxSeries):
            return value
        return PuiseuxSeries.scalar(value)

    # arithmetic ---------------------------------------------------------------
    #
    # An exact zero or one operand returns the other side, lifted to the
    # common ramification as the full computation would.

    def _add(self, other, sign: int) -> "PuiseuxSeries":
        """self + sign * other, sign = 1 or -1."""
        a, b = self._common(self, self._coerce(other))
        if not b:
            return a
        if not a:
            return b if sign == 1 else -b
        precs = [p for p in (a.prec, b.prec) if p is not None]
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        data = {(k, d): (x * fa, y * fa) for k, d, x, y in a.terms}
        for k, d, x, y in b.terms:
            xa, ya = data.get((k, d), (0, 0))
            data[k, d] = (xa + x * fb, ya + y * fb)
        return _series(a.ram, min(precs) if precs else None, den, data)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.ram, self.prec, self.den,
                    tuple((k, d, -x, -y) for k, d, x, y in self.terms))

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return self._coerce(other)._add(self, -1)

    def __mul__(self, other):
        a, b = self._common(self, self._coerce(other))
        if not a or not b:
            return PuiseuxSeries.zero(a.ram)
        if b.terms == _ONE and b.den == 1 and b.prec is None:
            return a
        if a.terms == _ONE and a.den == 1 and a.prec is None:
            return b
        va = a.terms[0][0] if a.terms else a.prec
        vb = b.terms[0][0] if b.terms else b.prec
        bounds = [p + v for p, v in ((a.prec, vb), (b.prec, va)) if p is not None]
        prec = min(bounds) if bounds else None
        data = {}
        for k1, d1, x1, y1 in a.terms:
            for k2, d2, x2, y2 in b.terms:
                k = k1 + k2
                if prec is not None and k >= prec:
                    break  # b.terms are sorted by k
                d, x, y = _times(d1, x1, y1, d2, x2, y2)
                old = data.get((k, d))
                data[k, d] = (x, y) if old is None else (old[0] + x, old[1] + y)
        return _series(a.ram, prec, a.den * b.den, data)

    __rmul__ = __mul__

    def inverse(self, trunc: int = DEFAULT_TRUNCATION) -> "PuiseuxSeries":
        if not self.terms:
            if self.prec is None:
                raise ZeroDivisionError("inverse of the zero series")
            raise NonExpandable("leading term of divisor unknown at this truncation")
        return self._binomial(Fraction(-1), self._lead().inverse(), trunc)

    def _binomial(self, alpha: Fraction, root: Radical, trunc: int) -> "PuiseuxSeries":
        """self^alpha as root t^(v alpha) (1+u)^alpha, by Miller's recurrence.

        Here self = lead t^v (1+u), root is the chosen lead^alpha and v alpha
        must be whole (in 1/ram units).  With f_k the coefficients of u,
        g = (1+u)^alpha has g_0 = 1 and n g_n = sum_(k=1..n) (alpha k - n + k)
        f_k g_(n-k) (J.C.P. Miller; Knuth, TAOCP vol. 2, 4.7): one pass over u
        per coefficient.  It keeps rel relative orders, trunc of them when
        self is exact, else the span self is known over, so the result is
        known modulo t^(rel + v alpha); an exact monomial stays exact.  Each
        g_n is kept as (den, ((d, re, im), ...)) ints, reduced once.  u is 0
        exactly when self has one exponent, and then the result is the
        monomial.
        """
        v = self.terms[0][0]
        rel = trunc * self.ram if self.prec is None else self.prec - v
        shift = int(v * alpha)
        mono = PuiseuxSeries(self.ram, ((shift, root),))
        if self.terms[-1][0] == v:
            return mono.truncate_units(None if self.prec is None else rel + shift)
        u = self * PuiseuxSeries(self.ram, ((-v, self._lead().inverse()),)) - 1
        p, q = alpha.numerator, alpha.denominator
        f = [(k, list(fk)) for k, fk in groupby(u.terms, operator.itemgetter(0))]
        g = [(1, ((1, 1, 0),))]  # None for a zero coefficient
        for n in range(1, rel):
            # q n g_n = sum of w f_k g_(n-k), w = q (alpha k - n + k)
            parts = [(w, fk, gk) for k, fk in f if k <= n and (gk := g[n - k])
                     and (w := p * k + q * (k - n))]
            L = math.lcm(*[gk[0] for _, _, gk in parts])
            acc = {}
            for w, fk, (gd, gv) in parts:
                s = w * (L // gd)
                for _, d1, x1, y1 in fk:
                    for d2, x2, y2 in gv:
                        d, x, y = _times(d1, x1, y1, d2, x2, y2)
                        ox, oy = acc.get(d, (0, 0))
                        acc[d] = (ox + s * x, oy + s * y)
            gn = _series(1, None, u.den * L * q * n, {(0, d): xy for d, xy in acc.items()})
            g.append((gn.den, tuple(t[1:] for t in gn.terms)) if gn.terms else None)
        den = math.lcm(*[gn[0] for gn in g if gn])
        data = {(n, d): (x * (den // gn[0]), y * (den // gn[0]))
                for n, gn in enumerate(g) if gn for d, x, y in gn[1]}
        return _series(self.ram, rel, den, data) * mono

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("division by the zero series")
        return self * other.inverse()  # an exact monomial has an exact inverse

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def truncate_units(self, prec: Optional[int]) -> "PuiseuxSeries":
        """Truncate to O(t^(prec/ram)); None leaves the series unchanged."""
        if prec is None:
            return self
        if self.prec is not None and self.prec <= prec:
            return self
        return _series(self.ram, prec, self.den, {(k, d): (x, y) for k, d, x, y in self.terms})

    def sqrt(self, branch: int = 1, trunc: int = DEFAULT_TRUNCATION) -> "PuiseuxSeries":
        if not self.terms:
            if self.prec is None:
                return PuiseuxSeries.zero(self.ram)
            raise NonExpandable("leading term under sqrt unknown at this truncation")
        work = self
        if work.terms[0][0] % 2:
            if work.ram * 2 > RAMIFICATION_CAP:
                raise NonExpandable("odd valuation under sqrt exceeds ramification cap")
            work = work._lift(work.ram * 2)
        root = sqrt_gaussian(work._lead().gaussian_value())  # NonExpandable if irrational
        return work._binomial(_HALF, root * grat(branch), trunc)

    def pow(self, exponent, branch: int = 1, trunc: int = DEFAULT_TRUNCATION) -> "PuiseuxSeries":
        e = Fraction(exponent)
        if e.denominator == 1:
            n = int(e)
            if n < 0:
                return self.inverse(trunc).pow(-n, trunc=trunc)
            out = None
            base = self
            while n:
                if n & 1:
                    out = base if out is None else out * base
                n >>= 1
                if n:
                    base = base * base
            return PuiseuxSeries.scalar(ONE, self.ram) if out is None else out
        if e.denominator == 2:
            return self.sqrt(branch=branch, trunc=trunc).pow(e.numerator, trunc=trunc)
        # general rational power: only exact monomials
        if self.prec is None and self.terms and self.terms[0][0] == self.terms[-1][0]:
            new_exp = self.valuation() * e
            if new_exp.denominator > RAMIFICATION_CAP:
                raise NonExpandable("rational power exceeds ramification cap")
            root = _monomial_coeff_root(self._lead(), e)
            return PuiseuxSeries.t_power(new_exp, root)
        raise NonExpandable(f"cannot raise a non-monomial series to the {e} power")

    def __str__(self):
        parts = []
        for k, c in self.coeffs:
            e = Fraction(k, self.ram)
            if e == 0:
                parts.append(f"({c})")
            elif e.denominator == 1:
                parts.append(f"({c})*t^{e.numerator}")
            else:
                parts.append(f"({c})*t^({e.numerator}/{e.denominator})")
        body = " + ".join(parts) if parts else "0"
        if self.prec is not None:
            p = Fraction(self.prec, self.ram)
            tail = f"t^{p.numerator}" if p.denominator == 1 else f"t^({p.numerator}/{p.denominator})"
            body += f" + O({tail})"
        return body

    def __repr__(self):
        return f"PuiseuxSeries(ram={self.ram!r}, coeffs={self.coeffs!r}, prec={self.prec!r})"

    def _reduced(self) -> tuple:
        """(ram, den, terms, prec) at the least ramification: ram, every k
        and prec divided by their gcd.  Equal series reduce to one form."""
        g = math.gcd(self.ram, self.prec or 0, *[t[0] for t in self.terms])
        if g == 1:
            return self.ram, self.den, self.terms, self.prec
        return (self.ram // g, self.den,
                tuple((k // g, d, x, y) for k, d, x, y in self.terms),
                None if self.prec is None else self.prec // g)

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self._reduced() == other._reduced()

    def __hash__(self):
        return hash(self._reduced())

    def lift_to_at_least(self, ram: int) -> "PuiseuxSeries":
        return self._lift(math.lcm(self.ram, ram))


def _monomial_coeff_root(c: Radical, e: Fraction) -> Radical:
    """c^e for the coefficient of an exact monomial, rational results only."""
    if not c.is_gaussian:
        raise NonExpandable("irrational coefficient under a rational power")
    z = c.gaussian_value()
    if z == ONE:
        return _RAD_ONE
    if z.im == 0 and z.re > 0:
        q, p = e.denominator, e.numerator
        root_num = _int_root(z.re.numerator, q)
        root_den = _int_root(z.re.denominator, q)
        if root_num is not None and root_den is not None:
            return Radical.from_gaussian(_make(root_num, 0, root_den) ** p)
    raise NonExpandable(f"no exact {e} power of coefficient {str(c)[:40]!r}")


def _int_root(n: int, q: int) -> Optional[int]:
    """Exact integer q-th root of n >= 1, or None: Newton steps down in integers."""
    if q >= n.bit_length():  # n < 2^q, so the root is below 2
        return 1 if n == 1 else None
    r = 1 << -(-n.bit_length() // q)  # r^q > n
    while (s := ((q - 1) * r + n // r ** (q - 1)) // q) < r:
        r = s
    return r if r**q == n else None


# ---------------------------------------------------------------------------
# evaluation contexts
# ---------------------------------------------------------------------------


class _SeriesContext:
    def __init__(self, params, ram, trunc, branch):
        self.params = params or {}
        self.ram = ram
        self.trunc = trunc
        self.branch = branch or {}

    def number(self, value):
        return PuiseuxSeries.scalar(grat(value), self.ram)

    def imaginary(self):
        return PuiseuxSeries.scalar(GaussianRational(0, 1), self.ram)

    def variable(self):
        return _raw(self.ram, None, 1, ((self.ram, 1, 1, 0),))

    def symbol(self, name):
        if name not in self.params:
            raise NonExpandable(f"unbound parameter {name!r}")
        return PuiseuxSeries._coerce(self.params[name]).lift_to_at_least(self.ram)

    def divide(self, x, y):
        if not y:
            raise ZeroDivisionError("division by the zero series")
        return x * y.inverse(self.trunc)

    def power(self, x, e, key):
        return x.pow(e, branch=self.branch.get(key, 1), trunc=self.trunc)


class _ScalarContext:
    def __init__(self, params, tval=None):
        self.params = params or {}
        self.tval = tval

    def number(self, value):
        return grat(value)

    divide = staticmethod(operator.truediv)

    def imaginary(self):
        return GaussianRational(0, 1)

    def variable(self):
        if self.tval is None:
            raise NonExpandable("the deformation variable has no scalar value")
        return grat(self.tval)

    def symbol(self, name):
        if name not in self.params:
            raise NonExpandable(f"unbound parameter {name!r}")
        return grat(self.params[name])

    def power(self, x, e, key):
        if e.denominator == 1:
            return x ** int(e)
        if e.denominator == 2:
            r = sqrt_gaussian(x)
            return r.gaussian_value() ** e.numerator
        rad = Radical.from_gaussian(x)
        root = _monomial_coeff_root(rad, e)
        return root.gaussian_value()


def _to_mpmath(v):
    """A Fraction as an mpmath real, a Gaussian rational as an mpmath complex.

    Rounded to the current mpmath precision.
    """
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpc(_to_mpmath(v.re), _to_mpmath(v.im))


class _NumericContext:
    def __init__(self, tval, params, branch):
        self.tval = mpmath.mpf(tval)
        self.params = params or {}
        self.branch = branch or {}

    number = staticmethod(_to_mpmath)
    divide = staticmethod(operator.truediv)

    def imaginary(self):
        return mpmath.mpc(0, 1)

    def variable(self):
        return self.tval

    def symbol(self, name):
        if name not in self.params:
            raise NonExpandable(f"unbound parameter {name!r}")
        v = self.params[name]
        return _to_mpmath(v) if isinstance(v, GaussianRational) else v

    def power(self, x, e, key):
        if e.denominator == 1:
            return x ** int(e)
        if e.denominator == 2:
            return (self.branch.get(key, 1) * mpmath.sqrt(x)) ** e.numerator
        return mpmath.power(x, mpmath.mpf(e.numerator) / e.denominator)


def _evaluate(e: TExpression, ctx):
    if type(e) is _TFolded:
        return e.value
    if isinstance(e, (TNum, TConst)):
        return ctx.number(e.value)
    if isinstance(e, TImag):
        return ctx.imaginary()
    if isinstance(e, TVar):
        return ctx.variable()
    if isinstance(e, TSym):
        return ctx.symbol(e.name)
    if isinstance(e, TNeg):
        return -_evaluate(e.arg, ctx)
    if type(e) in _BINARY:
        op = _BINARY[type(e)][1] or ctx.divide
        return op(_evaluate(e.left, ctx), _evaluate(e.right, ctx))
    if isinstance(e, TPow):
        return ctx.power(_evaluate(e.base, ctx), e.exponent, _branch_key(e))
    if isinstance(e, TSqrt):
        return ctx.power(_evaluate(e.arg, ctx), _HALF, _branch_key(e))
    raise TypeError(f"not an expression node: {e!r}")


def expand_series(
    expr,
    ram: int = 1,
    trunc: int = DEFAULT_TRUNCATION,
    params=None,
    branch=None,
) -> PuiseuxSeries:
    """Expand an expression as an exact Puiseux series about t = 0.

    ram is the starting ramification (operations lift it as needed, up to
    the cap); trunc bounds the relative order kept by inversions, quotients
    and roots.
    Raises NonExpandable when the exact tier cannot represent the value.
    """
    e = parse_expression(expr)
    return _evaluate(e, _SeriesContext(params, ram, trunc, branch))


def evaluate_scalar(expr, params=None, tval=None) -> GaussianRational:
    """Evaluate an expression to a Gaussian rational.

    The expression must be t-free unless tval supplies a rational value
    for the deformation variable.  An unbound name, t without a value or an
    irrational value raises ``ScalarValueError``, a ``ValueError``.
    """
    e = parse_expression(expr)
    try:
        return _evaluate(e, _ScalarContext(params, tval))
    except ZeroDivisionError:
        raise ValueError(f"division by zero in {to_text(e)[:40]!r}") from None
    except NonExpandable as exc:
        raise ScalarValueError(str(exc)) from None


def evaluate_numeric(expr, tval, params=None, branch=None):
    """Evaluate at a numeric t with mpmath at the caller's precision."""
    _load_mpmath()
    return _evaluate(parse_expression(expr), _NumericContext(tval, params, branch))


def _fold_numeric(expr, params=None, branch=None, free=()):
    """expr with each subtree that mentions neither t nor a symbol of free
    evaluated once, as ``evaluate_numeric`` evaluates it at any t.

    The numeric tier evaluates one tree at many values of t, and of the
    symbols in free, at one precision and on one branch.  A subtree that
    mentions none of them takes the same operations on the same operands at
    every such value, so its value is computed here, at the caller's
    precision, and kept in the tree; evaluating the result with the same
    params and branch then gives every number bit for bit as evaluating
    expr does.  A subtree whose evaluation raises is kept as it is, so it
    raises where and as it did.
    """
    _load_mpmath()
    return _fold(parse_expression(expr), _NumericContext(0, params, branch), frozenset(free))[0]


def _fold(e: TExpression, ctx, free):
    """(tree, folded): e with its foldable subtrees folded, and whether the
    whole of e was folded."""
    if isinstance(e, TVar) or (isinstance(e, TSym) and e.name in free):
        return e, False
    if isinstance(e, (TNeg, TSqrt)):
        arg, whole = _fold(e.arg, ctx, free)
        node = type(e)(arg)
    elif type(e) in _BINARY:
        (left, whole_left), (right, whole) = _fold(e.left, ctx, free), _fold(e.right, ctx, free)
        node, whole = type(e)(left, right), whole_left and whole
    elif isinstance(e, TPow):
        base, whole = _fold(e.base, ctx, free)
        node = TPow(base, e.exponent)
    else:
        node, whole = e, True
    if whole:
        try:
            return _TFolded(_evaluate(node, ctx), e), True
        except Exception:
            # Whatever it raises, the rung that evaluates it raises again,
            # as the unfolded tree does; a tree no rung reaches (after a
            # singular basis, say) raises nothing, as before.
            pass
    return node, False
