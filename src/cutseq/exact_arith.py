"""Exact arithmetic in Q(sqrt 2) and the projective action of 2x2 matrices on directions.

A scalar a + b*sqrt(2) is held as three Python ints (p, q, d) with value
(p + q*sqrt(2)) / d, d > 0 and gcd(p, q, d) = 1.  Negation keeps that form, so
it takes no gcd.  An exact matrix is held in one-denominator form: the eight
ints (p, q) of its four entries (p + q*sqrt(2)) / D and one denominator D > 0,
with gcd 1 over all nine, so the form is canonical and equality and hashing
compare ints.  A product is one integer expression and one gcd; the Moebius
image of a direction is the integer vector the numerators give, reduced once.
Sign tests are decided exactly on ints, never through floating point, so sector
classifications downstream carry no tolerance.  The radicand is the one
constant RADICAND.

Directions live on the projective line: either an exact Q(sqrt 2) vector
normalized to (mu, 1) or (+-1, 0), or a floating angle in [0, pi].  The two
horizontal points (1, 0) and (-1, 0) are kept distinct because the
renormalization map in angle coordinates sends 0 to pi.  A chain of matrices
acts on an exact direction as an unnormalized integer vector, kept in the upper
half plane by one sign test per matrix and normalized once at the end.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .symbolic import Record

# the square-free d of the field Q(sqrt d); every product, norm and sign below reads it
RADICAND = 2
SQRT2_FLOAT = math.sqrt(RADICAND)
_ROOT = f"sqrt{RADICAND}"  # the text form of sqrt(d) in scalars' str and parse


class SingularMatrixError(ZeroDivisionError):
    """Inversion of a matrix with zero determinant."""


class Q2Scalar:
    """An element a + b*sqrt(2) of Q(sqrt 2), held as the triple (p + q*sqrt(2)) / d.

    The triple is canonical (d > 0, gcd(p, q, d) = 1), so equal values have equal
    ints.  Immutable, like Fraction: a and b are read-only Fraction properties.
    """

    __slots__ = ("_p", "_q", "_d")

    def __new__(cls, a: int | str | float | Fraction = 0, b: int | str | float | Fraction = 0):
        a, b = Fraction(a), Fraction(b)
        return _reduced(
            a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator
        )

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    def __eq__(self, other) -> bool:
        if isinstance(other, Q2Scalar):
            return self._p == other._p and self._q == other._q and self._d == other._d
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._d))

    def __repr__(self) -> str:
        return f"Q2Scalar(a={self.a!r}, b={self.b!r})"

    # -- ring/field structure ------------------------------------------------

    # each operation coerces only a non-Q2Scalar operand and computes its integer
    # expression in its own frame: exact tracing and the Farey map run on these

    def __add__(self, other: Q2Scalar | int) -> Q2Scalar:
        if other.__class__ is not Q2Scalar:
            other = Q2Scalar(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._p + other._p, self._q + other._q, d)
        return _reduced(self._p * e + other._p * d, self._q * e + other._q * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> Q2Scalar:
        # (-p, -q, d) is canonical when (p, q, d) is: no gcd
        s = object.__new__(Q2Scalar)
        s._p, s._q, s._d = -self._p, -self._q, self._d
        return s

    def __sub__(self, other: Q2Scalar | int) -> Q2Scalar:
        if other.__class__ is not Q2Scalar:
            other = Q2Scalar(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._p - other._p, self._q - other._q, d)
        return _reduced(self._p * e - other._p * d, self._q * e - other._q * d, d * e)

    def __rsub__(self, other: int) -> Q2Scalar:
        return _coerce(other) - self

    def __mul__(self, other: Q2Scalar | int) -> Q2Scalar:
        if other.__class__ is not Q2Scalar:
            other = Q2Scalar(other)
        p, q, r, s = self._p, self._q, other._p, other._q
        return _reduced(p * r + RADICAND * q * s, p * s + q * r, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> Q2Scalar:
        # d / (p + q s) = d (p - q s) / (p^2 - 2 q^2); the norm vanishes only at 0.
        p, q, d = self._p, self._q, self._d
        norm = p * p - RADICAND * q * q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 2)")
        return _reduced(p * d, -q * d, norm)

    def __truediv__(self, other: Q2Scalar | int) -> Q2Scalar:
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other: int) -> Q2Scalar:
        return _coerce(other) / self

    # -- exact order ---------------------------------------------------------

    def sign(self) -> int:
        """Exact sign; d > 0, so it is the sign of p + q*sqrt(2)."""
        return _sign(self._p, self._q)

    def _cmp(self, other: Q2Scalar | int) -> int:
        """Sign of self - other, with no reduction and no intermediate scalar."""
        if other.__class__ is not Q2Scalar:
            other = Q2Scalar(other)
        d, e = self._d, other._d
        if d == e:
            return _sign(self._p - other._p, self._q - other._q)
        return _sign(self._p * e - other._p * d, self._q * e - other._q * d)

    def __lt__(self, other: Q2Scalar | int) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Q2Scalar | int) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Q2Scalar | int) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Q2Scalar | int) -> bool:
        return self._cmp(other) >= 0

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    # -- conversions ---------------------------------------------------------

    def __float__(self) -> float:
        # int true division rounds correctly, as float(Fraction) does
        return self._p / self._d + (self._q / self._d) * SQRT2_FLOAT

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        tail = f"{abs(self.b)}*{_ROOT}"
        if self.a == 0:
            return tail if self.b > 0 else "-" + tail
        op = "+" if self.b > 0 else "-"
        return f"{self.a}{op}{tail}"

    @classmethod
    def parse(cls, text: str) -> Q2Scalar:
        """Parse 'p/q', 'r/s*sqrt2' or 'p/q+r/s*sqrt2': spaces allowed, a sign between parts."""
        m = re.fullmatch(
            r"(?=.)(?P<a>[+-]?\d+(?:/\d+)?(?=[+-]|\Z))?"  # the rational part ends at a sign
            rf"(?:(?P<sign>[+-]?)(?P<coeff>\d+(?:/\d+)?)?\*?{_ROOT})?",
            text.replace(" ", ""),
        )
        if m is None:
            raise ValueError(f"cannot parse Q(sqrt 2) scalar: {text!r}")
        a, sign, coeff = m.group("a", "sign", "coeff")
        b = 0 if sign is None else Fraction(sign + (coeff or "1"))
        return cls(Fraction(a or 0), b)


def _reduced(p: int, q: int, d: int) -> Q2Scalar:
    """The scalar (p + q*sqrt(2)) / d for ints with d != 0, in canonical form."""
    g = math.gcd(p, q, d)
    if d < 0:
        g = -g
    if g != 1:
        p, q, d = p // g, q // g, d // g
    s = object.__new__(Q2Scalar)
    s._p, s._q, s._d = p, q, d
    return s


def _sign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(2) for ints p, q: if their signs differ, the larger square wins."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sq == 0 or sp == sq:
        return sp
    return sp if p * p > RADICAND * q * q else sq


def _coerce(value: Q2Scalar | int | Fraction | float) -> Q2Scalar:
    return value if isinstance(value, Q2Scalar) else Q2Scalar(value)


def _over_one_denominator(scalars) -> tuple[int, list[int]]:
    """(D, [p0, q0, p1, q1, ...]): each scalar as (p + q*sqrt(2)) / D over their least common D.

    Each scalar is canonical, so no prime divides D and every p and q: the
    pairs and D have gcd 1.
    """
    scalars = [_coerce(s) for s in scalars]
    den = math.lcm(*(s._d for s in scalars))
    ints = []
    for s in scalars:
        k = den // s._d
        ints += (s._p * k, s._q * k)
    return den, ints


ZERO = Q2Scalar()
ONE = Q2Scalar(1)
HALF_SQRT2 = Q2Scalar(0, Fraction(1, 2))


class Mat2:
    """A 2x2 matrix; entries are Q2Scalar (exact) or float, uniformly per matrix.

    An exact matrix is held in one-denominator form (see the module docstring):
    `_ints` are the pairs (p, q) of m11, m12, m21, m22 over the one
    denominator `_den`.  Its entries are read as reduced Q2Scalar.  A float
    matrix keeps its entries as given.
    """

    __slots__ = ("_ints", "_den", "_entries", "_floats")

    def __init__(self, m11, m12, m21, m22):
        self._floats = None  # as_floats, filled on first use
        if isinstance(m11, Q2Scalar):
            self._den, ints = _over_one_denominator((m11, m12, m21, m22))
            self._ints, self._entries = tuple(ints), None
        else:
            self._ints, self._den, self._entries = None, None, (m11, m12, m21, m22)

    @classmethod
    def identity(cls) -> Mat2:
        return cls(ONE, ZERO, ZERO, ONE)

    @property
    def is_exact(self) -> bool:
        return self._ints is not None

    m11 = property(lambda self: self.entries()[0])
    m12 = property(lambda self: self.entries()[1])
    m21 = property(lambda self: self.entries()[2])
    m22 = property(lambda self: self.entries()[3])

    def entries(self) -> tuple:
        ints = self._ints
        if ints is None:
            return self._entries
        den = self._den
        return tuple(_reduced(ints[k], ints[k + 1], den) for k in (0, 2, 4, 6))

    def _key(self) -> tuple:
        return self._entries if self._ints is None else (self._ints, self._den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Mat2:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        m11, m12, m21, m22 = self.entries()
        return f"Mat2(m11={m11!r}, m12={m12!r}, m21={m21!r}, m22={m22!r})"

    def det(self):
        m11, m12, m21, m22 = self.entries()
        return m11 * m22 - m12 * m21

    def __matmul__(self, other: Mat2) -> Mat2:
        x, y = self._ints, other._ints
        if x is None or y is None:
            a, b, c, d = self.entries()
            e, f, g, h = other.entries()
            return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        # column by column: the numerators of self times each column of other's
        p11, q11, p12, q12, p21, q21, p22, q22 = y
        c11p, c11q, c21p, c21q = _act(x, p11, q11, p21, q21)
        c12p, c12q, c22p, c22q = _act(x, p12, q12, p22, q22)
        return _mat2((c11p, c11q, c12p, c12q, c21p, c21q, c22p, c22q), self._den * other._den)

    def inverse(self) -> Mat2:
        m11, m12, m21, m22 = self.entries()
        d = self.det()
        if not (d > 0 or d < 0):  # NaN is singular too
            raise SingularMatrixError("matrix has zero determinant")
        return Mat2(m22 / d, -m12 / d, -m21 / d, m11 / d)

    def as_floats(self) -> tuple[float, float, float, float]:
        if self._floats is None:  # the entries are immutable, so their floats are kept
            self._floats = tuple(float(e) for e in self.entries())
        return self._floats

    def to_json(self) -> list:
        """Row-major 4-element array; exact entries in the p/q+r/s*sqrt2 form."""
        return [str(e) if isinstance(e, Q2Scalar) else e for e in self.entries()]

    def apply_vector(self, x, y) -> tuple:
        m11, m12, m21, m22 = self.entries()
        return (m11 * x + m12 * y, m21 * x + m22 * y)


def _mat2(ints: tuple, den: int) -> Mat2:
    """The exact matrix of the pairs `ints` over den > 0, in one-denominator form."""
    g = math.gcd(den, *ints)
    if g != 1:
        ints, den = tuple(v // g for v in ints), den // g
    m = object.__new__(Mat2)
    m._ints, m._den, m._entries, m._floats = ints, den, None, None
    return m


def _act(ints: tuple, xp: int, xq: int, yp: int, yq: int) -> tuple[int, int, int, int]:
    """The numerators of an exact matrix times the vector (xp + xq*sqrt(2), yp + yq*sqrt(2))."""
    a, b, c, d, e, f, g, h = ints
    r = RADICAND
    return (a * xp + r * b * xq + c * yp + r * d * yq, a * xq + b * xp + c * yq + d * yp,
            e * xp + r * f * xq + g * yp + r * h * yq, e * xq + f * xp + g * yq + h * yp)


class ExactDirection(Record):
    """Exact projective direction, normalized to (mu, 1) or to (+-1, 0).

    The horizontal cases keep the sign of x so that the angle 0 (x = +1) stays
    distinct from the angle pi (x = -1); projectively they are the same point.
    """

    __slots__ = _fields = ("x", "y")

    @classmethod
    def from_cot(cls, mu: Q2Scalar | int | Fraction) -> ExactDirection:
        return cls(_coerce(mu), ONE)

    @classmethod
    def horizontal(cls, positive: bool = True) -> ExactDirection:
        """The direction of angle 0 (positive x axis) or pi (negative x axis)."""
        return cls(ONE if positive else -ONE, ZERO)

    @property
    def is_horizontal(self) -> bool:
        return self.y.is_zero()

    def mu(self) -> Q2Scalar:
        """Inverse slope x/y; infinite (undefined) for the horizontal points."""
        if self.is_horizontal:
            raise ZeroDivisionError("horizontal direction has infinite inverse slope")
        return self.x

    def theta(self) -> float:
        if self.is_horizontal:
            return 0.0 if self.x.sign() > 0 else math.pi
        t = math.atan2(float(self.y), float(self.x))
        return t if t >= 0 else t + math.pi

    def angle_key(self):
        """Sort key increasing with the angle in [0, pi]."""
        if self.is_horizontal:
            return (0, ZERO) if self.x.sign() > 0 else (2, ZERO)
        return (1, -self.x)


class ApproxDirection(Record):
    """Floating direction, an angle in [0, pi]."""

    __slots__ = _fields = ("theta",)

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"angle {self.theta} outside [0, pi]")

    def angle_key(self):
        return (1, self.theta)


Direction = ExactDirection | ApproxDirection


def approx_from_exact(d: ExactDirection) -> ApproxDirection:
    """Exact to floating is allowed; the reverse conversion is deliberately absent."""
    return ApproxDirection(d.theta())


def moebius_apply(m: Mat2, d: Direction) -> Direction:
    """Projective action of m on a direction; total, preserves the [0, pi] chart.

    Exact directions require exact matrix entries.  When the image is horizontal
    the sign of the image x coordinate distinguishes angle 0 from angle pi.
    """
    if isinstance(d, ExactDirection):
        ints = m._ints
        if ints is None:
            raise TypeError(_FLOAT_MATRIX)
        # the numerators times (x, y) scaled by x.d y.d > 0: the image, scaled by D x.d y.d
        x, y = d.x, d.y
        return _direction(*_act(ints, x._p * y._d, x._q * y._d, y._p * x._d, y._q * x._d))
    a, b, c, e = m.as_floats()
    vx, vy = math.cos(d.theta), math.sin(d.theta)
    wx, wy = a * vx + b * vy, c * vx + e * vy
    if wy < 0.0:
        wx, wy = -wx, -wy
    t = math.atan2(wy, wx)
    return ApproxDirection(t if t >= 0 else t + math.pi)


def moebius_chain(matrices, d: ExactDirection) -> ExactDirection:
    """The exact direction moebius_apply gives for each matrix in turn, first to last.

    The direction goes through the chain as one integer vector over Z[sqrt 2],
    not normalized or reduced between matrices: each step only turns it into the
    upper half plane (one exact sign), which keeps the sign of a horizontal image
    as moebius_apply's normalized (+-1, 0) would.  It is normalized and reduced
    once at the end.
    """
    xp, xq, yp, yq = _vector(d)
    for m in matrices:
        xp, xq, yp, yq = _act(_exact_ints(m), xp, xq, yp, yq)
        if _sign(yp, yq) < 0:
            xp, xq, yp, yq = -xp, -xq, -yp, -yq
    return _direction(xp, xq, yp, yq)


# the one refusal of a float matrix acting on an exact direction
_FLOAT_MATRIX = "exact direction needs a matrix with Q(sqrt 2) entries"


def _exact_ints(m: Mat2) -> tuple:
    """The numerators of m, refusing a float matrix."""
    if m._ints is None:
        raise TypeError(_FLOAT_MATRIX)
    return m._ints


def _vector(d: ExactDirection) -> tuple[int, int, int, int]:
    """(x, y) scaled by x.d y.d > 0: a vector (xp + xq*sqrt(2), yp + yq*sqrt(2)) on ints."""
    x, y = d.x, d.y
    return x._p * y._d, x._q * y._d, y._p * x._d, y._q * x._d


def _direction(xp: int, xq: int, yp: int, yq: int) -> ExactDirection:
    """The direction of the vector (xp + xq*sqrt(2), yp + yq*sqrt(2)).

    (x / y, 1), or (+-1, 0) by the sign of x.
    """
    if yp == 0 and yq == 0:
        sx = _sign(xp, xq)
        if sx == 0:
            raise ValueError("zero vector does not define a direction")
        return ExactDirection.horizontal(sx > 0)
    # x / y = x conj(y) / N(y), and _reduced makes the denominator positive
    r = RADICAND
    mu = _reduced(xp * yp - r * xq * yq, xq * yp - xp * yq, yp * yp - r * yq * yq)
    return ExactDirection(mu, ONE)


def direction_theta(d: Direction) -> float:
    return d.theta() if isinstance(d, ExactDirection) else d.theta
