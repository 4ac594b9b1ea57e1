"""Exact arithmetic in Q(sqrt 2) and the projective action of 2x2 matrices on directions.

A scalar a + b*sqrt(2) is held as three Python ints (p, q, d) with value
(p + q*sqrt(2)) / d, d > 0 and gcd(p, q, d) = 1.  The Moebius image of an exact
direction and each entry of an exact matrix product are formed on integer
cross-products and reduced once per result, not once per scalar step.  Sign
tests are decided exactly on integer cross-products, never through floating
point, so sector classifications downstream carry no tolerance.  Directions live on
the projective line: either an exact Q(sqrt 2) vector normalized to (mu, 1) or
(+-1, 0), or a floating angle in [0, pi].  The two horizontal points (1, 0) and
(-1, 0) are kept distinct because the renormalization map in angle coordinates
sends 0 to pi.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

SQRT2_FLOAT = math.sqrt(2.0)


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

    def _cross(self, o: Q2Scalar, s: int) -> tuple[int, int, int]:
        """The unreduced triple of self + s * o for s = +-1, by integer cross-products."""
        d, e = self._d, o._d
        if d == e:
            return self._p + s * o._p, self._q + s * o._q, d
        return self._p * e + s * o._p * d, self._q * e + s * o._q * d, d * e

    def __add__(self, other: Q2Scalar | int) -> Q2Scalar:
        return _reduced(*self._cross(_coerce(other), 1))

    __radd__ = __add__

    def __neg__(self) -> Q2Scalar:
        return _reduced(-self._p, -self._q, self._d)

    def __sub__(self, other: Q2Scalar | int) -> Q2Scalar:
        return _reduced(*self._cross(_coerce(other), -1))

    def __rsub__(self, other: int) -> Q2Scalar:
        return _coerce(other) - self

    def __mul__(self, other: Q2Scalar | int) -> Q2Scalar:
        o = _coerce(other)
        p, q, r, s = self._p, self._q, o._p, o._q
        return _reduced(p * r + 2 * q * s, p * s + q * r, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> Q2Scalar:
        # d / (p + q s) = d (p - q s) / (p^2 - 2 q^2); the norm vanishes only at 0.
        p, q, d = self._p, self._q, self._d
        norm = p * p - 2 * q * q
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
        p, q, _ = self._cross(_coerce(other), -1)
        return _sign(p, q)

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
        tail = f"{abs(self.b)}*sqrt2"
        if self.a == 0:
            return tail if self.b > 0 else "-" + tail
        op = "+" if self.b > 0 else "-"
        return f"{self.a}{op}{tail}"

    @classmethod
    def parse(cls, text: str) -> Q2Scalar:
        """Parse 'p/q', 'r/s*sqrt2' or 'p/q+r/s*sqrt2': spaces allowed, a sign between parts."""
        m = re.fullmatch(
            r"(?=.)(?P<a>[+-]?\d+(?:/\d+)?(?=[+-]|\Z))?"  # the rational part ends at a sign
            r"(?:(?P<sign>[+-]?)(?P<coeff>\d+(?:/\d+)?)?\*?sqrt2)?",
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
    return sp if p * p > 2 * q * q else sq


def _dot(x: Q2Scalar, y: Q2Scalar, z: Q2Scalar, w: Q2Scalar) -> tuple[int, int, int]:
    """The unreduced triple of x*y + z*w, by integer cross-products."""
    p, q, r, s = x._p, x._q, y._p, y._q
    f, g = p * r + 2 * q * s, p * s + q * r
    p, q, r, s = z._p, z._q, w._p, w._q
    h, k = p * r + 2 * q * s, p * s + q * r
    d, e = x._d * y._d, z._d * w._d
    if d == e:
        return f + h, g + k, d
    return f * e + h * d, g * e + k * d, d * e


def _coerce(value: Q2Scalar | int | Fraction | float) -> Q2Scalar:
    return value if isinstance(value, Q2Scalar) else Q2Scalar(value)


ZERO = Q2Scalar()
ONE = Q2Scalar(1)
HALF_SQRT2 = Q2Scalar(0, Fraction(1, 2))


def _sign_of(value) -> int:
    if isinstance(value, Q2Scalar):
        return value.sign()
    return (value > 0) - (value < 0)


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix; entries are Q2Scalar (exact) or float, uniformly per matrix."""

    m11: object
    m12: object
    m21: object
    m22: object

    @classmethod
    def identity(cls) -> Mat2:
        return cls(ONE, ZERO, ZERO, ONE)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.m11, Q2Scalar)

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def __matmul__(self, other: Mat2) -> Mat2:
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        if self.is_exact and other.is_exact:  # each entry reduced once
            return Mat2(
                _reduced(*_dot(a, e, b, g)), _reduced(*_dot(a, f, b, h)),
                _reduced(*_dot(c, e, d, g)), _reduced(*_dot(c, f, d, h)),
            )
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> Mat2:
        d = self.det()
        if _sign_of(d) == 0:
            raise SingularMatrixError("matrix has zero determinant")
        return Mat2(self.m22 / d, -self.m12 / d, -self.m21 / d, self.m11 / d)

    def entries(self) -> tuple:
        return (self.m11, self.m12, self.m21, self.m22)

    def as_floats(self) -> tuple[float, float, float, float]:
        return tuple(float(e) for e in self.entries())

    def to_json(self) -> list:
        """Row-major 4-element array; exact entries in the p/q+r/s*sqrt2 form."""
        return [str(e) if isinstance(e, Q2Scalar) else e for e in self.entries()]

    def apply_vector(self, x, y) -> tuple:
        return (self.m11 * x + self.m12 * y, self.m21 * x + self.m22 * y)


@dataclass(frozen=True)
class ExactDirection:
    """Exact projective direction, normalized to (mu, 1) or to (+-1, 0).

    The horizontal cases keep the sign of x so that the angle 0 (x = +1) stays
    distinct from the angle pi (x = -1); projectively they are the same point.
    """

    x: Q2Scalar
    y: Q2Scalar

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


@dataclass(frozen=True)
class ApproxDirection:
    """Floating direction, an angle in [0, pi]."""

    theta: float

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
        if not m.is_exact:
            raise TypeError("exact direction needs a matrix with Q(sqrt 2) entries")
        # the image (X, Y) = ((xp + xq sqrt2) / e, (yp + yq sqrt2) / f), e, f > 0
        xp, xq, e = _dot(m.m11, d.x, m.m12, d.y)
        yp, yq, f = _dot(m.m21, d.x, m.m22, d.y)
        if yp == 0 and yq == 0:
            sx = _sign(xp, xq)
            if sx == 0:
                raise ValueError("zero vector does not define a direction")
            return ExactDirection.horizontal(sx > 0)
        # mu = X / Y = f X conj(Y) / (e N(Y)), and _reduced makes the denominator positive
        p, q = f * (xp * yp - 2 * xq * yq), f * (xq * yp - xp * yq)
        return ExactDirection(_reduced(p, q, e * (yp * yp - 2 * yq * yq)), ONE)
    a, b, c, e = m.as_floats()
    vx, vy = math.cos(d.theta), math.sin(d.theta)
    wx, wy = a * vx + b * vy, c * vx + e * vy
    if wy < 0.0:
        wx, wy = -wx, -wy
    t = math.atan2(wy, wx)
    return ApproxDirection(t if t >= 0 else t + math.pi)


def direction_theta(d: Direction) -> float:
    return d.theta() if isinstance(d, ExactDirection) else d.theta
