"""Regular 2n-gon geometry: labelled sides, dihedral isometries, Veech shear.

The polygon has 2n unit sides, is centered at the origin and carries its first
side horizontally on top, vertices numbered clockwise from the top left.
Opposite sides are parallel, carry the same letter and are identified by the
translation through twice the side midpoint.

Every exact quantity is read from one table, cos and sin of j pi / 4 in
Q(sqrt 2): the vertices (vertex 0 turned clockwise by k pi / n), the dihedral
isometries, the sector bounds cot(k pi / 2n) and the shear.  `is_exact(n)` is
the one test of whether the table covers n (the square and the octagon); for
every other n the same quantities are floats.  `sector_boundary` is the one
source of the sector ends, exact or float, that the Farey map reads.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

from .exact_arith import HALF_SQRT2, ONE, ZERO, ApproxDirection, ExactDirection, Mat2, Q2Scalar
from .symbolic import (
    CutseqError,
    InvalidN,  # cutseq exports it from here
    LetterPermutation,
    Record,
    check_n,
    check_sector,
    letter_at,
    letters_for,
)

CONSTRUCTION_TOL = 1e-12


# -- the exact trig table ------------------------------------------------------

_H = HALF_SQRT2
# (cos, sin) of j pi / 4 for j = 0..7; the square (n = 2) reads every other entry
_COS_SIN_PI_4 = (
    (ONE, ZERO), (_H, _H), (ZERO, ONE), (-_H, _H),
    (-ONE, ZERO), (-_H, -_H), (ZERO, -ONE), (_H, -_H),
)


# the one refusal of exact work where is_exact(n) fails
_NO_EXACT = "exact coordinates need n in {2, 4}"


def is_exact(n: int) -> bool:
    """Whether the 2n-gon's coordinates lie in Q(sqrt 2), i.e. n in {2, 4}."""
    return n in (2, 4)


def _unit(k: int, n: int) -> tuple:
    """(cos k pi / n, sin k pi / n): exact Q(sqrt 2) scalars when is_exact(n)."""
    if is_exact(n):
        return _COS_SIN_PI_4[k * (4 // n) % 8]
    return math.cos(k * math.pi / n), math.sin(k * math.pi / n)


def _outward(x, y, a, b):
    """Offset of (x, y) along the outward (left, the polygon is clockwise) normal of side a -> b."""
    (ax, ay), (bx, by) = a, b
    return (x - ax) * (ay - by) + (y - ay) * (bx - ax)


class LabeledPolygon(Record):
    """A labelled regular 2n-gon with opposite sides identified."""

    __slots__ = _fields = ("n", "vertices", "exact_vertices")  # exact_vertices: None unless exact

    @property
    def side_count(self) -> int:
        return 2 * self.n

    def letter(self, side: int) -> str:
        return letter_at(side % self.n + 1)

    def side_endpoints(self, side: int) -> tuple[tuple[float, float], tuple[float, float]]:
        v = self.vertices
        return v[side], v[(side + 1) % (2 * self.n)]

    def side_midpoint(self, side: int) -> tuple[float, float]:
        (ax, ay), (bx, by) = self.side_endpoints(side)
        return ((ax + bx) / 2.0, (ay + by) / 2.0)

    def exact_side_endpoints(self, side: int):
        v = self.exact_vertices
        if v is None:
            raise CutseqError(_NO_EXACT)
        return v[side], v[(side + 1) % (2 * self.n)]

    def contains(self, x: float, y: float, margin: float = 0.0) -> bool:
        """Interior test (convexity): inside every outward half-plane by margin; NaN is outside."""
        return all(_outward(x, y, *self.side_endpoints(k)) < -margin for k in range(2 * self.n))

    def contains_exact(self, x: Q2Scalar, y: Q2Scalar) -> bool:
        return all(
            _outward(x, y, *self.exact_side_endpoints(k)).sign() < 0 for k in range(2 * self.n)
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertices": [[vx, vy] for vx, vy in self.vertices],
            "side_labels": {str(k): self.letter(k) for k in range(2 * self.n)},
            "exact_vertices": None
            if self.exact_vertices is None
            else [[str(vx), str(vy)] for vx, vy in self.exact_vertices],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


@lru_cache(maxsize=None)
def build_polygon(n: int) -> LabeledPolygon:
    """Regular 2n-gon with unit sides, horizontal top side, clockwise labels."""
    letters_for(n)  # n in 2..26: check_n, then the alphabet's bound
    radius = 1.0 / (2.0 * math.sin(math.pi / (2 * n)))
    verts = []
    for k in range(2 * n):
        phi = math.pi / 2 + math.pi / (2 * n) - k * math.pi / n
        verts.append((radius * math.cos(phi), radius * math.sin(phi)))
    exact = None
    if is_exact(n):
        # vertex 0 is (-1/2, apothem); vertex k is vertex 0 turned clockwise by k pi / n
        x0, y0 = -ONE / 2, cot_half_sector(n) / 2
        exact = tuple(
            (x0 * c + y0 * s, y0 * c - x0 * s) for c, s in (_unit(k, n) for k in range(2 * n))
        )
    poly = LabeledPolygon(n, tuple(verts), exact)
    for k in range(2 * n):
        (ax, ay), (bx, by) = poly.side_endpoints(k)
        length = math.hypot(bx - ax, by - ay)
        if abs(length - 1.0) > CONSTRUCTION_TOL:
            raise AssertionError(f"side {k} has length {length}")
    return poly


# -- dihedral isometries -----------------------------------------------------


@lru_cache(maxsize=None)
def isometry_nu(i: int, n: int) -> Mat2:
    """The dihedral element carrying the closed sector i onto the closed sector 0.

    Even indices 2k are the clockwise rotations by k pi / n, odd indices 2k+1
    the reflections in the line of angle (k+1) pi / 2n.  Exact entries when
    is_exact(n), floats otherwise.
    """
    check_n(n)
    check_sector(i, n)
    k = i // 2
    if i % 2 == 0:
        c, s = _unit(k, n)
        return Mat2(c, s, -s, c)
    c, s = _unit(k + 1, n)
    return Mat2(c, s, s, -c)


@lru_cache(maxsize=None)
def induced_permutation(i: int, n: int) -> LetterPermutation:
    """Letter permutation induced by isometry i, computed geometrically.

    Each side midpoint is mapped through the matrix and located among the side
    midpoints (up to the central symmetry identifying opposite sides); the
    letter of the source pair goes to the letter of the image pair.  Exact
    coordinates are matched by equality, floats within 1e-9.
    """
    poly = build_polygon(n)
    nu = isometry_nu(i, n)
    exact = is_exact(n)
    verts = poly.exact_vertices if exact else poly.vertices
    ends = zip(verts, verts[1:] + verts[:1])
    mids = [((ax + bx) / 2, (ay + by) / 2) for (ax, ay), (bx, by) in ends]
    images: list[str] = [""] * n
    for j in range(n):
        image = nu.apply_vector(*mids[j])
        for k, mid in enumerate(mids):
            if image == mid if exact else math.dist(image, mid) < 1e-9:
                images[j] = poly.letter(k)
                break
        else:
            raise AssertionError("isometry does not permute the sides")
    return LetterPermutation(tuple(images))


def cot_half_sector(n: int):
    """cot(pi / 2n): exact 1 + sqrt 2 for the octagon, 1 for the square."""
    return sector_cot_bounds(n)[0]


@lru_cache(maxsize=None)
def veech_elements(n: int) -> tuple[Mat2, Mat2]:
    """The parabolic shear sigma and the affine reflection gamma = sigma o (vertical flip).

    sigma = (1, 2 cot(pi/2n); 0, 1) twists the horizontal cylinder decomposition;
    gamma = (-1, 2 cot(pi/2n); 0, 1) is an involution and satisfies
    gamma @ nu_(2n-1) = sigma.
    """
    check_n(n)
    one, zero = _unit(0, n)
    two_c = 2 * cot_half_sector(n)
    sigma = Mat2(one, two_c, zero, one)
    gamma = Mat2(-one, two_c, zero, one)
    return sigma, gamma


# -- sectors -----------------------------------------------------------------


@lru_cache(maxsize=None)
def sector_cot_bounds(n: int) -> tuple:
    """cot(k pi / 2n) for k = 1..2n-1, decreasing; exactly sin t / (1 - cos t), t = k pi / n,
    when is_exact(n)."""
    check_n(n)
    if is_exact(n):
        return tuple(s / (1 - c) for c, s in (_unit(k, n) for k in range(1, 2 * n)))
    return tuple(1.0 / math.tan(k * math.pi / (2 * n)) for k in range(1, 2 * n))


def sector_boundary(k: int, n: int):
    """The direction of angle k pi / 2n, 0 <= k <= 2n: (1, 0), (cot k pi / 2n, 1) and (-1, 0)
    when is_exact(n), else the float angle, exactly pi at k = 2n."""
    if is_exact(n):
        if 0 < k < 2 * n:
            return ExactDirection.from_cot(sector_cot_bounds(n)[k - 1])
        return ExactDirection.horizontal(k == 0)
    check_n(n)
    return ApproxDirection(math.pi if k == 2 * n else k * (math.pi / (2 * n)))


def sector_of(d, n: int) -> int:
    """Index i of the half-open sector [i pi/2n, (i+1) pi/2n) holding d.

    The last sector is closed so that the angle pi lands in sector 2n-1; the
    angle 0 is in sector 0.  Exact directions are classified by exact inverse
    slope comparisons.
    """
    if n < 2:  # one comparison on the hot Farey step; check_n holds the refusal
        check_n(n)
    if isinstance(d, ExactDirection):
        if not is_exact(n):
            raise CutseqError(_NO_EXACT)
        if d.is_horizontal:
            return 0 if d.x.sign() > 0 else 2 * n - 1
        mu = d.mu()
        for i, bound in enumerate(sector_cot_bounds(n)):
            if mu > bound:
                return i
        return 2 * n - 1
    theta = d.theta if isinstance(d, ApproxDirection) else float(d)
    i = int(math.floor(theta * (2 * n) / math.pi))
    return min(max(i, 0), 2 * n - 1)
