"""Piecewise renormalization map on directions and its additive continued fraction.

The map acts on the projective directions [0, pi]: on the closed sector i it is
the fractional-linear action of the one matrix gamma @ nu_i (`farey_branch`),
where nu_i renormalizes the sector to sector 0 and gamma is the affine
reflection.  All branches send their sector onto [pi/2n, pi], so itinerary
entries after the first are never 0, and the inverse of branch i sends the two
range ends to the two ends of sector i: float cylinder ends that are range ends
are pulled back by that rule, onto the sector boundaries themselves.  An itinerary
read off the half-open sectors is the additive continued fraction expansion of
the direction.  The two indifferent fixed points are pi/2n (branch 1) and pi
(branch 2n-1); expansions with an eventually constant tail at those branches
are the terminating directions, whose trajectories are periodic.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact_arith import (
    ApproxDirection,
    Direction,
    ExactDirection,
    Mat2,
    direction_theta,
    moebius_apply,
    moebius_chain,
)
from .polygon import isometry_nu, sector_boundary, sector_of, veech_elements
from .symbolic import CutseqError, Record, check_count


class InvalidPrefixError(CutseqError):
    """An expansion prefix violating the admissible-entry constraints."""


@lru_cache(maxsize=None)
def farey_branch(i: int, n: int) -> Mat2:
    """The matrix gamma @ nu_i by which the map acts on sector i."""
    _, gamma = veech_elements(n)
    return gamma @ isometry_nu(i, n)


def farey_apply(d: Direction, n: int) -> tuple[Direction, int]:
    """One step of the renormalization map; returns the image and the sector used.

    Every branch maps onto [pi/2n, pi], so a float image is read by `_in_range`.
    """
    sector = sector_of(d, n)
    return _in_range(moebius_apply(farey_branch(sector, n), d), n), sector


def _in_range(image: Direction, n: int) -> Direction:
    """A direction in [pi/2n, pi]: a float one below pi/2n rounded off an end, read as it.

    The end is pi/2n, or pi across the 0|pi seam to near 0: where a branch fixes
    the horizontal, its lower-left entry (0 exactly) rounds to a few 1e-16, and
    if that outweighs sin(pi) ~ 1.2e-16 with the other sign, pi's image has y < 0.
    """
    if isinstance(image, ApproxDirection) and image.theta < math.pi / (2 * n):
        return ApproxDirection(math.pi if image.theta < math.pi / (4 * n) else math.pi / (2 * n))
    return image


def itinerary(d: Direction, n: int, depth: int) -> tuple[int, ...]:
    """Sector indices of d, F(d), F^2(d), ... with half-open sector convention.

    They are read off the walk of `is_terminating`: an exact orbit stops there
    at a branch fixed point, whose branch repeats for the rest of the depth.
    """
    check_count(depth, "depth")
    term = is_terminating(d, n, depth)
    return Expansion(n, term.itinerary, term.tail).prefix(depth)


# -- expansions ---------------------------------------------------------------


class Expansion(Record):
    """An additive continued fraction expansion: entries plus an optional constant tail.

    tail, when set, must be 1 or 2n-1 and means the entries continue with that
    value forever.
    """

    __slots__ = _fields = ("n", "entries", "tail")
    _defaults = (None,)

    def __post_init__(self) -> None:
        if self.tail is not None and self.tail not in (1, 2 * self.n - 1):
            raise CutseqError(f"constant tail must be 1 or {2 * self.n - 1}")

    @property
    def in_s_star(self) -> bool:
        """The entry rule of S*: a first entry in 0..2n-1, every later one in 1..2n-1."""
        top, entries = 2 * self.n - 1, self.entries
        return all(0 < e <= top for e in entries[1:]) and (not entries or 0 <= entries[0] <= top)

    @property
    def is_sector_sequence(self) -> bool:
        """Realizable as an itinerary: tail 1 needs an odd predecessor, tail 2n-1 an even one.

        The predecessor is the last entry before the constant tail begins (the
        entries are first canonicalized by absorbing trailing tail values).
        """
        if not self.in_s_star:
            return False
        if self.tail is None:
            return True
        entries = list(self.entries)
        while entries and entries[-1] == self.tail:
            entries.pop()
        if not entries:
            return True
        prev = entries[-1]
        if self.tail == 1:
            return prev % 2 == 1
        return prev % 2 == 0 and prev != 0

    def prefix(self, depth: int) -> tuple[int, ...]:
        if depth < 0:
            raise CutseqError("depth must be >= 0")
        if depth <= len(self.entries):
            return self.entries[:depth]
        if self.tail is None:
            raise CutseqError(f"expansion has only {len(self.entries)} entries")
        return self.entries + (self.tail,) * (depth - len(self.entries))


def _check_prefix(prefix: tuple[int, ...], n: int) -> None:
    if not prefix:
        raise InvalidPrefixError("empty prefix")
    if not Expansion(n, prefix).in_s_star:
        raise InvalidPrefixError(f"prefix {prefix} violates the entry constraints")


def _sector_endpoints(i: int, n: int) -> tuple[Direction, Direction]:
    return sector_boundary(i, n), sector_boundary(i + 1, n)


class SectorInterval(Record):
    """Closed interval of directions cut out by an expansion prefix."""

    __slots__ = _fields = ("lo", "hi", "prefix", "n")

    def theta_bounds(self) -> tuple[float, float]:
        return direction_theta(self.lo), direction_theta(self.hi)

    def contains_theta(self, theta: float, slack: float = 1e-12) -> bool:
        a, b = self.theta_bounds()
        return a - slack <= theta <= b + slack


def _order(a: Direction, b: Direction) -> tuple[Direction, Direction]:
    """(a, b) by increasing angle."""
    return (a, b) if a.angle_key() <= b.angle_key() else (b, a)


@lru_cache(maxsize=None)
def _inverse_branch(i: int, n: int) -> Mat2:
    return farey_branch(i, n).inverse()


def sector_interval(prefix: tuple[int, ...] | list[int], n: int = 4) -> SectorInterval:
    """Directions whose expansion starts with the given prefix.

    The innermost sector is pulled back through the inverse branches of the
    remaining entries; nesting under prefix extension is automatic because each
    pullback lands inside its branch's sector.  The two ends are pulled back
    (`_pull_back`) and ordered once.
    """
    prefix = tuple(prefix)
    _check_prefix(prefix, n)
    lo, hi = _sector_endpoints(prefix[-1], n)
    lo, hi = _order(_pull_back(prefix[:-1], lo, n), _pull_back(prefix[:-1], hi, n))
    return SectorInterval(lo, hi, prefix, n)


def _pull_back(entries: tuple[int, ...], d: Direction, n: int) -> Direction:
    """d pulled back through the inverse branches of the entries, last entry first.

    An exact direction goes through `moebius_chain` as one integer vector.  A
    float one goes one branch at a time.  Branch e maps sector e onto [pi/2n, pi],
    so its inverse maps the range end pi/2n to the sector boundary e | 1 and pi
    to the boundary 2e + 1 - (e | 1), the two ends of sector e.  While d is one of
    the range ends it is pulled back by that rule, to the float boundary itself:
    a Moebius image would land a few ulps off, and the image of pi through branch
    2n-1 could wrap across the 0|pi seam to near 0.
    """
    if isinstance(d, ExactDirection):
        return moebius_chain([_inverse_branch(entry, n) for entry in reversed(entries)], d)
    low, high = sector_boundary(1, n), sector_boundary(2 * n, n)
    for entry in reversed(entries):
        if d == low or d == high:
            k = entry | 1
            d = sector_boundary(k if d == low else 2 * entry + 1 - k, n)
        else:
            d = moebius_apply(_inverse_branch(entry, n), d)
    return d


def fixed_point(tail: int, n: int) -> Direction:
    """The direction fixed by branch 1 (angle pi/2n) or branch 2n-1 (angle pi)."""
    if tail not in (1, 2 * n - 1):
        raise CutseqError(f"no fixed branch with index {tail}")
    return sector_boundary(1 if tail == 1 else 2 * n, n)


def direction_from_expansion(exp: Expansion, depth: int) -> SectorInterval:
    """Interval after `depth` entries; exact fixed-point preimage for constant tails.

    With a constant tail the interval is degenerate: the direction is the
    pullback of the branch fixed point through the inverse branches of the
    explicit entries.
    """
    n = exp.n
    if not exp.in_s_star:
        raise InvalidPrefixError(f"expansion {exp.entries} (tail {exp.tail}) not valid")
    if exp.tail is not None:
        point = _pull_back(exp.entries, fixed_point(exp.tail, n), n)
        return SectorInterval(point, point, exp.prefix(depth), n)
    return sector_interval(exp.prefix(depth), n)


# -- terminating directions ---------------------------------------------------


class TerminationResult(Record):
    # certainty: "exact" | "heuristic" | "bounded"
    __slots__ = _fields = ("terminating", "certainty", "tail", "depth", "itinerary")


def is_terminating(d: Direction, n: int, max_depth: int) -> TerminationResult:
    """Detect an eventually constant expansion tail within max_depth steps.

    This is the one walk of the Farey map; `itinerary` reads its entries.
    Exact directions (n in {2, 4}) give a proof: the orbit lands exactly on a
    branch fixed point, and the walk stops there, `depth` steps in.  Floating
    directions walk all max_depth steps and are judged heuristically by a
    constant run over the last 10 sampled entries that sits on that fixed point.
    """
    check_count(max_depth, "max_depth")
    exact = isinstance(d, ExactDirection)
    fixed = {fixed_point(tail, n): tail for tail in (1, 2 * n - 1)}
    entries: list[int] = []
    cur = d
    for k in range(max_depth):
        if exact and cur in fixed:
            return TerminationResult(True, "exact", fixed[cur], k, tuple(entries))
        cur, sector = farey_apply(cur, n)
        entries.append(sector)
    if not exact and len(entries) >= 10:
        # Constant final entries alone prove nothing: generic orbits routinely
        # ride a parabolic fixed point for dozens of steps before escaping.
        # A terminating direction is pinned by actually sitting on the fixed
        # point to machine precision, where the escape time is astronomical.
        window = entries[-10:]
        tail = window[0]
        if all(e == tail for e in window) and tail in (1, 2 * n - 1):
            if abs(direction_theta(cur) - direction_theta(fixed_point(tail, n))) < 1e-12:
                return TerminationResult(True, "heuristic", tail, max_depth, tuple(entries))
    return TerminationResult(False, "bounded", None, max_depth, tuple(entries))


# -- the classical square map (demo) -------------------------------------------


def square_farey(t):
    """The classical map t/(1-t) on [0, 1/2] and (1-t)/t on [1/2, 1]."""
    if not 0 <= t <= 1:
        raise CutseqError("argument must lie in [0, 1]")
    if 2 * t <= 1:  # exact for Fractions, and for floats in [0, 1] too
        return t / (1 - t)
    return (1 - t) / t


def square_coordinate(theta: float) -> float:
    """Radial projection of a first-quadrant angle to the line x + y = 1."""
    return math.sin(theta) / (math.cos(theta) + math.sin(theta))
