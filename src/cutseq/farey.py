"""Piecewise renormalization map on directions and its additive continued fraction.

The map acts on the projective directions [0, pi]: on the closed sector i it is
the fractional-linear action of gamma @ nu_i, where nu_i renormalizes the sector
to sector 0 and gamma is the affine reflection.  All branches send their sector
onto [pi/2n, pi], so itinerary entries after the first are never 0; an itinerary
read off the half-open sectors is the additive continued fraction expansion of
the direction.  The two indifferent fixed points are pi/2n (branch 1) and pi
(branch 2n-1); expansions with an eventually constant tail at those branches
are the terminating directions, whose trajectories are periodic.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact_arith import (
    Direction,
    ExactDirection,
    Mat2,
    direction_theta,
    moebius_apply,
    moebius_chain,
)
from .polygon import isometry_nu, sector_boundary, sector_of, veech_elements
from .symbolic import CutseqError, Record, _setfield, check_count


class InvalidPrefixError(CutseqError):
    """An expansion prefix violating the admissible-entry constraints."""


class FareyBranch(Record):
    """One branch: sector index and acting matrix."""

    __slots__ = _fields = ("sector", "matrix")

    def __init__(self, sector: int, matrix: Mat2) -> None:
        _setfield(self, "sector", sector)
        _setfield(self, "matrix", matrix)


@lru_cache(maxsize=None)
def farey_branch(i: int, n: int) -> FareyBranch:
    _, gamma = veech_elements(n)
    return FareyBranch(i, gamma @ isometry_nu(i, n))


def farey_apply(d: Direction, n: int) -> tuple[Direction, int]:
    """One step of the renormalization map; returns the image and the sector used."""
    sector = sector_of(d, n)
    return moebius_apply(farey_branch(sector, n).matrix, d), sector


def itinerary(d: Direction, n: int, depth: int) -> tuple[int, ...]:
    """Sector indices of d, F(d), F^2(d), ... with half-open sector convention."""
    check_count(depth, "depth")
    out = []
    cur = d
    for _ in range(depth):
        cur, sector = farey_apply(cur, n)
        out.append(sector)
    return tuple(out)


# -- expansions ---------------------------------------------------------------


class Expansion(Record):
    """An additive continued fraction expansion: entries plus an optional constant tail.

    tail, when set, must be 1 or 2n-1 and means the entries continue with that
    value forever.
    """

    __slots__ = _fields = ("n", "entries", "tail")

    def __init__(self, n: int, entries: tuple[int, ...], tail: int | None = None) -> None:
        if tail is not None and tail not in (1, 2 * n - 1):
            raise CutseqError(f"constant tail must be 1 or {2 * n - 1}")
        _setfield(self, "n", n)
        _setfield(self, "entries", entries)
        _setfield(self, "tail", tail)

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

    def __init__(self, lo: Direction, hi: Direction, prefix: tuple[int, ...], n: int) -> None:
        _setfield(self, "lo", lo)
        _setfield(self, "hi", hi)
        _setfield(self, "prefix", prefix)
        _setfield(self, "n", n)

    def theta_bounds(self) -> tuple[float, float]:
        return direction_theta(self.lo), direction_theta(self.hi)

    def contains_theta(self, theta: float, slack: float = 1e-12) -> bool:
        a, b = self.theta_bounds()
        return a - slack <= theta <= b + slack


def _order(a: Direction, b: Direction) -> tuple[Direction, Direction]:
    """(a, b) by increasing angle.

    Off the horizontal the angle falls as cot = x grows, so two such exact
    directions compare their x directly, without angle_key's negated scalar.
    """
    if (
        isinstance(a, ExactDirection)
        and isinstance(b, ExactDirection)
        and not (a.is_horizontal or b.is_horizontal)
    ):
        return (a, b) if b.x <= a.x else (b, a)
    return (a, b) if a.angle_key() <= b.angle_key() else (b, a)


@lru_cache(maxsize=None)
def _inverse_branch(i: int, n: int) -> Mat2:
    return farey_branch(i, n).matrix.inverse()


def sector_interval(prefix: tuple[int, ...] | list[int], n: int = 4) -> SectorInterval:
    """Directions whose expansion starts with the given prefix.

    The innermost sector is pulled back through the inverse branches of the
    remaining entries; nesting under prefix extension is automatic because each
    pullback lands inside its branch's sector.  Exact ends are pulled back as
    integer vectors (`moebius_chain`), normalized and ordered once.
    """
    prefix = tuple(prefix)
    _check_prefix(prefix, n)
    lo, hi = _sector_endpoints(prefix[-1], n)
    inverses = _inverse_branches(prefix[:-1], n)
    lo, hi = _order(moebius_chain(inverses, lo), moebius_chain(inverses, hi))
    return SectorInterval(lo, hi, prefix, n)


def _inverse_branches(entries: tuple[int, ...], n: int) -> list[Mat2]:
    """The inverse branches of the entries, last entry first: the order they pull back in."""
    return [_inverse_branch(entry, n) for entry in reversed(entries)]


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
        point = moebius_chain(_inverse_branches(exp.entries, n), fixed_point(exp.tail, n))
        return SectorInterval(point, point, exp.prefix(depth), n)
    return sector_interval(exp.prefix(depth), n)


# -- terminating directions ---------------------------------------------------


class TerminationResult(Record):
    __slots__ = _fields = ("terminating", "certainty", "tail", "depth", "itinerary")

    def __init__(self, terminating: bool, certainty: str, tail: int | None, depth: int,
                 itinerary: tuple[int, ...]) -> None:
        _setfield(self, "terminating", terminating)
        _setfield(self, "certainty", certainty)  # "exact" | "heuristic" | "bounded"
        _setfield(self, "tail", tail)
        _setfield(self, "depth", depth)
        _setfield(self, "itinerary", itinerary)


def is_terminating(d: Direction, n: int, max_depth: int) -> TerminationResult:
    """Detect an eventually constant expansion tail within max_depth steps.

    Exact directions (n in {2, 4}) give a proof: the orbit lands exactly on a
    branch fixed point.  Floating directions are judged heuristically by a
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
