"""Trace linear trajectories on the identified polygon; periodicity; SVG plots.

A trajectory travels in a fixed direction, and on hitting a side re-enters at
the corresponding point of the opposite side (translation by twice the side
midpoint, toward the center).  One tracer follows this boundary map as an
interval exchange T on the coordinate s transverse to the direction, over
floats (a vertex hit is within epsilon of a vertex) or over exact Q(sqrt 2)
coordinates for n in {2, 4} (a vertex hit is exact).  Its set-up reads the
polygon's side table (vertex a, edge e, shift t per side) and forms only
sigma = e x v per side, a x v and t x v per exit side.  One crossing is one
bisect, one append and one addition to s.

An exact run holds s, the interval ends and the shifts as Q2Scalar and needs
only their exact order, equality and sum: each crossing bisects s among the
ends, where s on an end is a vertex.  An exact period is the first exact
return s = s_0, found with one comparison per crossing.  The run stops there
and tiles its path, word and crossing log up to the budget.  No vertex can be
hit after that return: from it on, s runs through s_0, s_1, ... again, and
each of those was located strictly inside an interval.

Long float runs take K crossings per bisect, in a table of the power T^K (the
symbolic side of Rauzy-Veech induction), built by doubling and used from 5000
crossings on.  Each piece of the table is shrunk by a margin that covers
the float error of its ends and the drift of the float orbit over K additions,
so every s inside a piece takes the piece's K bisect indices; an s outside all
pieces, near a vertex band, takes K single steps, which meet a vertex where the
one-step loop does.  The shifts of a piece are still added to s one by one, in
order: a precomputed total, `sum` or `fsum` would round differently, and the
table reproduces the one-step loop's floats bit for bit only because it makes
the same additions.
"""

from __future__ import annotations

import math
import random
from bisect import bisect, bisect_left
from fractions import Fraction
from functools import partial

from .exact_arith import ONE, ZERO, Direction, ExactDirection, Q2Scalar, direction_theta
from .polygon import LabeledPolygon, _outward
from .symbolic import CutseqError, Record, check_count


class VertexHit(CutseqError):
    """The trajectory meets a vertex (within epsilon, or exactly in exact mode)."""

    def __init__(self, crossing: int, side: int):
        super().__init__(f"vertex hit at crossing {crossing} on side {side}")
        self.crossing = crossing
        self.side = side


class TraceConfig(Record):
    __slots__ = _fields = ("epsilon", "max_crossings", "mode")
    _defaults = (1e-9, 1000, "approx")

    def __post_init__(self) -> None:
        if not self.epsilon > 0:  # NaN fails too
            raise CutseqError("epsilon must be positive")
        if not self.epsilon < 0.5:  # the end bands of every side would meet
            raise CutseqError("epsilon must be below 0.5")
        check_count(self.max_crossings, "max_crossings")
        if self.mode not in ("approx", "exact"):
            raise CutseqError(f"unknown mode {self.mode!r}")


class Crossing(Record):
    __slots__ = _fields = ("letter", "point", "side")


class TraceLog(Record):
    __slots__ = _fields = ("direction", "start", "crossings")
    _defaults = ([],)
    # mutable: assignable, deletable and unhashable
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None


def _exit_sides(table: tuple, px, py, vx, vy, slack, zero) -> list[tuple]:
    """(ax, ay, ex, ey, tx, ty, sigma, k) of each exit side k, in side order.

    a, e = b - a and t = -(a + b) are the side table's (`LabeledPolygon.side_table`);
    an exit side has sigma = e x v > 0 (its outward normal dotted with v).  The
    start must lie in the closed polygon, as every re-entry point does, within `slack`.
    """
    sides = []
    for k, side in enumerate(table):
        if not _outward(px, py, side) <= slack:  # NaN fails too
            raise CutseqError(f"start point lies outside side {k} of the polygon")
        sigma = side[2] * vy - side[3] * vx
        if sigma > zero:
            sides.append((*side[:6], sigma, k))
    return sides


def _run(poly: LabeledPolygon, start, d: Direction, cfg: TraceConfig) -> tuple:
    """(word, period, replay): the ray as an interval exchange.

    The exchange is built once (`_exchange`) and then iterated into the path,
    the bisect index of each crossing: over Q(sqrt 2) one exact bisect per
    crossing, up to the first exact return of s and tiled from there
    (`_exact_steps`, which gives that return as `period`; None over floats),
    over floats K crossings per lookup in a table of T^K (`_iterate`).  The
    table's pieces keep a margin of 8(K + 2) ulp from every s whose float orbit
    could leave them within K crossings, and each lookup adds the piece's
    shifts to s one at a time, so the path and s are those of the one-step
    loop, bit for bit (`_power_table`).  The word and the vertex hit are read
    from the path; crossing i adds shifts[path[i]] to s.  `replay()` is
    `_replay` bound to the ray: it yields each crossing's side, u and points,
    lazily, for whoever needs them.
    """
    if cfg.mode == "exact":
        if not isinstance(d, ExactDirection):
            raise CutseqError("exact tracing needs an exact direction")
        vx, vy = d.x, d.y
        px, py = ZERO + start[0], ZERO + start[1]  # exact from ints, Fractions or floats
        eps, slack, zero, one = 0, ZERO, ZERO, ONE  # bands of width 0: a vertex is hit exactly
    else:
        t = direction_theta(d)
        vx, vy = math.cos(t), math.sin(t)
        px, py = float(start[0]), float(start[1])
        eps, slack, zero, one = cfg.epsilon, cfg.epsilon, 0.0, 1.0
    table = poly.side_table(cfg.mode == "exact")
    sides = _exit_sides(table, px, py, vx, vy, slack, zero)
    bounds, shifts, codes = _exchange(sides, table, vx, vy, eps, zero)
    s0 = px * vy - py * vx
    if cfg.mode == "exact":
        path, band, period = _exact_steps(bounds, shifts, s0, cfg.max_crossings)
    else:
        (path, band), period = _iterate(bounds, shifts, s0, cfg.max_crossings), None
    replay = partial(_replay, path, sides, px, py, vx, vy, one)
    if band is not None:
        point = px, py  # the entry point after the path: the last one replayed
        for *_, point in replay():
            pass
        raise VertexHit(len(path), _vertex_side(point, sides, vx, vy, band, one))
    return path.translate(codes).decode("ascii"), period, replay


def _exchange(sides: list, table: tuple, vx, vy, eps, zero) -> tuple[list, list, bytearray]:
    """(bounds, shifts, codes): the boundary map as an interval exchange on s = p x v.

    The exit sides, in the order of s (sorted here by S_j = a_j x v), cut s into
    consecutive intervals [S_j, S_j + sigma_j] with side parameter u = (s - S_j) / sigma_j,
    and re-entering from the opposite side adds the fixed shift t_j x v to s.  A
    vertex hit is a band at each end of interval j, eps * sigma_j wide (eps is 0,
    no band, over Q(sqrt 2)).  `bounds` alternates band and interior ends, so the
    bisect index 2j + 1 is the interior of interval j, with shift `shifts[2j + 1]`
    and letter `codes[2j + 1]` (the side table's), and an even index a band or outside.
    """
    starts = [side[0] * vy - side[1] * vx for side in sides]
    order = sorted(range(len(sides)), key=starts.__getitem__)
    sides[:], upper = [sides[j] for j in order], starts[order[0]]
    bounds, shifts, codes = [], [zero], bytearray(256)
    for j, (_, _, _, _, tx, ty, sigma, k) in enumerate(sides):
        # chained through sigma, so the intervals tile [S_0, S_m] and bounds is sorted
        lower, upper = upper, upper + sigma
        bounds += (lower + eps * sigma, lower + (1.0 - eps) * sigma) if eps else (lower, upper)
        shifts += [tx * vy - ty * vx, zero]
        codes[2 * j + 1] = table[k][7]
    return bounds, shifts, codes


def _steps(path: bytearray, bounds: list, shifts: list, s: float, count: int) -> tuple:
    """`count` float crossings, one bisect each, appended to path.

    (s after them, None), or (s, the even bisect index of the band) at the first
    vertex hit, which is crossing len(path).
    """
    add, locate = path.append, bisect
    for _ in range(count):
        i = locate(bounds, s)
        if not i & 1:
            return s, i
        add(i)
        s += shifts[i]
    return s, None


def _exact_steps(bounds: list, shifts: list, s0: Q2Scalar, budget: int) -> tuple:
    """(path, band, period) of `budget` exact crossings, one exact bisect each.

    With bands of width 0 the bounds are the interval ends (`bounds[::2]` and
    `bounds[-1]`), among which `_exact_index` locates s.  band is the even
    index of the first vertex hit, at crossing len(path), or None.  period is
    the crossing of the first exact return of s, from which the path is tiled
    up to the budget, or None.
    """
    ends = bounds[::2] + bounds[-1:]
    path = bytearray()
    add = path.append
    s = s0
    for crossing in range(1, budget + 1):
        i = _exact_index(s, ends)
        if not i & 1:
            return path, i, None
        add(i)
        s += shifts[i]
        if s == s0:
            return (path * -(-budget // crossing))[:budget], None, crossing
    return path, None, None


def _exact_index(s: Q2Scalar, ends: list) -> int:
    """The bisect index of s among the ends E_0 < ... < E_m, where s on an end is a vertex.

    2j - 1 strictly inside interval j - 1, 2j on the end E_j (a vertex), 0
    below E_0 and 2m above E_m: what a bisect over bands of width 0 gives.
    """
    j = bisect_left(ends, s)
    if 0 < j < len(ends) and ends[j] != s:
        return 2 * j - 1
    return 2 * min(j, len(ends) - 1)


# K by budget.  Building T^K costs 0.16-0.31 ms at K = 16 and 0.7-1.0 ms at 64,
# against 190-240 ns per one-step crossing and about 50 and 30 ns per crossing
# through the table (n = 4 and 6, Python 3.11, 2-vCPU Xeon): each K pays from
# about the budget where it starts here.  Below 5000 crossings a smaller table
# would save a fraction of a millisecond at most, and no workload traces there.
_POWERS = ((100_000, 64), (5_000, 16))


def _iterate(bounds: list, shifts: list, s: float, budget: int, k: int | None = None) -> tuple:
    """(path, band) of `budget` float crossings, as `_steps` gives them, K per lookup.

    K follows the budget (`_POWERS`; `k` forces it).  A lookup in the table of
    T^K (`_power_table`) that lands inside a piece appends the piece's K bisect
    indices and adds its K shifts to s one by one: the additions the one-step
    loop makes, in its order, so s, the path and everything replayed from it
    are the same floats bit for bit.  A lookup in a gap, and the remainder of a
    budget that is no multiple of K, run `_steps`, which meets a vertex at the
    crossing, and in the band, where the one-step loop meets it.
    """
    if k is None:
        k = next((k for least, k in _POWERS if budget >= least), 1)
    path = bytearray()
    table = _power_table(bounds, shifts, k) if k > 1 else None
    if table is None:
        return path, _steps(path, bounds, shifts, s, budget)[1]
    edges, pieces = table
    extend = path.extend
    while (done := len(path)) < budget:
        if budget - done >= k:
            p = bisect(edges, s)
            if p & 1:
                indices, piece_shifts = pieces[p >> 1]
                extend(indices)
                for c in piece_shifts:
                    s += c
                continue
        s, band = _steps(path, bounds, shifts, s, min(k, budget - done))
        if band is not None:
            return path, band
    return path, None


def _power_table(bounds: list, shifts: list, k: int) -> tuple[list, list] | None:
    """(edges, pieces) of T^k, k a power of 2, over floats; None if it cannot be trusted.

    A piece is an interval of s whose next k crossings all land in interiors
    and take the same bisect indices; it carries them as bytes and its k shifts
    as a tuple.  T^2k comes from T^k: each piece, moved by its total shift, is
    cut by the pieces of T^k, and the cuts are pulled back.  That gives at most
    (n - 1)k + 1 pieces, and the gaps between them hold every s that meets a
    band within k crossings.

    The ends are computed in floats, and the float orbit drifts from the real
    one: at most k/2 ulp over k additions, and at most about 2k ulp in the
    pulled-back ends (one rounding per addition of total shifts and per
    pull-back, each within 2 ulp of the scale max|bound| + max|shift|, which
    bounds every intermediate up to a factor 4).  Each piece is shrunk by the
    margin delta = 8(k + 2) ulp on both sides, which covers both, so every s in
    a shrunk piece takes the piece's k indices in float arithmetic too.
    Pieces no wider than 2 delta are dropped.  `edges` alternates piece starts
    and ends like `bounds`, so an odd bisect index p is piece p >> 1.
    """
    level = [(bounds[i - 1], bounds[i], bytes([i]), (shifts[i],), shifts[i])
             for i in range(1, len(bounds), 2)]
    for _ in range(k.bit_length() - 1):
        starts = [piece[0] for piece in level]
        doubled = []
        for a, b, indices, piece_shifts, total in level:
            for q in range(max(bisect(starts, a + total) - 1, 0), len(level)):
                qa, qb, q_indices, q_shifts, q_total = level[q]
                lo = max(a, qa - total)
                if lo >= b:
                    break
                hi = min(b, qb - total)
                if lo < hi:
                    doubled.append((lo, hi, indices + q_indices, piece_shifts + q_shifts,
                                    total + q_total))
        level = doubled
    delta = 8 * (k + 2) * math.ulp(max(map(abs, bounds)) + max(map(abs, shifts)))
    edges, pieces = [], []
    for a, b, indices, piece_shifts, _ in level:
        if b - a > 2 * delta:
            edges += [a + delta, b - delta]
            pieces.append((indices, piece_shifts))
    if not all(x < y for x, y in zip(edges, edges[1:])):  # NaN fails too
        return None
    return edges, pieces


def _replay(path: bytearray, sides: list[tuple], px, py, vx, vy, one):
    """(bisect index, side, u, exit point, entry point) per crossing, lazily.

    The side-by-side arithmetic, replayed along the sides the interval exchange
    picked, so points and u are those of a side-by-side trace.
    """
    for i in path:
        ax, ay, ex, ey, tx, ty, sigma, k = sides[i // 2]
        u = ((px - ax) * vy - (py - ay) * vx) * (one / sigma)
        qx, qy = ax + u * ex, ay + u * ey
        px, py = qx + tx, qy + ty
        yield i, k, u, (qx, qy), (px, py)


def _vertex_side(point: tuple, sides: list[tuple], vx, vy, i: int, one) -> int:
    """The side a vertex hit in band i reports, as a side-by-side trace does.

    That is the first side, in side order, whose u at the point lies in [0, 1]:
    the side the point lies on or, at the vertex itself, the lower of the two.
    Should rounding leave the point on neither, the exit side next to band i.
    """
    px, py = point
    for ax, ay, ex, ey, _, _, sigma, k in sorted(sides, key=lambda side: side[7]):
        if 0 <= ((px - ax) * vy - (py - ay) * vx) * (one / sigma) <= one:
            return k
    return sides[min(i // 2, len(sides) - 1)][7]


def trace(poly: LabeledPolygon, start, d: Direction, cfg: TraceConfig) -> tuple[str, TraceLog]:
    """Cutting sequence of max_crossings crossings, with the full crossing log."""
    word, period, replay = _run(poly, start, d, cfg)
    # the log holds float points; an exact one repeats from its first return
    crossings = [Crossing(letter, (float(x), float(y)), k)
                 for letter, (_, k, _, (x, y), _) in zip(word[:period], replay())]
    if period is not None:
        crossings = (crossings * -(-len(word) // period))[:len(word)]
    return word, TraceLog(d, tuple(start), crossings)


def trace_word(poly: LabeledPolygon, start, d: Direction, cfg: TraceConfig) -> str:
    """Cutting sequence only; the lean path for long traces."""
    return _run(poly, start, d, cfg)[0]


def detect_period(poly: LabeledPolygon, start, d: Direction, cfg: TraceConfig) -> int | None:
    """Smallest m < max_crossings after which the boundary state recurs, else None.

    The boundary map is invertible, so a periodic orbit returns exactly to its
    first boundary state.  Floating states (side, u) recur within epsilon; they
    are replayed up to the first recurrence only.  An exact state is fixed by
    the transverse coordinate s, and the exact run stops at the first exact
    return s_m == s_0 (`_exact_steps`), so an exact period replays no crossing
    point.  The run is traced up to max_crossings or that return, after which
    no vertex can be met, so a vertex hit within max_crossings still raises.
    """
    _, period, replay = _run(poly, start, d, cfg)
    if cfg.mode == "exact":
        return period if period is not None and period < cfg.max_crossings else None
    states = ((k, u) for _, k, u, _, _ in replay())
    side0, u0 = next(states)
    eps = cfg.epsilon
    return next(
        (m for m, (side, u) in enumerate(states, 1) if side == side0 and abs(u - u0) < eps), None
    )


def random_interior_point(
    poly: LabeledPolygon, rng: random.Random, margin: float = 1e-3
) -> tuple[float, float]:
    bound = max(max(abs(x), abs(y)) for x, y in poly.vertices)
    while True:
        x = rng.uniform(-bound, bound)
        y = rng.uniform(-bound, bound)
        if poly.contains(x, y, margin=margin):
            return (x, y)


def random_exact_interior_point(
    poly: LabeledPolygon, rng: random.Random
) -> tuple[Q2Scalar, Q2Scalar]:
    while True:
        x = Q2Scalar(Fraction(rng.randint(-6, 6), 13))
        y = Q2Scalar(Fraction(rng.randint(-6, 6), 17))
        if poly.contains_exact(x, y):
            return (x, y)


# -- plotting ------------------------------------------------------------------


def plot_svg(log: TraceLog, poly: LabeledPolygon, size: int = 480) -> str:
    """SVG 1.1 picture of the polygon, its side labels and the logged segments."""
    if not log.crossings:
        raise CutseqError("empty trace log")
    bound = max(max(abs(x), abs(y)) for x, y in poly.vertices) * 1.15
    scale = size / (2 * bound)

    def sx(x: float) -> float:
        return round((x + bound) * scale, 3)

    def sy(y: float) -> float:
        return round((bound - y) * scale, 3)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">'
    ]
    pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in poly.vertices)
    out.append(f'<polygon points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>')
    for k in range(2 * poly.n):
        mx, my = poly.side_midpoint(k)
        out.append(
            f'<text x="{sx(mx * 1.08)}" y="{sy(my * 1.08)}" font-size="{size // 30}" '
            f'text-anchor="middle">{poly.letter(k)}</text>'
        )
    px, py = float(log.start[0]), float(log.start[1])
    for c in log.crossings:
        qx, qy = c.point
        out.append(
            f'<line x1="{sx(px)}" y1="{sy(py)}" x2="{sx(qx)}" y2="{sy(qy)}" '
            f'stroke="crimson" stroke-width="0.8"/>'
        )
        mx, my = poly.side_midpoint(c.side)
        px, py = qx - 2 * mx, qy - 2 * my
    out.append("</svg>")
    return "\n".join(out)
