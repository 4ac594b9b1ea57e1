"""Trace linear trajectories on the identified polygon; periodicity; SVG plots.

A trajectory travels in a fixed direction, and on hitting a side re-enters at
the corresponding point of the opposite side (translation by twice the side
midpoint, toward the center).  One tracer runs over floats or, for n in
{2, 4}, over exact Q(sqrt 2) coordinates.  It renormalizes each crossing onto
its side segment, so the translation invariance is exact by construction and
floats accumulate no drift; recurrence of the exact boundary state certifies
periodicity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exact_arith import ONE, ZERO, Direction, ExactDirection, Q2Scalar, direction_theta
from .polygon import LabeledPolygon


class VertexHit(RuntimeError):
    """The trajectory meets a vertex (within epsilon, or exactly in exact mode)."""

    def __init__(self, crossing: int, side: int):
        super().__init__(f"vertex hit at crossing {crossing} on side {side}")
        self.crossing = crossing
        self.side = side


@dataclass(frozen=True)
class TraceConfig:
    epsilon: float = 1e-9
    max_crossings: int = 1000
    mode: str = "approx"  # "approx" | "exact"

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_crossings < 1:
            raise ValueError("max_crossings must be >= 1")
        if self.mode not in ("approx", "exact"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class Crossing:
    letter: str
    point: tuple[float, float]
    side: int


@dataclass
class TraceLog:
    direction: Direction
    start: tuple
    crossings: list[Crossing] = field(default_factory=list)

    @property
    def word(self) -> str:
        return "".join(c.letter for c in self.crossings)


def _run(
    poly: LabeledPolygon, start, d: Direction, cfg: TraceConfig, want_log=False, want_states=False
):
    """Follow the ray crossing by crossing over the field cfg.mode picks.

    Away from vertices exactly one exit side (outward normal . v > 0) meets the
    ray with side parameter 0 <= u <= 1; the crossing lands on that side, then
    re-enters from the opposite one.
    """
    if cfg.mode == "exact":
        if poly.exact_vertices is None:
            raise ValueError("exact tracing needs a polygon with exact coordinates (n in {2, 4})")
        if not isinstance(d, ExactDirection):
            raise TypeError("exact tracing needs an exact direction")
        endpoints, vx, vy, zero, one = poly.exact_side_endpoints, d.x, d.y, ZERO, ONE
        px, py = ZERO + start[0], ZERO + start[1]  # exact from ints, Fractions or floats
        lo, hi = ZERO, ONE
    else:
        t = direction_theta(d)
        endpoints, vx, vy, zero, one = poly.side_endpoints, math.cos(t), math.sin(t), 0.0, 1.0
        px, py = float(start[0]), float(start[1])
        # u <= lo or u >= hi is u < epsilon or u > 1 - epsilon; with the exact
        # bounds (ZERO, ONE) the same test is u == 0 or u == 1
        lo, hi = math.nextafter(cfg.epsilon, 0.0), math.nextafter(1.0 - cfg.epsilon, 2.0)
    sides = []
    for k in range(poly.side_count):
        (ax, ay), (bx, by) = endpoints(k)
        ex, ey = bx - ax, by - ay
        denom = ex * vy - ey * vx  # outward normal (-ey, ex) of a clockwise polygon, dotted with v
        if denom > zero:
            sides.append((ax, ay, ex, ey, one / denom, -(ax + bx), -(ay + by), poly.letter(k), k))
    letters: list[str] = []
    crossings: list[Crossing] = []
    states: list[tuple] = []
    add_letter = letters.append
    for step in range(cfg.max_crossings):
        for ax, ay, ex, ey, inv, tx, ty, letter, k in sides:
            u = ((px - ax) * vy - (py - ay) * vx) * inv
            if zero <= u <= one:
                if u <= lo or u >= hi:
                    raise VertexHit(step, k)
                qx, qy = ax + u * ex, ay + u * ey
                add_letter(letter)
                if want_log:
                    crossings.append(Crossing(letter, (float(qx), float(qy)), k))
                if want_states:
                    states.append((k, u))
                px, py = qx + tx, qy + ty
                break
        else:
            raise AssertionError("ray found no exit side")
    return letters, crossings, states


def trace(poly: LabeledPolygon, start, d: Direction, cfg: TraceConfig) -> tuple[str, TraceLog]:
    """Cutting sequence of max_crossings crossings, with the full crossing log."""
    letters, crossings, _ = _run(poly, start, d, cfg, want_log=True)
    log = TraceLog(d, tuple(start), crossings)
    return "".join(letters), log


def trace_word(poly: LabeledPolygon, start, d: Direction, cfg: TraceConfig) -> str:
    """Cutting sequence only; the lean path for long traces."""
    letters, _, _ = _run(poly, start, d, cfg)
    return "".join(letters)


def detect_period(poly: LabeledPolygon, start, d: Direction, cfg: TraceConfig) -> int | None:
    """Smallest crossing count after which the boundary state recurs, else None.

    The boundary map is invertible, so a periodic orbit returns exactly to its
    first boundary state; floating states recur within epsilon, exact states
    exactly.
    """
    _, _, states = _run(poly, start, d, cfg, want_states=True)
    exact = cfg.mode == "exact"
    side0, u0 = states[0]
    for m in range(1, len(states)):
        side, u = states[m]
        if side == side0 and (u == u0 if exact else abs(u - u0) < cfg.epsilon):
            return m
    return None


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
        raise ValueError("empty trace log")
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
