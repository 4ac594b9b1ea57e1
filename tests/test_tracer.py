import math
import random
import xml.etree.ElementTree as ET
from bisect import bisect
from fractions import Fraction
from unittest import mock

import pytest

from cutseq.exact_arith import ApproxDirection, ExactDirection, Q2Scalar
from cutseq.farey import farey_apply
from cutseq.polygon import build_polygon, sector_of
from cutseq.symbolic import CutseqError, build_diagram, factor_set
from cutseq import tracer
from cutseq.tracer import (
    TraceConfig,
    VertexHit,
    detect_period,
    plot_svg,
    random_exact_interior_point,
    random_interior_point,
    trace,
    trace_word,
)


def q2(a, b=0):
    return Q2Scalar(Fraction(a), Fraction(b))


OCT = build_polygon(4)


def test_vertical_trajectory_crosses_horizontal_pair_only():
    word, _ = trace(OCT, (0.0, 0.01), ApproxDirection(math.pi / 2), TraceConfig(max_crossings=10))
    assert word == "A" * 10


def test_sector_zero_trace_is_admissible_in_diagram_zero():
    d0 = build_diagram(0, 4)
    word = trace_word(
        OCT, (0.05, -0.11), ApproxDirection(0.2), TraceConfig(max_crossings=1000)
    )
    assert all((word[i], word[i + 1]) in d0.edges for i in range(len(word) - 1))


def test_trace_admissible_in_sector_diagram_all_sectors():
    rng = random.Random(3)
    for sector in range(8):
        theta = (sector + rng.uniform(0.2, 0.8)) * math.pi / 8
        d = ApproxDirection(theta)
        diagram = build_diagram(sector_of(d, 4), 4)
        word = trace_word(OCT, random_interior_point(OCT, rng), d, TraceConfig(max_crossings=500))
        assert diagram.admits(word)


def test_vertex_hit():
    # aim straight at a vertex: from the center toward vertex 0, within epsilon
    vx, vy = OCT.vertices[2]
    theta = math.atan2(vy, vx)
    with pytest.raises(VertexHit):
        trace(OCT, (0.0, 0.0), ApproxDirection(theta), TraceConfig(max_crossings=5))


def test_translation_invariance_of_reentry():
    rng = random.Random(9)
    word, log = trace(
        OCT, random_interior_point(OCT, rng), ApproxDirection(0.77), TraceConfig(max_crossings=200)
    )
    for a, b in zip(log.crossings, log.crossings[1:]):
        mx, my = OCT.side_midpoint(a.side)
        px, py = a.point[0] - 2 * mx, a.point[1] - 2 * my
        # the next segment starts at the translated exit point and stays linear
        dx, dy = b.point[0] - px, b.point[1] - py
        assert abs(dy * math.cos(0.77) - dx * math.sin(0.77)) < 1e-9


def test_exact_and_float_words_agree():
    start = (q2(Fraction(1, 10)), q2(Fraction(1, 7)))
    d = ExactDirection.from_cot(q2(2, 1))
    exact = trace_word(OCT, start, d, TraceConfig(max_crossings=300, mode="exact"))
    approx = trace_word(
        OCT, (0.1, 1 / 7), ApproxDirection(d.theta()), TraceConfig(max_crossings=300)
    )
    assert exact == approx


def test_exact_vertex_hit():
    # from the exact center, inverse slope sqrt2 - 1 points at vertex 0 of the octagon
    origin = (q2(0), q2(0))
    d = ExactDirection.from_cot(q2(-1, 1))
    with pytest.raises(VertexHit) as hit:
        trace(OCT, origin, d, TraceConfig(max_crossings=5, mode="exact"))
    assert (hit.value.crossing, hit.value.side) == (0, 0)


def test_exact_mode_refuses_a_float_direction():
    cfg = TraceConfig(max_crossings=5, mode="exact")
    with pytest.raises(CutseqError, match="exact tracing needs an exact direction"):
        trace(OCT, (q2(0), q2(Fraction(1, 10))), ApproxDirection(0.5), cfg)


def _trace_outcome(poly, start, d, cfg):
    try:
        return trace_word(poly, start, d, cfg), detect_period(poly, start, d, cfg)
    except VertexHit as hit:
        return "vertex", hit.crossing, hit.side


def _agreement_cases():
    rng = random.Random(2009)
    cases = [(2, q2(Fraction(p, q))) for p, q in ((1, 3), (-2, 5), (3, 2))]
    while len(cases) < 13:
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        mu = q2(a, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if not mu.is_zero():
            cases.append((4, mu))
    return cases


@pytest.mark.parametrize("n, mu", _agreement_cases(), ids=str)
def test_exact_and_float_traces_agree(n, mu):
    poly = build_polygon(n)
    d = ExactDirection.from_cot(mu)
    start = (q2(Fraction(1, 10)), q2(Fraction(1, 7)))
    exact = _trace_outcome(poly, start, d, TraceConfig(max_crossings=300, mode="exact"))
    approx = _trace_outcome(
        poly, (0.1, 1 / 7), ApproxDirection(d.theta()), TraceConfig(max_crossings=300)
    )
    assert exact == approx


def test_detect_period_at_pi_8():
    # angle pi/8: cot is 1 + sqrt2, a cylinder direction
    d = ExactDirection.from_cot(q2(1, 1))
    start = (q2(Fraction(1, 10)), q2(Fraction(1, 7)))
    p = detect_period(OCT, start, d, TraceConfig(max_crossings=100, mode="exact"))
    assert p is not None
    # the floating tracer agrees
    pf = detect_period(
        OCT, (0.1, 1 / 7), ApproxDirection(math.pi / 8), TraceConfig(max_crossings=100)
    )
    assert pf == p


def test_detect_period_quadratic_slope():
    d = ExactDirection.from_cot(q2(2, 1))
    start = (q2(Fraction(1, 10)), q2(Fraction(1, 7)))
    p = detect_period(OCT, start, d, TraceConfig(max_crossings=5000, mode="exact"))
    assert p is not None


def test_exact_period_at_the_crossing_budget():
    # cot = 2 + sqrt2 from (1/10, 1/7) has period 16: the return after crossing 16
    # is seen only when a 17th boundary state is traced
    d = ExactDirection.from_cot(q2(2, 1))
    start = (q2(Fraction(1, 10)), q2(Fraction(1, 7)))
    periods = [
        detect_period(OCT, start, d, TraceConfig(max_crossings=m, mode="exact"))
        for m in (15, 16, 17, 18, 160)
    ]
    assert periods == [None, None, 16, 16, 16]


def test_exact_period_raises_a_vertex_hit_within_the_budget():
    # The square ray of inverse slope 2/3 from (-1/4, -1/8) meets a vertex at
    # crossing 3.  No ray can meet a vertex after the first return of s instead:
    # from that return on it repeats the crossings before it, and each of those
    # was checked.  What is pinned instead: the whole budget is still traced, so
    # a hit inside it raises and a hit beyond it does not.
    square = build_polygon(2)
    start = (q2(Fraction(-1, 4)), q2(Fraction(-1, 8)))
    d = ExactDirection.from_cot(q2(Fraction(2, 3)))
    assert detect_period(square, start, d, TraceConfig(max_crossings=3, mode="exact")) is None
    for budget in (4, 50):
        with pytest.raises(VertexHit) as hit:
            detect_period(square, start, d, TraceConfig(max_crossings=budget, mode="exact"))
        assert (hit.value.crossing, hit.value.side) == (3, 0)


# two intervals [0, 1) and [1, 1 + sqrt2), exchanged: a rotation by sqrt2 mod 1 + sqrt2
_ENDS = (q2(0), q2(1), q2(1, 1))
_BOUNDS = [_ENDS[0], _ENDS[1], _ENDS[1], _ENDS[2]]
_SHIFTS = [q2(0), q2(0, 1), q2(0), q2(-1), q2(0)]


def _one_bisect_per_crossing(s, budget):
    """The exchange above over Q2Scalar, one bisect per crossing: (path, vertex band)."""
    path = bytearray()
    for _ in range(budget):
        i = bisect(_BOUNDS, s)
        if i & 1 and s == _BOUNDS[i - 1]:
            return path, i - 1
        if not i & 1:
            return path, i
        path.append(i)
        s += _SHIFTS[i]
    return path, None


def test_exact_filter_decides_ties_and_near_ties_exactly():
    # (sqrt2 - 1)^41 is about 2e-16, within one ulp of the end 1, and its ints
    # are about 10^15 and cancel; over 7 it also brings a denominator
    tiny = q2(1)
    for _ in range(41):
        tiny = tiny * q2(-1, 1)
    assert q2(0) < tiny < q2(Fraction(1, 2**52)) and abs(tiny.a) > 10**15
    cases = [(q2(1), (bytearray(), 2)), (q2(0), (bytearray(), 0)), (q2(1, 1), (bytearray(), 4)),
             (q2(1) + tiny / 7, None), (q2(1) - tiny / 7, None), (tiny / 7, None)]
    for s0, want in cases:
        ref = _one_bisect_per_crossing(s0, 30)
        if want is not None:
            assert ref == want
        with mock.patch.object(tracer, "_exact_index", wraps=tracer._exact_index) as exact:
            path, band, period = tracer._exact_steps(_BOUNDS, _SHIFTS, s0, 30)
        assert (path, band) == ref and period is None
        assert exact.called  # every crossing, the first included, takes the exact bisect
    # just above the end 1: interval 1 (index 3); just below: interval 0 (index 1)
    assert tracer._exact_steps(_BOUNDS, _SHIFTS, q2(1) + tiny / 7, 1)[0] == bytearray([3])
    assert tracer._exact_steps(_BOUNDS, _SHIFTS, q2(1) - tiny / 7, 1)[0] == bytearray([1])


def test_generic_direction_has_no_short_recurrence():
    p = detect_period(
        OCT, (0.05, -0.11), ApproxDirection(1.0), TraceConfig(max_crossings=100_000)
    )
    assert p is None


def test_two_starts_same_factor_language():
    # minimality: generic direction, two starts, same factors up to length 20
    d = ApproxDirection(0.9)
    cfg = TraceConfig(max_crossings=100_000)
    w1 = trace_word(OCT, (0.05, -0.11), d, cfg)
    w2 = trace_word(OCT, (-0.31, 0.17), d, cfg)
    for length in (5, 12, 20):
        assert factor_set(w1, length) == factor_set(w2, length)


def test_direction_constant_along_trace():
    _, log = trace(OCT, (0.0, 0.05), ApproxDirection(0.6), TraceConfig(max_crossings=50))
    assert log.direction.theta == 0.6


def test_derived_trace_lives_at_renormalized_direction():
    # one renormalization step: the factor language of the derived normalized
    # word appears in a trace at the image direction
    from cutseq.coherence import renormalize

    rng = random.Random(14)
    theta = 0.9
    d = ApproxDirection(theta)
    word = trace_word(OCT, random_interior_point(OCT, rng), d, TraceConfig(max_crossings=50_000))
    tr = renormalize(word, 1, 4)
    derived = tr.steps[0]
    from cutseq.symbolic import derive, permute, sector_permutation

    w1 = derive(permute(sector_permutation(tr.steps[0].diagram, 4), word))
    img, _ = farey_apply(d, 4)
    independent = trace_word(
        OCT, random_interior_point(OCT, rng), img, TraceConfig(max_crossings=100_000)
    )
    assert factor_set(w1, 8) <= factor_set(independent, 8)


def test_square_trace():
    sq = build_polygon(2)
    word = trace_word(sq, (0.01, 0.02), ApproxDirection(0.3), TraceConfig(max_crossings=200))
    d0 = build_diagram(0, 2)
    assert d0.admits(word)  # no AA below pi/4


def test_exact_interior_point_sampling():
    rng = random.Random(5)
    for _ in range(20):
        x, y = random_exact_interior_point(OCT, rng)
        assert OCT.contains_exact(x, y)


# -- SVG ---------------------------------------------------------------------


def _parse(svg: str):
    return ET.fromstring(svg)


def test_plot_single_segment():
    _, log = trace(OCT, (0.0, 0.01), ApproxDirection(math.pi / 2), TraceConfig(max_crossings=1))
    root = _parse(plot_svg(log, OCT))
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{ns}svg"
    assert len(root.findall(f"{ns}line")) == 1
    assert len(root.findall(f"{ns}polygon")) == 1


def test_plot_hundred_segments_inside_box():
    _, log = trace(OCT, (0.03, -0.04), ApproxDirection(0.7), TraceConfig(max_crossings=100))
    svg = plot_svg(log, OCT, size=400)
    root = _parse(svg)
    ns = "{http://www.w3.org/2000/svg}"
    lines = root.findall(f"{ns}line")
    assert len(lines) == 100
    for line in lines:
        for attr in ("x1", "y1", "x2", "y2"):
            v = float(line.get(attr))
            assert -1e-6 <= v <= 400 + 1e-6


def test_plot_empty_log_rejected():
    from cutseq.tracer import TraceLog

    with pytest.raises(ValueError):
        plot_svg(TraceLog(ApproxDirection(0.5), (0.0, 0.0), []), OCT)


def test_start_outside_polygon_rejected():
    top = (1 + math.sqrt(2)) / 2  # the octagon's top side lies on y = top
    d, cfg = ApproxDirection(1.5), TraceConfig(max_crossings=5)
    for start in [(0.0, 5.0), (9.0, 9.0), (0.0, top + 1e-6), (math.nan, 0.0)]:
        with pytest.raises(CutseqError, match="outside"):
            trace(OCT, start, d, cfg)
    # the closed polygon is allowed, within epsilon: every re-entry lies on its boundary
    for start in [(0.0, top), (0.0, top + 1e-10), (0.0, -top)]:
        assert len(trace_word(OCT, start, d, cfg)) == 5
    exact_d = ExactDirection.from_cot(q2(Fraction(1, 3)))
    exact_cfg = TraceConfig(max_crossings=5, mode="exact")
    exact_top = q2(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(CutseqError, match="outside"):
        trace_word(OCT, (q2(0), exact_top + q2(Fraction(1, 10**12))), exact_d, exact_cfg)
    with pytest.raises(CutseqError, match="outside"):
        trace_word(build_polygon(2), (q2(0), q2(5)), exact_d, exact_cfg)
    assert len(trace_word(OCT, (q2(0), exact_top), exact_d, exact_cfg)) == 5


def test_exact_work_without_exact_coordinates_has_one_refusal():
    # the hexagon's coordinates are not in Q(sqrt 2): each exact entry point says so alike
    hexagon, d = build_polygon(3), ExactDirection.from_cot(q2(1))
    refusals = [
        lambda: hexagon.exact_side_endpoints(0),
        lambda: hexagon.contains_exact(q2(0), q2(0)),
        lambda: sector_of(d, 3),
        lambda: trace_word(hexagon, (0, 0), d, TraceConfig(max_crossings=5, mode="exact")),
    ]
    messages = set()
    for refuse in refusals:
        with pytest.raises(CutseqError) as exc:
            refuse()
        messages.add(str(exc.value))
    assert messages == {"exact coordinates need n in {2, 4}"}


def test_epsilon_must_be_positive():
    # NaN compares false both ways, so it must not slip past a "<= 0" test
    for epsilon in (0.0, -1e-9, math.nan):
        with pytest.raises(CutseqError, match="epsilon must be positive"):
            TraceConfig(epsilon=epsilon)


def test_epsilon_must_be_below_one_half():
    # from 1/2 on the two end bands of every side meet and the bounds are no longer sorted
    for epsilon in (0.5, 0.7, math.inf):
        with pytest.raises(CutseqError, match="epsilon must be below 0.5"):
            TraceConfig(epsilon=epsilon)
    assert TraceConfig(epsilon=0.49).epsilon == 0.49
