import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from cutseq import farey
from cutseq.exact_arith import (
    ApproxDirection,
    ExactDirection,
    Q2Scalar,
    direction_theta,
    moebius_apply,
)
from cutseq.farey import (
    Expansion,
    InvalidPrefixError,
    _sector_endpoints,
    direction_from_expansion,
    farey_apply,
    farey_branch,
    fixed_point,
    is_terminating,
    itinerary,
    sector_interval,
    square_coordinate,
    square_farey,
)
from cutseq.polygon import is_exact, sector_boundary, sector_cot_bounds, sector_of
from cutseq.symbolic import CutseqError


def q2(a, b=0):
    return Q2Scalar(Fraction(a), Fraction(b))


def exact_dir(a, b=0):
    return ExactDirection.from_cot(q2(a, b))


PI_8 = exact_dir(1, 1)
PI_DIR = ExactDirection.horizontal(False)


def test_farey_apply_examples():
    img, sector = farey_apply(PI_8, 4)
    assert sector == 1 and img == PI_8
    img, sector = farey_apply(exact_dir(1), 4)  # angle pi/4
    assert sector == 2 and img == PI_DIR
    img, sector = farey_apply(PI_DIR, 4)
    assert sector == 7 and img == PI_DIR
    # angle 0 maps to angle pi through the sector-0 branch
    img, sector = farey_apply(ExactDirection.horizontal(True), 4)
    assert sector == 0 and img == PI_DIR


def test_branch_continuity_at_shared_endpoints():
    bounds = sector_cot_bounds(4)
    for i in range(7):
        boundary = ExactDirection.from_cot(bounds[i])
        a = moebius_apply(farey_branch(i, 4), boundary)
        b = moebius_apply(farey_branch(i + 1, 4), boundary)
        assert a == b


def test_branches_are_monotone_bijections_onto_range():
    # every closed sector maps onto [pi/8, pi] with the endpoints exchanged or kept
    bounds = sector_cot_bounds(4)
    for i in range(8):
        lo = ExactDirection.horizontal(True) if i == 0 else ExactDirection.from_cot(bounds[i - 1])
        hi = ExactDirection.horizontal(False) if i == 7 else ExactDirection.from_cot(bounds[i])
        m = farey_branch(i, 4)
        images = {moebius_apply(m, lo), moebius_apply(m, hi)}
        assert images == {PI_8, PI_DIR}
        # an interior point lands strictly inside
        mid = ApproxDirection((i + 0.5) * math.pi / 8)
        t = moebius_apply(farey_branch(i, 4), mid).theta
        assert math.pi / 8 < t < math.pi


def test_range_contained_in_upper_sectors():
    rng = random.Random(17)
    for _ in range(500):
        d = ApproxDirection(rng.uniform(0, math.pi))
        img, _ = farey_apply(d, 4)
        assert img.theta >= math.pi / 8 - 1e-12
    for _ in range(200):
        d = ApproxDirection(rng.uniform(0, math.pi))
        img, _ = farey_apply(d, 6)
        assert img.theta >= math.pi / 12 - 1e-12


def test_branch_inversion_exact():
    rng = random.Random(23)
    count = 0
    while count < 1000:
        mu = q2(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        if (mu - q2(1, 1)).sign() > 0:
            continue  # need an angle in [pi/8, pi]
        d = ExactDirection.from_cot(mu)
        for i in range(8):
            m = farey_branch(i, 4)
            assert moebius_apply(m, moebius_apply(m.inverse(), d)) == d
        count += 1


def test_itinerary_fixed_points():
    assert itinerary(PI_8, 4, 5) == (1, 1, 1, 1, 1)
    assert itinerary(PI_DIR, 4, 5) == (7, 7, 7, 7, 7)


def test_itinerary_zero_only_first():
    rng = random.Random(41)
    for _ in range(100):
        seq = itinerary(ApproxDirection(rng.uniform(1e-9, math.pi)), 4, 50)
        assert all(e != 0 for e in seq[1:])


def test_itinerary_zero_only_first_at_sector_ends():
    # every angle k pi/2n and its two neighbouring floats: an image that rounds off
    # a branch end (pi to near 0, pi/2n to just below) is read as that end
    for n in range(2, 27):
        for k in range(2 * n + 1):
            theta = k * math.pi / (2 * n)
            for t in (math.nextafter(theta, 0.0), theta, math.nextafter(theta, 4.0)):
                if 0.0 <= t <= math.pi:
                    seq = itinerary(ApproxDirection(t), n, 20)
                    assert 0 not in seq[1:], (n, k, t, seq)


@pytest.mark.parametrize("n", range(2, 27))
def test_float_cylinder_contains_its_direction(n):
    # every angle k pi/2n and its two neighbouring floats, at three depths: an end
    # pulled back through branch 2n-1 that wraps from pi to near 0 is read as pi
    for k in range(2 * n + 1):
        theta = k * math.pi / (2 * n)
        for t in (math.nextafter(theta, 0.0), theta, math.nextafter(theta, 4.0)):
            if 0.0 <= t <= math.pi:
                for depth in (1, 4, 8):
                    prefix = itinerary(ApproxDirection(t), n, depth)
                    assert sector_interval(prefix, n).contains_theta(t), (n, t, prefix)


@pytest.mark.parametrize("n", range(2, 27))
def test_float_cylinder_ends_on_sector_boundaries_are_exact(n):
    # every angle k pi/2n at three depths: a cylinder end that is pulled back from a
    # range end is the sector boundary itself, so the cylinder needs no slack
    for k in range(2 * n + 1):
        theta = direction_theta(sector_boundary(k, n))
        for depth in (1, 4, 8):
            prefix = itinerary(ApproxDirection(theta), n, depth)
            a, b = sector_interval(prefix, n).theta_bounds()
            assert a <= theta <= b, (n, k, depth, prefix)


@pytest.mark.parametrize("n", range(2, 27))
def test_pullback_rule_is_the_inverse_branch_image(n):
    # inverse branch e sends pi/2n to the sector boundary e | 1 and pi to 2e + 1 - (e | 1):
    # exactly where the directions are exact, within a few ulps (across the seam) in floats
    ends = (sector_boundary(1, n), sector_boundary(2 * n, n))
    for e in range(2 * n):
        for end, k in zip(ends, (e | 1, 2 * e + 1 - (e | 1))):
            image = moebius_apply(farey._inverse_branch(e, n), end)
            if is_exact(n):
                assert image == sector_boundary(k, n), (e, k)
            else:
                gap = abs(image.theta - sector_boundary(k, n).theta)
                assert min(gap, math.pi - gap) < 1e-15, (e, k, gap)


def test_float_fixed_point_pullback_stays_at_pi():
    # n = 13: branch 2n-1's inverse sends pi to 2e-16 in floats
    iv = direction_from_expansion(Expansion(13, (25, 25), 25), 4)
    assert iv.theta_bounds() == (math.pi, math.pi)


def test_itinerary_matches_exact_shadow():
    # the floating pipeline follows the exact one for many steps
    rng = random.Random(4)
    for _ in range(20):
        theta = rng.uniform(0.05, math.pi - 0.05)
        mu = q2(Fraction(1 / math.tan(theta)))
        exact = itinerary(ExactDirection.from_cot(mu), 4, 12)
        approx = itinerary(ApproxDirection(theta), 4, 12)
        assert exact == approx


def test_sector_interval_examples():
    iv0 = sector_interval((0,), 4)
    assert iv0.lo == ExactDirection.horizontal(True)
    assert iv0.hi == PI_8
    iv01 = sector_interval((0, 1), 4)
    assert iv01.hi.mu() == q2(1, 1)  # angle pi/8 endpoint
    assert iv01.lo.mu() == q2(1, 2)  # gamma image of angle pi/4
    with pytest.raises(InvalidPrefixError):
        sector_interval((1, 0), 4)


def test_sector_interval_nesting():
    prefix = (0,)
    extensions = [(0, 1), (0, 1, 7), (0, 1, 7, 3), (0, 1, 7, 3, 2)]
    cur = sector_interval(prefix, 4)
    for ext in extensions:
        nxt = sector_interval(ext, 4)
        lo, hi = cur.theta_bounds()
        nlo, nhi = nxt.theta_bounds()
        assert lo - 1e-12 <= nlo and nhi <= hi + 1e-12
        cur = nxt


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.0, 2.9])
def test_float_hexagon_sector_interval_contains_its_direction(theta):
    # n = 3 has no exact coordinates, so the sector ends are float angles
    prefix = itinerary(ApproxDirection(theta), 3, 6)
    iv = sector_interval(prefix, 3)
    assert isinstance(iv.lo, ApproxDirection) and isinstance(iv.hi, ApproxDirection)
    assert iv.contains_theta(theta)
    lo, hi = iv.theta_bounds()
    assert 0 < hi - lo < math.pi / 6


def test_direction_from_expansion_fixed_points():
    one_tail = Expansion(4, (), 1)
    iv = direction_from_expansion(one_tail, 10)
    assert iv.lo == PI_8 and iv.hi == PI_8
    seven_tail = Expansion(4, (), 7)
    iv = direction_from_expansion(seven_tail, 10)
    assert iv.lo == PI_DIR


def test_double_expansion_identity():
    # [s0; ..., s_k, 1, 1, ...] equals [s0; ..., s_k - 1, 1, 1, ...] for s_k odd
    for prefix, alt in [((3,), (2,)), ((0, 5), (0, 4)), ((2, 7), (2, 6)), ((4, 3), (4, 2))]:
        a = direction_from_expansion(Expansion(4, prefix, 1), 60)
        b = direction_from_expansion(Expansion(4, alt, 1), 60)
        assert a.lo == b.lo  # exactly the same direction
        # and the itinerary of the direction is the first listed form
        seq = itinerary(a.lo, 4, len(prefix) + 4)
        assert seq == prefix + (1,) * (len(seq) - len(prefix))


def test_double_expansion_seven_tail():
    for prefix, alt in [((1, 2), (1, 1)), ((0, 4), (0, 3)), ((5, 6), (5, 5))]:
        a = direction_from_expansion(Expansion(4, prefix, 7), 60)
        b = direction_from_expansion(Expansion(4, alt, 7), 60)
        assert a.lo == b.lo
        seq = itinerary(a.lo, 4, len(prefix) + 4)
        assert seq == prefix + (7,) * (len(seq) - len(prefix))


def test_expansion_validity_flags():
    assert Expansion(4, (0, 1, 2)).in_s_star
    assert not Expansion(4, (1, 0, 2)).in_s_star
    assert Expansion(4, (0, 3), 1).is_sector_sequence
    assert not Expansion(4, (0, 2), 1).is_sector_sequence  # even predecessor before 1-tail
    assert Expansion(4, (0, 2), 7).is_sector_sequence
    assert not Expansion(4, (0, 3), 7).is_sector_sequence
    assert Expansion(4, (), 1).is_sector_sequence
    with pytest.raises(ValueError):
        Expansion(4, (), 5)


def test_is_terminating():
    r = is_terminating(exact_dir(2, 1), 4, 60)
    assert r.terminating and r.certainty == "exact"
    r2 = is_terminating(ApproxDirection(1.0), 4, 60)
    assert not r2.terminating
    r3 = is_terminating(PI_8, 4, 60)
    assert r3.terminating and r3.depth == 0
    # every exact Q(sqrt 2) inverse slope terminates
    rng = random.Random(6)
    for _ in range(20):
        mu = q2(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        r = is_terminating(ExactDirection.from_cot(mu), 4, 80)
        assert r.terminating and r.tail in (1, 7)


@pytest.mark.parametrize("theta, tail", [(math.pi / 8, 1), (math.pi, 7)])
def test_float_fixed_point_is_a_heuristic_termination(theta, tail):
    # a float direction on a branch fixed point is terminating only heuristically
    r = is_terminating(ApproxDirection(theta), 4, 30)
    assert r.terminating and r.certainty == "heuristic" and r.tail == tail


def test_square_farey_values():
    assert square_farey(Fraction(1, 2)) == 1
    assert square_farey(0) == 0
    assert abs(square_coordinate(math.pi / 4) - 0.5) < 1e-15
    assert square_farey(Fraction(3, 4)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        square_farey(1.5)


@pytest.mark.parametrize(
    "d, n, steps",
    [
        (exact_dir(-1, 1), 4, 1),  # tail 1
        (exact_dir(2, 1), 4, 3),  # tail 7
        (ExactDirection.from_cot(q2(Fraction(1, 3), Fraction(1, 2))), 4, 17),  # tail 7
        (exact_dir(2), 2, 2),
        (exact_dir(Fraction(3, 7)), 2, 3),
        (ExactDirection.horizontal(True), 4, 1),
        (PI_8, 4, 0),
        (PI_DIR, 4, 0),
    ],
)
def test_exact_itinerary_stops_at_its_fixed_point(d, n, steps):
    # the walk ends on the fixed point; its branch fills in the rest of the depth
    expected, cur = [], d
    for _ in range(40):
        cur, sector = farey_apply(cur, n)
        expected.append(sector)
    assert is_terminating(d, n, 40).depth == steps
    with mock.patch.object(farey, "farey_apply", wraps=farey.farey_apply) as step:
        assert itinerary(d, n, 40) == tuple(expected)
    assert step.call_count == steps


def test_itinerary_is_valid_sector_sequence():
    rng = random.Random(10)
    for _ in range(50):
        seq = itinerary(ApproxDirection(rng.uniform(0.01, math.pi - 0.01)), 4, 30)
        exp = Expansion(4, seq)
        assert exp.in_s_star and exp.is_sector_sequence


# cot(k pi / 2n) for k = 1..2n-1, written out: the square's and the octagon's sector bounds
EXACT_COTS = {
    2: ((1, 0), (0, 0), (-1, 0)),
    4: ((1, 1), (1, 0), (-1, 1), (0, 0), (1, -1), (-1, 0), (-1, -1)),
}


def reference_sector_endpoints(i, n):
    """The ends of sector i as the Farey map read them before polygon held them."""
    if n in EXACT_COTS:
        cots = EXACT_COTS[n]
        lo = ExactDirection.horizontal(True) if i == 0 else exact_dir(*cots[i - 1])
        hi = ExactDirection.horizontal(False) if i == 2 * n - 1 else exact_dir(*cots[i])
        return lo, hi
    step = math.pi / (2 * n)
    return ApproxDirection(i * step), ApproxDirection(min((i + 1) * step, math.pi))


def reference_fixed_point(tail, n):
    if n in EXACT_COTS:
        return exact_dir(*EXACT_COTS[n][0]) if tail == 1 else ExactDirection.horizontal(False)
    return ApproxDirection(math.pi / (2 * n) if tail == 1 else math.pi)


@pytest.mark.parametrize("n", range(2, 27))
def test_sector_endpoints_and_fixed_points_match_reference(n):
    for i in range(2 * n):
        assert _sector_endpoints(i, n) == reference_sector_endpoints(i, n), i
    for tail in (1, 2 * n - 1):
        assert fixed_point(tail, n) == reference_fixed_point(tail, n)
    # the sectors tile [0, pi]: each high end is the next sector's low end
    assert all(_sector_endpoints(i, n)[1] == _sector_endpoints(i + 1, n)[0]
               for i in range(2 * n - 1))


@pytest.mark.parametrize("n", [75, 150, 167])
def test_last_sector_ends_exactly_at_pi(n):
    # 2n fl(pi / 2n) rounds below pi here; the last sector still ends on the fixed point pi
    assert 2 * n * (math.pi / (2 * n)) < math.pi
    hi = _sector_endpoints(2 * n - 1, n)[1]
    assert hi.theta == math.pi and hi == fixed_point(2 * n - 1, n)
    assert sector_interval((2 * n - 1,), n).theta_bounds()[1] == math.pi


def test_negative_depth_is_refused():
    exp = Expansion(4, (0, 1, 6))
    for call in (lambda: exp.prefix(-1), lambda: direction_from_expansion(exp, -1),
                 lambda: direction_from_expansion(Expansion(4, (0, 3), 1), -1)):
        with pytest.raises(CutseqError, match=r"^depth must be >= 0$"):
            call()
    assert exp.prefix(0) == () and exp.prefix(2) == (0, 1)
