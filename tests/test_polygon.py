import json
import math
from fractions import Fraction

import pytest

from cutseq.exact_arith import ApproxDirection, ExactDirection, Mat2, Q2Scalar, moebius_apply
from cutseq.polygon import (
    InvalidN,
    build_polygon,
    cot_half_sector,
    induced_permutation,
    isometry_nu,
    sector_cot_bounds,
    sector_of,
    veech_elements,
)
from cutseq.symbolic import sector_permutation


def q2(a, b=0):
    return Q2Scalar(Fraction(a), Fraction(b))


def test_square():
    p = build_polygon(2)
    assert p.n == 2
    assert p.letter(0) == "A" and p.letter(2) == "A"  # horizontal pair
    assert p.letter(1) == "B" and p.letter(3) == "B"
    assert p.exact_vertices is not None


@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
def test_nan_point_is_outside(x, y):
    assert build_polygon(4).contains(0.0, 0.0)
    assert not build_polygon(4).contains(x, y)


def test_octagon_exact_coordinates():
    p = build_polygon(4)
    # unit side length, exactly, for all eight sides
    for k in range(8):
        (ax, ay), (bx, by) = p.exact_side_endpoints(k)
        assert (bx - ax) * (bx - ax) + (by - ay) * (by - ay) == q2(1)
    # floats agree with the exact values
    for (fx, fy), (ex, ey) in zip(p.vertices, p.exact_vertices):
        assert abs(fx - float(ex)) < 1e-12 and abs(fy - float(ey)) < 1e-12
    # horizontal top side carries the first letter
    (ax, ay), (bx, by) = p.side_endpoints(0)
    assert ay == by and p.letter(0) == "A"


def test_dodecagon():
    p = build_polygon(6)
    assert p.side_count == 12
    assert sorted({p.letter(k) for k in range(12)}) == list("ABCDEF")
    for k in range(12):
        (ax, ay), (bx, by) = p.side_endpoints(k)
        assert abs(math.hypot(bx - ax, by - ay) - 1.0) < 1e-12


def test_invalid_n():
    with pytest.raises(InvalidN):
        build_polygon(1)


@pytest.mark.parametrize("n", [1, 0, -1])
@pytest.mark.parametrize(
    "call",
    [
        build_polygon,
        veech_elements,
        lambda n: isometry_nu(0, n),
        cot_half_sector,
        sector_cot_bounds,
        lambda n: sector_of(ApproxDirection(0.5), n),
        lambda n: sector_of(ExactDirection.from_cot(1), n),
    ],
    ids=["build_polygon", "veech_elements", "isometry_nu", "cot_half_sector",
         "sector_cot_bounds", "sector_of_float", "sector_of_exact"],
)
def test_every_function_of_n_refuses_n_below_2_with_one_text(call, n):
    with pytest.raises(InvalidN) as info:
        call(n)
    assert str(info.value) == f"need at least 2 side pairs, got {n}"


def test_opposite_sides_parallel_and_translated():
    for n in (2, 3, 4, 5, 6):
        p = build_polygon(n)
        for k in range(n):
            (ax, ay), (bx, by) = p.side_endpoints(k)
            (cx, cy), (dx, dy) = p.side_endpoints(k + n)
            # same letter, opposite orientation
            assert p.letter(k) == p.letter(k + n)
            assert abs((bx - ax) + (dx - cx)) < 1e-12
            assert abs((by - ay) + (dy - cy)) < 1e-12
            # opposite midpoints are central reflections of each other, so the
            # identifying translation is exactly twice the midpoint vector
            mx, my = p.side_midpoint(k)
            assert abs((cx + dx) / 2 + mx) < 1e-12
            assert abs((cy + dy) / 2 + my) < 1e-12


# -- isometries ------------------------------------------------------------------


def test_nu_octagon_values():
    s = q2(0, Fraction(1, 2))
    expected = {
        0: Mat2(q2(1), q2(0), q2(0), q2(1)),
        1: Mat2(s, s, s, -s),
        7: Mat2(q2(-1), q2(0), q2(0), q2(1)),
    }
    for i, m in expected.items():
        assert isometry_nu(i, 4) == m


def test_nu_general_matches_exact_for_octagon():
    for i in range(8):
        exact = isometry_nu(i, 4).as_floats()
        k = i // 2
        if i % 2 == 0:
            c, sn = math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)
            general = (c, sn, -sn, c)
        else:
            phi = (k + 1) * math.pi / 8
            general = (math.cos(2 * phi), math.sin(2 * phi), math.sin(2 * phi), -math.cos(2 * phi))
        assert all(abs(a - b) < 1e-12 for a, b in zip(exact, general))


def test_nu_maps_sector_endpoints_exactly():
    # nu_i carries both endpoints of closed sector i to the endpoints of sector 0
    bounds = sector_cot_bounds(4)
    targets = {
        ExactDirection.horizontal(True),
        ExactDirection.from_cot(bounds[0]),
    }
    for i in range(8):
        nu = isometry_nu(i, 4)
        lo = ExactDirection.horizontal(True) if i == 0 else ExactDirection.from_cot(bounds[i - 1])
        hi = ExactDirection.horizontal(False) if i == 7 else ExactDirection.from_cot(bounds[i])
        images = {moebius_apply(nu, lo), moebius_apply(nu, hi)}
        # the horizontal image may come out as angle pi; projectively that is angle 0
        norm = {
            ExactDirection.horizontal(True) if d.is_horizontal else d for d in images
        }
        assert norm == targets


def test_index_range():
    with pytest.raises(IndexError):
        isometry_nu(8, 4)
    with pytest.raises(IndexError):
        induced_permutation(-1, 4)


# -- induced permutations ---------------------------------------------------------


def test_octagon_permutation_table():
    expected = ["Id", "(AD)(BC)", "(ABCD)", "(AC)", "(AC)(BD)", "(AB)(CD)", "(ADCB)", "(BD)"]
    for i, cyc in enumerate(expected):
        assert induced_permutation(i, 4).cycles() == cyc


def test_geometric_matches_combinatorial_permutations():
    for n in range(2, 9):
        for i in range(2 * n):
            assert induced_permutation(i, n) == sector_permutation(i, n)


def test_geometric_matches_combinatorial_permutations_float_n():
    # n = 9..12 have float coordinates only: the 1e-9 midpoint match
    for n in range(9, 13):
        for i in range(2 * n):
            assert induced_permutation(i, n) == sector_permutation(i, n)


def test_identity_permutation_any_n():
    for n in (2, 3, 5, 7):
        assert induced_permutation(0, n).cycles() == "Id"


# -- Veech elements ---------------------------------------------------------------


def test_veech_octagon():
    sigma, gamma = veech_elements(4)
    two_c = q2(2, 2)
    assert gamma == Mat2(q2(-1), two_c, q2(0), q2(1))
    assert sigma == Mat2(q2(1), two_c, q2(0), q2(1))


def test_cot_pi_8_value():
    assert abs(float(cot_half_sector(4)) - math.cos(math.pi / 8) / math.sin(math.pi / 8)) < 1e-12


def test_gamma_involution_all_n():
    for n in range(2, 9):
        _, gamma = veech_elements(n)
        sq = gamma @ gamma
        if gamma.is_exact:
            assert sq == Mat2.identity()
        else:
            target = (1.0, 0.0, 0.0, 1.0)
            assert all(abs(a - b) < 1e-12 for a, b in zip(sq.as_floats(), target))


# -- sectors ----------------------------------------------------------------------


def test_exact_sector_classification():
    cases = [
        (ExactDirection.horizontal(True), 0),
        (ExactDirection.from_cot(q2(1, 1)), 1),  # angle pi/8 starts sector 1
        (ExactDirection.from_cot(q2(1)), 2),
        (ExactDirection.from_cot(q2(0)), 4),
        (ExactDirection.from_cot(q2(-1, -1)), 7),
        (ExactDirection.horizontal(False), 7),
    ]
    for d, want in cases:
        assert sector_of(d, 4) == want


def test_approx_sector_classification():
    from cutseq.exact_arith import ApproxDirection

    step = math.pi / 8
    for i in range(8):
        assert sector_of(ApproxDirection(i * step + 1e-6), 4) == i
    assert sector_of(ApproxDirection(math.pi), 4) == 7


def test_polygon_json():
    doc = json.loads(build_polygon(4).to_json_text())
    assert doc["n"] == 4
    assert doc["side_labels"]["0"] == "A" and doc["side_labels"]["4"] == "A"
    assert len(doc["vertices"]) == 8


# -- exact tables against the float formulas ---------------------------------------


def close(exact, approx):
    return all(abs(float(e) - f) < 1e-12 for e, f in zip(exact, approx, strict=True))


@pytest.mark.parametrize("n", [2, 4])
def test_exact_tables_match_float_formulas(n):
    p = build_polygon(n)
    for (ex, ey), (fx, fy) in zip(p.exact_vertices, p.vertices, strict=True):
        assert close((ex, ey), (fx, fy))
    for i in range(2 * n):
        k = i // 2
        if i % 2 == 0:
            c, s = math.cos(k * math.pi / n), math.sin(k * math.pi / n)
            formula = (c, s, -s, c)
        else:
            c, s = math.cos((k + 1) * math.pi / n), math.sin((k + 1) * math.pi / n)
            formula = (c, s, s, -c)
        assert isometry_nu(i, n).is_exact
        assert close(isometry_nu(i, n).entries(), formula)
    cots = [1.0 / math.tan(k * math.pi / (2 * n)) for k in range(1, 2 * n)]
    assert close(sector_cot_bounds(n), cots)
    assert close([cot_half_sector(n)], [cots[0]])
    sigma, gamma = veech_elements(n)
    assert close(sigma.entries(), (1.0, 2 * cots[0], 0.0, 1.0))
    assert close(gamma.entries(), (-1.0, 2 * cots[0], 0.0, 1.0))


def test_square_exact_unit_sides():
    p = build_polygon(2)
    for k in range(4):
        (ax, ay), (bx, by) = p.exact_side_endpoints(k)
        assert (bx - ax) * (bx - ax) + (by - ay) * (by - ay) == q2(1)
