import ast
import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import pytest

import cutseq
from cutseq.exact_arith import (
    ApproxDirection,
    ExactDirection,
    Mat2,
    Q2Scalar,
    SingularMatrixError,
    approx_from_exact,
    moebius_apply,
    moebius_chain,
)
from cutseq.polygon import isometry_nu, veech_elements


def q2(a, b=0):
    return Q2Scalar(Fraction(a), Fraction(b))


def rand_scalar(rng, span=9, den=7):
    return Q2Scalar(
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
    )


def test_basic_identities():
    x = q2(1, 1)
    assert x * x == q2(3, 2)  # (1+sqrt2)^2 = 3+2 sqrt2
    assert 1 / x == q2(-1, 1)  # rationalizing by the conjugate
    assert q2(3, -2).sign() == 1  # 9 > 8


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        q2(1) / q2(0)


def test_field_axioms_random():
    rng = random.Random(12345)
    for _ in range(10_000):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == q2(0)
        if not a.is_zero():
            assert a * a.inverse() == q2(1)


def test_sign_against_high_precision():
    getcontext().prec = 110
    sqrt2 = Decimal(2).sqrt()
    rng = random.Random(99)
    for _ in range(10_000):
        s = rand_scalar(rng, span=50, den=23)
        if s.is_zero():
            continue
        dec = (
            Decimal(s.a.numerator) / Decimal(s.a.denominator)
            + Decimal(s.b.numerator) / Decimal(s.b.denominator) * sqrt2
        )
        assert s.sign() == (1 if dec > 0 else -1)


def test_ordering_and_float():
    assert q2(0, 1) > q2(1)  # sqrt2 > 1
    assert q2(1, -1) < q2(0)  # 1 - sqrt2 < 0
    assert abs(float(q2(1, 1)) - (1 + math.sqrt(2))) < 1e-15


def test_str_parse_roundtrip():
    rng = random.Random(5)
    for _ in range(300):
        s = rand_scalar(rng, span=20, den=9)
        assert Q2Scalar.parse(str(s)) == s
    assert Q2Scalar.parse("3/2") == q2(Fraction(3, 2))
    assert Q2Scalar.parse("-1/2*sqrt2") == q2(0, Fraction(-1, 2))
    assert Q2Scalar.parse("2 + 1*sqrt2") == q2(2, 1)
    with pytest.raises(ValueError):
        Q2Scalar.parse("nonsense")


@pytest.mark.parametrize(
    "text, a, b",
    [
        ("1/3+2/3*sqrt2", Fraction(1, 3), Fraction(2, 3)),
        ("1/3-sqrt2", Fraction(1, 3), -1),
        ("-3sqrt2", 0, -3),
        ("sqrt2", 0, 1),
        ("+2/3", Fraction(2, 3), 0),
    ],
)
def test_parse_reads_each_part_once(text, a, b):
    assert Q2Scalar.parse(text) == q2(a, b)


@pytest.mark.parametrize("text", ["1/32/3*sqrt2", "3/3 2/3*sqrt2", "2/32/3sqrt2", "", "+", "1+2"])
def test_parse_refuses_parts_without_a_sign_between(text):
    # the rational part ends at a sign or at the end: no digit is split between parts
    with pytest.raises(ValueError):
        Q2Scalar.parse(text)


# -- matrices -----------------------------------------------------------------


def test_float_action_flips_an_image_below_the_horizontal():
    # rotation by -pi/2 sends every direction in (0, pi/2) below the axis
    rot = Mat2(0.0, 1.0, -1.0, 0.0)
    exact_rot = Mat2(q2(0), q2(1), q2(-1), q2(0))
    for cot in (q2(2), q2(1, 1), q2(Fraction(1, 5))):
        d = ExactDirection.from_cot(cot)
        img = moebius_apply(rot, ApproxDirection(d.theta()))
        assert img.theta == pytest.approx(moebius_apply(exact_rot, d).theta(), abs=1e-12)
        assert math.pi / 2 < img.theta < math.pi


def test_veech_matrix_identities():
    sigma, gamma = veech_elements(4)
    ident = Mat2.identity()
    assert gamma @ gamma == ident  # involution
    assert gamma @ isometry_nu(7, 4) == sigma
    nu7 = isometry_nu(7, 4)
    assert nu7 @ nu7 == ident


def test_matrix_inverse_and_singular():
    sigma, gamma = veech_elements(4)
    assert sigma @ sigma.inverse() == Mat2.identity()
    zero = q2(0)
    with pytest.raises(SingularMatrixError):
        Mat2(q2(1), q2(1), q2(1), q2(1)).inverse()
    del zero


def test_nu_determinants():
    for i in range(8):
        d = isometry_nu(i, 4).det()
        assert d == q2(1) or d == q2(-1)


# -- projective action ----------------------------------------------------------


def test_moebius_examples():
    _, gamma = veech_elements(4)
    d = ExactDirection.from_cot(q2(1, 1))  # angle pi/8
    assert moebius_apply(gamma, d) == d  # fixed point of the reflection
    d2 = ExactDirection.from_cot(q2(1))  # angle pi/4
    img = moebius_apply(gamma, d2)
    assert img.mu() == q2(1, 2)  # mu' = -mu + 2 + 2 sqrt2
    ident = Mat2.identity()
    for mu in (q2(0), q2(5, -3), q2(-2, 1)):
        dd = ExactDirection.from_cot(mu)
        assert moebius_apply(ident, dd) == dd


def test_horizontal_convention():
    # gamma swaps the two horizontal points: angle 0 goes to angle pi
    _, gamma = veech_elements(4)
    zero = ExactDirection.horizontal(True)
    assert moebius_apply(gamma, zero) == ExactDirection.horizontal(False)
    assert moebius_apply(gamma, ExactDirection.horizontal(False)) == zero
    sigma, _ = veech_elements(4)
    pi_dir = ExactDirection.horizontal(False)
    assert moebius_apply(sigma, pi_dir) == pi_dir


def test_action_is_homomorphism_on_veech_words():
    rng = random.Random(2024)
    gens = [isometry_nu(i, 4) for i in range(8)] + list(veech_elements(4))
    for _ in range(200):
        length = rng.randint(1, 6)
        word = [rng.choice(gens) for _ in range(length)]
        m = Mat2.identity()
        for g in word:
            m = m @ g
        d = ExactDirection.from_cot(rand_scalar(rng))
        step = d
        for g in reversed(word):
            step = moebius_apply(g, step)
        assert moebius_apply(m, d) == step


def test_exact_approx_agree():
    rng = random.Random(77)
    _, gamma = veech_elements(4)
    for _ in range(200):
        mu = rand_scalar(rng)
        d = ExactDirection.from_cot(mu)
        exact_img = moebius_apply(gamma, d)
        approx_img = moebius_apply(gamma, approx_from_exact(d))
        assert abs(exact_img.theta() - approx_img.theta) < 1e-12


def test_approx_direction_bounds():
    with pytest.raises(ValueError):
        ApproxDirection(-0.1)
    with pytest.raises(ValueError):
        ApproxDirection(math.pi + 0.1)


@pytest.mark.parametrize(
    "act", [moebius_apply, lambda m, d: moebius_chain([Mat2.identity(), m], d)]
)
def test_float_matrix_on_exact_direction_is_refused_with_one_text(act):
    with pytest.raises(TypeError) as info:
        act(isometry_nu(1, 6), ExactDirection.from_cot(1))
    assert str(info.value) == "exact direction needs a matrix with Q(sqrt 2) entries"


def test_only_exact_arith_knows_the_integer_format():
    # the radicand, its float root and the private integer routines stay in one module,
    # so a new quadratic field changes exact_arith alone
    sources = sorted(Path(cutseq.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    leaks = []
    for path in sources:
        if path.name == "exact_arith.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "exact_arith", "cutseq.exact_arith"
            ):
                leaks += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name in ("RADICAND", "SQRT2_FLOAT") or alias.name.startswith("_")
                ]
    assert leaks == []
