"""Property tests: the word kernel, the least rotation and the Q(sqrt 2)
scalar against naive references, the Moebius action as a homomorphism, and the
text round trips of scalars and words."""

import math
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutseq.coherence import sandwich_profile
from cutseq.exact_arith import ExactDirection, Mat2, Q2Scalar, SingularMatrixError, moebius_apply
from cutseq.farey import farey_branch
from cutseq.generation import generate
from cutseq.polygon import isometry_nu
from cutseq.symbolic import (
    LetterPermutation,
    PeriodicWord,
    WordWindow,
    build_diagram,
    derive,
    format_word,
    least_rotation,
    letters_for,
    parse_word,
    permute,
    transition_set,
    transitions,
    word_text,
)

FAST = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# -- naive references: one letter at a time, periodic words by index mod period --


def naive_neighbours(w):
    """(left, letter, right) for each letter whose neighbours are known."""
    s = word_text(w)
    m = len(s)
    if isinstance(w, PeriodicWord):
        return [(s[(i - 1) % m], s[i], s[(i + 1) % m]) for i in range(m)]
    return [(s[i - 1], s[i], s[i + 1]) for i in range(1, m - 1)]


def naive_derive(w):
    kept = "".join(b for a, b, c in naive_neighbours(w) if a == c)
    if isinstance(w, PeriodicWord):
        return PeriodicWord.of(kept) if kept else None
    if isinstance(w, WordWindow):
        return WordWindow(kept)
    return kept


def naive_profile(w):
    prof = {}
    for a, b, c in naive_neighbours(w):
        if a == c:
            prof.setdefault(b, set()).add(a)
    return {letter: frozenset(v) for letter, v in prof.items()}


def naive_transitions(w):
    s = word_text(w)
    pairs = [(s[i], s[i + 1]) for i in range(len(s) - 1)]
    if isinstance(w, PeriodicWord):
        pairs.append((s[-1], s[0]))
    return pairs


def naive_permute(perm, w):
    def image(text):
        return "".join(perm.images[letters_for(perm.n).index(c)] for c in text)

    if isinstance(w, PeriodicWord):
        return PeriodicWord.of(image(w.period))
    if isinstance(w, WordWindow):
        return WordWindow(image(w.letters), w.left_truncated, w.right_truncated)
    return image(w)


# -- strategies ----------------------------------------------------------------


@st.composite
def words(draw):
    """(n, a str, window or periodic word over an alphabet of n = 3..8 letters)."""
    n = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(["str", "window", "periodic"]))
    text = draw(st.text(alphabet=letters_for(n), min_size=1 if kind == "periodic" else 0,
                        max_size=40))
    if kind == "periodic":
        return n, PeriodicWord.of(text)
    return n, WordWindow(text) if kind == "window" else text


def _closing(d, u, v):
    """Shortest letters x1..xr (r >= 1, xr = v) with u -> x1 -> ... -> xr in d."""
    queue = deque(d.successors(u))
    while queue[0][-1] != v:
        path = queue.popleft()
        queue.extend(path + x for x in d.successors(path[-1]))
    return queue[0]


@st.composite
def admissible_periodic(draw, k):
    """An octagon periodic word admissible in diagram k: a random walk closed by a
    shortest path."""
    d = build_diagram(k, 4)
    walk = draw(st.sampled_from(sorted({a for a, _ in d.edges})))
    for _ in range(draw(st.integers(0, 10))):
        walk += draw(st.sampled_from(d.successors(walk[-1])))
    walk += _closing(d, walk[-1], walk[0])[:-1]
    return PeriodicWord.of(walk)


# -- the word kernel -------------------------------------------------------------


@FAST
@given(words())
@example((3, PeriodicWord.of("A")))
@example((4, PeriodicWord.of("AD")))
@example((5, "AB"))
def test_kernel_matches_naive_reference(nw):
    _, w = nw
    assert derive(w) == naive_derive(w)
    assert sandwich_profile(w) == naive_profile(w)
    assert transitions(w) == naive_transitions(w)
    assert transition_set(w) == frozenset(naive_transitions(w))


@FAST
@given(st.data())
def test_permute_is_letterwise_and_inverts(data):
    n, w = data.draw(words())
    perm = LetterPermutation(tuple(data.draw(st.permutations(letters_for(n)))))
    assert permute(perm, w) == naive_permute(perm, w)
    assert permute(perm.inverse(), permute(perm, w)) == w


@FAST
@given(st.data())
def test_generation_inverts_derivation(data):
    k = data.draw(st.integers(1, 7))
    w = data.draw(admissible_periodic(k))
    assert build_diagram(k, 4).admits(w)
    assert derive(generate(k, 0, w)) == w


# -- text round trips ------------------------------------------------------------


@FAST
@given(st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6))
def test_q2scalar_str_parse_roundtrip(a, b):
    q = Q2Scalar(Fraction(a), Fraction(b))
    assert Q2Scalar.parse(str(q)) == q


@FAST
@given(st.data())
def test_word_format_parse_roundtrip(data):
    n = data.draw(st.integers(2, 26))
    w = data.draw(st.text(alphabet=letters_for(n), max_size=30))
    assert parse_word(format_word(w, n), n) == w


# -- least rotation ----------------------------------------------------------------


def naive_least_rotation(w):
    return min(w[i:] + w[:i] for i in range(len(w)))


def repetitive_words():
    """A short block repeated many times, optionally followed by a short tail."""
    block = st.text(alphabet="ABC", min_size=1, max_size=4)
    tail = st.text(alphabet="ABC", max_size=3)
    return st.builds(lambda b, r, t: b * r + t, block, st.integers(1, 40), tail)


@FAST
@given(st.one_of(st.text(alphabet="ABCD", min_size=1, max_size=60), repetitive_words()))
@example("A")
@example("DDDDDDD")
@example("ABABABABAB")
@example("ABABABABA")
@example("AAAAAAAB")
@example("BAAAAAAA")
@example("ABAABAABAABAAB")
def test_least_rotation_matches_min_over_rotations(w):
    assert least_rotation(w) == naive_least_rotation(w)


# -- the Q(sqrt 2) scalar ------------------------------------------------------------


class PairQ2:
    """Naive reference: a + b*sqrt(2) as two Fractions, every operation spelled out."""

    def __init__(self, a, b):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return PairQ2(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return PairQ2(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return PairQ2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def inverse(self):
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError
        return PairQ2(self.a / norm, -self.b / norm)

    def sign(self):
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        return sa if self.a * self.a > 2 * self.b * self.b else sb

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        tail = f"{abs(self.b)}*sqrt2"
        if self.a == 0:
            return tail if self.b > 0 else "-" + tail
        return f"{self.a}{'+' if self.b > 0 else '-'}{tail}"

    def __repr__(self):
        return f"Q2Scalar(a={self.a!r}, b={self.b!r})"


BIG = 2**200


def coefficients():
    """Rationals with numerators and denominators up to 200 bits, 0 and +-1 drawn often."""
    numerators = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-BIG, BIG))
    denominators = st.one_of(st.just(1), st.integers(1, BIG))
    return st.builds(Fraction, numerators, denominators)


def near_zero_pairs():
    """(a, b) with a within 2 of -b*sqrt(2): the sign rests on a^2 against 2 b^2."""

    def pair(q, delta, den, s):
        return Fraction(s * (math.isqrt(2 * q * q) + delta), den), Fraction(-s * q, den)

    signs = st.sampled_from((1, -1))
    return st.builds(pair, st.integers(1, BIG), st.integers(-2, 2), st.integers(1, BIG), signs)


def scalar_pairs():
    return st.one_of(st.tuples(coefficients(), coefficients()), near_zero_pairs())


def same(x, ref):
    """x has ref's value, in canonical form, with ref's sign and text."""
    canonical = Q2Scalar(ref.a, ref.b)
    return (
        (x.a, x.b) == (ref.a, ref.b)
        and x == canonical
        and hash(x) == hash(canonical)
        and x.sign() == ref.sign()
        and repr(x) == repr(ref)
    )


@FAST
@given(scalar_pairs(), scalar_pairs())
@example((0, 0), (0, 0))
@example((1, 0), (-1, 0))
@example((0, 1), (0, -1))
@example((1, 1), (-1, 1))
@example((3, -2), (Fraction(-3, 7), Fraction(2, 7)))
@example((-6, 5), (6, -5))
def test_q2scalar_matches_fraction_pairs(x, y):
    qx, qy, rx, ry = Q2Scalar(*x), Q2Scalar(*y), PairQ2(*x), PairQ2(*y)
    assert same(qx, rx) and same(qy, ry)
    assert same(qx + qy, rx + ry) and same(qx - qy, rx - ry) and same(qx * qy, rx * ry)
    assert same(-qx, PairQ2(0, 0) - rx)
    for q, r in ((qx, rx), (qy, ry)):
        if r.a == 0 and r.b == 0:
            with pytest.raises(ZeroDivisionError):
                q.inverse()
            with pytest.raises(ZeroDivisionError):
                qx / q
        else:
            assert same(q.inverse(), r.inverse())
            assert same(qx / q, rx * r.inverse())
    s = (rx - ry).sign()
    assert (qx < qy, qx <= qy, qx > qy, qx >= qy) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (qx == qy) == (s == 0)
    # a against -b*sqrt(2): the comparison itself must decide the hard sign of x
    assert (Q2Scalar(x[0]) > Q2Scalar(0, -x[1])) == (rx.sign() > 0)
    assert float(qx).hex() == float(rx).hex()
    assert str(qx) == str(rx)
    assert Q2Scalar.parse(str(qx)) == qx


@FAST
@given(scalar_pairs(), scalar_pairs(), coefficients())
def test_q2scalar_equal_values_share_repr_and_hash(x, y, k):
    qx, qy = Q2Scalar(*x), Q2Scalar(*y)
    # the same value reached along different routes
    for other in ((qx + qy) - qy, (qx * qy + qx) - qx * qy, Q2Scalar(x[0]) + Q2Scalar(0, x[1])):
        assert other == qx and repr(other) == repr(qx) and hash(other) == hash(qx)
    if k != 0:
        scaled = Q2Scalar(x[0] * k, x[1] * k) / Q2Scalar(k)
        assert scaled == qx and hash(scaled) == hash(qx)


@FAST
@given(scalar_pairs(), scalar_pairs(), scalar_pairs())
def test_singular_exact_matrix_is_refused(x, y, k):
    qx, qy, qk = Q2Scalar(*x), Q2Scalar(*y), Q2Scalar(*k)
    with pytest.raises(SingularMatrixError):
        Mat2(qx, qy, qk * qx, qk * qy).inverse()


# -- the Moebius action ------------------------------------------------------------


def exact_matrices(n):
    return [isometry_nu(i, n) for i in range(2 * n)] + [
        farey_branch(i, n).matrix for i in range(2 * n)
    ]


def exact_directions():
    scalars = st.builds(
        Q2Scalar, st.fractions(max_denominator=50), st.fractions(max_denominator=50)
    )
    return st.one_of(
        st.builds(ExactDirection.from_cot, scalars),
        st.builds(ExactDirection.horizontal, st.booleans()),
    )


def projective(d):
    """The horizontal directions with +x and with -x are one projective point."""
    return ExactDirection.horizontal(True) if d.is_horizontal else d


@FAST
@given(st.data())
def test_moebius_action_is_homomorphism(data):
    n = data.draw(st.sampled_from((2, 4)))
    a = data.draw(st.sampled_from(exact_matrices(n)))
    b = data.draw(st.sampled_from(exact_matrices(n)))
    d = data.draw(exact_directions())
    left = moebius_apply(a @ b, d)
    right = moebius_apply(a, moebius_apply(b, d))
    assert projective(left) == projective(right)
