"""Property tests: the word kernel against naive per-letter references, and the
text round trips of scalars and words."""

from collections import deque
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutseq.coherence import sandwich_profile
from cutseq.exact_arith import Q2Scalar
from cutseq.generation import generate
from cutseq.symbolic import (
    LetterPermutation,
    PeriodicWord,
    WordWindow,
    build_diagram,
    derive,
    format_word,
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
