"""Property tests: the word kernel, the least rotation, the Q(sqrt 2) scalar,
the float and exact tracers, factor sets and factor counts against naive
references, periodic words built from every rotation against the canonical one,
renormalization against the route that derives each level twice and against
`check_coherent` at every level, generation against the pair-by-pair join, the
text memos against the unmemoized kernels, the order of exact directions
against their angle keys, the Moebius action as a homomorphism and on integers
against scalar-by-scalar references, the one-denominator matrix against one
scalar per entry, the integer pullbacks of sector intervals and expansions
against one Moebius step per entry, the float tracer's table of T^K against the
one-step loop, the tiled exact tracer against one exact bisect per crossing, and
the text round trips of scalars and words."""

import math
import random
from bisect import bisect
from collections import deque
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cutseq import tracer
from cutseq.coherence import (
    RenormalizationStep,
    RenormalizationTrace,
    _core_matches,
    _is_fixed_tail_word,
    _resolve_split,
    check_coherent,
    decompose_candidates,
    renormalize,
    sandwich_profile,
)
from cutseq.exact_arith import (
    ONE,
    ZERO,
    ApproxDirection,
    ExactDirection,
    Mat2,
    Q2Scalar,
    SingularMatrixError,
    moebius_apply,
)
from cutseq.farey import (
    Expansion,
    _order,
    _sector_endpoints,
    direction_from_expansion,
    farey_branch,
    fixed_point,
    sector_interval,
)
from cutseq.generation import _insertions, generate
from cutseq.polygon import build_polygon, isometry_nu
from cutseq.symbolic import (
    _MEMO_SIZE,
    CutseqError,
    InadmissibleWordError,
    LetterPermutation,
    PeriodicWord,
    _held,
    _pair_codes,
    _pair_set,
    _sandwich_pairs,
    _sandwiched_letters,
    _wrapped,
    admissible_diagrams,
    build_diagram,
    derive,
    factor_counts_upto,
    factor_set,
    format_word,
    is_exhausted,
    least_rotation,
    letters_for,
    parse_word,
    permute,
    sector_permutation,
    square_derive,
    transition_set,
    word_text,
)
from cutseq.tracer import (
    TraceConfig,
    VertexHit,
    detect_period,
    random_interior_point,
    trace,
    trace_word,
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
    return kept


def naive_profile(w):
    prof = {}
    for a, b, c in naive_neighbours(w):
        if a == c:
            prof.setdefault(b, set()).add(a)
    return {letter: frozenset(v) for letter, v in prof.items()}


def ordered_profile(w):
    """naive_profile with its letters in order of first sandwiched occurrence."""
    prof = {}
    for letter, left in dict.fromkeys((b, a) for a, b, c in naive_neighbours(w) if a == c):
        prof.setdefault(letter, set()).add(left)
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
    return image(w)


# -- strategies ----------------------------------------------------------------


@st.composite
def words(draw):
    """(n, a str or periodic word over an alphabet of n = 3..8 letters)."""
    n = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(["str", "periodic"]))
    text = draw(st.text(alphabet=letters_for(n), min_size=1 if kind == "periodic" else 0,
                        max_size=40))
    if kind == "periodic":
        return n, PeriodicWord.of(text)
    return n, text


def walk(rng, d, length):
    """A random walk of the given length through the diagram d."""
    text = rng.choice(sorted({a for a, _ in d.edges}))
    while len(text) < length:
        text += rng.choice(d.successors(text[-1]))
    return text


def as_kind(kind, text):
    return PeriodicWord.of(text) if kind == "periodic" else text


@st.composite
def long_words(draw):
    """(n, word of 64-5000 letters over n = 3..8 letters): random text or a diagram walk,
    as a str or a periodic word."""
    n = draw(st.integers(3, 8))
    length = draw(st.integers(64, 5000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        text = "".join(rng.choice(letters_for(n)) for _ in range(length))
    else:
        text = walk(rng, build_diagram(draw(st.integers(0, 2 * n - 1)), n), length)
    return n, as_kind(draw(st.sampled_from(["str", "periodic"])), text)


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
    assert transition_set(w) == frozenset(naive_transitions(w))


def naive_admissible(w, n):
    pairs = frozenset(naive_transitions(w))
    return tuple(i for i in range(2 * n) if pairs <= build_diagram(i, n).edges)


@FAST
@given(long_words())
@example((4, "AD" * 47 + "A"))  # one letter short of the search crossover
@example((4, "AD" * 48))
@example((6, PeriodicWord.of("ABCDEF" * 20 + "A")))
@example((7, "ABCDEFG" * 20))  # seven of the eight coded letters
@example((6, "UVWXYZ" * 20))  # six letters beyond H: no codes, the zip route
@example((4, PeriodicWord.of("AD" * 46 + "BC")))  # the wrapped text is 96 letters
@example((8, "ABCDEFGH" * 15))  # all eight coded letters
@example((9, "ABCDEFGHI" * 12))  # one letter beyond H: the zip route
def test_alphabet_search_matches_naive_reference(nw):
    n, w = nw
    pairs = frozenset(naive_transitions(w))
    assert transition_set(w) == pairs
    # dict equality ignores order: compare the items in order
    assert list(sandwich_profile(w).items()) == list(ordered_profile(w).items())
    assert all(build_diagram(i, n).admits(w) == (pairs <= build_diagram(i, n).edges)
               for i in range(2 * n))
    assert admissible_diagrams(w, n) == naive_admissible(w, n)


def test_code_route_takes_long_texts_over_a_to_h_only():
    assert _pair_codes("ABCDEFGH" * 15) is not None
    assert _pair_codes("UVWXYZ" * 20) is None
    assert _pair_codes("ABCDEFGI" * 15) is None


@FAST
@given(
    long_words(),
    st.lists(st.tuples(st.integers(0, 5000), st.sampled_from("az1 @[\xe9\u03a9")), min_size=1,
             max_size=5),
    st.sampled_from(["str", "periodic"]),
)
@example((3, "ABC" * 40), [(7, "a")], "str")  # a lowercase letter: the zip route
@example((4, "ADBC" * 250), [(500, "a")], "str")  # 0xFF in the codes: the zip route
@example((4, "ADBC" * 250), [(999, "\xe9")], "periodic")  # not ASCII: the zip route
def test_text_outside_the_alphabet_matches_naive_reference(nw, inserts, kind):
    text = word_text(nw[1])
    for pos, c in inserts:
        pos %= len(text) + 1
        text = text[:pos] + c + text[pos:]
    w = as_kind(kind, text)
    assert transition_set(w) == frozenset(naive_transitions(w))
    assert list(sandwich_profile(w).items()) == list(ordered_profile(w).items())


def naive_decompose(w, i, n):
    """decompose_candidates with every diagram tested pair by pair."""
    if not frozenset(naive_transitions(w)) <= build_diagram(i, n).edges:
        return []
    nw = permute(sector_permutation(i, n), w)
    v = naive_derive(nw)
    if v is None or not word_text(v):
        return []
    return [(j, v) for j in naive_admissible(v, n) if j >= 1 and _core_matches(nw, j, v, n)]


@FAST
@given(st.data())
def test_decompose_candidates_matches_naive_reference(data):
    n = data.draw(st.integers(3, 8))
    k, i = data.draw(st.integers(1, 2 * n - 1)), data.draw(st.integers(0, 2 * n - 1))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    v = walk(rng, build_diagram(k, n), data.draw(st.integers(16, 600)))
    kind = data.draw(st.sampled_from(["str", "periodic"]))
    if kind == "periodic" and (v[-1], v[0]) not in build_diagram(k, n).edges:
        kind = "str"
    # a generated image is coherent and its raw walk mostly is not: both outcomes
    for w in (generate(k, i, as_kind(kind, v), n), as_kind(kind, v)):
        assert decompose_candidates(w, i, n) == naive_decompose(w, i, n)


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


def join_generate(k, i, w, n):
    """generate one pair at a time, the route the marked replacements replaced: the
    piece a + w(a, b) of each adjacent pair (a periodic word's wrap pair last), then
    a finite word's last letter."""
    s = _held(w)
    if not s:
        return w
    pieces = _insertions(k, n)
    if isinstance(w, PeriodicWord):
        out = PeriodicWord.of("".join(map(pieces.__getitem__, zip(s, s[1:] + s[0]))))
    else:
        out = "".join(map(pieces.__getitem__, zip(s, s[1:]))) + s[-1]
    return out if i == 0 else permute(sector_permutation(i, n).inverse(), out)


@st.composite
def generation_inputs(draw):
    """(k, i, n, a str or periodic word admissible in diagram k), n = 3..6: a
    walk through diagram k that stays on a self-loop most of the time it can, a
    periodic word closed by a shortest path."""
    n = draw(st.integers(3, 6))
    k, i = draw(st.integers(1, 2 * n - 1)), draw(st.integers(0, 2 * n - 1))
    d = build_diagram(k, n)
    rng = random.Random(draw(st.integers(0, 2**32)))
    text = rng.choice(sorted({a for a, _ in d.edges}))
    for _ in range(draw(st.integers(0, 300))):
        c = text[-1]
        text += c if (c, c) in d.edges and rng.random() < 0.7 else rng.choice(d.successors(c))
    kind = draw(st.sampled_from(["str", "periodic"]))
    if kind == "periodic":
        text += _closing(d, text[-1], text[0])[:-1]
    return k, i, n, as_kind(kind, text)


def assert_same_word(got, want):
    assert type(got) is type(want) and got == want and repr(got) == repr(want)
    assert _held(got) == _held(want)


@FAST
@given(generation_inputs())
def test_bulk_regeneration_matches_pair_join(case):
    k, i, n, w = case
    assert_same_word(generate(k, i, w, n), join_generate(k, i, w, n))


def test_bulk_regeneration_of_self_loop_runs_and_one_letter_periods():
    for n in range(3, 7):
        for k in range(1, 2 * n):
            loops = [a for a, b in build_diagram(k, n).edges if a == b]
            assert loops  # every diagram has one
            for c in loops:
                for i in (0, k):
                    for w in [PeriodicWord.of(c)] + [c * r for r in range(1, 8)]:
                        assert_same_word(generate(k, i, w, n), join_generate(k, i, w, n))
    for w in ("a", "\xe9"):  # one letter has no pair: admitted, whatever it is
        assert_same_word(generate(1, 0, w, 4), join_generate(1, 0, w, 4))


# -- the text memos of derive, transition_set and sandwich_profile ----------------


@FAST
@given(st.one_of(words(), long_words()))
def test_memo_answers_each_container_in_its_own_type(nw):
    """A str and a periodic word over equal text (a periodic word shares its
    key with the str of its wrapped period) each get a result of their own type, on a
    memo miss and on a hit, equal to the unmemoized kernels."""
    _, w = nw
    text = _held(w) or "A"
    wrapped = text[-1] + text + text[0]
    for x in (text, PeriodicWord.of(text), wrapped):
        key = _wrapped(x, held=True)
        for _ in range(2):
            got = derive(x)
            assert type(got) is type(naive_derive(x)) and got == naive_derive(x)
            assert _sandwiched_letters(key) == _sandwiched_letters.__wrapped__(key)
            pairs = transition_set(x)
            assert pairs == _pair_set.__wrapped__(key) == frozenset(naive_transitions(x))


@FAST
@given(st.one_of(words(), long_words()))
def test_profile_memo_hands_each_caller_its_own_dict(nw):
    """The memo holds an immutable profile and every call copies it, so a caller
    that changes its profile changes no later answer."""
    _, w = nw
    for _ in range(2):  # a miss, then a hit
        prof = sandwich_profile(w)
        assert type(prof) is dict and list(prof.items()) == list(ordered_profile(w).items())
        prof["A"] = frozenset("Z")
    assert type(_sandwich_pairs(_wrapped(w))) is tuple
    info = _sandwich_pairs.cache_info()
    assert info.maxsize == _MEMO_SIZE and info.currsize <= _MEMO_SIZE


def test_memo_holds_at_most_its_size():
    rng = random.Random(15)
    for _ in range(4 * _MEMO_SIZE):
        text = "".join(rng.choice("ABCD") for _ in range(500))
        derive(text)
        derive(PeriodicWord.of(text))
        transition_set(text)
    for kernel in (_sandwiched_letters, _pair_set):
        info = kernel.cache_info()
        assert info.maxsize == _MEMO_SIZE and info.currsize <= _MEMO_SIZE


@FAST
@given(st.data())
def test_held_rotation_is_invisible(data):
    """A periodic word built from any rotation of its period matches the canonical
    word in what it prints and hashes, and in every word operation."""
    k, i = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    j = data.draw(st.integers(0, 7))
    w = data.draw(admissible_periodic(k))
    perm = LetterPermutation(tuple(data.draw(st.permutations("ABCD"))))
    length = data.draw(st.integers(1, 60))
    # w is admissible in k, its image in i
    for x, sector in ((w, k), (generate(k, i, w), i)):
        p = x.period
        canon = PeriodicWord.of(p)
        assert hash(canon) == hash((p,))  # the hash of a dataclass with the one field p
        if len(p) > 1:
            assert canon != PeriodicWord.of(p[:-1])  # a factor of p + p, but shorter
        for r in range(len(p)):
            rot = PeriodicWord.of(p[r:] + p[:r])
            assert rot == canon and canon == rot and hash(rot) == hash(canon)
            assert (str(rot), repr(rot), rot.period) == (str(canon), repr(canon), p)
            assert rot.window(length) == canon.window(length)
            for op in (derive, lambda y: permute(perm, y), lambda y: generate(sector, j, y),
                       lambda y: decompose_candidates(y, sector)):
                got, want = op(rot), op(canon)
                assert got == want and repr(got) == repr(want)
            assert transition_set(rot) == transition_set(canon)
            assert list(sandwich_profile(rot).items()) == list(sandwich_profile(canon).items())


@FAST
@given(st.one_of(words(), long_words()), st.integers(1, 60))
@example((4, PeriodicWord.of("AD")), 7)
@example((4, "ADADADAD"), 8)
@example((4, "ADADADA"), 8)
def test_factor_set_matches_naive_reference(nw, length):
    _, w = nw
    text = word_text(w)
    if isinstance(w, PeriodicWord):
        cyclic = text * (length // len(text) + 2)
        starts = range(len(text))
    else:
        cyclic, starts = text, range(len(text) - length + 1)
        if length > len(text):
            with pytest.raises(CutseqError):
                factor_set(w, length)
            return
    assert factor_set(w, length) == {cyclic[s : s + length] for s in starts}


@FAST
@given(long_words())
@example((4, ""))
@example((4, "A"))
@example((4, "AB"))
@example((4, "ABA"))
@example((4, PeriodicWord.of("B")))  # period 1: every letter sandwiched by itself
@example((4, PeriodicWord.of("AD")))  # period 2: every letter kept
@example((4, PeriodicWord.of("ADA")))
def test_bytes_derive_matches_naive_reference(nw):
    _, w = nw
    assert derive(w) == naive_derive(w)


def foreign_inserts():
    """1-5 (position, character) inserts: ASCII controls only (the text stays on the
    bytes route of derive) or any of them, Latin-1 and Greek."""
    return st.sampled_from(["\x00\x7f", "\x00\x7f\xe9\xff\u03a9"]).flatmap(
        lambda chars: st.lists(st.tuples(st.integers(0, 5000), st.sampled_from(chars)),
                               min_size=1, max_size=5))


@FAST
@given(long_words(), foreign_inserts(), st.sampled_from(["str", "periodic"]))
@example((3, "AA" * 40), [(1, "\x00")], "str")  # A NUL A: the NUL is kept
@example((3, "ABC" * 40), [(1, "\x00"), (3, "\x00")], "str")  # NUL B NUL
@example((3, "ABA"), [(0, "\x7f"), (4, "\x7f")], "periodic")
@example((3, "ABA"), [(2, "\xff")], "str")
def test_derive_outside_the_alphabet_matches_naive_reference(nw, inserts, kind):
    text = word_text(nw[1])
    for pos, c in inserts:
        pos %= len(text) + 1
        text = text[:pos] + c + text[pos:]
    w = as_kind(kind, text)
    assert derive(w) == naive_derive(w)


def loop_square_derive(word):
    """square_derive one letter at a time: the first letter of each block of the
    dropped letter goes."""
    if "AA" not in word:
        drop = "B"
    elif "BB" not in word:
        drop = "A"
    else:
        raise InadmissibleWordError("word contains both AA and BB")
    out = []
    in_block = False
    for c in word:
        if c == drop:
            if in_block:
                out.append(c)
            in_block = True
        else:
            out.append(c)
            in_block = False
    return "".join(out)


@FAST
@given(st.text(alphabet="AB", max_size=40))
@example("")
@example("BBAB")
@example("AABAAAB")
def test_square_derive_matches_letter_loop(word):
    try:
        expected = loop_square_derive(word)
    except InadmissibleWordError:
        with pytest.raises(InadmissibleWordError):
            square_derive(word)
        return
    assert square_derive(word) == expected


# -- renormalization against the route that derives each level twice --------------


def reference_renormalize(w, max_depth, n, start_diagram=None):
    """renormalize with a later level's entry filtered by decompose_candidates of the
    previous word, which permutes and derives that word once more."""
    steps, failure, ambiguous, tail, split = [], None, (), None, None
    cur = w
    for k in range(max_depth):
        if is_exhausted(cur):
            failure = "window_exhausted"
            break
        found = admissible_diagrams(cur, n)
        if not found:
            failure = "inadmissible"
            break
        if k == 0 and start_diagram is not None:
            if start_diagram not in found:
                failure = "inadmissible"
                break
            d = start_diagram
        elif k == 0 and len(found) == 1:
            d = found[0]
        elif k == 0:
            failure, ambiguous = "ambiguous", found
            break
        else:
            prev = steps[-1]
            allowed = [j for j, _ in decompose_candidates(prev.word, prev.diagram, n) if j in found]
            if len(allowed) == 1:
                d = allowed[0]
            elif len(allowed) == 2 and abs(allowed[0] - allowed[1]) == 1:
                split = (k, tuple(sorted(allowed)))
                d = _resolve_split(cur, allowed, n)
            else:
                failure, ambiguous = "ambiguous" if allowed else "incoherent", found
                break
        normalized = permute(sector_permutation(d, n), cur)
        steps.append(RenormalizationStep(cur, d, normalized))
        if _is_fixed_tail_word(cur, d, n):
            tail = d
            for _ in range(k + 1, max_depth):
                steps.append(RenormalizationStep(cur, d, normalized))
            break
        cur = derive(normalized)
    return RenormalizationTrace(tuple(steps), failure, ambiguous, tail, split)


@st.composite
def traced_windows(draw):
    """(n, str of 50-5000 letters traced on the octagon or dodecagon at a random
    direction)."""
    n = draw(st.sampled_from((4, 6)))
    poly = build_polygon(n)
    rng = random.Random(draw(st.integers(0, 2**32)))
    cfg = TraceConfig(max_crossings=draw(st.integers(50, 5000)))
    start, theta = random_interior_point(poly, rng), rng.uniform(0, math.pi)
    return n, trace_word(poly, start, ApproxDirection(theta), cfg)


@st.composite
def generated_periodic(draw):
    """(4, an admissible periodic word generated through up to three more sectors)."""
    k = draw(st.integers(1, 7))
    w = draw(admissible_periodic(k))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, 7))
        w, k = generate(k, i, w), i
    return 4, generate(k, draw(st.integers(0, 7)), w)


@FAST
@given(st.one_of(traced_windows(), generated_periodic()), st.integers(1, 8),
       st.none() | st.integers(0, 11))
@example((4, PeriodicWord.of("AD")), 5, None)  # ambiguous at the first level
@example((4, PeriodicWord.of("AD")), 5, 1)  # a fixed tail word
def test_renormalize_matches_twice_derived_reference(nw, depth, start):
    n, w = nw
    start = None if start is None else start % (2 * n)
    got = renormalize(w, depth, n, start)
    ref = reference_renormalize(w, depth, n, start)
    assert got.diagrams == ref.diagrams
    assert got.split == ref.split
    assert got.failure == ref.failure
    assert got.steps == ref.steps
    assert got == ref and hash(got) == hash(ref)


@FAST
@given(st.one_of(traced_windows(), generated_periodic()), st.integers(2, 8),
       st.none() | st.integers(0, 11))
@example((4, PeriodicWord.of("ABBACDCDC")), 3, None)  # C3 fails for the one sector of level 1
@example((4, PeriodicWord.of("BBBBC")), 3, None)  # level 1 is admissible in sector 0 alone
@example((4, PeriodicWord.of("CCCBDBCCBDBCCBDBCBDADB")), 3, None)  # C1 fails at level 0
@example((4, PeriodicWord.of("AD")), 5, 1)  # a fixed tail word, coherent with itself
def test_renormalize_accepts_only_coherent_levels(nw, depth, start):
    """Each level after the first passes check_coherent against the level before it,
    and a chain stopped as incoherent has no admissible sector that passes."""
    n, w = nw
    start = None if start is None else start % (2 * n)
    got = renormalize(w, depth, n, start)
    for prev, step in zip(got.steps, got.steps[1:]):
        assert check_coherent(prev.word, prev.diagram, step.diagram, n)
    if got.failure == "incoherent":
        prev = got.steps[-1]
        assert got.ambiguous_set
        assert not any(check_coherent(prev.word, prev.diagram, j, n) for j in got.ambiguous_set)


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
@given(scalar_pairs(), st.one_of(st.integers(-BIG, BIG), coefficients()))
@example((0, 0), 0)
@example((3, 0), 3)
@example((Fraction(1, 3), 0), Fraction(1, 3))
@example((1, 1), -2)
def test_q2scalar_mixed_operands_match_fraction_pairs(x, k):
    """An int or a Fraction k on either side of an operation acts as the scalar k,
    and results are canonical.  == coerces as the order comparisons do: a scalar
    equals k exactly when the sign of their difference is 0, and then hashes as k."""
    q, r, rk = Q2Scalar(*x), PairQ2(*x), PairQ2(k, 0)
    assert same(q + k, r + rk) and same(k + q, rk + r)
    assert same(q - k, r - rk) and same(k - q, rk - r)
    assert same(q * k, r * rk) and same(k * q, rk * r)
    assert same(-q, PairQ2(0, 0) - r)
    for num, den, ref_num, ref_den in ((q, k, r, rk), (k, q, rk, r)):
        if ref_den.a == 0 and ref_den.b == 0:
            with pytest.raises(ZeroDivisionError):
                num / den
        else:
            assert same(num / den, ref_num * ref_den.inverse())
    s = (r - rk).sign()
    assert (q < k, q <= k, q > k, q >= k) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (k < q, k <= q, k > q, k >= q) == (s > 0, s >= 0, s < 0, s <= 0)
    assert (q == k, k == q, q != k, k != q) == (s == 0, s == 0, s != 0, s != 0)
    assert s != 0 or hash(q) == hash(k)
    assert (q == Q2Scalar(k)) == (s == 0)


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
        farey_branch(i, n) for i in range(2 * n)
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


@FAST
@given(exact_directions(), exact_directions())
@example(ExactDirection.horizontal(True), ExactDirection.horizontal(False))
@example(ExactDirection.horizontal(False), ExactDirection.from_cot(Q2Scalar(-3, 1)))
@example(ExactDirection.from_cot(Q2Scalar(1, 1)), ExactDirection.from_cot(Q2Scalar(1, 1)))
def test_order_agrees_with_angle_key(a, b):
    expected = (a, b) if a.angle_key() <= b.angle_key() else (b, a)
    got = _order(a, b)
    assert got == expected and got[0] is expected[0]


def scalar_moebius(m, d):
    """The exact action one Q2Scalar operation at a time: the image vector, turned
    so that y >= 0, then (x / y, 1), or (+-1, 0) by the sign of x."""
    x, y = m.m11 * d.x + m.m12 * d.y, m.m21 * d.x + m.m22 * d.y
    if y.sign() < 0:
        x, y = -x, -y
    if y.sign() == 0:
        if x.sign() == 0:
            raise ValueError("zero vector does not define a direction")
        return ExactDirection(ONE if x.sign() > 0 else -ONE, ZERO)
    return ExactDirection(x / y, ONE)


def scalar_product(a, b):
    """The exact product with eight scalar products and four sums."""
    return Mat2(
        a.m11 * b.m11 + a.m12 * b.m21,
        a.m11 * b.m12 + a.m12 * b.m22,
        a.m21 * b.m11 + a.m22 * b.m21,
        a.m21 * b.m12 + a.m22 * b.m22,
    )


def big_scalars():
    """Coefficients up to 200 bits over denominators up to 200 bits, with 0, +-1
    and small denominators drawn often."""
    ints = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-(2**200), 2**200))
    dens = st.one_of(st.sampled_from((1, 2, 3)), st.integers(1, 2**200))
    return st.builds(
        lambda p, d, q, e: Q2Scalar(Fraction(p, d), Fraction(q, e)), ints, dens, ints, dens
    )


def annihilator(d, t):
    """A matrix row (t y, -t x) whose product with the direction (x, y) is 0."""
    return t * d.y, -t * d.x


@FAST
@given(st.data())
def test_integer_action_and_product_match_scalar_reference(data):
    d = data.draw(
        st.one_of(
            st.builds(ExactDirection.from_cot, big_scalars()),
            st.builds(ExactDirection.horizontal, st.booleans()),
        )
    )
    rows = [(data.draw(big_scalars()), data.draw(big_scalars())) for _ in range(2)]
    # rows that annihilate d make the image horizontal, with either sign of x, or zero
    image = data.draw(st.sampled_from(("any", "horizontal", "zero")))
    if image != "any":
        rows[1] = annihilator(d, rows[1][0])
    if image == "zero":
        rows[0] = annihilator(d, rows[0][0])
    m = Mat2(*rows[0], *rows[1])
    try:
        ref = scalar_moebius(m, d)
    except ValueError as err:
        with pytest.raises(ValueError) as got_err:
            moebius_apply(m, d)
        assert str(got_err.value) == str(err)
    else:
        got = moebius_apply(m, d)
        assert repr(got) == repr(ref) and hash(got) == hash(ref)
    other = Mat2(*(data.draw(big_scalars()) for _ in range(4)))
    for a, b in ((m, other), (other, m), (m, m)):
        got, ref = a @ b, scalar_product(a, b)
        assert repr(got) == repr(ref) and hash(got) == hash(ref)


# -- the tracers and factor counts ----------------------------------------------------


def side_by_side_trace(poly, start, theta, eps, crossings):
    """The float boundary map one side at a time: each crossing takes the first
    exit side, in side order, whose parameter u lies in [0, 1], and u within
    eps of an end is a vertex hit.  (word, [(point, side)], [(side, u)]), or
    ("vertex", crossing, side), or ("no exit", crossing) when rounding leaves
    the ray on no side."""
    vx, vy = math.cos(theta), math.sin(theta)
    px, py = start
    sides = []
    for k in range(poly.side_count):
        (ax, ay), (bx, by) = poly.side_endpoints(k)
        ex, ey = bx - ax, by - ay
        if ex * vy - ey * vx > 0:
            sides.append((ax, ay, ex, ey, 1.0 / (ex * vy - ey * vx), bx, by, k))
    word, points, states = "", [], []
    for step in range(crossings):
        for ax, ay, ex, ey, inv, bx, by, k in sides:
            u = ((px - ax) * vy - (py - ay) * vx) * inv
            if 0.0 <= u <= 1.0:
                if u < eps or u > 1.0 - eps:
                    return "vertex", step, k
                qx, qy = ax + u * ex, ay + u * ey
                word += poly.letter(k)
                points.append(((qx, qy), k))
                states.append((k, u))
                px, py = qx + -(ax + bx), qy + -(ay + by)
                break
        else:
            return "no exit", step
    return word, points, states


def side_by_side_period(states, eps):
    first = states[0]
    return next((m for m in range(1, len(states))
                 if states[m][0] == first[0] and abs(states[m][1] - first[1]) < eps), None)


@st.composite
def float_rays(draw):
    """(polygon, start, theta, epsilon, crossings): a start in the inscribed disc and a
    generic direction, one near a side or sector bound, or one aimed at a vertex."""
    n = draw(st.integers(2, 6))
    poly = build_polygon(n)
    rng = random.Random(draw(st.integers(0, 2**32)))
    r = 0.99 / (2 * math.tan(math.pi / (2 * n)))
    x, y = r, r
    while x * x + y * y >= r * r:
        x, y = rng.uniform(-r, r), rng.uniform(-r, r)
    kind = draw(st.sampled_from(["generic", "side", "vertex"]))
    offset = draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-10, 1e-8, 0.01]))
    if kind == "generic":
        theta = rng.uniform(0, math.pi)
    elif kind == "side":
        theta = rng.randrange(2 * n + 1) * math.pi / (2 * n) + offset
    else:
        vx, vy = rng.choice([v for v in poly.vertices if v[1] > y])
        theta = math.atan2(vy - y, vx - x) + offset
    theta = min(max(theta, 0.0), math.pi)
    eps = draw(st.sampled_from([1e-9, 1e-12, 1e-6, 1e-3]))
    return poly, (x, y), theta, eps, draw(st.integers(1, 400))


@FAST
@given(float_rays())
# aimed at a vertex: u lies in [0, 1] on both sides there, and side 0 is reported
@example((build_polygon(3), (0.06976532068367625, 0.12159785228611186), 2.2240642613545467,
          1e-9, 3))
# aimed at a vertex: rounding puts u outside [0, 1] on both sides
@example((build_polygon(2), (0.4173874737384608, 0.2605623610062509), 1.238558364485752,
          1e-6, 20))
def test_float_tracer_matches_side_by_side_reference(ray):
    poly, start, theta, eps, crossings = ray
    cfg = TraceConfig(epsilon=eps, max_crossings=crossings)
    d = ApproxDirection(theta)
    ref = side_by_side_trace(poly, start, theta, eps, crossings)
    if ref[0] in ("vertex", "no exit"):
        with pytest.raises(VertexHit) as hit:
            trace_word(poly, start, d, cfg)
        assert hit.value.crossing == ref[1]
        if ref[0] == "vertex":
            assert hit.value.side == ref[2]
        return
    word, points, states = ref
    assert trace_word(poly, start, d, cfg) == word
    got, log = trace(poly, start, d, cfg)
    assert got == word and [(c.point, c.side) for c in log.crossings] == points
    assert detect_period(poly, start, d, cfg) == side_by_side_period(states, eps)


def one_step_iterate(bounds, shifts, s, budget):
    """The float interval exchange one bisect per crossing: (path, band), where band
    is the even bisect index of the band met at crossing len(path), or None."""
    path = bytearray()
    for _ in range(budget):
        i = bisect(bounds, s)
        if not i & 1:
            return path, i
        path.append(i)
        s += shifts[i]
    return path, None


def float_outputs(poly, start, d, cfg):
    """(word, log points, float period), or the (crossing, side) of the vertex hit."""
    try:
        word = trace_word(poly, start, d, cfg)
    except VertexHit as hit:
        return hit.crossing, hit.side
    _, log = trace(poly, start, d, cfg)
    return word, [(c.point, c.side) for c in log.crossings], detect_period(poly, start, d, cfg)


@FAST
@given(float_rays(), st.sampled_from((2, 16, 64)), st.integers(0, 4900), st.integers(0, 62))
def test_chunked_float_tracer_matches_one_step_reference(ray, k, full, rest):
    """K crossings per table lookup against one bisect per crossing, on budgets of
    1-5000 that are no multiple of K."""
    poly, start, theta, eps, _ = ray
    cfg = TraceConfig(epsilon=eps, max_crossings=full // k * k + rest % (k - 1) + 1)
    d = ApproxDirection(theta)
    with mock.patch.object(tracer, "_iterate", one_step_iterate):
        want = float_outputs(poly, start, d, cfg)
    with mock.patch.object(tracer, "_iterate", partial(tracer._iterate, k=k)):
        assert float_outputs(poly, start, d, cfg) == want


@FAST
@given(float_rays(), st.sampled_from((2, 16, 64)))
def test_power_table_pieces_hold_at_their_edges(ray, k):
    """A start at either end of a piece of T^K, where the margin is thinnest, takes
    the piece's K crossings as the one-step loop does."""
    poly, _, theta, eps, _ = ray
    vx, vy = math.cos(theta), math.sin(theta)
    sides = tracer._exit_sides(poly.side_table(False), 0.0, 0.0, vx, vy, eps, 0.0)
    bounds, shifts, _ = tracer._exchange(sides, poly.side_table(False), vx, vy, eps, 0.0)
    table = tracer._power_table(bounds, shifts, k)
    assume(table is not None)  # the fallback test covers a refused table
    edges, pieces = table
    assert len(pieces) <= (len(sides) - 1) * k + 1
    for (indices, piece_shifts), lo, hi in zip(pieces, edges[::2], edges[1::2]):
        assert [shifts[i] for i in indices] == list(piece_shifts)
        for s in (lo, math.nextafter(hi, -math.inf)):
            assert one_step_iterate(bounds, shifts, s, k) == (indices, None)


@FAST
@given(float_rays())
def test_refused_power_table_falls_back_to_one_step(ray):
    """With the table of T^K refused, the iteration is the one-step loop."""
    poly, start, theta, eps, crossings = ray
    cfg = TraceConfig(epsilon=eps, max_crossings=crossings)
    d = ApproxDirection(theta)
    with mock.patch.object(tracer, "_iterate", one_step_iterate):
        want = float_outputs(poly, start, d, cfg)
    with mock.patch.object(tracer, "_power_table", lambda bounds, shifts, k: None), \
            mock.patch.object(tracer, "_iterate", partial(tracer._iterate, k=16)):
        assert float_outputs(poly, start, d, cfg) == want


def side_by_side_exact_trace(poly, start, d, crossings):
    """The exact boundary map one side at a time over Q(sqrt 2): each crossing takes
    the exit side whose parameter u lies in [0, 1], and u == 0 or u == 1 is a
    vertex hit, reported on the first such side in side order.  (word,
    [(point, side)], [(side, u)]) with float points, or ("vertex", crossing, side)."""
    vx, vy = d.x, d.y
    px, py = start
    sides = []
    for k in range(poly.side_count):
        (ax, ay), (bx, by) = poly.exact_side_endpoints(k)
        ex, ey = bx - ax, by - ay
        if ex * vy - ey * vx > ZERO:
            sides.append((ax, ay, ex, ey, ONE / (ex * vy - ey * vx), bx, by, k))
    word, points, states = "", [], []
    for step in range(crossings):
        for ax, ay, ex, ey, inv, bx, by, k in sides:
            u = ((px - ax) * vy - (py - ay) * vx) * inv
            if ZERO <= u <= ONE:
                if u == ZERO or u == ONE:
                    return "vertex", step, k
                qx, qy = ax + u * ex, ay + u * ey
                word += poly.letter(k)
                points.append(((float(qx), float(qy)), k))
                states.append((k, u))
                px, py = qx - (ax + bx), qy - (ay + by)
                break
        else:
            raise AssertionError("ray found no exit side")
    return word, points, states


@st.composite
def exact_rays(draw):
    """(polygon, start, direction, crossings) over Q(sqrt 2), n in {2, 4}: a start on
    the rational grid, at the center or on the boundary, and a small-coefficient
    inverse slope, a horizontal direction, or one aimed at a vertex, either
    directly or through re-entries (at a vertex translated by side pair vectors)."""
    n = draw(st.sampled_from((2, 4)))
    poly = build_polygon(n)
    kind = draw(st.sampled_from(["grid", "center", "boundary"]))
    if kind == "grid":  # inside both polygons: |x|, |y| < 1/2
        start = (Q2Scalar(Fraction(draw(st.integers(-6, 6)), 13)),
                 Q2Scalar(Fraction(draw(st.integers(-6, 6)), 17)))
    elif kind == "center":
        start = (ZERO, ZERO)
    else:
        (ax, ay), (bx, by) = poly.exact_side_endpoints(draw(st.integers(0, 2 * n - 1)))
        u = draw(st.sampled_from([ZERO, Q2Scalar(Fraction(1, 2)), Q2Scalar(Fraction(1, 3))]))
        start = (ax + u * (bx - ax), ay + u * (by - ay))
    aim = draw(st.sampled_from(["cot", "horizontal", "vertex"]))
    if aim == "horizontal":
        d = ExactDirection.horizontal(draw(st.booleans()))
    else:
        small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        mu = Q2Scalar(draw(small), draw(small))
        if aim == "vertex":
            tx, ty = draw(st.sampled_from(poly.exact_vertices))
            for k in draw(st.lists(st.integers(0, 2 * n - 1), max_size=2)):
                (ax, ay), (bx, by) = poly.exact_side_endpoints(k)
                tx, ty = tx + ax + bx, ty + ay + by
            if ty != start[1]:
                mu = (tx - start[0]) / (ty - start[1])
        d = ExactDirection.from_cot(mu)
    return poly, start, d, draw(st.integers(1, 60))


@FAST
@given(exact_rays())
# aimed from the center at a vertex: a vertex hit at crossing 0
@example((build_polygon(4), (ZERO, ZERO), ExactDirection.from_cot(Q2Scalar(-1, 1)), 5))
# re-enters at (-1/2, 0), aimed at the vertex (1/2, 1/2): a vertex hit at crossing 1
@example((build_polygon(2), (Q2Scalar(Fraction(1, 2)), ZERO), ExactDirection.from_cot(2), 5))
def test_exact_tracer_matches_side_by_side_reference(ray):
    poly, start, d, crossings = ray
    cfg = TraceConfig(max_crossings=crossings, mode="exact")
    ref = side_by_side_exact_trace(poly, start, d, crossings)
    if ref[0] == "vertex":
        with pytest.raises(VertexHit) as hit:
            trace_word(poly, start, d, cfg)
        assert (hit.value.crossing, hit.value.side) == ref[1:]
        return
    word, points, states = ref
    assert trace_word(poly, start, d, cfg) == word
    got, log = trace(poly, start, d, cfg)
    assert got == word and [(c.point, c.side) for c in log.crossings] == points
    period = next((m for m in range(1, len(states)) if states[m] == states[0]), None)
    assert detect_period(poly, start, d, cfg) == period


def naive_factor_counts(w, top):
    return {k: len({w[i : i + k] for i in range(len(w) - k + 1)}) for k in range(1, top + 1)}


@FAST
@given(st.text(alphabet="ABC", min_size=1, max_size=60), st.integers(1, 12))
@example("AAAAB", 3)  # B and AB first occur in the tail, and start no factor AAA or AAB
@example("ABCDEFGH", 8)  # each factor shorter than 8 but the prefixes lies in the tail
@example("ABABABCAB", 4)
@example("A\x00A\x00B\x00", 2)
def test_factor_counts_upto_counts_factors_of_the_tail(word, top):
    assume(top <= len(word))
    assert factor_counts_upto(word, top) == naive_factor_counts(word, top)


@FAST
@given(st.data())
def test_factor_counts_upto_matches_naive_reference(data):
    """Random text, and float traces: cutting sequences, whose few factors per
    length leave few distinct blocks."""
    poly, start, theta, _, _ = data.draw(float_rays())
    top = data.draw(st.integers(1, 24))
    length = data.draw(st.integers(top, 5 * top + 400))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    try:
        w = trace_word(poly, start, ApproxDirection(theta), TraceConfig(max_crossings=length))
    except VertexHit:
        w = "".join(rng.choice(letters_for(poly.n)) for _ in range(length))
    if data.draw(st.booleans()):
        w = "".join(rng.choice(letters_for(poly.n)) for _ in range(length))
    assert factor_counts_upto(w, top) == naive_factor_counts(w, top)


# -- one-denominator matrices and integer pullbacks against per-entry references ----


class EntryMat2:
    """The exact matrix one reduced Q2Scalar per entry, every operation entry by entry."""

    def __init__(self, *entries):
        self.entries = tuple(entries)

    def __matmul__(self, other):
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return EntryMat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def det(self):
        a, b, c, d = self.entries
        return a * d - b * c

    def inverse(self):
        a, b, c, d = self.entries
        det = self.det()
        return EntryMat2(d / det, -b / det, -c / det, a / det)

    def __repr__(self):
        return "Mat2(m11={!r}, m12={!r}, m21={!r}, m22={!r})".format(*self.entries)


def assert_same_matrix(got, ref):
    """got, a Mat2, holds ref's entries, in their text, float, JSON and repr forms."""
    assert got.is_exact
    assert got.entries() == ref.entries
    assert (got.m11, got.m12, got.m21, got.m22) == ref.entries
    assert [repr(x) for x in got.entries()] == [repr(x) for x in ref.entries]
    assert repr(got) == repr(ref)
    assert got.to_json() == [str(x) for x in ref.entries]
    assert [f.hex() for f in got.as_floats()] == [float(x).hex() for x in ref.entries]
    # the same matrix built from its entries anew is equal, with the same hash
    again = Mat2(*ref.entries)
    assert got == again and hash(got) == hash(again)


@FAST
@given(st.lists(big_scalars(), min_size=8, max_size=8), st.integers(-3, 3))
@example([ONE, ZERO, ZERO, ONE] * 2, 1)
@example([Q2Scalar(0, Fraction(1, 2)), Q2Scalar(Fraction(1, 3)), Q2Scalar(Fraction(2, 3)),
          Q2Scalar(0, 1)] * 2, 0)
def test_one_denominator_mat2_matches_per_entry_reference(scalars, k):
    a, b = Mat2(*scalars[:4]), Mat2(*scalars[4:])
    ra, rb = EntryMat2(*scalars[:4]), EntryMat2(*scalars[4:])
    assert_same_matrix(a, ra)
    assert_same_matrix(b, rb)
    assert (a == b) == (ra.entries == rb.entries)
    assert a.det() == ra.det() and repr(a.det()) == repr(ra.det())
    for x, y, rx, ry in ((a, b, ra, rb), (b, a, rb, ra), (a, a, ra, ra)):
        assert_same_matrix(x @ y, rx @ ry)
    # a row k times the other is singular
    m11, m12, _, _ = scalars[:4]
    singular = Mat2(m11, m12, k * m11, k * m12)
    with pytest.raises(SingularMatrixError):
        singular.inverse()
    for x, rx in ((a, ra), (b, rb), (a @ b, ra @ rb)):
        if rx.det().is_zero():
            with pytest.raises(SingularMatrixError):
                x.inverse()
        else:
            assert_same_matrix(x.inverse(), rx.inverse())


def stepwise_pullback(entries, point, n):
    """point pulled back through the inverse branches, one moebius_apply per entry."""
    for entry in reversed(entries):
        point = moebius_apply(farey_branch(entry, n).inverse(), point)
    return point


def stepwise_sector_interval(prefix, n):
    """The innermost sector's ends pulled back and ordered one branch at a time."""
    lo, hi = _sector_endpoints(prefix[-1], n)
    for entry in reversed(prefix[:-1]):
        inv = farey_branch(entry, n).inverse()
        lo, hi = _order(moebius_apply(inv, lo), moebius_apply(inv, hi))
    return lo, hi


@st.composite
def expansion_entries(draw):
    """(n, entries) in S*: depth 1-60, the horizontal ends 0 and 2n - 1 drawn often first."""
    n = draw(st.sampled_from((2, 4)))
    top = 2 * n - 1
    first = draw(st.one_of(st.sampled_from((0, top)), st.integers(0, top)))
    rest = draw(st.lists(st.integers(1, top), max_size=59))
    return n, (first, *rest)


@FAST
@given(expansion_entries())
@example((4, (0,) + (7,) * 59))
@example((4, (7,) + (1,) * 59))
@example((2, (0, 3, 1, 2)))
def test_integer_pullbacks_match_stepwise_moebius(case):
    n, prefix = case
    iv = sector_interval(prefix, n)
    lo, hi = stepwise_sector_interval(prefix, n)
    assert (iv.lo, iv.hi) == (lo, hi)
    assert (repr(iv.lo), repr(iv.hi)) == (repr(lo), repr(hi))
    for tail in (1, 2 * n - 1):
        point = stepwise_pullback(prefix, fixed_point(tail, n), n)
        got = direction_from_expansion(Expansion(n, prefix, tail), len(prefix) + 3)
        assert got.lo == got.hi == point and repr(got.lo) == repr(point)


# -- the tracer's set-up against one built from the side endpoints -------------------


def setup_reference(poly, exact, px, py, vx, vy, eps):
    """(sides, bounds, shifts, codes) of the interval exchange, built from the side
    endpoints with no table: each exit side (sigma = e x v > 0) as the tuple
    (ax, ay, ex, ey, tx, ty, sigma, k), sorted by a x v, the bounds with bands
    eps * sigma wide (eps is ZERO over Q(sqrt 2)), the shifts t x v and the letter
    codes.  A start outside side k by more than eps is refused."""
    endpoints = poly.exact_side_endpoints if exact else poly.side_endpoints
    zero, one = (ZERO, ONE) if exact else (0.0, 1.0)
    sides = []
    for k in range(poly.side_count):
        (ax, ay), (bx, by) = endpoints(k)
        if not (px - ax) * (ay - by) + (py - ay) * (bx - ax) <= eps:
            raise CutseqError(f"start point lies outside side {k} of the polygon")
        ex, ey = bx - ax, by - ay
        sigma = ex * vy - ey * vx
        if sigma > zero:
            sides.append((ax, ay, ex, ey, -(ax + bx), -(ay + by), sigma, k))
    sides.sort(key=lambda side: side[0] * vy - side[1] * vx)
    lower = sides[0][0] * vy - sides[0][1] * vx
    bounds, shifts, codes = [], [zero], bytearray(256)
    for j, (_, _, _, _, tx, ty, sigma, k) in enumerate(sides):
        bounds += [lower + eps * sigma, lower + (one - eps) * sigma]
        shifts += [tx * vy - ty * vx, zero]
        codes[2 * j + 1] = ord(poly.letter(k))
        lower += sigma
    return sides, bounds, shifts, codes


def tracer_setup(poly, exact, px, py, vx, vy, eps):
    """The tracer's set-up as `tracer._run` calls it: eps is the start's slack, and the
    bands are eps * sigma wide over floats and absent over Q(sqrt 2)."""
    table, zero = poly.side_table(exact), ZERO if exact else 0.0
    sides = tracer._exit_sides(table, px, py, vx, vy, eps, zero)
    return (sides, *tracer._exchange(sides, table, vx, vy, 0 if exact else eps, zero))


def refused_or(setup, *args):
    """setup(*args), or the text of its refusal."""
    try:
        return setup(*args)
    except CutseqError as refusal:
        return str(refusal)


def hexed(value):
    """Every float as its float.hex() text, through tuples and lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [hexed(v) for v in value]
    return value


def exact_starts():
    """Grid points inside both exact polygons, on their boundary or outside them."""
    grid = st.builds(Fraction, st.integers(-40, 40), st.sampled_from((13, 17, 29)))
    return st.tuples(grid.map(Q2Scalar), grid.map(Q2Scalar))


@FAST
@given(exact_rays(), st.one_of(st.none(), exact_starts()))
def test_exact_setup_matches_endpoint_reference(ray, other_start):
    """Random exact directions over the square and the octagon, from starts inside,
    on the boundary and outside, where the same side refuses the start."""
    poly, start, d, _ = ray
    px, py = other_start or start
    args = (poly, True, px, py, d.x, d.y, ZERO)
    assert refused_or(tracer_setup, *args) == refused_or(setup_reference, *args)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("cot", [-1, 0, 1])
def test_exact_setup_matches_endpoint_reference_on_side_parallel_rays(n, cot):
    """cot -1, 0 and 1 run parallel to two sides of the octagon (sigma = 0 there),
    and through vertices of the square."""
    poly, d = build_polygon(n), ExactDirection.from_cot(cot)
    for px, py in [(ZERO, ZERO), (Q2Scalar(Fraction(1, 10)), Q2Scalar(Fraction(1, 7))),
                   (Q2Scalar(Fraction(-1, 2)), ZERO), (ONE, ONE)]:
        args = (poly, True, px, py, d.x, d.y, ZERO)
        got = refused_or(tracer_setup, *args)
        assert got == refused_or(setup_reference, *args)
        if px == ONE:  # outside the square's top side 0, the octagon's side 1
            assert got == f"start point lies outside side {n // 4} of the polygon"
        else:  # the octagon's sides parallel to the ray and the square's vertical ones drop
            assert len(got[0]) == n - (n == 4 or cot == 0)
            assert all(side[6] > ZERO for side in got[0])


@FAST
@given(float_rays(), st.sampled_from((1.0, 1.5, 3.0)))
def test_float_setup_matches_endpoint_reference_bit_for_bit(ray, scale):
    """Float rays, from starts in the inscribed disc and scaled out of the polygon."""
    poly, (x, y), theta, eps, _ = ray
    args = (poly, False, x * scale, y * scale, math.cos(theta), math.sin(theta), eps)
    assert hexed(refused_or(tracer_setup, *args)) == hexed(refused_or(setup_reference, *args))


def test_exact_start_outside_the_polygon_is_refused():
    cfg = TraceConfig(max_crossings=10, mode="exact")
    d = ExactDirection.from_cot(Q2Scalar(1, 1))
    for n, start, k in [(4, (ZERO, 2 * ONE), 0), (2, (ZERO, -ONE), 2),
                        (4, (Q2Scalar(Fraction(-3, 2)), ZERO), 6)]:
        with pytest.raises(CutseqError, match=f"^start point lies outside side {k} of the polygon$"):
            trace_word(build_polygon(n), start, d, cfg)


# -- the tiled exact tracer against the per-crossing one --------------------------------


def locate_reference(bounds, s):
    """bisect for bands of width 0, where s == S_j (index 2j + 1) is a vertex too."""
    i = bisect(bounds, s)
    return i - 1 if i & 1 and s == bounds[i - 1] else i


def per_crossing_exact_run(poly, start, d, budget):
    """The exact run one Q2Scalar bisect per crossing over the whole budget, every
    crossing replayed, the period where the shifts first sum to zero: (word, log
    points, period), or ("vertex", crossing, side)."""
    vx, vy = d.x, d.y
    px, py = ZERO + start[0], ZERO + start[1]
    sides, bounds, shifts, codes = setup_reference(poly, True, px, py, vx, vy, ZERO)
    s = px * vy - py * vx
    path = bytearray()
    for _ in range(budget):
        i = locate_reference(bounds, s)
        if not i & 1:
            point = px, py
            for *_, point in tracer._replay(path, sides, px, py, vx, vy, ONE):
                pass
            return "vertex", len(path), tracer._vertex_side(point, sides, vx, vy, i, ONE)
        path.append(i)
        s += shifts[i]
    log = [((float(x), float(y)), k)
           for _, k, _, (x, y), _ in tracer._replay(path, sides, px, py, vx, vy, ONE)]
    total, period = ZERO, None
    for m, i in enumerate(path[:-1], 1):
        total += shifts[i]
        if total == ZERO:
            period = m
            break
    return path.translate(codes).decode("ascii"), log, period


def tiled_exact_run(poly, start, d, budget):
    cfg = TraceConfig(max_crossings=budget, mode="exact")
    try:
        word = trace_word(poly, start, d, cfg)
    except VertexHit as hit:
        return "vertex", hit.crossing, hit.side
    got, log = trace(poly, start, d, cfg)
    assert got == word
    return word, [(c.point, c.side) for c in log.crossings], detect_period(poly, start, d, cfg)


@FAST
@given(exact_rays(), st.integers(1, 400))
def test_tiled_exact_tracer_matches_per_crossing_reference(ray, budget):
    """Words, logs, periods and vertex hits, on budgets that end mid-period or after
    several periods, over the square and the octagon, rays aimed at vertices too."""
    poly, start, d, _ = ray
    assert tiled_exact_run(poly, start, d, budget) == per_crossing_exact_run(poly, start, d, budget)


@pytest.mark.parametrize("n, mu, start, budget", [
    # period 2086: the budget ends mid-way through the second period
    (4, "1/3+1/2*sqrt2", ("1/10", "1/7"), 3000),
    # period 16, tiled 12 times and a half
    (4, "2+1*sqrt2", ("1/10", "1/7"), 200),
    # aimed from the center at vertex 0: a hit at crossing 0
    (4, "-1+1*sqrt2", ("0", "0"), 50),
    # the square: a vertex hit at crossing 3, and a ray of period 4 over 77 crossings
    (2, "2/3", ("-1/4", "-1/8"), 50),
    (2, "1/3", ("1/10", "1/7"), 77),
], ids=str)
def test_tiled_exact_tracer_matches_per_crossing_reference_on_named_rays(n, mu, start, budget):
    poly = build_polygon(n)
    d = ExactDirection.from_cot(Q2Scalar.parse(mu))
    start = tuple(Q2Scalar.parse(v) for v in start)
    assert tiled_exact_run(poly, start, d, budget) == per_crossing_exact_run(poly, start, d, budget)
