import math
import random

import pytest

from cutseq.symbolic import (
    AmbiguousDiagramError,
    CutseqError,
    InadmissibleWordError,
    LetterPermutation,
    PeriodicWord,
    WordWindow,
    admissible_diagrams,
    boundary_diagram,
    build_diagram,
    derive,
    derive_times,
    factor_count,
    factor_counts_upto,
    factor_set,
    format_word,
    least_rotation,
    normal_form,
    parse_word,
    permute,
    primitive_period,
    sector_permutation,
    square_derive,
    transitions,
)

# the worked-example window (58 letters) and its renormalization chain
EX_WINDOW = "AADBDAAAADBDBCBDBDAAAADBDAAAADBDAAAADBDBCBDBDAAADBDBDAAADB"
EX_NORMAL = "CCBDBCCCCBDBDADBDBCCCCBDBCCCCBDBCCCCBDBDADBDBCCCBDBDBCCCBD"
EX_DERIVED_1 = "DCCDBABDCCDCCDCCDBABDCDBDC"


def edges(i, n=4):
    return sorted(a + b for a, b in build_diagram(i, n).edges)


def test_diagram_zero_octagon():
    assert edges(0) == ["AD", "BC", "BD", "CB", "CC", "DA", "DB"]


def test_diagram_four_contains_double_a():
    assert "AA" in edges(4)


def test_diagram_relabelling_consistency():
    # applying the sector permutation to every edge of diagram i gives diagram 0
    for n in (2, 3, 4, 6):
        d0 = build_diagram(0, n)
        for i in range(2 * n):
            relabelled = build_diagram(i, n).relabel(sector_permutation(i, n))
            assert relabelled.edges == d0.edges


def test_square_diagrams():
    assert edges(0, 2) == ["AB", "BA", "BB"]
    assert edges(1, 2) == ["AA", "AB", "BA"]


def test_dodecagon_diagram_size():
    assert len(build_diagram(0, 6).edges) == 11


def test_diagram_index_range():
    with pytest.raises(IndexError):
        build_diagram(8, 4)


def test_boundary_diagrams():
    for k in range(8):
        b = boundary_diagram(k, 4)
        assert b.edges <= build_diagram(k, 4).edges
        assert b.edges <= build_diagram((k - 1) % 8, 4).edges
        # every vertex has at most one outgoing edge, so infinite paths have
        # period one or two
        for letter in "ABCD":
            assert len(b.successors(letter)) <= 1
        for a, bb in b.edges:
            if a != bb:
                assert (bb, a) in b.edges


def test_admissibility_examples():
    assert admissible_diagrams(PeriodicWord.of("B"), 4) == (1, 2)
    assert admissible_diagrams(PeriodicWord.of("ADBD"), 4) == (0, 4)
    assert admissible_diagrams(PeriodicWord.of("AD"), 4) == (0, 1, 4, 5)


def test_periodic_canonicalization():
    assert PeriodicWord.of("ADAD").period == "AD"
    assert PeriodicWord.of("DA") == PeriodicWord.of("AD")
    assert primitive_period("ABCABC") == "ABC"
    assert least_rotation("CADA") == "ACAD"
    with pytest.raises(ValueError):
        PeriodicWord.of("")


def test_derive_examples():
    assert derive("CACCCDBDCDC") == "ACBCD"
    assert derive(PeriodicWord.of("AD")) == PeriodicWord.of("AD")
    assert derive(EX_NORMAL) == EX_DERIVED_1


def test_derive_window_drops_boundary():
    w = WordWindow("ADA")
    out = derive(w)
    assert isinstance(out, WordWindow)
    assert out.letters == "D"
    assert out.left_truncated and out.right_truncated


def test_derive_periodic_can_vanish():
    assert derive(PeriodicWord.of("ABD")) is None


def test_derive_never_lengthens():
    rng = random.Random(31)
    for _ in range(500):
        w = "".join(rng.choice("ABCD") for _ in range(rng.randint(3, 40)))
        d = derive(w)
        assert len(d) <= len(w)
        interior_unsandwiched = any(
            w[i - 1] != w[i + 1] for i in range(1, len(w) - 1)
        )
        if interior_unsandwiched:
            assert len(d) < len(w)


def test_derivation_commutes_with_permutations():
    rng = random.Random(7)
    perms = [sector_permutation(i, 4) for i in range(8)]
    for _ in range(1000):
        w = "".join(rng.choice("ABCD") for _ in range(rng.randint(3, 30)))
        for p in perms:
            assert derive(permute(p, w)) == permute(p, derive(w))


def test_normal_form_examples():
    nw, d0 = normal_form(EX_WINDOW, 4)
    assert d0 == 4 and nw == EX_NORMAL
    # a word admissible only in diagram 0 is unchanged
    w0 = "ADADBCCBD"
    assert admissible_diagrams(w0, 4) == (0,)
    assert normal_form(w0, 4) == (w0, 0)
    with pytest.raises(AmbiguousDiagramError):
        normal_form(PeriodicWord.of("ADBD"), 4)
    assert normal_form(PeriodicWord.of("ADBD"), 4, diagram=4)[1] == 4
    with pytest.raises(InadmissibleWordError):
        normal_form("AABB", 4)


def test_permute_example():
    bd = LetterPermutation.from_cycles("(BD)", 4)
    assert permute(bd, "DCCD") == "BCCB"
    ident = LetterPermutation.identity(4)
    assert permute(ident, "ABCD") == "ABCD"


def test_permutation_cycle_roundtrip():
    for i in range(8):
        p = sector_permutation(i, 4)
        assert LetterPermutation.from_cycles(p.cycles(), 4) == p
        assert p.compose(p.inverse()) == LetterPermutation.identity(4)


def test_factor_set_basics():
    w = "ADADBDAD"
    assert factor_set(w, 1) <= {"A", "B", "C", "D"}
    assert factor_count(w, 2) == len({"AD", "DA", "DB", "BD"})
    per = PeriodicWord.of("AD")
    assert factor_set(per, 3) == {"ADA", "DAD"}
    with pytest.raises(ValueError):
        factor_set("AD", 3)


def test_factor_counts_upto_matches_naive():
    rng = random.Random(11)
    for _ in range(50):
        w = "".join(rng.choice("ABC") for _ in range(rng.randint(30, 120)))
        top = rng.randint(2, 12)
        fast = factor_counts_upto(w, top)
        for length in range(1, top + 1):
            assert fast[length] == factor_count(w, length)


def test_transitions_wrap():
    assert transitions(PeriodicWord.of("AD")) == [("A", "D"), ("D", "A")]
    assert transitions("AD") == [("A", "D")]


def test_word_formats():
    assert format_word("ADBD", 4) == "ADBD"
    assert format_word("AF", 6) == "L1 L6"
    assert parse_word("L1 L6", 6) == "AF"
    assert parse_word("ADBD", 4) == "ADBD"
    with pytest.raises(ValueError):
        parse_word("AZ", 4)


@pytest.mark.parametrize("text", ["L1 L7", "L0 L1", "L-1", "L1,L99"])
def test_word_label_outside_alphabet_is_refused(text):
    with pytest.raises(CutseqError, match="outside L1..L6"):
        parse_word(text, 6)


@pytest.mark.parametrize(
    "w, n, text",
    [
        (PeriodicWord.of("DBAB"), 4, "per:ABDB"),  # printed in its canonical rotation
        (PeriodicWord.of("AFCA"), 6, "per:L1 L1 L6 L3"),
        ("AFCE", 6, "L1 L6 L3 L5"),
        (WordWindow("ADBD"), 4, "ADBD"),
    ],
)
def test_word_text_form_round_trip(w, n, text):
    assert format_word(w, n) == text
    assert parse_word(text, n) == (w.letters if isinstance(w, WordWindow) else w)


@pytest.mark.parametrize(
    "text, n, word",
    [(" per:AB ", 4, PeriodicWord.of("AB")), ("per: L2 L3", 6, PeriodicWord.of("BC"))],
)
def test_periodic_marker_is_read_after_blanks(text, n, word):
    assert parse_word(text, n) == word


@pytest.mark.parametrize("text", ["per:per:AB", "per:", "per:per:L1 L2"])
def test_periodic_marker_is_read_once(text):
    with pytest.raises(CutseqError):
        parse_word(text, 4)


def test_square_derivation_demo():
    w = "ABBBABBBBABBBABBBABBBBA"
    expected = "ABBABBBABBABBABBBA"
    assert square_derive(w) == expected
    # the other chart: no BB means one A per block goes
    assert square_derive("BAABAAAB") == "BABAAB"
    with pytest.raises(InadmissibleWordError):
        square_derive("AABB")


def test_derive_times():
    assert derive_times(EX_WINDOW, 0) == EX_WINDOW
    chain1 = derive(permute(sector_permutation(4, 4), EX_WINDOW))
    assert chain1 == EX_DERIVED_1


def test_derive_times_counts_and_exhaustion():
    assert derive_times(EX_WINDOW, 2) == derive(derive(EX_WINDOW))
    # exhaustion stops the count early: a window runs out of letters, a period of them
    assert derive_times("ADADAD", 6) == ""
    assert derive_times(PeriodicWord.of("ABC"), 3) is None
    assert derive_times(PeriodicWord.of("AAB"), 4) == PeriodicWord.of("B")


def test_dodecagon_diagram_matches_traced_transitions():
    # sampling oracle for the general-n edge rule: transitions observed in many
    # sector-0 traces on the dodecagon are exactly the rule's edge set
    import random as _random

    from cutseq.exact_arith import ApproxDirection
    from cutseq.polygon import build_polygon
    from cutseq.tracer import TraceConfig, random_interior_point, trace_word

    rng = _random.Random(612)
    poly = build_polygon(6)
    seen = set()
    for _ in range(60):
        theta = rng.uniform(1e-4, math.pi / 12 - 1e-4)
        word = trace_word(
            poly, random_interior_point(poly, rng), ApproxDirection(theta),
            TraceConfig(max_crossings=2000),
        )
        seen.update(zip(word, word[1:]))
    assert seen == set(build_diagram(0, 6).edges)


def test_long_traced_word_is_admissible_in_unique_diagram():
    import random as _random

    from cutseq.exact_arith import ApproxDirection
    from cutseq.polygon import build_polygon, sector_of
    from cutseq.tracer import TraceConfig, random_interior_point, trace_word

    rng = _random.Random(613)
    poly = build_polygon(4)
    for _ in range(6):
        theta = rng.uniform(0.02, math.pi - 0.02)
        d = ApproxDirection(theta)
        word = trace_word(
            poly, random_interior_point(poly, rng), d, TraceConfig(max_crossings=10_000)
        )
        assert admissible_diagrams(word, 4) == (sector_of(d, 4),)


def test_factor_length_bounds_shared():
    # factor_set and factor_counts_upto share one bound on the length
    for length in (0, -1):
        with pytest.raises(CutseqError, match="must be >= 1"):
            factor_set("ADAD", length)
        with pytest.raises(CutseqError, match="must be >= 1"):
            factor_counts_upto("ADAD", length)
    with pytest.raises(CutseqError, match="exceeds word length"):
        factor_counts_upto("ADAD", 5)
