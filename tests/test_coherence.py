import math
import random

import pytest

from cutseq.coherence import (
    InsufficientWindowError,
    NotCoherentError,
    check_coherent,
    decompose_candidates,
    decompose_generation,
    recognize_direction,
    renormalize,
    sandwich_profile,
)
from cutseq.exact_arith import ApproxDirection
from cutseq.farey import itinerary, sector_interval
from cutseq.generation import generate
from cutseq.polygon import build_polygon
from cutseq.symbolic import (
    AmbiguousDiagramError,
    PeriodicWord,
    SectorIndexError,
    build_diagram,
    derive,
    permute,
    sector_permutation,
)
from cutseq.tracer import TraceConfig, random_interior_point, trace_word

EX_WINDOW = "AADBDAAAADBDBCBDBDAAAADBDAAAADBDAAAADBDBCBDBDAAADBDBDAAADB"
INCOHERENT = PeriodicWord.of("CCCBDBCCBDBCCBDBCBDADB")


def per(s):
    return PeriodicWord.of(s)


def test_sandwich_profile_example():
    prof = sandwich_profile("CACCCDBDCDC")
    assert prof == {
        "A": frozenset("C"),
        "C": frozenset("CD"),
        "B": frozenset("D"),
        "D": frozenset("C"),
    }


def test_sandwich_profile_conflicting_word():
    prof = sandwich_profile(INCOHERENT)
    assert prof["C"] == frozenset("CB")  # sandwiched both ways: incoherent


def test_sandwich_profile_short_window():
    assert sandwich_profile("A") == {}


def test_incoherent_word_is_infinitely_derivable_but_rejected():
    # derivation chain stays admissible forever
    w1 = derive(INCOHERENT)
    assert w1 == per("CDDDCA")
    assert 6 in __import__("cutseq").admissible_diagrams(w1, 4)
    assert derive(w1) == per("AD")
    # yet no pair (0, j) is coherent, failing on the sandwich groups
    for j in range(8):
        verdict = check_coherent(INCOHERENT, 0, j, 4)
        assert not verdict.accepted
        assert verdict.failed == "C1"


def test_example_window_coherent_at_its_chain():
    verdict = check_coherent(EX_WINDOW, 4, 7, 4)
    assert verdict.accepted
    assert 7 // 2 in verdict.groups


def test_periodic_word_coherent_in_two_sectors():
    w = per("ADBCBD")
    assert __import__("cutseq").admissible_diagrams(w, 4) == (0, 4)
    accepted = {}
    for i in (0, 4):
        for j in range(1, 8):
            if check_coherent(w, i, j, 4).accepted:
                accepted.setdefault(i, []).append(j)
    assert 0 in accepted and 4 in accepted
    # the checker's own pairs agree with the decomposition route
    for i in (0, 4):
        js = [j for j, _ in decompose_candidates(w, i, 4)]
        assert sorted(accepted[i]) == sorted(js)


def test_decompose_round_trip_example():
    # bi-infinite reading: the periodic word round-trips exactly
    word = generate(3, 0, per("CDBAABDBD"))
    j, v = decompose_generation(word, 0, 4)
    assert j == 3 and v == per("CDBAABDBD")
    # a window loses its two boundary letters to derivation, nothing else
    wstr = generate(3, 0, "CDBAABDBD")
    j2, v2 = decompose_generation(wstr, 0, 4)
    assert j2 == 3 and v2 == "DBAABDB"


def test_decompose_rejects_incoherent():
    with pytest.raises(NotCoherentError):
        decompose_generation(INCOHERENT, 0, 4)


def random_cycle(diagram, rng, max_len=20):
    letters = sorted({a for a, _ in diagram.edges})
    while True:
        start = rng.choice(letters)
        path = [start]
        for _ in range(max_len):
            nxt = rng.choice(diagram.successors(path[-1]))
            if nxt == start and len(path) >= 3:
                return PeriodicWord.of("".join(path))
            path.append(nxt)


def test_generate_then_decompose_property():
    rng = random.Random(1000)
    for _ in range(1000):
        k = rng.randint(1, 7)
        i = rng.randint(0, 7)
        v = random_cycle(build_diagram(k, 4), rng)
        w = generate(k, i, v, 4)
        candidates = decompose_candidates(w, i, 4)
        assert (k, v) in candidates
        # and the group check agrees with the decomposition on every sector
        for j in range(1, 8):
            in_candidates = any(j == jj for jj, _ in candidates)
            assert check_coherent(w, i, j, 4).accepted == in_candidates


def test_renormalize_example_chain():
    tr = renormalize(EX_WINDOW, 3, 4)
    assert tr.failure is None
    assert tr.diagrams == (4, 7, 2)
    from cutseq.symbolic import word_text

    assert word_text(tr.steps[0].normalized) == (
        "CCBDBCCCCBDBDADBDBCCCCBDBCCCCBDBCCCCBDBDADBDBCCCBDBDBCCCBD"
    )
    assert word_text(tr.steps[1].word) == "DCCDBABDCCDCCDCCDBABDCDBDC"
    assert word_text(tr.steps[1].normalized) == "BCCBDADBCCBCCBCCBDADBCBDBC"
    assert word_text(tr.steps[2].word) == "ABBACD"


def test_renormalize_periodic_ambiguity():
    # admissible in four diagrams: halts unless a start diagram is supplied
    tr = renormalize(per("AD"), 5, 4)
    assert tr.failure == "ambiguous" and tr.ambiguous_set == (0, 1, 4, 5)
    tr1 = renormalize(per("AD"), 5, 4, start_diagram=1)
    assert tr1.failure is None and tr1.tail == 1 and tr1.diagrams == (1,) * 5
    # a genuine tail split is resolved to the itinerary form and recorded
    tr3 = renormalize(per("ADBD"), 5, 4, start_diagram=0)
    assert tr3.failure is None
    assert tr3.diagrams == (0, 7, 1, 1, 1)
    assert tr3.split == (1, (6, 7))
    tr4 = renormalize(per("ADBD"), 5, 4, start_diagram=4)
    assert tr4.diagrams == (4, 3, 1, 1, 1) and tr4.split == (1, (2, 3))


CHAIN_WORD = per("ADBCBCCBCBDADBCBCCBCCBCBD")


@pytest.mark.parametrize("sector", [-1, 8, 99])
def test_sector_outside_range_is_refused_not_rejected(sector):
    # j, like i, is a sector index; j = 0 is one, which no derived word takes (C2)
    message = rf"^sector index {sector} outside 0\.\.7$"
    with pytest.raises(SectorIndexError, match=message):
        check_coherent(CHAIN_WORD, 0, sector)
    with pytest.raises(SectorIndexError, match=message):
        renormalize(CHAIN_WORD, 3, 4, start_diagram=sector)
    assert check_coherent(CHAIN_WORD, 0, 0).failed == "C2"


def test_renormalize_fixed_words():
    # period-<=2 words fixed under the sector-1 relabelling renormalize to
    # themselves with constant entry 1; the sector-(2n-1) pair with entry 7
    tr = renormalize(per("BC"), 4, 4, start_diagram=1)
    assert tr.tail == 1 and tr.diagrams == (1, 1, 1, 1)
    trc = renormalize(per("C"), 4, 4, start_diagram=7)
    assert trc.tail == 7
    trdb = renormalize(per("DB"), 4, 4, start_diagram=7)
    assert trdb.tail == 7


def test_renormalize_window_exhaustion():
    tr = renormalize(EX_WINDOW, 6, 4)
    assert tr.failure == "window_exhausted"
    assert tr.diagrams == (4, 7, 2)


def test_recognize_example_window():
    iv = recognize_direction(EX_WINDOW, 3, 4)
    assert iv.prefix == (4, 7, 2)
    expected = sector_interval((4, 7, 2), 4)
    assert iv.theta_bounds() == expected.theta_bounds()


def test_recognize_traced_word():
    poly = build_polygon(4)
    rng = random.Random(21)
    theta = 0.9
    word = trace_word(
        poly, random_interior_point(poly, rng), ApproxDirection(theta),
        TraceConfig(max_crossings=100_000),
    )
    iv = recognize_direction(word, 6, 4)
    assert iv.contains_theta(theta)
    assert iv.prefix == itinerary(ApproxDirection(theta), 4, 6)
    # deeper recognition gives nested intervals
    shallow = recognize_direction(word, 3, 4)
    slo, shi = shallow.theta_bounds()
    dlo, dhi = iv.theta_bounds()
    assert slo - 1e-12 <= dlo and dhi <= shi + 1e-12


def test_recognize_insufficient_window():
    with pytest.raises(InsufficientWindowError):
        recognize_direction(EX_WINDOW, 8, 4)


def test_coherence_of_traced_windows():
    poly = build_polygon(4)
    rng = random.Random(33)
    for _ in range(5):
        theta = rng.uniform(0.05, math.pi - 0.05)
        word = trace_word(
            poly, random_interior_point(poly, rng), ApproxDirection(theta),
            TraceConfig(max_crossings=30_000),
        )
        seq = itinerary(ApproxDirection(theta), 4, 3)
        cur = word
        for k in range(2):
            verdict = check_coherent(cur, seq[k], seq[k + 1], 4)
            assert verdict.accepted, (theta, k, verdict)
            cur = derive(permute(sector_permutation(seq[k], 4), cur))
