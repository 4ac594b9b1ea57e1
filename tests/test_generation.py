import hashlib
import math
import random
from unittest import mock

import pytest

from cutseq.coherence import check_coherent, decompose_candidates
from cutseq.exact_arith import ApproxDirection
from cutseq.generation import (
    InvalidPrefixError,
    _insertions,
    build_family,
    enumerate_factors,
    generate,
    periodic_seeds,
    sandwich_group,
    synthesize_table,
)
from cutseq.polygon import build_polygon
from cutseq.symbolic import (
    CutseqError,
    InadmissibleWordError,
    PeriodicWord,
    SectorIndexError,
    build_diagram,
    derive,
    factor_set,
)
from cutseq.tracer import TraceConfig, trace_word


def canon(words):
    return sorted(str(w) for w in words)


def per(s):
    return PeriodicWord.of(s)


def test_cached_tables_are_read_only():
    # a write to a cached table would reach every later caller
    w = per("ADBCBCCBCBDADBCBCCBCCBCBD")
    before = check_coherent(w, 0, 1)
    with pytest.raises(TypeError):
        sandwich_group(0, 4)["B"] = "A"
    with pytest.raises(TypeError):
        synthesize_table(4).words[(3, "D", "B")] = "A"
    assert sandwich_group(0, 4)["B"] == "C" and synthesize_table(4).words[(3, "D", "B")] == "BCC"
    assert check_coherent(w, 0, 1) == before and before.accepted


def test_cached_insertions_are_read_only():
    # coherence reads these pieces for every window it checks
    with pytest.raises(TypeError):
        _insertions(3, 4)[("D", "B")] = "D"
    assert _insertions(3, 4)[("D", "B")] == "DBCC"


def test_equal_interpolation_tables_hash_equal():
    t = synthesize_table(4)
    synthesize_table.cache_clear()
    u = synthesize_table(4)  # built again, equal but not the cached object
    assert u is not t and u == t and hash(u) == hash(t) and len({t, u}) == 1
    assert synthesize_table(5) != t


def test_sandwich_groups_octagon():
    assert sandwich_group(0, 4) == {"A": "D", "B": "C", "C": "B", "D": "A"}
    assert sandwich_group(1, 4) == {"A": "D", "B": "C", "C": "B", "D": "B"}
    assert sandwich_group(2, 4) == {"A": "D", "B": "C", "C": "C", "D": "B"}
    assert sandwich_group(3, 4) == {"A": "D", "B": "D", "C": "C", "D": "B"}


def test_table_entries_sector_three():
    t = synthesize_table(4)
    assert t.words[(3, "D", "B")] == "BCC"
    assert t.words[(3, "A", "A")] == "DBCCBD"
    assert t.words[(3, "A", "B")] == "DBCC"
    assert t.words[(3, "B", "A")] == "CCBD"
    assert t.words[(3, "C", "D")] == "B"
    assert t.words[(3, "B", "D")] == "CCB"


def test_table_entries_sector_six():
    t = synthesize_table(4)
    assert t.words[(6, "B", "A")] == "D"
    assert t.words[(6, "A", "B")] == "D"
    assert t.words[(6, "D", "D")] == "BCCB"
    assert t.words[(6, "A", "C")] == "DBC"
    assert t.words[(6, "C", "A")] == "CBD"
    assert t.words[(6, "C", "D")] == "CB"
    assert t.words[(6, "D", "C")] == "BC"


def test_table_total_over_all_edges():
    for n in (4, 5, 6):
        t = synthesize_table(n)
        for k in range(1, 2 * n):
            for a, b in build_diagram(k, n).edges:
                assert (k, a, b) in t.words


def test_table_defining_constraint():
    # around any vertex letter, the inserted neighbourhood keeps exactly that
    # letter sandwiched and nothing else
    for n in (4, 6):
        t = synthesize_table(n)
        d0 = build_diagram(0, n)
        for k in range(1, 2 * n):
            dk = build_diagram(k, n)
            for l0, l in dk.edges:
                for l2 in dk.successors(l):
                    chunk = l0 + t.words[(k, l0, l)] + l + t.words[(k, l, l2)] + l2
                    assert d0.admits(chunk)
                    assert derive(chunk) == l


def test_tables_keep_their_digest():
    # every table for n = 3..26, as the sandwich-free path search built them
    tables = repr([sorted(synthesize_table(n).words.items()) for n in range(3, 27)])
    assert hashlib.sha256(tables.encode()).hexdigest() == (
        "0224d8d08ff5567bc17da76293ee3c683af1629bd3ff4cc456167f5ec0e0d567"
    )


def test_table_rejects_binary_alphabet():
    with pytest.raises(ValueError):
        synthesize_table(2)


def test_generate_example_sector_three():
    out = generate(3, 0, "CDBAABDBD")
    assert out == "CBDBCCBCCBDADBCCBDADBCCBCCBDBCCBCCBD"
    assert len(out) == 36


def test_generate_rejects_inadmissible_input():
    with pytest.raises(InadmissibleWordError):
        generate(3, 0, "ADAD")  # AD is not a sector-3 transition
    with pytest.raises(InadmissibleWordError):
        generate(3, 0, "CC")


@pytest.mark.parametrize(
    "k, i, match",
    [(0, 0, "source diagram 0 outside 1..7"), (8, 0, "source diagram 8 outside 1..7"),
     (3, 8, "target diagram 8 outside 0..7"), (3, -1, "target diagram -1 outside 0..7")],
)
def test_generate_refuses_sources_and_targets_outside_range(k, i, match):
    with pytest.raises(InvalidPrefixError, match=match):
        generate(k, i, "CDBAABDBD")


def test_generate_periodic_examples():
    assert generate(6, 0, per("BA")) == per("BDAD")
    assert generate(6, 1, per("BA")) == per("CADA")


def test_periodic_seeds_octagon():
    assert canon(periodic_seeds(6, 4)) == canon([per("BA"), per("AC"), per("CD"), per("D")])
    for k in range(8):
        seeds = periodic_seeds(k, 4)
        assert len(seeds) == 4
        dk = build_diagram(k, 4)
        for w in seeds:
            assert dk.admits(w)


def test_family_examples():
    assert canon(build_family((0, 6))) == canon(
        [per("BDAD"), per("ADBCCCBD"), per("CCBDBC"), per("DBCCB")]
    )
    assert canon(build_family((1, 6))) == canon(
        [per("CADA"), per("DACBBBCA"), per("BBCACB"), per("ACBBC")]
    )
    assert canon(build_family((0, 1, 6))) == canon(
        [
            per("CBDADADB"),
            per("DADBCBCCBCCBCBDA"),
            per("BCCBCBDADBCBCC"),
            per("ADBCBCCBCBD"),
        ]
    )
    # zero-length chain gives the seed set itself
    assert build_family((6,)) == periodic_seeds(6, 4)
    with pytest.raises(InvalidPrefixError):
        build_family((0, 0, 6))


def test_enumerate_factors_checks_the_whole_prefix():
    # the complexity ceiling is reached before the family that reads entry 99
    with pytest.raises(InvalidPrefixError):
        enumerate_factors((0, 99), 2)
    with pytest.raises(InvalidPrefixError):
        enumerate_factors((0, 1, 6, 0), 2)


def test_generation_inverts_derivation_periodic():
    rng = random.Random(404)
    for k in range(1, 8):
        dk = build_diagram(k, 4)
        for _ in range(200):
            w = random_cycle(dk, rng)
            image = generate(k, 0, w)
            assert build_diagram(0, 4).admits(image)
            assert derive(image) == w


def random_cycle(diagram, rng, max_len=24):
    letters = sorted({a for a, _ in diagram.edges})
    while True:
        start = rng.choice(letters)
        path = [start]
        for _ in range(max_len):
            nxt = rng.choice(diagram.successors(path[-1]))
            if nxt == start and len(path) >= rng.randint(1, 6):
                return PeriodicWord.of("".join(path))
            path.append(nxt)


def test_sandwiched_letters_are_the_source_word():
    rng = random.Random(88)
    for k in range(1, 8):
        dk = build_diagram(k, 4)
        for _ in range(50):
            w = random_cycle(dk, rng)
            image = generate(k, 0, w)
            p = image.period
            m = len(p)
            sandwiched = "".join(
                p[i] for i in range(m) if p[(i - 1) % m] == p[(i + 1) % m]
            )
            assert PeriodicWord.of(sandwiched) == w


def test_generation_preserves_and_grows_period():
    rng = random.Random(13)
    for k in range(1, 8):
        dk = build_diagram(k, 4)
        for _ in range(30):
            w = random_cycle(dk, rng)
            image = generate(k, 0, w)
            assert isinstance(image, PeriodicWord)
            assert len(image.period) >= len(w.period)


def test_family_nesting_structure():
    # the depth k+1 family is the depth k chain applied to generated seeds
    rng = random.Random(2)
    prefix = (0, 3, 5, 2)
    inner = generate(2, 5, per("AC"), 4)
    chained = build_family(prefix, seeds=[per("AC")])
    direct = build_family(prefix[:-1], seeds=[inner])
    assert chained == direct


def test_enumerate_factors_single_letters():
    factors = enumerate_factors(ApproxDirection(0.9), 1, depth=8)
    assert factors == {"A", "B", "C", "D"}


def test_enumerate_factors_matches_trace():
    poly = build_polygon(4)
    theta = 0.9
    enum = enumerate_factors(ApproxDirection(theta), 6, depth=25)
    traced = trace_word(
        poly, (0.05, -0.11), ApproxDirection(theta), TraceConfig(max_crossings=200_000)
    )
    assert factor_set(traced, 6) == enum
    assert len(enum) == 3 * 6 + 1


def test_enumerate_factors_terminating_direction():
    # at the cylinder direction pi/8 the trace only sees the two period-2 words
    poly = build_polygon(4)
    traced = trace_word(
        poly, (0.1, 1 / 7), ApproxDirection(math.pi / 8), TraceConfig(max_crossings=5000)
    )
    enum = enumerate_factors(ApproxDirection(math.pi / 8), 4, depth=10)
    assert factor_set(traced, 4) <= enum
    assert factor_set(traced, 4) <= factor_set(per("AD"), 4) | factor_set(per("BC"), 4)


def test_enumerate_factors_stops_at_three_equal_sets():
    # a family that never changes, below the 16-factor ceiling of length 5
    family = frozenset({per("AD")})
    with mock.patch("cutseq.generation.build_family", return_value=family) as built:
        factors = enumerate_factors(ApproxDirection(0.9), 5, depth=30)
    assert built.call_count == 3
    assert factors == factor_set(per("AD"), 5)


def test_enumerate_factors_word_length_valve_returns_the_deepest_set():
    prefix = (0, 1, 6, 2, 5, 3, 7, 1, 4, 2, 6)
    with mock.patch("cutseq.generation.build_family", wraps=build_family) as built:
        enumerate_factors(prefix, 8)
    assert built.call_count > 2  # without the valve the deepening goes on
    with mock.patch("cutseq.generation._MAX_WORD_LENGTH", 5), mock.patch(
        "cutseq.generation.build_family", wraps=build_family
    ) as built:
        factors = enumerate_factors(prefix, 8)
    # the family at depth 1 has a word of 6 letters, and 13 factors against a ceiling of 25
    assert built.call_count == 2
    deepest = build_family(prefix[:2])
    assert factors == frozenset().union(*(factor_set(w, 8) for w in deepest))
    assert len(factors) < 25


def test_family_members_are_periodic_cutting_sequences():
    # every generated family word is realized by a periodic trajectory at the
    # terminating direction its renormalization chain determines (each word
    # occupies one cylinder of that direction, so several starts are scanned)
    from cutseq.coherence import renormalize
    from cutseq.farey import Expansion, direction_from_expansion
    from cutseq.tracer import (
        TraceConfig,
        VertexHit,
        detect_period,
        random_interior_point,
        trace_word,
    )

    rng = random.Random(77)
    poly = build_polygon(4)
    for prefix in [(0, 1, 6), (0, 6)]:
        for w in build_family(prefix):
            tr = renormalize(w, 14, 4, start_diagram=prefix[0])
            assert tr.failure is None and tr.tail in (1, 7)
            cut = tr.depth
            while cut > 1 and tr.diagrams[cut - 1] == tr.tail:
                cut -= 1
            exp = Expansion(4, tr.diagrams[:cut], tr.tail)
            direction = ApproxDirection(direction_from_expansion(exp, 14).lo.theta())
            realized = False
            for _ in range(80):
                start = random_interior_point(poly, rng)
                try:
                    period = detect_period(
                        poly, start, direction, TraceConfig(max_crossings=4000)
                    )
                    if period != len(w.period):
                        continue
                    traced = trace_word(
                        poly, start, direction, TraceConfig(max_crossings=period)
                    )
                except VertexHit:
                    continue
                if PeriodicWord.of(traced) == w:
                    realized = True
                    break
            assert realized, (prefix, str(w))


@pytest.mark.parametrize("n", [0, -1, 1, 27])
def test_seeds_reject_alphabet_size(n):
    with pytest.raises(CutseqError, match="alphabet size" if n > 26 else "at least 2 side pairs"):
        periodic_seeds(1, n)


@pytest.mark.parametrize("k", [-1, 8])
def test_seeds_reject_sector_outside_range(k):
    with pytest.raises(SectorIndexError, match=f"sector index {k} outside 0..7"):
        periodic_seeds(k, 4)


def _generation_outputs():
    """Printed outputs of generate, decompose_candidates, build_family and
    enumerate_factors on fixed-seed inputs: periodic words and str over
    n = 3..5, families along random prefixes and factor sets of prefixes and
    float directions."""
    rng = random.Random(2011)
    out = []
    for n in (3, 4, 5):
        for k in range(1, 2 * n):
            for _ in range(6):
                w = random_cycle(build_diagram(k, n), rng)
                i = rng.randrange(2 * n)
                text = w.window(rng.randint(1, 30))
                for x in (w, text):
                    g = generate(k, i, x, n)
                    out += [repr(g), repr(decompose_candidates(g, i, n))]
    for _ in range(30):
        n = rng.choice((3, 4, 4, 5))
        prefix = (rng.randrange(2 * n),) + tuple(
            rng.randint(1, 2 * n - 1) for _ in range(rng.randint(0, 3))
        )
        out.append(repr(sorted(build_family(prefix, n=n), key=str)))
    for _ in range(6):
        prefix = (rng.randrange(8),) + tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 4)))
        out.append(repr(sorted(enumerate_factors(prefix, rng.randint(1, 12)))))
        theta = rng.uniform(0.05, math.pi - 0.05)
        out.append(repr(sorted(enumerate_factors(ApproxDirection(theta), rng.randint(1, 12), 12))))
    return out


def test_generation_outputs_digest():
    # computed when every PeriodicWord was stored in its least rotation: the rotation a
    # word holds changes no output
    digest = hashlib.sha256("\n".join(_generation_outputs()).encode()).hexdigest()
    assert digest == "c9dbc49cfdae62ff745a67d7dcb20b9ea5ea8049341b9e2ba8302d365d7c4e59"
