"""Generation operators: the combinatorial inverses of derivation.

Deriving a word admissible in sector 0 leaves a word admissible in some sector
k >= 1; generation undoes this by re-inserting, between every pair of adjacent
letters, a fixed interpolating word.  The interpolating word for an edge
L1 -> L2 of the sector-k diagram is read off the sector-0 diagram, not
transcribed: a path through that diagram that sandwiches no letter is a
stretch of its walk (`symbolic.sector0_walk`, ADBCCBDA for the octagon), and
the word is the inside of the one stretch from L1 to L2 whose letters next to
L1 and L2 sandwich them according to the sandwich group of index floor(k/2).
Chaining generation operators along an expansion prefix builds the word
families whose factors exhaust the cutting sequences of a direction.

Generation works on the whole text with `str.replace`: for each edge a -> b
with a non-empty interpolating word w, every pair ab becomes a + w.lower() + b.
The lowercase marks what was inserted, so no later pattern matches across an
insertion; a self-loop a -> a runs twice, because one pass over a run of a's
skips overlapping matches; one `upper()` ends it.  A periodic word runs on its
period with the first letter repeated, for the wrap pair, and drops it again.
"""

from __future__ import annotations

from functools import lru_cache

from .farey import InvalidPrefixError, _check_prefix, itinerary
from .symbolic import (
    CutseqError,
    InadmissibleWordError,
    PeriodicWord,
    Record,
    SectorIndexError,
    Wordlike,
    WordWindow,
    _held,
    boundary_diagram,
    build_diagram,
    check_count,
    check_sector,
    factor_set,
    letter_at,
    letters_for,
    permute,
    sector0_walk,
    sector_permutation,
    word_text,
)


class SynthesisFailure(CutseqError):
    """No (or no unique) interpolating word satisfies the sandwich constraints."""


@lru_cache(maxsize=None)
def sandwich_group(l: int, n: int) -> dict[str, str]:
    """Group index l in 0..n-1: the letter that must sandwich each letter.

    Letters with index j <= n - l are sandwiched by their image under the
    reflection permutation j -> n+1-j, the rest by the vertical-reflection
    permutation (1 fixed, j -> n+2-j).
    """
    if not 0 <= l < n:
        raise SectorIndexError(f"sandwich group index {l} outside 0..{n - 1}")
    # l < n puts letter 1 in the first range, so the second never meets its fixed letter
    return {letter_at(j): letter_at(n + 1 - j if j <= n - l else n + 2 - j)
            for j in range(1, n + 1)}


class InterpolationTable(Record):
    """Interpolating words for every edge of every sector diagram k = 1..2n-1."""

    __slots__ = _fields = ("n", "words")  # words: {(k, a, b): word}


@lru_cache(maxsize=None)
def synthesize_table(n: int) -> InterpolationTable:
    """Build the full interpolation table for alphabet size n >= 3.

    For each sector k and each edge L1 -> L2 of its diagram, exactly one
    stretch of the sector-0 walk from L1 to L2 must match the sandwich group
    floor(k/2) at both ends: its second letter must sandwich L1 and its last
    but one L2.  The word is the stretch's inner letters; when there are none,
    those two letters are L2 and L1, which must sandwich each other.
    """
    if n < 3:
        raise CutseqError("generation needs an alphabet of at least 3 letters")
    walk = sector0_walk(n)
    words: dict[tuple[int, str, str], str] = {}
    for k in range(1, 2 * n):
        group = sandwich_group(k // 2, n)
        for a, b in build_diagram(k, n).edges:
            candidates = [
                walk[p + 1 : q]
                for p in (walk.find(a), walk.rfind(a))
                for q in (walk.find(b), walk.rfind(b))
                if p < q and walk[p + 1] == group[a] and walk[q - 1] == group[b]
            ]
            if len(candidates) != 1:
                raise SynthesisFailure(
                    f"edge {a}->{b} of diagram {k}: {len(candidates)} candidate "
                    f"interpolations {candidates!r}"
                )
            words[(k, a, b)] = candidates[0]
    return InterpolationTable(n, words)


@lru_cache(maxsize=None)
def _insertions(k: int, n: int) -> dict[tuple[str, str], str]:
    """Edge (a, b) of diagram k -> a + its interpolating word: the piece a generated word
    holds for each pair ab."""
    return {(a, b): a + w for (j, a, b), w in synthesize_table(n).words.items() if j == k}


@lru_cache(maxsize=None)
def _marked_insertions(k: int, n: int) -> tuple[tuple[str, str], ...]:
    """(a + b, a + w.lower() + b) for each edge a -> b of diagram k with a non-empty
    interpolating word w, a self-loop twice: generation's replacements (module doc)."""
    out = []
    for (j, a, b), w in synthesize_table(n).words.items():
        if j == k and w:
            out += [(a + b, a + w.lower() + b)] * (2 if a == b else 1)
    return tuple(out)


# -- generation operators ------------------------------------------------------


def generate(k: int, i: int, w: Wordlike, n: int = 4) -> Wordlike:
    """Interpolate a word admissible in sector k into one admissible in sector i.

    The insertion produces a sector-0 word whose derived word is w; relabelling
    by the inverse renormalizing permutation moves it to sector i.  Periodic
    words are interpolated around the wrap as well and stay periodic.
    """
    if not 1 <= k <= 2 * n - 1:
        raise InvalidPrefixError(f"source diagram {k} outside 1..{2 * n - 1}")
    if not 0 <= i <= 2 * n - 1:
        raise InvalidPrefixError(f"target diagram {i} outside 0..{2 * n - 1}")
    _insertions(k, n)  # an alphabet too small for generation fails before admissibility
    if not build_diagram(k, n).admits(w):
        raise InadmissibleWordError(f"word {word_text(w)!r} not admissible in diagram {k}")
    return _generate_admitted(k, i, w, n)


def _generate_admitted(k: int, i: int, w: Wordlike, n: int) -> Wordlike:
    """`generate` for sectors in range and a word already known to be admissible in k.

    A periodic word is interpolated from the rotation it holds.
    """
    s = _held(w)
    if not s:
        return w
    periodic = isinstance(w, PeriodicWord)
    t = s + s[0] if periodic else s
    if len(t) > 1:  # a lone letter has no pair to admit, so it may be any character
        for pair, marked in _marked_insertions(k, n):
            t = t.replace(pair, marked)
        t = t.upper()
    if periodic:
        out: Wordlike = PeriodicWord.of(t[:-1])
    elif isinstance(w, WordWindow):
        out = WordWindow(t)
    else:
        out = t
    if i == 0:
        return out
    return permute(sector_permutation(i, n).inverse(), out)


def periodic_seeds(k: int, n: int = 4) -> frozenset[PeriodicWord]:
    """Periodic words of period 1 or 2 living on a boundary diagram next to sector k.

    These are the cutting sequences of the two cylinder directions bounding
    sector k; for the octagon each set has exactly four elements.
    """
    letters_for(n)  # an alphabet size error comes before a sector error
    check_sector(k, n)
    seen: set[PeriodicWord] = set()
    for diagram in (boundary_diagram(k, n), boundary_diagram((k + 1) % (2 * n), n)):
        for a, b in diagram.edges:
            if a == b:
                seen.add(PeriodicWord.of(a))
            elif (b, a) in diagram.edges:
                seen.add(PeriodicWord.of(a + b))
    return frozenset(seen)


def build_family(
    prefix: tuple[int, ...] | list[int],
    seeds=None,
    n: int = 4,
) -> frozenset:
    """Chained generation along an expansion prefix, applied to every seed.

    With the default periodic seeds this produces periodic cutting sequences
    whose expansions start with the prefix; arbitrary admissible seed words
    give the corresponding cylinder of the closure.
    """
    prefix = tuple(prefix)
    _check_prefix(prefix, n)
    if seeds is None:
        seeds = periodic_seeds(prefix[-1], n)
    words = list(seeds)
    for pos in range(len(prefix) - 1, 0, -1):
        words = [generate(prefix[pos], prefix[pos - 1], w, n) for w in words]
    return frozenset(words)


# enumerate_factors stops deepening once a generated word is longer than this
_MAX_WORD_LENGTH = 200_000


def enumerate_factors(
    direction_or_prefix,
    length: int,
    depth: int = 30,
    n: int = 4,
) -> frozenset[str]:
    """All length-l factors of cutting sequences in a direction (or prefix cylinder).

    The periodic family along the expansion prefix is deepened until its factor
    set is unchanged for three consecutive depths, the (n-1)l+1 complexity
    ceiling is reached, or the depth cap runs out.  The deepest set is returned:
    shallow families also code nearby directions whose spurious factors die out
    as the cylinder shrinks, so sets from different depths are never mixed.
    Generated words grow geometrically through expanding branches, hence the
    word-length safety valve (the set has long stabilized by then).
    """
    check_count(length, "length")
    check_count(depth, "depth")
    if isinstance(direction_or_prefix, (tuple, list)):
        entries = tuple(direction_or_prefix)
        _check_prefix(entries, n)
        depth = len(entries) - 1
    else:
        entries = itinerary(direction_or_prefix, n, depth + 1)
    ceiling = (n - 1) * length + 1
    factors: frozenset[str] = frozenset()
    previous: frozenset[str] | None = None
    stable = 0
    for k in range(depth + 1):
        family = build_family(entries[: k + 1], n=n)
        fs = frozenset().union(*(factor_set(w, length) for w in family))
        factors = fs
        if len(fs) >= ceiling:
            break
        if previous is not None and fs == previous:
            stable += 1
            if stable >= 2:  # three consecutive equal sets
                break
        else:
            stable = 0
        previous = fs
        if max(len(_held(w)) for w in family) > _MAX_WORD_LENGTH:
            break
    return factors
