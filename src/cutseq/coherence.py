"""Coherence checks, word-level renormalization, and direction recognition.

A word admissible in sector i is coherent for the pair (i, j) when its
normalized form has all sandwiched letters in a single sandwich group, the
derived word is admissible in sector j >= 1, and the group index is floor(j/2).
Coherence is exactly the condition under which the word is a generated image
g(j -> i) of its own derived word, and the two characterizations are
implemented independently: one through sandwich profiles and groups, one
through explicit regeneration.  Iterating normalize-and-derive yields the
sequence of admissible sectors, which is the expansion of the direction of any
trajectory realizing the word.

Each level asks two alphabet questions: which letter pairs occur (C0, C2, the
admissible sectors) and which letters sandwich which (C1, the sandwich
profile).  On long words both read one pass of pair codes, one byte per
adjacent pair, with the pairs that are not the start of a sandwich masked to
0xFF for the profile; each pair or sandwich of present letters is then one byte
search (see the symbolic module docstring; short words and large alphabets keep
one zip, which is cheaper there).  `derive` runs on whole-text integer and
bytes operations, so a level makes no per-letter pass in Python.  `renormalize`
derives each level once: the coherence filter of a later level reuses the word
the previous level derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .farey import SectorInterval, sector_interval
from .generation import _generate_admitted, sandwich_group, synthesize_table
from .symbolic import (
    AmbiguousDiagramError,
    CutseqError,
    InadmissibleWordError,
    PeriodicWord,
    Wordlike,
    _held,
    _mark_unsandwiched,
    _pair_codes,
    _wrapped,
    admissible_diagrams,
    build_diagram,
    derive,
    is_exhausted,
    permute,
    sector_permutation,
    word_text,
)


class NotCoherentError(CutseqError):
    """The word is not a generated image for the requested sector."""


class InsufficientWindowError(CutseqError):
    """The window ran out of letters before the requested depth."""


def sandwich_profile(w: Wordlike) -> dict[str, frozenset[str]]:
    """For each letter, the set of letters sandwiching it somewhere in the word.

    Only interior occurrences count: the boundary letters of a window have
    unknown neighbours.  Periodic words wrap around.  The letters come in the
    order of their first sandwiched occurrence.
    """
    t = _wrapped(w)
    coded = _pair_codes(t)
    if coded is None:
        prof: dict[str, set[str]] = {}
        # dict.fromkeys: distinct pairs, letters in order of first sandwiched occurrence
        for letter, left in dict.fromkeys((b, a) for a, b, c in zip(t, t[1:], t[2:]) if a == c):
            prof.setdefault(letter, set()).add(left)
        return {letter: frozenset(v) for letter, v in prof.items()}
    letters, codes, pairs = coded
    m = len(t) - 2
    # byte i: the code of the pair t[i] t[i + 1] where t[i + 2] == t[i], else 0xFF
    sandwiches = _mark_unsandwiched(pairs >> 8, codes, m)
    found = []
    for y, b in enumerate(letters):
        # the first sandwich aba of each a; the first position of each letter orders the keys
        hits = [(i, a) for x, a in enumerate(letters) if (i := sandwiches.find(8 * x + y)) >= 0]
        if hits:
            found.append((min(hits)[0], b, frozenset(a for _, a in hits)))
    return {b: lefts for _, b, lefts in sorted(found)}


def fitting_groups(profile: dict[str, frozenset[str]], n: int) -> tuple[int, ...]:
    """Sandwich-group indices consistent with every sandwiched occurrence seen.

    A letter that never occurs sandwiched constrains nothing; this is the
    weakest sound reading on finite windows.
    """
    out = []
    for l in range(n):
        group = sandwich_group(l, n)
        if all(seen <= {group[letter]} for letter, seen in profile.items()):
            out.append(l)
    return tuple(out)


@dataclass(frozen=True)
class CoherenceVerdict:
    accepted: bool
    failed: str | None = None  # "C0" | "C1" | "C2" | "C3"
    groups: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.accepted


def check_coherent(w: Wordlike, i: int, j: int, n: int = 4) -> CoherenceVerdict:
    """Conditions C0..C3 for the pair (i, j); rejection names the first failure."""
    if not build_diagram(i, n).admits(w):
        return CoherenceVerdict(False, "C0")
    nw = permute(sector_permutation(i, n), w)
    groups = fitting_groups(sandwich_profile(nw), n)
    if not groups:
        return CoherenceVerdict(False, "C1", ())
    derived = derive(nw)
    if derived is None or not 1 <= j <= 2 * n - 1 or not build_diagram(j, n).admits(derived):
        return CoherenceVerdict(False, "C2", groups)
    if j // 2 not in groups:
        return CoherenceVerdict(False, "C3", groups)
    return CoherenceVerdict(True, None, groups)


def _core_matches(nw: Wordlike, j: int, v: Wordlike, n: int) -> bool:
    """Does regenerating v with sector-j rules reproduce the normalized word?

    Sector j (1 <= j < 2n) must admit v, as every sector of
    `admissible_diagrams(v)` does, so generation skips that check.  Periodic
    words must match exactly (as rotations).  For a window only the stretch
    between its first and last sandwiched letters is determined by v, and the
    overhanging stubs must be a suffix and a prefix of interpolating words of
    the right sector.
    """
    if isinstance(nw, PeriodicWord):
        return _generate_admitted(j, 0, v, n) == nw
    s = word_text(nw)
    vtext = word_text(v)
    lo = _first_sandwiched(s)
    hi = len(s) - 1 - _first_sandwiched(s[::-1])
    if s[lo : hi + 1] != _generate_admitted(j, 0, vtext, n):
        return False
    table = synthesize_table(n)
    return _is_suffix_of_rule(s[:lo], table, j, vtext[0]) and _is_prefix_of_rule(
        s[hi + 1 :], table, j, vtext[-1]
    )


def _first_sandwiched(s: str) -> int:
    """Index of the first sandwiched letter of s (one must exist)."""
    return next(i for i, (a, c) in enumerate(zip(s, s[2:]), 1) if a == c)


def _is_suffix_of_rule(stub: str, table, j: int, target: str) -> bool:
    """Can stub be the visible tail of [previous letter + interpolating word]?"""
    if not stub:
        return True
    return any(
        b == target and (a + w).endswith(stub)
        for (k, a, b), w in table.words.items()
        if k == j
    )


def _is_prefix_of_rule(stub: str, table, j: int, source: str) -> bool:
    """Can stub be the visible head of [interpolating word + next letter]?"""
    if not stub:
        return True
    return any(
        a == source and (w + b).startswith(stub)
        for (k, a, b), w in table.words.items()
        if k == j
    )


def decompose_candidates(w: Wordlike, i: int, n: int = 4) -> list[tuple[int, Wordlike]]:
    """All sectors j such that w is the sector-(i) generated image of derive(n(w))."""
    if not build_diagram(i, n).admits(w):
        return []
    nw = permute(sector_permutation(i, n), w)
    v = derive(nw)
    if is_exhausted(v):
        return []
    return [(j, v) for j in _coherent_sectors(nw, v, admissible_diagrams(v, n), n)]


def _coherent_sectors(nw: Wordlike, v: Wordlike, found: tuple[int, ...], n: int) -> list[int]:
    """The sectors j >= 1 among `found` (those admitting v = derive(nw)) that regenerate nw."""
    return [j for j in found if j >= 1 and _core_matches(nw, j, v, n)]


def decompose_generation(w: Wordlike, i: int, n: int = 4) -> tuple[int, Wordlike]:
    """Find (j, v) with w = g(j -> i, v), v = derive(n(w)); cross-validated.

    Raises NotCoherentError when no sector works and AmbiguousDiagramError when
    several do (which happens only for short periodic words).
    """
    candidates = decompose_candidates(w, i, n)
    if not candidates:
        raise NotCoherentError(f"word is not coherent at sector {i}")
    if len(candidates) > 1:
        raise AmbiguousDiagramError(
            f"decomposition ambiguous: sectors {[j for j, _ in candidates]}"
        )
    return candidates[0]


# -- renormalization -----------------------------------------------------------


@dataclass(frozen=True)
class RenormalizationStep:
    word: Wordlike
    diagram: int
    normalized: Wordlike


@dataclass
class RenormalizationTrace:
    steps: list[RenormalizationStep] = field(default_factory=list)
    failure: str | None = None  # "inadmissible" | "ambiguous" | "window_exhausted"
    ambiguous_set: tuple[int, ...] = ()
    tail: int | None = None
    split: tuple[int, tuple[int, ...]] | None = None  # (step, candidate pair)

    @property
    def diagrams(self) -> tuple[int, ...]:
        return tuple(step.diagram for step in self.steps)

    @property
    def depth(self) -> int:
        return len(self.steps)


def _resolve_split(cur: Wordlike, pair: list[int], n: int) -> int:
    """Pick the expansion entry that the itinerary uses at a tail split.

    A coherent continuation is ambiguous exactly when the next derived word is
    a period-<=2 fixed word; the two valid entries are adjacent, and the
    itinerary form takes the odd one before an eventually-1 tail and the even
    one before an eventually-(2n-1) tail.
    """
    j_even, j_odd = sorted(pair)[0], sorted(pair)[1]
    if j_odd % 2 == 0:
        j_even, j_odd = j_odd, j_even
    nxt = derive(permute(sector_permutation(j_odd, n), cur))
    if isinstance(nxt, PeriodicWord):
        if permute(sector_permutation(1, n), nxt) == nxt:
            return j_odd
        if permute(sector_permutation(2 * n - 1, n), nxt) == nxt:
            return j_even
    return j_odd


def _is_fixed_tail_word(w: Wordlike, d: int, n: int) -> bool:
    return (
        isinstance(w, PeriodicWord)
        and len(_held(w)) <= 2
        and d in (1, 2 * n - 1)
        and permute(sector_permutation(d, n), w) == w
    )


def renormalize(
    w: Wordlike,
    max_depth: int,
    n: int = 4,
    start_diagram: int | None = None,
) -> RenormalizationTrace:
    """Iterate normalize-then-derive, recording the admissible sector each time.

    The first entry must be unique or supplied; later ambiguity is filtered by
    coherence with the previous step, which pins the entry except at the tail
    split of periodic words (where the itinerary form is chosen and the split
    recorded).  Halts early on inadmissibility, unresolvable ambiguity, or a
    window running out of letters, reporting which.
    """
    if max_depth < 1:
        raise CutseqError("max_depth must be >= 1")
    trace = RenormalizationTrace()
    cur: Wordlike | None = w
    for k in range(max_depth):
        if is_exhausted(cur):
            trace.failure = "window_exhausted"
            return trace
        found = admissible_diagrams(cur, n)
        if not found:
            trace.failure = "inadmissible"
            return trace
        if k == 0 and start_diagram is not None:
            if start_diagram not in found:
                trace.failure = "inadmissible"
                return trace
            d = start_diagram
        elif len(found) == 1:
            d = found[0]
        elif k == 0:
            trace.failure = "ambiguous"
            trace.ambiguous_set = found
            return trace
        else:
            # cur = derive(prev.normalized) and found = admissible_diagrams(cur), so this is
            # decompose_candidates(prev.word, prev.diagram) without deriving the level again
            allowed = _coherent_sectors(trace.steps[-1].normalized, cur, found, n)
            if len(allowed) == 1:
                d = allowed[0]
            elif len(allowed) == 2 and abs(allowed[0] - allowed[1]) == 1:
                trace.split = (k, tuple(sorted(allowed)))
                d = _resolve_split(cur, allowed, n)
            else:
                trace.failure = "ambiguous"
                trace.ambiguous_set = found
                return trace
        normalized = permute(sector_permutation(d, n), cur)
        trace.steps.append(RenormalizationStep(cur, d, normalized))
        if _is_fixed_tail_word(cur, d, n):
            trace.tail = d
            for _ in range(k + 1, max_depth):
                trace.steps.append(RenormalizationStep(cur, d, normalized))
            return trace
        cur = derive(normalized)
    return trace


def recognize_direction(w: Wordlike, max_depth: int, n: int = 4) -> SectorInterval:
    """Sector interval of the directions of trajectories whose coding extends w.

    The interval is the expansion cylinder of the recorded sector sequence; it
    always contains the true direction and shrinks as the depth grows.
    """
    trace = renormalize(w, max_depth, n)
    if trace.failure == "window_exhausted":
        raise InsufficientWindowError(
            f"window exhausted after {trace.depth} of {max_depth} derivations"
        )
    if trace.failure == "ambiguous":
        raise AmbiguousDiagramError(
            f"admissible diagrams {trace.ambiguous_set} at depth {trace.depth}"
        )
    if trace.failure is not None:
        raise InadmissibleWordError(f"renormalization failed: {trace.failure}")
    return sector_interval(trace.diagrams, n)
