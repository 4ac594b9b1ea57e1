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
profile).  Both are answered in the symbolic module, which owns the pair codes
and `sandwich_profile`, and `derive` runs there on whole-text integer and bytes
operations, so a level makes no per-letter pass in Python.  `renormalize`
derives each level once: the coherence filter of a later level reuses the word
the previous level derived.
"""

from __future__ import annotations

from .farey import SectorInterval, sector_interval
from .generation import _generate_admitted, _insertions, sandwich_group
from .symbolic import (
    AmbiguousDiagramError,
    CutseqError,
    InadmissibleWordError,
    PeriodicWord,
    Record,
    Wordlike,
    _held,
    _setfield,
    admissible_diagrams,
    build_diagram,
    check_count,
    derive,
    is_exhausted,
    permute,
    sandwich_profile,
    sector_permutation,
    word_text,
)


class NotCoherentError(CutseqError):
    """The word is not a generated image for the requested sector."""


class InsufficientWindowError(CutseqError):
    """The window ran out of letters before the requested depth."""


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


class CoherenceVerdict(Record):
    __slots__ = _fields = ("accepted", "failed", "groups")

    def __init__(self, accepted: bool, failed: str | None = None, groups: tuple[int, ...] = ()):
        _setfield(self, "accepted", accepted)
        _setfield(self, "failed", failed)  # "C0" | "C1" | "C2" | "C3"
        _setfield(self, "groups", groups)

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
    between its first and last sandwiched letters is determined by v.  The
    overhanging stubs are read against generation's pieces p = a + w of the
    edges a -> b (`_insertions`): the head must end a piece whose b is v[0],
    the tail must start w + b of a piece whose a is v[-1].  An empty stub
    always fits, since every letter has an edge in and out of each diagram.
    """
    if isinstance(nw, PeriodicWord):
        return _generate_admitted(j, 0, v, n) == nw
    s = word_text(nw)
    vtext = word_text(v)
    lo = _first_sandwiched(s)
    hi = len(s) - 1 - _first_sandwiched(s[::-1])
    if s[lo : hi + 1] != _generate_admitted(j, 0, vtext, n):
        return False
    head, tail, pieces = s[:lo], s[hi + 1 :], _insertions(j, n).items()
    return any(b == vtext[0] and p.endswith(head) for (_, b), p in pieces) and any(
        a == vtext[-1] and (p[1:] + b).startswith(tail) for (a, b), p in pieces
    )


def _first_sandwiched(s: str) -> int:
    """Index of the first sandwiched letter of s (one must exist)."""
    return next(i for i, (a, c) in enumerate(zip(s, s[2:]), 1) if a == c)


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


class RenormalizationStep(Record):
    __slots__ = _fields = ("word", "diagram", "normalized")

    def __init__(self, word: Wordlike, diagram: int, normalized: Wordlike) -> None:
        _setfield(self, "word", word)
        _setfield(self, "diagram", diagram)
        _setfield(self, "normalized", normalized)


class RenormalizationTrace(Record):
    __slots__ = _fields = ("steps", "failure", "ambiguous_set", "tail", "split")
    # mutable: assignable, deletable and unhashable
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, steps: list[RenormalizationStep] | None = None, failure: str | None = None,
                 ambiguous_set: tuple[int, ...] = (), tail: int | None = None,
                 split: tuple[int, tuple[int, ...]] | None = None) -> None:
        self.steps = [] if steps is None else steps
        self.failure = failure  # "inadmissible" | "ambiguous" | "window_exhausted"
        self.ambiguous_set = ambiguous_set
        self.tail = tail
        self.split = split  # (step, candidate pair)

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
    j_even, j_odd = sorted(pair, key=lambda j: j % 2)
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
    check_count(max_depth, "max_depth")
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
    if trace.failure is not None:
        raise chain_refusal(trace, max_depth)
    return sector_interval(trace.diagrams, n)


def chain_refusal(trace: RenormalizationTrace, max_depth: int) -> CutseqError:
    """The exception that reports a failed renormalization chain asked for max_depth levels."""
    if trace.failure == "window_exhausted":
        return InsufficientWindowError(
            f"window exhausted after {trace.depth} of {max_depth} derivations"
        )
    if trace.failure == "ambiguous":
        return AmbiguousDiagramError(
            f"admissible diagrams {trace.ambiguous_set} at depth {trace.depth}"
        )
    return InadmissibleWordError(f"renormalization failed: {trace.failure}")
