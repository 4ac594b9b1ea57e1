"""Words, windows and periodic words; transition diagrams; derivation; factor counts.

Letters are the characters A, B, C, ... (letter j of an alphabet of size n is
chr(ord('A') + j - 1); alphabets up to n = 26 are supported, which covers every
polygon anyone draws).  A finite word is a plain str.  A WordWindow is a finite
stretch of a bi-infinite word: whether its first and last letters are sandwiched
cannot be known, so derivation drops them.  A PeriodicWord stores the primitive
period in its lexicographically least rotation and derives with wrap-around.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache

LETTERS = string.ascii_uppercase
MAX_ALPHABET = len(LETTERS)


class InadmissibleWordError(ValueError):
    """Word is not admissible in any transition diagram (or not in the required one)."""


class AmbiguousDiagramError(ValueError):
    """Word is admissible in several diagrams and no choice was supplied."""


def letters_for(n: int) -> str:
    if not 2 <= n <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {n}")
    return LETTERS[:n]


def letter_index(letter: str) -> int:
    """1-based index of a letter."""
    return ord(letter) - ord("A") + 1


def letter_at(j: int) -> str:
    return LETTERS[j - 1]


def check_word(word: str, n: int) -> None:
    alphabet = letters_for(n)
    bad = set(word) - set(alphabet)
    if bad:
        raise ValueError(f"letters {sorted(bad)} outside alphabet of size {n}")


def format_word(word: str, n: int) -> str:
    """External text form: plain letters for n <= 4, 'L1 L5 ...' beyond."""
    if n <= 4:
        return word
    return " ".join(f"L{letter_index(c)}" for c in word)


def parse_word(text: str, n: int) -> str:
    s = text.strip()
    if s.startswith("per:"):
        raise ValueError("periodic marker not allowed here")
    if "L" in s and any(ch.isdigit() for ch in s):
        parts = s.replace(",", " ").split()
        word = "".join(letter_at(int(p.lstrip("L"))) for p in parts)
    else:
        word = s.replace(" ", "")
    check_word(word, n)
    return word


# -- word containers ---------------------------------------------------------


def primitive_period(word: str) -> str:
    """Shortest word whose repetition gives `word` (requires len(word) >= 1)."""
    m = len(word)
    for p in range(1, m + 1):
        if m % p == 0 and word == word[:p] * (m // p):
            return word[:p]
    return word


def least_rotation(word: str) -> str:
    if not word:
        return word
    doubled = word + word
    return min(doubled[i : i + len(word)] for i in range(len(word)))


@dataclass(frozen=True)
class PeriodicWord:
    """A bi-infinite periodic word, stored as its canonical primitive period."""

    period: str

    @classmethod
    def of(cls, word: str) -> PeriodicWord:
        if not word:
            raise ValueError("empty period")
        return cls(least_rotation(primitive_period(word)))

    def __str__(self) -> str:
        return f"per:{self.period}"

    def window(self, length: int) -> WordWindow:
        reps = -(-length // len(self.period))
        return WordWindow((self.period * (reps + 1))[:length])


@dataclass(frozen=True)
class WordWindow:
    """A finite window of a bi-infinite word.

    The truncation flags record that the sandwich status of the boundary letters
    is unknown; derivation always drops them and the output stays truncated.
    """

    letters: str
    left_truncated: bool = True
    right_truncated: bool = True

    def __str__(self) -> str:
        return self.letters

    def __len__(self) -> int:
        return len(self.letters)


Wordlike = str | WordWindow | PeriodicWord


def word_text(w: Wordlike) -> str:
    if isinstance(w, PeriodicWord):
        return w.period
    if isinstance(w, WordWindow):
        return w.letters
    return w


def transitions(w: Wordlike) -> list[tuple[str, str]]:
    """Adjacent letter pairs; for periodic words this includes the wrap pair."""
    s = word_text(w)
    pairs = [(s[i], s[i + 1]) for i in range(len(s) - 1)]
    if isinstance(w, PeriodicWord) and s:
        pairs.append((s[-1], s[0]))
    return pairs


def transition_set(w: Wordlike) -> frozenset[tuple[str, str]]:
    """Distinct adjacent letter pairs (admissibility only needs the set)."""
    s = word_text(w)
    pairs = set(zip(s, s[1:]))
    if isinstance(w, PeriodicWord) and s:
        pairs.add((s[-1], s[0]))
    return frozenset(pairs)


# -- transition diagrams -----------------------------------------------------


@dataclass(frozen=True)
class TransitionDiagram:
    """Directed graph on the n letters giving the allowed consecutive pairs."""

    n: int
    index: object
    edges: frozenset[tuple[str, str]]

    def admits(self, w: Wordlike) -> bool:
        return transition_set(w) <= self.edges

    def successors(self, letter: str) -> tuple[str, ...]:
        return tuple(sorted(v for (u, v) in self.edges if u == letter))

    def relabel(self, perm: LetterPermutation) -> TransitionDiagram:
        """Apply perm to every vertex label."""
        return TransitionDiagram(
            self.n,
            self.index,
            frozenset((perm(u), perm(v)) for (u, v) in self.edges),
        )

    def intersection(self, other: TransitionDiagram, index: object) -> TransitionDiagram:
        return TransitionDiagram(self.n, index, self.edges & other.edges)


@dataclass(frozen=True)
class LetterPermutation:
    """A bijection of the n letters, stored as the image tuple of A, B, C, ..."""

    images: tuple[str, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != sorted(letters_for(len(self.images))):
            raise ValueError(f"not a bijection of {len(self.images)} letters: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, letter: str) -> str:
        return self.images[letter_index(letter) - 1]

    def apply_word(self, word: str) -> str:
        return "".join(self(c) for c in word)

    def inverse(self) -> LetterPermutation:
        inv = [""] * self.n
        for j, image in enumerate(self.images):
            inv[letter_index(image) - 1] = letter_at(j + 1)
        return LetterPermutation(tuple(inv))

    def compose(self, other: LetterPermutation) -> LetterPermutation:
        """self after other."""
        return LetterPermutation(tuple(self(other(c)) for c in letters_for(self.n)))

    @classmethod
    def identity(cls, n: int) -> LetterPermutation:
        return cls(tuple(letters_for(n)))

    @classmethod
    def from_cycles(cls, text: str, n: int) -> LetterPermutation:
        images = list(letters_for(n))
        body = text.replace("Id", "").replace(" ", "")
        for cyc in body.replace(")(", ")|(").strip("|").split("|"):
            cyc = cyc.strip("()")
            if not cyc:
                continue
            members = cyc.split(",") if "," in cyc else list(cyc)
            for i, c in enumerate(members):
                images[letter_index(c) - 1] = members[(i + 1) % len(members)]
        return cls(tuple(images))

    def cycles(self) -> str:
        seen: set[str] = set()
        out = []
        for c in letters_for(self.n):
            if c in seen:
                continue
            cyc = [c]
            seen.add(c)
            nxt = self(c)
            while nxt != c:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cyc) > 1:
                out.append("(" + "".join(cyc) + ")")
        return "".join(out) or "Id"


@lru_cache(maxsize=None)
def sector_permutation(i: int, n: int) -> LetterPermutation:
    """Letter permutation that renormalizes sector-i words to sector 0.

    Closed form of the permutations induced by the dihedral isometries: the
    rotation taking sector 2k to sector 0 shifts letters cyclically by k, and
    the reflection taking sector 2k+1 to sector 0 sends letter j to n+1-j-k.
    polygon.induced_permutation computes the same bijection geometrically; the
    two are cross-checked in the tests.
    """
    if not 0 <= i < 2 * n:
        raise IndexError(f"sector index {i} outside 0..{2 * n - 1}")
    letters_for(n)
    k = i // 2
    if i % 2 == 0:
        images = tuple(letter_at(1 + (j - 1 + k) % n) for j in range(1, n + 1))
    else:
        images = tuple(letter_at(1 + (n - j - k) % n) for j in range(1, n + 1))
    return LetterPermutation(images)


@lru_cache(maxsize=None)
def build_diagram(i: int, n: int) -> TransitionDiagram:
    """Transition diagram for trajectories with direction in sector i.

    Sector 0 has the edges L_j -> L_(n+1-j) for every j and L_j -> L_(n+2-j)
    for j >= 2 (for n = 2 this is the square pair A<->B plus the B loop); the
    diagram for sector i is the sector-0 diagram with every vertex relabelled
    by the inverse of the renormalizing permutation.
    """
    if not 0 <= i < 2 * n:
        raise IndexError(f"diagram index {i} outside 0..{2 * n - 1}")
    letters_for(n)
    base = set()
    for j in range(1, n + 1):
        base.add((letter_at(j), letter_at(n + 1 - j)))
        if j >= 2:
            base.add((letter_at(j), letter_at(n + 2 - j)))
    d0 = TransitionDiagram(n, 0, frozenset(base))
    if i == 0:
        return d0
    relabelled = d0.relabel(sector_permutation(i, n).inverse())
    return TransitionDiagram(n, i, relabelled.edges)


@lru_cache(maxsize=None)
def boundary_diagram(k: int, n: int) -> TransitionDiagram:
    """Transitions allowed in both sector k-1 and sector k (indices mod 2n)."""
    k = k % (2 * n)
    prev = build_diagram((k - 1) % (2 * n), n)
    return prev.intersection(build_diagram(k, n), ((k - 1) % (2 * n), k))


def admissible_diagrams(w: Wordlike, n: int) -> tuple[int, ...]:
    """All sector indices whose diagram admits w (wrap included for periodic)."""
    pairs = transition_set(w)
    return tuple(i for i in range(2 * n) if pairs <= build_diagram(i, n).edges)


def permute(perm: LetterPermutation, w: Wordlike) -> Wordlike:
    if isinstance(w, PeriodicWord):
        return PeriodicWord.of(perm.apply_word(w.period))
    if isinstance(w, WordWindow):
        return WordWindow(perm.apply_word(w.letters), w.left_truncated, w.right_truncated)
    return perm.apply_word(w)


def normal_form(w: Wordlike, n: int, diagram: int | None = None) -> tuple[Wordlike, int]:
    """Relabel w by the permutation of its (unique) admissible diagram.

    A diagram index may be supplied to resolve words admissible in several
    diagrams; otherwise ambiguity raises.
    """
    found = admissible_diagrams(w, n)
    if diagram is not None:
        if diagram not in found:
            raise InadmissibleWordError(f"word not admissible in diagram {diagram}")
        i = diagram
    elif not found:
        raise InadmissibleWordError("word not admissible in any diagram")
    elif len(found) > 1:
        raise AmbiguousDiagramError(f"word admissible in diagrams {found}")
    else:
        i = found[0]
    return permute(sector_permutation(i, n), w), i


# -- derivation --------------------------------------------------------------


def derive(w: Wordlike):
    """Keep only the sandwiched letters (equal left and right neighbours).

    Windows lose their boundary letters (their status is unknowable) and stay
    truncated; periodic words wrap around and may derive to None when no letter
    survives.  Finite str input is treated as a window.
    """
    if isinstance(w, PeriodicWord):
        p = w.period
        m = len(p)
        if m == 1:
            return w
        kept = "".join(p[i] for i in range(m) if p[(i - 1) % m] == p[(i + 1) % m])
        return PeriodicWord.of(kept) if kept else None
    s = word_text(w)
    kept = "".join(s[i] for i in range(1, len(s) - 1) if s[i - 1] == s[i + 1])
    if isinstance(w, WordWindow):
        return WordWindow(kept)
    return kept


def derive_times(w: Wordlike, count: int):
    for _ in range(count):
        if w is None or (not isinstance(w, PeriodicWord) and len(word_text(w)) == 0):
            return w
        w = derive(w)
    return w


def square_derive(word: str) -> str:
    """One derivation step of the two-letter square coding.

    Erases one B from every block of consecutive B's when the word has no AA
    transition, or one A from every block of A's when it has no BB transition.
    This is the classical rule for the square; it differs from the sandwich
    rule used for n >= 3.
    """
    check_word(word, 2)
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


# -- factors -----------------------------------------------------------------


def factor_set(w: Wordlike, length: int) -> frozenset[str]:
    """All distinct contiguous subwords of the given length."""
    if length < 1:
        raise ValueError("factor length must be >= 1")
    if isinstance(w, PeriodicWord):
        p = w.period
        reps = -(-(len(p) + length - 1) // len(p))
        s = p * reps
        return frozenset(s[i : i + length] for i in range(len(p)))
    s = word_text(w)
    if length > len(s):
        raise ValueError("factor length exceeds word length")
    return frozenset(s[i : i + length] for i in range(len(s) - length + 1))


def factor_count(w: Wordlike, length: int) -> int:
    return len(factor_set(w, length))


def factor_counts_upto(word: str, max_length: int) -> dict[int, int]:
    """Distinct-factor counts for every length 1..max_length, in one pass.

    Every factor of length l starting at position i <= len - max_length is the
    prefix of the max_length factor at i, so shorter counts come from prefixes
    of the long factor set plus the handful of windows inside the tail.
    """
    m = len(word)
    if max_length > m:
        raise ValueError("max_length exceeds word length")
    top = {word[i : i + max_length] for i in range(m - max_length + 1)}
    counts: dict[int, int] = {max_length: len(top)}
    for length in range(1, max_length):
        fs = {f[:length] for f in top}
        fs.update(word[i : i + length] for i in range(m - max_length + 1, m - length + 1))
        counts[length] = len(fs)
    return counts
