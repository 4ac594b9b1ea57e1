"""Words, windows and periodic words; transition diagrams; derivation; factor counts.

Letters are the characters A, B, C, ... (letter j of an alphabet of size n is
chr(ord('A') + j - 1); alphabets up to n = 26 are supported, which covers every
polygon anyone draws).  A finite word is a plain str.  A WordWindow is a finite
stretch of a bi-infinite word: whether its first and last letters are sandwiched
cannot be known, so derivation drops them.  A PeriodicWord holds its primitive
period in the rotation it was built from.  It computes the canonical rotation
(the lexicographically least) once, on first use, for what prints, hashes or
reads letters in order; equality asks whether one held period occurs in the
other doubled.  Questions whose answer no rotation changes (derivation,
permutation, transition sets, generation, factor sets, emptiness) read the held
rotation through `_held`, so building and taking apart periodic words never
canonicalizes them.  The wrap rule, defined once in `_wrapped`: a period's last
letter precedes its first, so every letter of a period is interior.  Each
per-letter pass runs over `zip` of the wrapped text and its shifts, except
`derive` on ASCII text (every word over A-Z), which runs on whole-text integers
and bytes.  With the text read as one big-endian integer, the left neighbours
XOR the right neighbours have a zero byte exactly at the kept letters; a
256-byte table turns every other byte into 0xFF, OR-ing that into the letters
marks the dropped ones, and `bytes.translate` deletes them.  ASCII has no 0xFF,
so every kept character survives; other text keeps the zip.

Words have one text form, read by `parse_word` and written by `format_word`
and nowhere else: plain letters for n <= 4, labels 'L1 L5 ...' beyond (either
is read at any n), and for a periodic word its period after the marker `per:`.

Alphabet questions read one code per adjacent pair instead (`_pair_codes`).  On
a long text over at most six letters A-Z, one 256-byte table maps each letter
to a 3-bit code and every other character to 0xFF (a 0xFF sends the text to the
zip).  Read as one integer v, the codes give each adjacent pair its own byte,
((v >> 8) << 3) | (the low bytes of v): 8 * code(left) + code(right).
`transition_set` asks `8x + y in pair_bytes` once per pair of present letters
(the wrap adds no pair a period lacks), a `memchr` in C, so besides a few
whole-text passes in C the cost follows the alphabet, not the word's length;
`TransitionDiagram.admits` and `admissible_diagrams` inherit it.
`sandwich_profile` ORs derive's mask (`_mark_unsandwiched`: 0xFF where left and
right neighbour differ) into the pair codes, so the first byte 8a + b marks the
first sandwich aba.  Short texts (the fixed cost of n^2 searches), larger
alphabets and other characters keep one zip over the text.

Renormalization asks the same questions of the same level several times:
`renormalize`, `check_coherent`, `decompose_candidates` and
`recognize_direction` each normalize and derive a window's levels again.  So
the two text kernels, `_sandwiched_letters` (derive) and `_pair_set`
(`transition_set`), are memoized under `functools.lru_cache`, keyed by the
wrapped held text.  That is the text they compute from, so equal texts share an
entry whether they come as a str, a window or a periodic word, and derive and
transition_set wrap the answer in the caller's container; and it is the held
rotation, so a lookup never canonicalizes a periodic word.  Each memo keeps the
_MEMO_SIZE most recent texts, enough for the five levels of one
renormalization chain.  That bounds what they hold: at most _MEMO_SIZE texts
each, with their sandwiched letters (never longer) or pair sets (at most n^2
pairs).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate
from operator import attrgetter

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
MAX_ALPHABET = len(LETTERS)
_LABELS = str.maketrans({c: f"L{j} " for j, c in enumerate(LETTERS, 1)})
_PERIODIC = "per:"  # the text form's marker of a periodic word


class CutseqError(ValueError):
    """A hypothesis of the theory fails on the given input: the root of cutseq's own errors.

    The CLI reports these in one stderr line (exit 2); any other exception is a
    bug and keeps its traceback.
    """


class InadmissibleWordError(CutseqError):
    """Word is not admissible in any transition diagram (or not in the required one)."""


class AmbiguousDiagramError(CutseqError):
    """Word is admissible in several diagrams and no choice was supplied."""


class SectorIndexError(CutseqError, IndexError):
    """A sector (diagram, isometry or branch) index outside 0..2n-1, or a sandwich group
    index outside 0..n-1."""


class Record:
    """==, hash and repr over the fields named in `_fields`, as dataclasses write them.

    A record is frozen: `__init__` sets its slots through `object.__setattr__`,
    and any later assignment or deletion raises AttributeError.  A mutable
    record puts back `object.__setattr__` and sets `__hash__ = None`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        """Give the class its own == and hash over one attrgetter, unless it has some already."""
        get = attrgetter(*cls._fields)

        def eq(self, other: object) -> bool:
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        # attrgetter gives the tuple of two or more values; a dataclass hashes one as a 1-tuple
        if len(cls._fields) > 1:
            methods = {"__eq__": eq, "__hash__": lambda self: hash(get(self))}
        else:
            methods = {"__eq__": eq, "__hash__": lambda self: hash((get(self),))}
        for name, method in methods.items():  # not over PeriodicWord's or a mutable record's
            if getattr(cls, name) is getattr(object, name):
                setattr(cls, name, method)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_setfield = object.__setattr__  # how a frozen record's __init__ fills its slots


def check_sector(i: int, n: int) -> None:
    """The one range check of a sector index: 0 <= i < 2n."""
    if not 0 <= i < 2 * n:
        raise SectorIndexError(f"sector index {i} outside 0..{2 * n - 1}")


def check_count(value: int, name: str) -> None:
    """The one check of a count (a depth, a length, a budget): value >= 1."""
    if value < 1:
        raise CutseqError(f"{name} must be >= 1")


def letters_for(n: int) -> str:
    if not 2 <= n <= MAX_ALPHABET:
        raise CutseqError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {n}")
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
        raise CutseqError(f"letters {sorted(bad)} outside alphabet of size {n}")


def format_word(w: Wordlike, n: int) -> str:
    """The text form of any word (module doc): its letters, a periodic word's after `per:`."""
    text = word_text(w)
    if n > 4:
        text = text.translate(_LABELS).rstrip()
    return _PERIODIC + text if isinstance(w, PeriodicWord) else text


def parse_word(text: str, n: int) -> str | PeriodicWord:
    """Read any text form of a word (module doc); a leading `per:` gives a PeriodicWord."""
    s = text.strip()
    periodic = s.startswith(_PERIODIC)
    s = s.removeprefix(_PERIODIC)
    if "L" in s and any(ch.isdigit() for ch in s):
        parts = s.replace(",", " ").split()
        try:
            labels = [int(p.lstrip("L")) for p in parts]
        except ValueError as exc:  # a label that is not a number
            raise CutseqError(str(exc)) from None
        alphabet = letters_for(n)
        outside = [p for p, j in zip(parts, labels) if not 1 <= j <= n]
        if outside:
            raise CutseqError(f"labels {outside} outside L1..L{n}")
        word = "".join(alphabet[j - 1] for j in labels)
    else:
        word = s.replace(" ", "")
    check_word(word, n)
    return PeriodicWord.of(word) if periodic else word


# -- word containers ---------------------------------------------------------


def primitive_period(word: str) -> str:
    """Shortest word whose repetition gives `word` (requires len(word) >= 1)."""
    # the first rotation equal to the word is by the length of its primitive root
    return word[: (word + word).find(word, 1)]


def least_rotation(word: str) -> str:
    """Lexicographically least rotation, in linear time.

    Two candidate starts i and j share a common prefix of length k.  At the
    first mismatch the larger candidate and the k starts after it are beaten,
    so it jumps past them; i + j + k never exceeds 3 len(word).
    """
    m = len(word)
    s = word + word
    i, j, k = 0, 1, 0
    while i < m and j < m and k < m:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    i = min(i, j)
    return s[i : i + m]


class PeriodicWord(Record):
    """A bi-infinite periodic word: its primitive period, held in any rotation.

    `period` is the canonical rotation, the least, computed on first use and
    cached; `str`, `repr`, `hash` and `window` go through it, so they do not
    depend on the rotation held.  Two words are equal when their held periods
    are rotations of each other.
    """

    _fields = ("_text",)  # the primitive period, in the rotation it was built from

    def __init__(self, _text: str) -> None:
        _setfield(self, "_text", _text)

    @classmethod
    def of(cls, word: str) -> PeriodicWord:
        if not word:
            raise CutseqError("empty period")
        return cls(primitive_period(word))

    @cached_property
    def period(self) -> str:
        return least_rotation(self._text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodicWord):
            return NotImplemented
        a, b = self._text, other._text
        return len(a) == len(b) and a in b + b

    def __hash__(self) -> int:
        return hash((self.period,))

    def __repr__(self) -> str:
        return f"PeriodicWord(period={self.period!r})"

    def __str__(self) -> str:
        return _PERIODIC + self.period

    def window(self, length: int) -> WordWindow:
        return WordWindow(_repeat(self.period, length))


def _repeat(p: str, length: int) -> str:
    """The first `length` letters of p repeated."""
    return (p * (length // len(p) + 1))[:length]


class WordWindow(Record):
    """A finite window of a bi-infinite word.

    The truncation flags record that the sandwich status of the boundary letters
    is unknown; derivation always drops them and the output stays truncated.
    """

    __slots__ = _fields = ("letters", "left_truncated", "right_truncated")

    def __init__(self, letters: str, left_truncated: bool = True, right_truncated: bool = True):
        _setfield(self, "letters", letters)
        _setfield(self, "left_truncated", left_truncated)
        _setfield(self, "right_truncated", right_truncated)

    def __str__(self) -> str:
        return self.letters

    def __len__(self) -> int:
        return len(self.letters)


Wordlike = str | WordWindow | PeriodicWord


def word_text(w: Wordlike) -> str:
    """The letters of w, a periodic word's canonical period."""
    return w.period if isinstance(w, PeriodicWord) else _held(w)


def _held(w: Wordlike) -> str:
    """The letters of w, a periodic word's period in the rotation it holds.

    For every question whose answer does not depend on rotation (module doc).
    """
    if isinstance(w, PeriodicWord):
        return w._text
    if isinstance(w, WordWindow):
        return w.letters
    return w


def is_exhausted(w: Wordlike | None) -> bool:
    """No letters left to derive: None, or a window or str with no letters."""
    return w is None or not _held(w)


def _wrapped(w: Wordlike, held: bool = False) -> str:
    """The letters of w with their neighbours attached by the wrap rule (module doc).

    A periodic word wraps its canonical period, or with `held` the rotation it holds.
    """
    if isinstance(w, PeriodicWord):
        p = _held(w) if held else w.period
        return p[-1] + p + p[0]
    return word_text(w)


def _pairs(w: Wordlike):
    """Adjacent letter pairs in order; a periodic word's wrap pair comes last."""
    t = _wrapped(w)
    return zip(t[1:], t[2:]) if isinstance(w, PeriodicWord) else zip(t, t[1:])


def transitions(w: Wordlike) -> list[tuple[str, str]]:
    """Adjacent letter pairs; for periodic words this includes the wrap pair."""
    return list(_pairs(w))


# The code route beats one zip over the text only on long texts over small
# alphabets (Python 3.11): at 96 letters the two cost about the same (the zip up
# to 30% less for a dodecagon sandwich profile), from 250 letters on the codes
# win, 4-5 times at 700.  Codes take 3 bits, so two fit a byte.
_SEARCH_MIN_LENGTH = 96
_SEARCH_MAX_ALPHABET = 6

# Texts held by each of the two kernel memos (module doc).
_MEMO_SIZE = 6


@lru_cache(maxsize=256)
def _code_table(letters: str) -> bytes:
    """A bytes.translate table: each of the letters to its index, any other byte to 0xFF."""
    table = bytearray(b"\xff" * 256)
    for code, c in enumerate(letters):
        table[ord(c)] = code
    return bytes(table)


def _pair_codes(t: str) -> tuple[str, int, int] | None:
    """(letters, codes, pairs) of a wrapped text on the code route (module doc), else None.

    The route takes texts of at least _SEARCH_MIN_LENGTH characters, all A-Z,
    with at most _SEARCH_MAX_ALPHABET distinct letters: `letters`, in order.
    `codes` is t read as one big-endian integer after mapping each letter to
    its index in `letters`; byte i of `pairs` (len(t) - 1 bytes) is the code
    8 * code(t[i]) + code(t[i + 1]) of the i-th adjacent pair.
    """
    if len(t) < _SEARCH_MIN_LENGTH or not t.isascii():
        return None
    letters = "".join([c for c in LETTERS if c in t])
    if len(letters) > _SEARCH_MAX_ALPHABET:
        return None
    text = t.encode("ascii").translate(_code_table(letters))
    if 0xFF in text:  # a character outside A-Z
        return None
    v = int.from_bytes(text, "big")
    # v >> 8 holds the left letter of each pair, the low len(t) - 1 bytes of v the right one
    return letters, v, (v >> 8) << 3 | (v & ((1 << 8 * (len(t) - 1)) - 1))


def transition_set(w: Wordlike) -> frozenset[tuple[str, str]]:
    """Distinct adjacent letter pairs (admissibility only needs the set).

    The wrapped text has the same pairs as `_pairs`; on the code route each
    pair of present letters is one byte search in the pair codes (module doc).
    """
    return _pair_set(_wrapped(w, held=True))


@lru_cache(maxsize=_MEMO_SIZE)
def _pair_set(t: str) -> frozenset[tuple[str, str]]:
    """The distinct adjacent pairs of a wrapped text: `transition_set`'s memoized kernel."""
    coded = _pair_codes(t)
    if coded is None:
        return frozenset(zip(t, t[1:]))
    letters, _, pairs = coded
    found = pairs.to_bytes(len(t) - 1, "big")
    return frozenset([(a, b) for x, a in enumerate(letters) for y, b in enumerate(letters)
                      if 8 * x + y in found])


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


# -- transition diagrams -----------------------------------------------------


class TransitionDiagram(Record):
    """Directed graph on the n letters giving the allowed consecutive pairs."""

    __slots__ = _fields = ("n", "index", "edges")

    def __init__(self, n: int, index: object, edges: frozenset[tuple[str, str]]) -> None:
        _setfield(self, "n", n)
        _setfield(self, "index", index)
        _setfield(self, "edges", edges)

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


class LetterPermutation(Record):
    """A bijection of the n letters, stored as the image tuple of A, B, C, ..."""

    __slots__ = ("images", "_table")
    _fields = ("images",)

    def __init__(self, images: tuple[str, ...]) -> None:
        letters = letters_for(len(images))
        if sorted(images) != sorted(letters):
            raise CutseqError(f"not a bijection of {len(images)} letters: {images}")
        _setfield(self, "images", images)
        _setfield(self, "_table", str.maketrans(letters, "".join(images)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, letter: str) -> str:
        return self.images[letter_index(letter) - 1]

    def apply_word(self, word: str) -> str:
        return word.translate(self._table)

    def inverse(self) -> LetterPermutation:
        letters = letters_for(self.n)
        inv = str.maketrans("".join(self.images), letters)
        return LetterPermutation(tuple(letters.translate(inv)))

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
            for a, b in zip(members, members[1:] + members[:1]):
                images[letter_index(a) - 1] = b
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
    check_sector(i, n)
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
    check_sector(i, n)
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
        # a bijection of letters keeps a primitive period primitive
        return PeriodicWord(perm.apply_word(_held(w)))
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

_NONZERO_TO_FF = bytes([0]) + b"\xff" * 255


def _mark_unsandwiched(marks: int, v: int, m: int) -> bytes:
    """The low m bytes of `marks`, with 0xFF at each whose letter is not sandwiched.

    v is the text, m + 2 bytes big-endian: byte i of the result belongs to the
    letter at byte i + 1, whose neighbours are bytes i and i + 2.
    """
    mask = (1 << 8 * m) - 1
    # v >> 16 holds the left neighbours, the low m bytes of v the right ones;
    # a zero byte of left ^ right marks a sandwiched letter, every other becomes 0xFF
    x = ((v >> 16) ^ (v & mask)).to_bytes(m, "big").translate(_NONZERO_TO_FF)
    return ((marks & mask) | int.from_bytes(x, "big")).to_bytes(m, "big")


def derive(w: Wordlike):
    """Keep only the sandwiched letters (equal left and right neighbours).

    Windows lose their boundary letters (their status is unknowable) and stay
    truncated; periodic words wrap around and may derive to None when no letter
    survives.  Finite str input is treated as a window.
    """
    kept = _sandwiched_letters(_wrapped(w, held=True))
    if isinstance(w, PeriodicWord):
        return PeriodicWord.of(kept) if kept else None
    return WordWindow(kept) if isinstance(w, WordWindow) else kept


@lru_cache(maxsize=_MEMO_SIZE)
def _sandwiched_letters(t: str) -> str:
    """The interior letters of a wrapped text whose neighbours are equal: `derive`'s
    memoized kernel."""
    if not t.isascii():
        return "".join(b for a, b, c in zip(t, t[1:], t[2:]) if a == c)
    # read big-endian, the low m bytes of v >> 8 are the letters that have both neighbours
    v, m = int.from_bytes(t.encode("ascii"), "big"), max(len(t) - 2, 0)
    return _mark_unsandwiched(v >> 8, v, m).translate(None, b"\xff").decode("ascii")


def derive_times(w: Wordlike, count: int):
    for _ in range(count):
        if is_exhausted(w):
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
        keep, drop = "A", "B"
    elif "BB" not in word:
        keep, drop = "B", "A"
    else:
        raise InadmissibleWordError("word contains both AA and BB")
    # a block of drops starts either after a keep or at the start of the word
    out = word.replace(keep + drop, keep)
    return out[1:] if word[:1] == drop else out


# -- factors -----------------------------------------------------------------


def _check_factor_length(length: int, available: int, name: str) -> None:
    """The one bound on a factor length: 1 <= length <= the letters available."""
    check_count(length, name)
    if length > available:
        raise CutseqError(f"{name} exceeds word length")


def _block_factors(word: str, length: int) -> set[str]:
    """The distinct factors of the given length, read from aligned blocks.

    Every factor lies inside one of the blocks of length 2 * length - 1 that
    start at multiples of length, so the factors are the windows of the
    distinct blocks.  A cutting sequence has (n-1)k+1 factors of length k,
    hence few distinct blocks, and the pass over the word takes one slice per
    `length` letters instead of one per letter.
    """
    span = 2 * length - 1
    blocks = {word[k : k + span] for k in range(0, len(word) - length + 1, length)}
    return {b[i : i + length] for b in blocks for i in range(len(b) - length + 1)}


def factor_set(w: Wordlike, length: int) -> frozenset[str]:
    """All distinct contiguous subwords of the given length."""
    s = _held(w)
    if isinstance(w, PeriodicWord):
        s = _repeat(s, len(s) + length - 1)
    _check_factor_length(length, len(s), "factor length")
    return frozenset(_block_factors(s, length))


def factor_count(w: Wordlike, length: int) -> int:
    return len(factor_set(w, length))


def factor_counts_upto(word: str, max_length: int) -> dict[int, int]:
    """Distinct-factor counts for every length 1..max_length, in one pass.

    The factors of length L = max_length come from aligned blocks
    (`_block_factors`).  Every factor of length l is a prefix of one of these
    or of one of the L - 1 suffixes shorter than L, so the count of length l is
    the number of depth-l nodes of the trie of those strings.  In sorted order,
    a string opens one node at each depth beyond its longest common prefix with
    its predecessor, up to its own length.
    """
    m = len(word)
    _check_factor_length(max_length, m, "max_length")
    top = _block_factors(word, max_length)
    # a difference array: the trie has sum(opened[: l + 1]) nodes at depth l
    opened = [0] * (max_length + 2)
    prev = ""
    for s in sorted([*top, *(word[i:] for i in range(m - max_length + 1, m))]):
        opened[_common_prefix_length(prev, s) + 1] += 1
        opened[len(s) + 1] -= 1
        prev = s
    nodes = list(accumulate(opened))
    counts = {max_length: len(top)}
    counts.update(zip(range(1, max_length), nodes[1:max_length]))
    return counts


def _common_prefix_length(a: str, b: str) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))
