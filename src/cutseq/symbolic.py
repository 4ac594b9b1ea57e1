"""Words and periodic words; transition diagrams; derivation; factor counts.

Letters are the characters A, B, C, ... (letter j of an alphabet of size n is
chr(ord('A') + j - 1); alphabets up to n = 26 are supported, which covers every
polygon anyone draws).  A finite word is a plain str, a finite stretch of a
bi-infinite word: whether its first and last letters are sandwiched cannot be
known, so derivation drops them.  A PeriodicWord holds its primitive
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

Alphabet questions read one code per adjacent pair instead (`_pair_codes`).
Each of the letters A-H, the labels of every polygon up to the 16-gon, has a
fixed 3-bit code, its label index minus 1: one 256-byte table maps it there and
every other character to 0xFF (a 0xFF sends the text to the zip).  Read as one
integer v, the codes give each adjacent pair its own byte, ((v >> 8) << 3) |
(the low bytes of v): 8 * code(left) + code(right).
`transition_set` asks `8x + y in pair_bytes` once per pair of present letters
(the wrap adds no pair a period lacks), a `memchr` in C, so besides a few
whole-text passes in C the cost follows the alphabet, not the word's length;
`TransitionDiagram.admits` and `admissible_diagrams` inherit it.
`sandwich_profile` ORs derive's mask (`_mark_unsandwiched`: 0xFF where left and
right neighbour differ) into the pair codes, so the first byte 8a + b marks the
first sandwich aba.  Short texts (the fixed cost of n^2 searches) and texts
with any character outside A-H keep one zip over the text.

Renormalization asks the same questions of the same level several times:
`renormalize`, `check_coherent`, `decompose_candidates` and
`recognize_direction` each normalize, derive and profile a window's levels
again.  So the three text kernels, `_sandwiched_letters` (derive), `_pair_set`
(`transition_set`) and `_sandwich_pairs` (`sandwich_profile`), are memoized
under `functools.lru_cache`, keyed by the wrapped text they compute from: equal
texts share an entry whether they come as a str or a periodic word, and each
public function wraps the immutable answer in the caller's container.  derive
and transition_set key the held rotation, so a lookup never canonicalizes a
periodic word; the profile keys the canonical one, as its letter order depends
on the rotation.  Each memo keeps the _MEMO_SIZE most recent texts, enough for
the five levels of one renormalization chain, with their sandwiched letters
(never longer), pair sets or profiles (at most n^2 letter pairs).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

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
    """__init__, ==, hash and repr over the slots named in `_fields`, as dataclasses write them.

    `_defaults` holds the defaults of the last fields, and `__init__` ends in the
    class's `__post_init__`, if any.  A record is frozen: a later assignment or
    deletion raises AttributeError, so `__init__` fills each slot through the
    slot's `__set__`, faster than `object.__setattr__`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        """Compile the class's __init__, == and hash, keeping any it has already."""
        fields = cls._fields
        mine = "(" + "".join(f"self.{f}, " for f in fields) + ")"  # a dataclass hashes 1-tuples
        source = (
            f"def __init__(self, {', '.join(fields)}):\n"
            + "".join(f" _set_{f}(self, {f})\n" for f in fields)
            + (" self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
            + "def __eq__(self, other):\n"
            " if other.__class__ is not self.__class__:\n"
            "  return NotImplemented\n"
            f" return {mine} == {mine.replace('self.', 'other.')}\n"
            f"def __hash__(self):\n return hash({mine})\n"
        )
        methods = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
        exec(compile(source, f"<record {cls.__qualname__}>", "exec"), methods)
        methods["__init__"].__defaults__ = cls._defaults
        for name in ("__init__", "__eq__", "__hash__"):  # not over PeriodicWord's
            if getattr(cls, name) is getattr(object, name):
                method = methods[name]
                method.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, method)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class InvalidN(CutseqError):
    """Polygon side-pair count below 2."""


def check_n(n: int) -> None:
    """The one check of a side-pair count: n >= 2."""
    if n < 2:
        raise InvalidN(f"need at least 2 side pairs, got {n}")


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
        check_n(n)
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
        labels = []
        for p in parts:
            try:
                labels.append(int(p.lstrip("L")))
            except ValueError:  # a label that is not a number
                raise CutseqError(f"malformed label {p!r}") from None
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

    __slots__ = ("_text", "__dict__")  # __dict__ holds the cached period
    _fields = ("_text",)  # the primitive period, in the rotation it was built from

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

    def window(self, length: int) -> str:
        return _repeat(self.period, length)


def _repeat(p: str, length: int) -> str:
    """The first `length` letters of p repeated."""
    return (p * (length // len(p) + 1))[:length]


Wordlike = str | PeriodicWord


def word_text(w: Wordlike) -> str:
    """The letters of w, a periodic word's canonical period."""
    return w.period if isinstance(w, PeriodicWord) else _held(w)


def _held(w: Wordlike) -> str:
    """The letters of w, a periodic word's period in the rotation it holds.

    For every question whose answer does not depend on rotation (module doc).
    """
    return w._text if isinstance(w, PeriodicWord) else w


def is_exhausted(w: Wordlike | None) -> bool:
    """No letters left to derive: None, or the empty str."""
    return w is None or not _held(w)


def _wrapped(w: Wordlike, held: bool = False) -> str:
    """The letters of w with their neighbours attached by the wrap rule (module doc).

    A periodic word wraps its canonical period, or with `held` the rotation it holds.
    """
    if isinstance(w, PeriodicWord):
        p = _held(w) if held else w.period
        return p[-1] + p + p[0]
    return word_text(w)


# The code route beats one zip over the text only on long texts (Python 3.11):
# at 96 letters the two cost about the same (the zip up to 30% less for a
# dodecagon sandwich profile), from 250 letters on the codes win, 4-5 times at
# 700.  The route takes every long word of a polygon with n <= 8.
_SEARCH_MIN_LENGTH = 96

# Texts held by each of the three kernel memos (module doc).
_MEMO_SIZE = 6

# The coded letters, and the bytes.translate table that codes them: the letter
# of label j to j - 1, any other byte to 0xFF.  Codes take 3 bits, so two fit a byte.
_CODED = "ABCDEFGH"
_CODES = bytes(_CODED.find(chr(b)) & 0xFF for b in range(256))


def _pair_codes(t: str) -> tuple[list[tuple[int, str]], int, int] | None:
    """(letters, codes, pairs) of a wrapped text on the code route (module doc), else None.

    The route takes texts of at least _SEARCH_MIN_LENGTH characters, all A-H.
    `letters` lists the (code, letter) of each letter present, in order.
    `codes` is t read as one big-endian integer after coding each letter; byte i
    of `pairs` (len(t) - 1 bytes) is the code 8 * code(t[i]) + code(t[i + 1])
    of the i-th adjacent pair.
    """
    if len(t) < _SEARCH_MIN_LENGTH or not t.isascii():
        return None
    text = t.encode("ascii").translate(_CODES)
    if 0xFF in text:  # a character outside A-H
        return None
    v = int.from_bytes(text, "big")
    # v >> 8 holds the left letter of each pair, the low len(t) - 1 bytes of v the right one
    return ([(x, c) for x, c in enumerate(_CODED) if c in t], v,
            (v >> 8) << 3 | (v & ((1 << 8 * (len(t) - 1)) - 1)))


def transition_set(w: Wordlike) -> frozenset[tuple[str, str]]:
    """Distinct adjacent letter pairs (admissibility only needs the set).

    The wrapped text holds every adjacent pair, a period's wrap pair too; on the
    code route each pair of present letters is one byte search (module doc).
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
    return frozenset([(a, b) for x, a in letters for y, b in letters if 8 * x + y in found])


def sandwich_profile(w: Wordlike) -> dict[str, frozenset[str]]:
    """For each letter, the set of letters sandwiching it somewhere in the word.

    Only interior occurrences count: the boundary letters of a str have
    unknown neighbours.  Periodic words wrap around.  The letters come in the
    order of their first sandwiched occurrence, read from the memo (module doc).
    """
    return dict(_sandwich_pairs(_wrapped(w)))


@lru_cache(maxsize=_MEMO_SIZE)
def _sandwich_pairs(t: str) -> tuple[tuple[str, frozenset[str]], ...]:
    """(letter, its sandwiching letters) in profile order for a wrapped text:
    `sandwich_profile`'s memoized kernel, a tuple so no caller can change it."""
    coded = _pair_codes(t)
    if coded is None:
        prof: dict[str, set[str]] = {}
        # dict.fromkeys: distinct pairs, letters in order of first sandwiched occurrence
        for letter, left in dict.fromkeys((b, a) for a, b, c in zip(t, t[1:], t[2:]) if a == c):
            prof.setdefault(letter, set()).add(left)
        return tuple((letter, frozenset(v)) for letter, v in prof.items())
    letters, codes, pairs = coded
    m = len(t) - 2
    # byte i: the code of the pair t[i] t[i + 1] where t[i + 2] == t[i], else 0xFF
    sandwiches = _mark_unsandwiched(pairs >> 8, codes, m)
    found = []
    for y, b in letters:
        # the first sandwich aba of each a; the first position of each letter orders the keys
        hits = [(i, a) for x, a in letters if (i := sandwiches.find(8 * x + y)) >= 0]
        if hits:
            found.append((min(hits)[0], b, frozenset(a for _, a in hits)))
    return tuple((b, lefts) for _, b, lefts in sorted(found))


# -- transition diagrams -----------------------------------------------------


class TransitionDiagram(Record):
    """Directed graph of the allowed consecutive letter pairs, held as its edges alone."""

    __slots__ = _fields = ("edges",)  # frozenset of (letter, letter)

    def admits(self, w: Wordlike) -> bool:
        return transition_set(w) <= self.edges

    def successors(self, letter: str) -> tuple[str, ...]:
        return tuple(sorted(v for (u, v) in self.edges if u == letter))

    def relabel(self, perm: LetterPermutation) -> TransitionDiagram:
        """Apply perm to every vertex label."""
        return TransitionDiagram(frozenset((perm(u), perm(v)) for (u, v) in self.edges))

    def intersection(self, other: TransitionDiagram) -> TransitionDiagram:
        return TransitionDiagram(self.edges & other.edges)


class LetterPermutation(Record):
    """A bijection of the n letters, stored as the image tuple of A, B, C, ..."""

    __slots__ = ("images", "_table")
    _fields = ("images",)

    def __post_init__(self) -> None:
        letters = letters_for(len(self.images))
        if sorted(self.images) != sorted(letters):
            raise CutseqError(f"not a bijection of {len(self.images)} letters: {self.images}")
        object.__setattr__(self, "_table", str.maketrans(letters, "".join(self.images)))

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


def sector0_walk(n: int) -> str:
    """The sector-0 diagram as one walk of 2n letters that reads the same backwards.

    The diagram's edges are two involutions, j -> n+1-j and j -> n+2-j (the
    second undefined at 1).  Applied in turn from L1 they give L1, Ln, L2,
    L(n-1), ..., Ln, L1: the letters interleaved with their reverse, ADBCCBDA
    for the octagon.  The diagram is a chain from L1 with a loop at its far end,
    where the walk turns; each edge is one adjacent pair of the walk, and a path
    that sandwiches no letter applies the involutions in turn, so it is a
    stretch of the walk.
    """
    letters = letters_for(n)
    return "".join(map(str.__add__, letters, letters[::-1]))


@lru_cache(maxsize=None)
def build_diagram(i: int, n: int) -> TransitionDiagram:
    """Transition diagram for trajectories with direction in sector i.

    Sector 0's edges are the adjacent pairs of its walk (`sector0_walk`): L_j ->
    L_(n+1-j) for every j and L_j -> L_(n+2-j) for j >= 2 (for n = 2 the square
    pair A<->B plus the B loop); the diagram for sector i is the sector-0
    diagram with every vertex relabelled by the inverse of the renormalizing
    permutation.
    """
    check_sector(i, n)
    walk = sector0_walk(n)
    d0 = TransitionDiagram(frozenset(zip(walk, walk[1:])))
    return d0.relabel(sector_permutation(i, n).inverse()) if i else d0


@lru_cache(maxsize=None)
def boundary_diagram(k: int, n: int) -> TransitionDiagram:
    """Transitions allowed in both sector k-1 and sector k (indices mod 2n)."""
    return build_diagram((k - 1) % (2 * n), n).intersection(build_diagram(k % (2 * n), n))


def admissible_diagrams(w: Wordlike, n: int) -> tuple[int, ...]:
    """All sector indices whose diagram admits w (wrap included for periodic)."""
    pairs = transition_set(w)
    return tuple(i for i in range(2 * n) if pairs <= build_diagram(i, n).edges)


def permute(perm: LetterPermutation, w: Wordlike) -> Wordlike:
    if isinstance(w, PeriodicWord):
        # a bijection of letters keeps a primitive period primitive
        return PeriodicWord(perm.apply_word(_held(w)))
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

    A str loses its boundary letters (their status is unknowable); periodic
    words wrap around and may derive to None when no letter survives.
    """
    kept = _sandwiched_letters(_wrapped(w, held=True))
    if isinstance(w, PeriodicWord):
        return PeriodicWord.of(kept) if kept else None
    return kept


@lru_cache(maxsize=_MEMO_SIZE)
def _sandwiched_letters(t: str) -> str:
    """The interior letters of a wrapped text whose neighbours are equal: `derive`'s
    memoized kernel."""
    if not t.isascii():
        return "".join(b for a, b, c in zip(t, t[1:], t[2:]) if a == c)
    # read big-endian, the low m bytes of v >> 8 are the letters that have both neighbours
    v, m = int.from_bytes(t.encode("ascii"), "big"), max(len(t) - 2, 0)
    return _mark_unsandwiched(v >> 8, v, m).translate(None, b"\xff").decode("ascii")


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
    """Distinct-factor counts for every length 1..max_length.

    The factors of length L = max_length come from aligned blocks
    (`_block_factors`).  Each factor of length l < L is the prefix of a factor
    of length l + 1, except the word's last l letters when they occur nowhere
    else, so the set shrinks one length at a time: cut every factor by a
    letter and add that suffix.
    """
    _check_factor_length(max_length, len(word), "max_length")
    factors = _block_factors(word, max_length)
    counts = {max_length: len(factors)}
    for length in range(max_length - 1, 0, -1):
        factors = {f[:length] for f in factors}
        factors.add(word[-length:])
        counts[length] = len(factors)
    return counts
