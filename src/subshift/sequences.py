"""Words, cylinder enumeration, and finitely described shift points.

A word is a tuple of symbols; the empty word is allowed and admissible.
Points of the two-sided shift space are represented by
:class:`EventuallyPeriodicSeq`: a left period repeated to minus infinity,
a finite core, and a right period repeated to plus infinity, together
with an origin marking coordinate 0.  Every proof witness needed here is
eventually periodic on both sides, so this representation is complete
for the certificates this package produces.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import lcm

from .errors import DepthZero, InadmissibleWord, MalformedInput, NoPath, SymbolOutOfRange
from .graph import AdjacencyMatrix, Word, find_path


def as_word(w: str | Iterable[int]) -> Word:
    """Coerce a word literal or iterable of symbols to a Word tuple."""
    if isinstance(w, str):
        return word_from_string(w)
    return tuple(int(s) for s in w)


def word_from_string(text: str) -> Word:
    """Parse a word literal: one digit per symbol, or dot-separated numbers
    when the alphabet goes past 9 (e.g. "121" or "10.2.1")."""
    text = text.strip()
    if not text:
        return ()
    parts = text.split(".") if "." in text else list(text)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise MalformedInput(f"cannot parse word literal {text!r}") from None


def word_to_string(w: Word) -> str:
    if all(s <= 9 for s in w):
        return "".join(str(s) for s in w)
    return ".".join(str(s) for s in w)


def is_admissible(A: AdjacencyMatrix, w: str | Iterable[int]) -> bool:
    """True iff every consecutive pair of `w` is an edge of A.

    Empty and single-symbol words are admissible.  Symbols outside the
    alphabet raise SymbolOutOfRange.
    """
    word = as_word(w)
    for s in word:
        A.check_symbol(s)
    return all(A.rows[a - 1][b - 1] for a, b in zip(word, word[1:]))


def require_admissible(A: AdjacencyMatrix, w: str | Iterable[int]) -> Word:
    word = as_word(w)
    if not is_admissible(A, word):
        raise InadmissibleWord(f"word {word_to_string(word)} is not admissible")
    return word


def enumerate_words(A: AdjacencyMatrix, k: int) -> list[Word]:
    """All admissible words of length k, in lexicographic order."""
    if k < 1:
        raise DepthZero("word length must be at least 1")
    words: list[Word] = [(s,) for s in A.symbols]
    for _ in range(k - 1):
        words = [w + (s,) for w in words for s in A.successors(w[-1])]
    return words


def periodic_points(A: AdjacencyMatrix, p: int) -> list[Word]:
    """Words w of length p with every consecutive edge and the wrap edge
    A(w_p, w_1); each names the period-p point w repeated forever."""
    if p < 1:
        raise DepthZero("period must be at least 1")
    return [w for w in enumerate_words(A, p) if A.rows[w[-1] - 1][w[0] - 1]]


@dataclass(frozen=True, eq=False)
class EventuallyPeriodicSeq:
    """A two-sided admissible sequence ...LLL | core | RRR... with an origin.

    Absolute positions: the core occupies positions 0 .. len(core)-1,
    copies of `left_period` fill the negative positions, copies of
    `right_period` the positions past the core.  Coordinate i of the
    sequence is the symbol at absolute position origin + i, so shifting
    just moves the origin.

    Periods are stored as given (no primitive-root reduction) and the
    core may be empty, so purely periodic points have a small canonical
    form.  Equality is coordinatewise, not representational: two values
    are equal when they agree at every coordinate.
    """

    matrix: AdjacencyMatrix
    left_period: Word
    core: Word
    right_period: Word
    origin: int = 0

    def __post_init__(self) -> None:
        if not self.left_period or not self.right_period:
            raise MalformedInput("left and right periods must be nonempty")
        for s in (*self.left_period, *self.core, *self.right_period):
            self.matrix.check_symbol(s)
        L, C, R = self.left_period, self.core, self.right_period
        pieces = [*zip(L, L[1:]), (L[-1], L[0])]        # left edges and wrap
        pieces.append((L[-1], C[0] if C else R[0]))
        pieces.extend(zip(C, C[1:]))
        if C:
            pieces.append((C[-1], R[0]))
        pieces.extend([*zip(R, R[1:]), (R[-1], R[0])])  # right edges and wrap
        for a, b in pieces:
            if not self.matrix.rows[a - 1][b - 1]:
                raise InadmissibleWord(f"junction {a} -> {b} is not an edge")

    def at_abs(self, p: int) -> int:
        """Symbol at absolute position p (core starts at 0)."""
        if p < 0:
            return self.left_period[p % len(self.left_period)]
        if p < len(self.core):
            return self.core[p]
        return self.right_period[(p - len(self.core)) % len(self.right_period)]

    def __getitem__(self, i: int) -> int:
        return self.at_abs(self.origin + i)

    def window(self, start: int, length: int) -> Word:
        """Symbols at coordinates start .. start+length-1."""
        return tuple(self[i] for i in range(start, start + length))

    def shift(self, t: int) -> "EventuallyPeriodicSeq":
        """The same underlying sequence read t coordinates later."""
        return EventuallyPeriodicSeq(
            self.matrix, self.left_period, self.core, self.right_period, self.origin + t
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventuallyPeriodicSeq):
            return NotImplemented
        if self.matrix != other.matrix:
            return False
        lo = min(-self.origin, -other.origin)
        hi = max(len(self.core) - self.origin, len(other.core) - other.origin)
        lper = lcm(len(self.left_period), len(other.left_period))
        rper = lcm(len(self.right_period), len(other.right_period))
        return all(
            self[i] == other[i] for i in range(lo - lper, hi + rper)
        )

    def to_literal(self) -> str:
        return "L:{} C:{} R:{} O:{}".format(
            word_to_string(self.left_period),
            word_to_string(self.core),
            word_to_string(self.right_period),
            self.origin,
        )

    @classmethod
    def from_literal(cls, A: AdjacencyMatrix, text: str) -> "EventuallyPeriodicSeq":
        fields = {}
        for token in text.split():
            if ":" not in token:
                raise MalformedInput(f"bad sequence token {token!r}")
            key, _, value = token.partition(":")
            fields[key] = value
        missing = {"L", "C", "R", "O"} - set(fields)
        if missing:
            raise MalformedInput(f"sequence literal missing {sorted(missing)}")
        try:
            origin = int(fields["O"])
        except ValueError:
            raise MalformedInput(f"bad origin {fields['O']!r}") from None
        return cls(
            A,
            word_from_string(fields["L"]),
            word_from_string(fields["C"]),
            word_from_string(fields["R"]),
            origin,
        )

    def __repr__(self) -> str:
        return f"EventuallyPeriodicSeq({self.to_literal()!r})"


def shift(s: EventuallyPeriodicSeq, t: int) -> EventuallyPeriodicSeq:
    """Shift the sequence by t coordinates: shift(s, t)[i] == s[i + t]."""
    return s.shift(t)


def contains_word(s: EventuallyPeriodicSeq, r: str | Iterable[int]) -> bool:
    """True iff r occurs as a consecutive block somewhere in s.

    Decided exactly by scanning the core extended on each side by
    len(r) + the larger period length: an occurrence outside that window
    can be translated into it by periodicity.
    """
    word = as_word(r)
    if not word:
        raise MalformedInput("occurrence test needs a nonempty word")
    m = len(word)
    pad = m + max(len(s.left_period), len(s.right_period))
    for start in range(-pad, len(s.core) + pad + 1):
        if all(s.at_abs(start + t) == word[t] for t in range(m)):
            return True
    return False


def periodic_seq(A: AdjacencyMatrix, period: str | Iterable[int], origin: int = 0) -> EventuallyPeriodicSeq:
    """The purely periodic point with the given period word."""
    word = as_word(period)
    return EventuallyPeriodicSeq(A, word, (), word, origin)


def left_padding(A: AdjacencyMatrix, first: int) -> Word:
    """A period word that can sit to the left of a block starting with `first`.

    Picks the smallest predecessor p of `first` lying on a cycle and
    returns that cycle rotated to end at p.  Used to embed one-sided
    points into the two-sided representation; reads at coordinates >= 0
    are unaffected by the choice.
    """
    for p in A.predecessors(first):
        try:
            return find_path(A, p, p)[1:]
        except NoPath:
            continue
    raise InadmissibleWord(f"no admissible left extension for symbol {first}")


def one_sided_seq(
    A: AdjacencyMatrix, prefix: str | Iterable[int], tail_period: str | Iterable[int]
) -> EventuallyPeriodicSeq:
    """The one-sided point prefix . tail_period^infinity, embedded two-sidedly.

    Coordinate 0 is the first symbol of `prefix`; negative coordinates
    hold canonical padding and must not be read by one-sided checks.
    """
    head = require_admissible(A, prefix)
    if not head:
        raise MalformedInput("one-sided point needs a nonempty prefix")
    tail = require_admissible(A, tail_period)
    if not tail:
        raise MalformedInput("one-sided point needs a nonempty tail period")
    return EventuallyPeriodicSeq(A, left_padding(A, head[0]), head, tail, 0)
