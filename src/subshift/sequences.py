"""Words, cylinder enumeration, and finitely described shift points.

A word is a tuple of symbols; the empty word is allowed and admissible.
Points of the two-sided shift space are represented by
:class:`EventuallyPeriodicSeq`: a left period repeated to minus infinity,
a finite core, and a right period repeated to plus infinity, together
with an origin marking coordinate 0; points of the one-sided space by
:class:`OneSidedPoint`: a prefix, then a tail period repeated forever.
Every proof witness needed here is eventually periodic, so these
representations are complete for the certificates this package produces.
Words are listed and refined by ``extend_words``; ``require_work_limit``
counts, listing nothing, what a build would make and refuses it past the limit,
and ``count_past`` counts no further than the size a count is compared with.
Every listing of a length's words is ``enumerate_words``, which runs that
check first; ``spelled_words`` keys that one listing by the words'
literals, over at most 9 symbols built by extending each prefix's literal
by one digit.  Every check reads the limit from this module's binding.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate
from math import inf, lcm
from operator import mul

from .errors import DepthZero, InadmissibleWord, MalformedInput, SymbolOutOfRange, WorkLimitExceeded
from .graph import NUMERAL, AdjacencyMatrix, Word

MAX_FREENESS_ENTRIES = 1_000_000  # the work limit; the golden-mean words pass it at length 21
_LITERAL = re.compile(rf"L:(\S*) C:(\S*) R:(\S*) O:(-?{NUMERAL})")  # what to_literal writes
_DOTTED = re.compile(rf"(?:{NUMERAL}(?:\.|(?:\.{NUMERAL})+))?")  # the word literals not all digits


def as_word(w: str | Iterable[int]) -> Word:
    """A word literal or iterable of symbols as a Word tuple.

    Symbols are taken as given, never converted: one that is not an int
    raises SymbolOutOfRange here, and the alphabet's range is checked
    where the word meets a matrix.  A value that is neither a string nor
    iterable is MalformedInput.
    """
    if isinstance(w, str):
        return word_from_string(w)
    try:
        word = tuple(w)
    except TypeError:
        raise MalformedInput(f"a word must be a string or an iterable, got {type(w).__name__}") from None
    for s in word:
        if not isinstance(s, int):
            raise SymbolOutOfRange(f"symbol {s!r} is not an integer")
    return word


def word_from_string(text: str) -> Word:
    """Parse a word literal, the grammar ``word_to_string`` writes.

    A literal is "", or ASCII digits, one per symbol ("121"), so "12" is
    always the word 1 2; or one ASCII numeral (``graph.NUMERAL``) and a
    trailing dot ("12."); or two or more numerals joined by dots
    ("10.2.1").  Anything else, such as an empty numeral ("1..2", "."), a
    trailing dot after two or more numerals ("1.2."), a sign or a
    non-ASCII digit, is MalformedInput.
    """
    text = text.strip()
    if text.isdigit() and text.isascii():  # the digit literals, as every alphabet up to 9 writes them
        return tuple(map(int, text))
    if _DOTTED.fullmatch(text) is None:
        raise MalformedInput(f"cannot parse word literal {text!r}")
    return tuple(map(int, filter(None, text.split("."))))  # "" after "12." or in the empty literal


def word_to_string(w: Word) -> str:
    """The literal of w that ``word_from_string`` reads back as w: digits
    while every symbol is at most 9, else dotted numerals.  Each symbol is
    spelled once, and the spellings joined bare or by dots; only a word with
    a symbol whose str is no numeral, as a bool's, is spelled again, each
    symbol as its integer."""
    numerals = [*map(str, w)]
    text = "".join(numerals)
    if len(text) == len(w):
        return text
    if not text.isdigit():
        numerals = map(int.__repr__, w)
    return ".".join(numerals) + ("." if len(w) == 1 else "")


def is_admissible(A: AdjacencyMatrix, w: str | Iterable[int]) -> bool:
    """True iff every consecutive pair of `w` is in A's edge set (``A.admits``).

    Empty and single-symbol words are admissible.  Symbols outside the
    alphabet raise SymbolOutOfRange.
    """
    return A.admits(as_word(w))


def require_admissible(A: AdjacencyMatrix, w: str | Iterable[int]) -> Word:
    word = as_word(w)
    if not A.admits(word):
        raise InadmissibleWord(f"word {word_to_string(word)} is not admissible")
    return word


def extend_words(A: AdjacencyMatrix, words: list[Word], levels: int) -> list[Word]:
    """Each word followed by each admissible continuation of `levels` more
    symbols, in order; unbounded, so callers check ``require_work_limit``."""
    extensions = A._extensions
    for _ in range(levels if words else 0):  # no words: nothing to build, at any depth
        words = [w + t for w in words for t in extensions[w[-1]]]
    return words


def word_counts(A: AdjacencyMatrix, words: Iterable[Word] | None = None) -> Iterator[int]:
    """N_1, N_2, ...: the number of admissible words of each length, or of
    the extensions of `words` by 0, 1, ... symbols, counted without listing
    them: N_k sums the entries of A^(k-1), in O(n^2) a step, never falling."""
    pred = [A.predecessors(s) for s in A.symbols]
    ending = [1 if words is None else 0] * A.n  # words of the current length, by last symbol
    for w in words or ():
        ending[w[-1] - 1] += 1
    while True:
        yield sum(ending)
        ending = [sum(ending[p - 1] for p in ps) for ps in pred]


def word_count(A: AdjacencyMatrix, k: int) -> int:
    """The number of admissible words of length k (``count_past``, no size)."""
    return count_past(A, k, inf)[1]


def count_past(A: AdjacencyMatrix, k: int, size: float) -> tuple[int, int]:
    """(l, N_l) for the first length l < k with N_l > size, else (k, N_k).
    Counts never fall, so N_k > size once N_l is: counting stops there,
    at a count of at most n * size.  Nor do they grow once they stop:
    N_(l+1) = N_l means every symbol that ends a length-l word has exactly
    one successor (no row is zero), and the symbols that end longer words
    are among those, so N_k = N_l and counting stops there too.  So a deep
    depth is counted through only while its counts grow and stay in size."""
    if k < 1:
        raise DepthZero("word length must be at least 1")
    previous = None
    for length, count in zip(range(1, k + 1), word_counts(A)):
        if count > size:
            return length, count
        if count == previous:
            break
        previous = count
    return k, count


def require_work_limit(
    A: AdjacencyMatrix, depth: int, words: Collection[Word] | None = None, work: str | None = None
) -> None:
    """Raise WorkLimitExceeded, its message led by `work`, before words of length
    `depth` are built from `words` (default: the single symbols) if the sum, over
    each length l built, of l times the number of length-l words passes the
    limit: from the single symbols, the sum of j * N_j, as ``analyze`` counts."""
    start = 1 if words is None else min(map(len, words), default=depth + 1)
    levels = depth - start  # a word has at most n successors, and n**64 > the limit if n > 1
    if (levels + 1) * depth * len(words or A.symbols) * A.n ** min(levels, 64) <= MAX_FREENESS_ENTRIES:
        return
    built = accumulate(map(mul, range(start, depth + 1), word_counts(A, words)))
    if any(total > MAX_FREENESS_ENTRIES for total in built):
        limit = f"over {MAX_FREENESS_ENTRIES} entries (subshift.sequences.MAX_FREENESS_ENTRIES)"
        raise WorkLimitExceeded(f"{work or f'listing the length-{depth} words would build'} {limit}")


def enumerate_words(A: AdjacencyMatrix, k: int) -> list[Word]:
    """All admissible words of length k, in lexicographic order, refused
    first if ``require_work_limit(A, k)`` refuses to build them."""
    if k < 1:
        raise DepthZero("word length must be at least 1")
    require_work_limit(A, k)
    return extend_words(A, [(s,) for s in A.symbols], k - 1)


def spelled_words(A: AdjacencyMatrix, k: int) -> dict[str, Word]:
    """``enumerate_words(A, k)``, in its order, keyed by each word's literal,
    and refused exactly when it is.  Over at most 9 symbols each literal is
    its prefix's literal plus one digit, extended as ``extend_words``
    extends words; past 9 symbols it is ``word_to_string`` of the word."""
    words = enumerate_words(A, k)
    if A.n > 9:
        return {word_to_string(w): w for w in words}
    succ = {str(s): [str(t) for t in A.successors(s)] for s in A.symbols}
    literals = list(succ)
    for _ in range(k - 1):
        literals = [w + t for w in literals for t in succ[w[-1]]]
    return dict(zip(literals, words))


def periodic_points(A: AdjacencyMatrix, p: int) -> list[Word]:
    """Words w of length p with every consecutive edge and the wrap edge
    A(w_p, w_1); each names the period-p point w repeated forever.  The
    length-p words are listed (``enumerate_words``)."""
    if p < 1:
        raise DepthZero("period must be at least 1")
    return [w for w in enumerate_words(A, p) if (w[-1], w[0]) in A.edges]


@dataclass(frozen=True, eq=False)
class EventuallyPeriodicSeq:
    """A two-sided admissible sequence ...LLL | core | RRR... with an origin.

    Absolute positions: the core occupies positions 0 .. len(core)-1,
    copies of `left_period` fill the negative positions, copies of
    `right_period` the positions past the core.  Coordinate i of the
    sequence is the symbol at absolute position origin + i, so shifting
    just moves the origin.  It is admissible iff the word
    L[-1:] + L + C + R + R[:1] is (every edge it uses is a pair there).

    Periods are stored as given (no primitive-root reduction) and the
    core may be empty, so purely periodic points have a small canonical
    form.  Equality is coordinatewise, not representational: two values
    are equal when they agree at every coordinate.  It is decided from one
    window at each core end and one before the first, so comparing costs
    time bounded by the words' lengths, not by the origins.
    The literal is ``L:<word> C:<word> R:<word> O:<int>``: the fields in
    that order, single-spaced, each word a ``word_from_string`` literal
    and the origin an optional ``-`` then a ``graph.NUMERAL``; ``from_literal``
    refuses any other spelling (MalformedInput).
    """

    matrix: AdjacencyMatrix
    left_period: Word
    core: Word
    right_period: Word
    origin: int = 0

    def __post_init__(self) -> None:
        L, C, R = self.left_period, self.core, self.right_period
        if not L or not R:
            raise MalformedInput("left and right periods must be nonempty")
        if not self.matrix.admits(L[-1:] + L + C + R + R[:1]):
            raise InadmissibleWord(f"sequence {self.to_literal()} is not admissible")

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
        # Between two consecutive core ends each side stays in its core or repeats one
        # period, so a window from each end, and one before the first, decides all.
        ends = sorted(e for s in (self, other) for e in (-s.origin, len(s.core) - s.origin))
        periods = (other.left_period, other.right_period)
        size = max(len(self.core), len(other.core)) + max(
            lcm(len(p), len(q)) for p in (self.left_period, self.right_period) for q in periods
        )
        return all(self.window(e, size) == other.window(e, size) for e in (ends[0] - size, *ends))

    def to_literal(self) -> str:
        return "L:{} C:{} R:{} O:{}".format(
            word_to_string(self.left_period),
            word_to_string(self.core),
            word_to_string(self.right_period),
            self.origin,
        )

    @classmethod
    def from_literal(cls, A: AdjacencyMatrix, text: str) -> "EventuallyPeriodicSeq":
        """The point ``to_literal`` writes as `text`; any other spelling is MalformedInput."""
        match = _LITERAL.fullmatch(text)
        if match is None:
            raise MalformedInput(f"sequence literal {text!r} is not 'L:<word> C:<word> R:<word> O:<int>'")
        *words, origin = match.groups()
        return cls(A, *map(word_from_string, words), int(origin))

    def __repr__(self) -> str:
        return f"EventuallyPeriodicSeq({self.to_literal()!r})"


def shift(s: EventuallyPeriodicSeq, t: int) -> EventuallyPeriodicSeq:
    """Shift the sequence by t coordinates: shift(s, t)[i] == s[i + t]."""
    return s.shift(t)


def contains_word(s: EventuallyPeriodicSeq, r: str | Iterable[int]) -> bool:
    """True iff r occurs as a consecutive block somewhere in s.

    Decided exactly by one search of the core extended on each side by
    len(r) + the larger period length: an occurrence outside that window
    can be translated into it by periodicity.  The window and r are each
    written once as comma-delimited numerals, and ``str`` search finds r
    in linear time.
    """
    word = as_word(r)
    if not word:
        raise MalformedInput("occurrence test needs a nonempty word")
    L, R, m = s.left_period, s.right_period, len(word)
    pad = m + max(len(L), len(R))
    window = (L * (pad // len(L) + 1))[-pad:] + s.core + (R * ((pad + m) // len(R) + 1))[: pad + m]
    return ("," + "%d," * m) % word in ("," + "%d," * len(window)) % window


def periodic_seq(A: AdjacencyMatrix, period: str | Iterable[int], origin: int = 0) -> EventuallyPeriodicSeq:
    """The purely periodic point with the given period word."""
    word = as_word(period)
    return EventuallyPeriodicSeq(A, word, (), word, origin)


def require_point(A: AdjacencyMatrix, prefix: Word, tail: Word) -> None:
    """Raise unless prefix . tail^infinity is a point of A, the check that
    builds a ``OneSidedPoint``, made without building one."""
    if not prefix or not tail:
        raise MalformedInput("one-sided point needs a nonempty prefix and tail period")
    if not A.admits(prefix + tail + tail[:1]):
        raise InadmissibleWord(f"point {word_to_string(prefix)} . ({word_to_string(tail)})^inf is not admissible")


@dataclass(frozen=True, slots=True)
class OneSidedPoint:
    """The one-sided point prefix . tail^infinity, read at coordinates k >= 0.

    It is admissible iff the word prefix + tail + tail[:1] is (the last
    pair wraps the tail around).  Equality compares the stored words.
    """

    matrix: AdjacencyMatrix
    prefix: Word
    tail: Word

    def __post_init__(self) -> None:
        require_point(self.matrix, self.prefix, self.tail)

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise IndexError(f"a one-sided point has no coordinate {k}")
        p = len(self.prefix)
        return self.prefix[k] if k < p else self.tail[(k - p) % len(self.tail)]

    def window(self, start: int, length: int) -> Word:
        """Symbols at coordinates start .. start+length-1 (start >= 0)."""
        return tuple(self[k] for k in range(start, start + length))


def one_sided_seq(
    A: AdjacencyMatrix, prefix: str | Iterable[int], tail_period: str | Iterable[int]
) -> OneSidedPoint:
    """The one-sided point prefix . tail_period^infinity."""
    return OneSidedPoint(A, as_word(prefix), as_word(tail_period))
