"""Locally constant functions and clopen sets, with exact rational values.

A cylinder function of depth k is constant on every cylinder named by an
admissible depth-k word.  It stores only its nonzero values, keyed by
their words, and every operation reads and writes only those entries.
``CylinderFunction.values`` is a read-only view of the total table: it
lists every admissible depth-k word in lexicographic order and reads 0
on the words that are not stored.  These functions are dense among the
continuous ones and every identity this package checks is an exact
equality of such tables, never an approximation.  Scalars are real: the
involution is the identity here.
Tables from callers are checked by the constructor, the reference
validator.  It reads only the words it was given: each key must be a
word of the table's depth whose pairs lie in the matrix's stored edge
set (``AdjacencyMatrix.edges``), and the number of keys must equal the
admissible word count, so no word is listed; counting stops once a
length has more words than the table has keys, or once the counts stop
growing (``sequences.count_past``).
``DomainMask`` checks its member words the same way.  A function file is
checked once, where it enters, by ``parse_function_file``: it makes the
constructor's checks, with its messages, but reads each word literal of
a complete file by one lookup among the listed depth-k words, when the
work limit allows that listing, and converts each distinct value text once.
A file is read and written with one listing of a depth's words keyed by
their literals (``sequences.spelled_words``), not one ``word_to_string`` per word.
Parsed files and the functions the engine derives are built by
``CylinderFunction.from_nonzero`` (or by ``tabulate`` from a rule on
every word) and are not checked again.  Listing every word of a depth
(``tabulate``, a nonzero ``constant``, ``DomainMask.full``, iterating
``values``, writing a file) is ``sequences.enumerate_words``, under the work limit.
"""

from __future__ import annotations

import operator
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DepthZero,
    MalformedInput,
    MatrixMismatch,
    ShallowerDepth,
    SymbolOutOfRange,
    TooShort,
    WorkLimitExceeded,
)
from .graph import NUMERAL, NUMERAL_DIGITS, AdjacencyMatrix, Word, parse_natural
from .sequences import (
    EventuallyPeriodicSeq,
    OneSidedPoint,
    as_word,
    count_past,
    enumerate_words,
    extend_words,
    require_admissible,
    require_work_limit,
    spelled_words,
    word_from_string,
    word_to_string,
)

_UNARY_OPS = {"neg": operator.neg, "abs": abs}
_BINARY_OPS = ("add", "mul")
_ZERO = Fraction(0)
_NUMERAL_BOUND = 10**NUMERAL_DIGITS  # the least natural no NUMERAL spells
# A sign, then an integer, a ratio with a nonzero denominator or a decimal: "-3", "6/4", "-.25", "1.".
_RATIONAL = re.compile(rf"[+-]?(?:{NUMERAL}(?:/(?=0*[1-9]){NUMERAL}|\.(?:{NUMERAL})?)?|\.{NUMERAL})")


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value) is None:
            raise MalformedInput(f"cannot parse rational {value!r}")
        return Fraction(value)
    raise MalformedInput(f"values must be exact rationals, got {type(value).__name__}")


def _as_key(w: str | Iterable[int]) -> Word:
    """A table key or mask member as a Word; a non-integer symbol is malformed input."""
    try:
        return as_word(w)
    except SymbolOutOfRange as exc:
        raise MalformedInput(f"table and mask words must be symbol words: {exc}") from None


def _is_word(A: AdjacencyMatrix, depth: int, w: Word) -> bool:
    # Edges join symbols of the alphabet, so past w[0] the edge set checks the range.
    return len(w) == depth and w[0] in A.symbols and A.edges.issuperset(zip(w, w[1:]))


def _unknown_words(A: AdjacencyMatrix, depth: int, words: Iterable[Word]) -> list[str]:
    """The given words that are not admissible depth-`depth` words, sorted."""
    return sorted(word_to_string(w) for w in words if not _is_word(A, depth, w))


def _require_every_word(A: AdjacencyMatrix, k: int, unchecked: Iterable[Word], size: int) -> None:
    """MalformedInput unless a table with `size` distinct keys holds every
    admissible depth-k word and nothing else, given that its keys outside
    `unchecked` are such words.  The keys are checked before N_k is
    counted, so a deep depth with a wrong word is refused at once, and
    counting stops once it passes `size` (``count_past``)."""
    unknown = _unknown_words(A, k, unchecked)
    if unknown:
        raise MalformedInput(f"table words must be admissible depth-{k} words (unknown {unknown})")
    # Every key is an admissible depth-k word, so equal counts mean equal sets.
    length, count = count_past(A, k, size)
    if count > size:
        missing = f"{'' if length == k else 'at least '}{count - size}" if size else "all"
        raise MalformedInput(f"table must cover every admissible depth-{k} word (missing {missing})")


class CylinderValues(Mapping):
    """The total table of a depth-k function, read from its nonzero entries.

    Iteration lists every admissible depth-k word in lexicographic order
    and ``len`` is their count, WorkLimitExceeded past ``sys.maxsize``,
    which len() cannot return; an admissible word that is not stored
    reads Fraction(0), and any other key raises KeyError.
    """

    __slots__ = ("matrix", "depth", "nonzero")

    def __init__(self, A: AdjacencyMatrix, depth: int, nonzero: dict[Word, Fraction]) -> None:
        self.matrix = A
        self.depth = depth
        self.nonzero = nonzero

    def __getitem__(self, w: Word) -> Fraction:
        v = self.nonzero.get(w)
        if v is not None:
            return v
        if isinstance(w, tuple) and _is_word(self.matrix, self.depth, w):
            return _ZERO
        raise KeyError(w)

    def __iter__(self) -> Iterator[Word]:
        return iter(enumerate_words(self.matrix, self.depth))

    def __len__(self) -> int:
        count = count_past(self.matrix, self.depth, sys.maxsize)[1]
        if count > sys.maxsize:
            raise WorkLimitExceeded(f"the depth-{self.depth} words number over {sys.maxsize}")
        return count

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True, eq=False)
class CylinderFunction:
    """A function on the shift space depending on the first `depth` symbols.

    `values` must assign a rational to every admissible word of length
    `depth`; the function keeps the nonzero ones, and `values` becomes a
    read-only view (``CylinderValues``).  Refining to a larger depth
    represents the same function; equality between instances is that of
    the functions they represent, after refinement to a common depth.
    """

    matrix: AdjacencyMatrix
    depth: int
    values: Mapping[Word, Fraction]

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise DepthZero("cylinder functions need depth at least 1")
        table: dict[Word, Fraction] = {}
        for w, v in self.values.items():
            key = _as_key(w)
            if key in table:  # two spellings of one word, as a function file may not list it twice
                raise MalformedInput(f"duplicate word {w if isinstance(w, str) else word_to_string(key)}")
            table[key] = _as_fraction(v)
        _require_every_word(self.matrix, self.depth, table, len(table))
        nonzero = {w: v for w, v in table.items() if v}
        object.__setattr__(self, "values", CylinderValues(self.matrix, self.depth, nonzero))

    @classmethod
    def from_nonzero(
        cls, A: AdjacencyMatrix, depth: int, nonzero: dict[Word, Fraction]
    ) -> "CylinderFunction":
        """The function with these values, 0 elsewhere.  The keys must be
        admissible depth-`depth` words and the values nonzero Fractions;
        valid by construction, unchecked."""
        f = object.__new__(cls)
        object.__setattr__(f, "matrix", A)
        object.__setattr__(f, "depth", depth)
        object.__setattr__(f, "values", CylinderValues(A, depth, nonzero))
        return f

    @classmethod
    def tabulate(cls, A: AdjacencyMatrix, depth: int, rule: Callable) -> "CylinderFunction":
        """rule(w) on every admissible depth-`depth` word w (``enumerate_words``); valid by construction."""
        table = {w: v for w in enumerate_words(A, depth) if (v := _as_fraction(rule(w)))}
        return cls.from_nonzero(A, depth, table)

    @classmethod
    def constant(cls, A: AdjacencyMatrix, value, depth: int = 1) -> "CylinderFunction":
        """The function `value` everywhere; a nonzero one stores, so lists, every
        depth-`depth` word (``enumerate_words``)."""
        c = _as_fraction(value)
        return cls.from_nonzero(A, depth, dict.fromkeys(enumerate_words(A, depth), c) if c else {})

    @classmethod
    def zero(cls, A: AdjacencyMatrix, depth: int = 1) -> "CylinderFunction":
        return cls.constant(A, 0, depth)

    @classmethod
    def indicator(cls, A: AdjacencyMatrix, word: str | Iterable[int]) -> "CylinderFunction":
        """The indicator of the cylinder named by `word`."""
        w = require_admissible(A, word)
        if not w:
            raise MalformedInput("indicator needs a nonempty word")
        return cls.from_nonzero(A, len(w), {w: Fraction(1)})

    @property
    def nonzero(self) -> dict[Word, Fraction]:
        """The stored entries: the words where the function is not 0."""
        return self.values.nonzero

    def refine(self, depth: int) -> "CylinderFunction":
        return refine(self, depth)

    def is_zero(self) -> bool:
        return not self.nonzero

    def __call__(self, x) -> Fraction:
        return evaluate(self, x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CylinderFunction):
            return NotImplemented
        if self.matrix != other.matrix:
            return False
        k = max(self.depth, other.depth)
        return refine(self, k).nonzero == refine(other, k).nonzero

    def __add__(self, other) -> "CylinderFunction":
        return pointwise("add", self, _coerce(self, other))

    __radd__ = __add__

    def __mul__(self, other) -> "CylinderFunction":
        if isinstance(other, CylinderFunction):
            return pointwise("mul", self, other)
        c = _as_fraction(other)
        scaled = {w: c * v for w, v in self.nonzero.items()} if c else {}
        return CylinderFunction.from_nonzero(self.matrix, self.depth, scaled)

    __rmul__ = __mul__

    def __neg__(self) -> "CylinderFunction":
        return pointwise("neg", self)

    def __sub__(self, other) -> "CylinderFunction":
        return self + (-_coerce(self, other))

    def __abs__(self) -> "CylinderFunction":
        return pointwise("abs", self)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{word_to_string(w)}={v}" for w, v in sorted(self.values.items())
        )
        return f"CylinderFunction(depth={self.depth}, {body})"


def _coerce(like: CylinderFunction, value) -> CylinderFunction:
    if isinstance(value, CylinderFunction):
        return value
    return CylinderFunction.constant(like.matrix, value)


def refine(f: CylinderFunction, depth: int) -> CylinderFunction:
    """The same function on depth-`depth` cylinders: each stored word is
    extended (``extend_words``) once ``require_work_limit`` allows it."""
    if depth < f.depth:
        raise ShallowerDepth(f"cannot refine depth {f.depth} down to {depth}")
    if depth == f.depth:
        return f
    A, k, values = f.matrix, f.depth, f.nonzero
    require_work_limit(A, depth, values, f"refining to depth {depth} would build")
    table = {w: values[w[:k]] for w in extend_words(A, list(values), depth - k)}
    return CylinderFunction.from_nonzero(A, depth, table)


def alpha(f: CylinderFunction) -> CylinderFunction:
    """Composition with the shift: alpha(f)(x) = f(shift(x)).

    The result depends on one more coordinate than f, so its depth grows
    by one; it holds f(w) on a.w for each stored w and each predecessor a
    of w[0].
    """
    A = f.matrix
    table = {(a,) + w: v for w, v in f.nonzero.items() for a in A.predecessors(w[0])}
    return CylinderFunction.from_nonzero(A, f.depth + 1, table)


def pointwise(op: str, f: CylinderFunction, g: CylinderFunction | None = None) -> CylinderFunction:
    """Apply an exact pointwise operation: add, mul (binary), neg, abs (unary).

    Only stored entries are read: neg and abs map them, mul keeps the
    words both operands store, and add merges the two, dropping sums that
    cancel to 0.
    """
    if op not in (*_UNARY_OPS, *_BINARY_OPS):
        raise MalformedInput(f"unknown pointwise op {op!r}")
    if op in _UNARY_OPS:
        if g is not None:
            raise MalformedInput(f"{op} takes a single function")
        fn = _UNARY_OPS[op]
        table = {w: fn(v) for w, v in f.nonzero.items()}
        return CylinderFunction.from_nonzero(f.matrix, f.depth, table)
    if g is None:
        raise MalformedInput(f"{op} takes two functions")
    if f.matrix != g.matrix:
        raise MatrixMismatch("operands built over different matrices")
    k = max(f.depth, g.depth)
    fv, gv = refine(f, k).nonzero, refine(g, k).nonzero
    if op == "mul":
        if len(gv) < len(fv):
            fv, gv = gv, fv
        table = {w: v * gv[w] for w, v in fv.items() if w in gv}
    else:
        table = dict(fv)
        for w, v in gv.items():
            total = table.pop(w, 0) + v
            if total:
                table[w] = total
    return CylinderFunction.from_nonzero(f.matrix, k, table)


def evaluate(f: CylinderFunction, x) -> Fraction:
    """Value of f at a point: x is a word (>= depth symbols), a two-sided
    sequence or a one-sided point, read forward from coordinate 0."""
    if isinstance(x, (EventuallyPeriodicSeq, OneSidedPoint)):
        if x.matrix != f.matrix:
            raise MatrixMismatch("sequence built over a different matrix")
        return f.values[x.window(0, f.depth)]
    word = as_word(x)
    if len(word) < f.depth:
        raise TooShort(f"need {f.depth} symbols, got {len(word)}")
    return f.values[require_admissible(f.matrix, word[: f.depth])]


@dataclass(frozen=True, eq=False)
class DomainMask:
    """A clopen subset of the shift space: a union of depth-k cylinders.

    The default domain used by weights is the whole space.  A mask is the
    support of its 0-1 ``indicator`` and refines and compares through it,
    so equality is as sets, not by representation.
    """

    matrix: AdjacencyMatrix
    depth: int
    members: frozenset[Word]

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise DepthZero("masks need depth at least 1")
        members = frozenset(_as_key(w) for w in self.members)
        bad = _unknown_words(self.matrix, self.depth, members)
        if bad:
            raise MalformedInput(f"mask words must be admissible depth-{self.depth} words, got {bad}")
        object.__setattr__(self, "members", members)

    @classmethod
    def full(cls, A: AdjacencyMatrix, depth: int = 1) -> "DomainMask":
        """The whole space, as every depth-`depth` word (``enumerate_words``)."""
        return cls(A, depth, frozenset(enumerate_words(A, depth)))

    @classmethod
    def empty(cls, A: AdjacencyMatrix, depth: int = 1) -> "DomainMask":
        return cls(A, depth, frozenset())

    @classmethod
    def from_words(cls, A: AdjacencyMatrix, words: Iterable[str | Iterable[int]], depth: int | None = None) -> "DomainMask":
        ws = frozenset(_as_key(w) for w in words)
        if depth is None:
            lengths = {len(w) for w in ws}
            if len(lengths) != 1:
                raise MalformedInput("mask words must share one length (or pass depth)")
            depth = lengths.pop()
        return cls(A, depth, ws)

    def refine(self, depth: int) -> "DomainMask":
        return DomainMask(self.matrix, depth, frozenset(refine(self.indicator(), depth).nonzero))

    def covers(self, word: Word) -> bool:
        """True iff the cylinder of `word` lies inside the mask (needs
        len(word) >= depth)."""
        if len(word) < self.depth:
            raise TooShort(f"need {self.depth} symbols to test membership")
        return word[: self.depth] in self.members

    def indicator(self) -> CylinderFunction:
        return CylinderFunction.from_nonzero(
            self.matrix, self.depth, dict.fromkeys(self.members, Fraction(1))
        )

    def is_empty(self) -> bool:
        return not self.members

    def is_full(self) -> bool:
        return count_past(self.matrix, self.depth, len(self.members)) == (self.depth, len(self.members))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DomainMask):
            return NotImplemented
        return self.indicator() == other.indicator()

    def __repr__(self) -> str:
        words = sorted(word_to_string(w) for w in self.members)
        return f"DomainMask(depth={self.depth}, members={words})"


def mask_image(U: DomainMask) -> DomainMask:
    """The image of the clopen set U under the shift, as a mask.

    Dropping the first symbol of each member word names the image
    cylinders; depth-1 masks are refined to depth 2 first so the result
    still has depth >= 1.
    """
    V = U.refine(2) if U.depth < 2 else U
    return DomainMask(V.matrix, V.depth - 1, frozenset(w[1:] for w in V.members))


def parse_function_file(A: AdjacencyMatrix, text: str) -> CylinderFunction:
    """Parse the function table format: a "depth <k>" header, then one
    "<word> <value>" line per admissible depth-k word (all required).

    The file is checked here, once, as the constructor checks a table, and
    fails with the constructor's messages.  Before any line is read, the
    depth-k words are counted against the line count, no further than one
    length past it (``count_past``); when the file has one line per word,
    they are listed once, keyed by their literals (``spelled_words``), so
    that each literal is read and checked by one lookup.  A literal spelled
    otherwise, or every literal when the work limit refuses the listing, is
    read by ``word_from_string`` and checked on its own.  Each distinct
    value text is converted once.
    """
    lines = [ln for ln in (raw.strip() for raw in text.split("\n")) if ln]
    if not lines:
        raise MalformedInput("empty function file")
    head = lines[0].split()
    k = parse_natural(head[1]) if len(head) == 2 and head[0] == "depth" else None
    if k is None:
        raise MalformedInput(f"bad header {lines[0]!r}, expected 'depth <k>'")
    rows = lines[1:]
    spelled: dict[str, Word] = {}  # every depth-k word by its literal, when the file may list them all
    if k >= 1 and count_past(A, k, len(rows)) == (k, len(rows)):
        with suppress(WorkLimitExceeded):  # past the limit each literal is read on its own
            spelled = spelled_words(A, k)
    unchecked: list[Word] = []
    table: dict[Word, str] = {}
    for ln in rows:
        parts = ln.split()
        if len(parts) != 2:
            raise MalformedInput(f"bad table line {ln!r}")
        word = spelled.get(parts[0])
        if word is None:
            word = word_from_string(parts[0])
            unchecked.append(word)
        if word in table:
            raise MalformedInput(f"duplicate word {parts[0]}")
        table[word] = parts[1]
    if k < 1:
        raise DepthZero("cylinder functions need depth at least 1")
    values = {s: v for s in dict.fromkeys(table.values()) if (v := _as_fraction(s))}
    _require_every_word(A, k, unchecked, len(table))
    return CylinderFunction.from_nonzero(A, k, {w: values[s] for w, s in table.items() if s in values})


def spelled_values(f: CylinderFunction) -> dict[str, str]:
    """Each depth-k literal of f, in word order (``spelled_words``), with
    its value's text, as function files and ``transfer equiv`` write them.
    MalformedInput, naming the word, if a numerator or denominator is
    10**NUMERAL_DIGITS or more: no ``graph.NUMERAL`` spells it, so no
    reader would take it back, and ``str`` would raise past int()'s limit."""
    nonzero, texts = f.nonzero, {}
    for s, w in spelled_words(f.matrix, f.depth).items():
        n, d = nonzero.get(w, _ZERO).as_integer_ratio()
        if abs(n) >= _NUMERAL_BOUND or d >= _NUMERAL_BOUND:
            raise MalformedInput(
                f"the value at word {s} has a numerator or denominator"
                f" of over {NUMERAL_DIGITS} digits, which no file may hold"
            )
        texts[s] = f"{n}/{d}" if d != 1 else str(n)  # as str(Fraction) writes it
    return texts


def format_function_file(f: CylinderFunction) -> str:
    """The function table format of f: every word, listed once with its
    literal, and its value (``spelled_values``)."""
    return f"depth {f.depth}\n" + "".join(f"{s} {t}\n" for s, t in spelled_values(f).items())
