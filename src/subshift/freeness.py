"""Constructive certificates for the three dynamical facts the verdict uses.

For a transitive matrix whose graph is not a cycle this module builds:

* a word r with the occurrence set { x : r occurs in x } a nontrivial
  open invariant subset of the two-sided space, witnessed by a point
  containing r and a point avoiding it;
* for any two cylinders of the one-sided space, an explicit point of the
  first that lands in the second after finitely many shifts (so no
  proper nonempty open set is shift-invariant);
* for exponents i < j, a table over all depth-j cylinders [w] showing
  that the set {x : shift^i(x) = shift^j(x)} never contains [w]: a
  one-sided point w . t^infinity where the two shifts differ, stored
  as t alone, since the entries follow the order of the words.

Every certificate re-verifies itself from its stored data alone via
``verify``, which ``verify_report`` runs where a report is read.  The
builders return what they construct without running it.  Invariant-set
points are two-sided, freeness witnesses one-sided (``OneSidedPoint``).
A depth-j table reads its words from ``_depth_words``, which checks the
work limit on every call, so a table is refused alike when it is built,
read or verified; its size is compared with the count of depth-j words
before any is listed (``_covers``).

Answers live for one call, in a store (``_Answers``) with one dict per
kind, not on the matrix, which keeps only its n^2-bounded path answers.
``analyze``, ``parse_report`` and ``verify_report`` each open one store
for their whole call (``_one_store``); it binds to the first matrix
looked up in it, so the tables and rows of one report share it.  Any
other call, or one over another matrix, works in a fresh store dropped
when it returns.  The open store is a context variable's value, so no
two threads share one.

A freeness entry of the word w depends only on m = j - i and u = w[i:]:
shift^i maps the cylinder [w] onto [u].  So a report's many entries hold
few distinct answers, and each step pays once per answer and store: the
builder works them out in blocks (``_answer_blocks``), the reader parses
each tail literal once per last symbol of the words it follows, and
``verify`` scans each (m, u, tail) once.  A built or a read table keeps
its layout, the blocks in order and the depth-j listing
(``FreenessCertificate``); ``verdict.dump_json`` writes it and ``verify``
checks it from that layout, so neither makes an entry.  A laid-out table
makes its entries, through the public constructors, only when `.entries`
is first read.

A report's (n + |E|)^2 minimality witnesses hold only n + |E| distinct
spot words and n^2 connectors, and each is paid once per report:
``spot_witnesses`` reads the n connectors to each target symbol off one
search (``graph._walks_to``) and shares the spot word objects among the
witnesses, ``verdict.dump_json`` spells each word object once, the report
reader parses each from/to literal once per store
(``MinimalityWitness._from_row``), and ``verify`` tests each prefix with
``A.admits`` alone.  The builder and the reader store each witness's five
fields straight into its slots (``MinimalityWitness._unchecked``).
"""

from __future__ import annotations

import reprlib
from collections.abc import Callable
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

from .errors import (
    BadExponents,
    CertificateInvalid,
    GraphIsCycle,
    InadmissibleWord,
    MalformedInput,
    NotTransitive,
    SubshiftError,
)
from .graph import (
    AdjacencyMatrix,
    Word,
    _path,
    _walks_to,
    find_path,
    first_return_word,
    is_cycle,
    is_transitive,
    shortest_cycle_avoiding,
)
from .sequences import (
    EventuallyPeriodicSeq,
    OneSidedPoint,
    contains_word,
    count_past,
    enumerate_words,
    periodic_seq,
    require_admissible,
    require_point,
    require_work_limit,
    word_from_string,
    word_to_string,
)


_JSON_TYPES = {int: "integer", bool: "boolean", str: "string"}


def json_field(data: dict, kind: type, *path: str):
    """The field at the key `path` of `data` as a JSON `kind`, int, bool or str,
    never coerced: a float or a boolean is no integer, 0 or "x" no boolean,
    and an array of symbols no word literal.  Each step of the path must be
    a JSON object holding the next key."""
    value = data
    for depth, key in enumerate(path):
        if type(value) is not dict or key not in value:
            place = f"{'.'.join(path[:depth])}: " if depth else ""
            _json_object(value, place)
            raise MalformedInput(f"{place}missing key {key!r}")
        value = value[key]
    if type(value) is not kind:
        raise MalformedInput(f"{'.'.join(path)} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _json_object(data, place: str) -> dict:
    if type(data) is not dict:
        raise MalformedInput(f"{place}expected a JSON object, got {reprlib.repr(data)}")
    return data


def exact_keys(data: dict, keys: frozenset[str], place: str = "") -> dict:
    """`data`, if it is a JSON object whose keys are exactly `keys`, those
    ``to_dict`` writes there."""
    if _json_object(data, place).keys() != keys:
        extra, missing = data.keys() - keys, keys - data.keys()
        key = min(extra, key=repr) if extra else min(missing)
        raise MalformedInput(f"{place}{'unexpected' if extra else 'missing'} key {key!r}")
    return data


_INVARIANT_KEYS = frozenset({"word", "member", "non_member"})
_MINIMALITY_KEYS = frozenset({"from", "to", "prefix", "shifts"})
_TABLE_KEYS = frozenset({"i", "j", "entries"})
_ENTRY_KEYS = frozenset({"differs_at", "tail"})
_FORMAT1_ENTRY_KEYS = frozenset({"word", "witness", "forced", "differs_at"})


@dataclass(frozen=True, eq=False)
class InvariantSetCertificate:
    """Witnesses that the occurrence set of `word` is open, invariant,
    nonempty, and proper in the two-sided space."""

    matrix: AdjacencyMatrix
    word: Word
    member: EventuallyPeriodicSeq
    non_member: EventuallyPeriodicSeq

    def verify(self) -> None:
        if self.member.matrix != self.matrix or self.non_member.matrix != self.matrix:
            raise CertificateInvalid("certificate sequences built over a different matrix")
        require_admissible(self.matrix, self.word)
        if not contains_word(self.member, self.word):
            raise CertificateInvalid("member does not contain the certificate word")
        if contains_word(self.non_member, self.word):
            raise CertificateInvalid("non-member contains the certificate word")
        # shift only moves the origin, which contains_word ignores: invariance is automatic.

    def to_dict(self) -> dict:
        return {
            "word": word_to_string(self.word),
            "member": self.member.to_literal(),
            "non_member": self.non_member.to_literal(),
        }

    @classmethod
    def from_dict(cls, A: AdjacencyMatrix, data: dict) -> "InvariantSetCertificate":
        exact_keys(data, _INVARIANT_KEYS)
        return cls(
            A,
            word_from_string(json_field(data, str, "word")),
            EventuallyPeriodicSeq.from_literal(A, json_field(data, str, "member")),
            EventuallyPeriodicSeq.from_literal(A, json_field(data, str, "non_member")),
        )


@dataclass(frozen=True, eq=False, slots=True)
class MinimalityWitness:
    """A word starting with `start` that reaches `target` after `shifts`
    symbol drops, certifying the cylinder of `start` meets every
    forward orbit neighbourhood of `target`."""

    matrix: AdjacencyMatrix
    start: Word
    target: Word
    prefix: Word
    shifts: int

    def verify(self) -> None:
        if type(self.shifts) is not int:
            raise CertificateInvalid(f"shifts must be an integer, got {self.shifts!r}")
        if not self.matrix.admits(self.prefix):
            raise InadmissibleWord(f"word {word_to_string(self.prefix)} is not admissible")
        if self.prefix[: len(self.start)] != self.start:
            raise CertificateInvalid("witness word does not start in the source cylinder")
        if self.shifts != len(self.prefix) - len(self.target):
            raise CertificateInvalid("shift count does not match the word lengths")
        if self.prefix[self.shifts :] != self.target:
            raise CertificateInvalid("dropping the shifts does not leave the target word")

    def to_dict(self) -> dict:
        return {
            "from": word_to_string(self.start),
            "to": word_to_string(self.target),
            "prefix": word_to_string(self.prefix),
            "shifts": self.shifts,
        }

    @classmethod
    def _unchecked(
        cls, A: AdjacencyMatrix, start: Word, target: Word, prefix: Word, shifts: int
    ) -> "MinimalityWitness":
        """The witness ``MinimalityWitness(A, start, target, prefix, shifts)``,
        its five fields stored through their slots' descriptors, which the
        frozen ``__setattr__`` does not guard; the generated ``__init__``
        checks nothing either."""
        witness = object.__new__(cls)
        _set_matrix(witness, A)
        _set_start(witness, start)
        _set_target(witness, target)
        _set_prefix(witness, prefix)
        _set_shifts(witness, shifts)
        return witness

    @classmethod
    def from_dict(cls, A: AdjacencyMatrix, data: dict) -> "MinimalityWitness":
        """The witness a report row stores (``_from_row``)."""
        return cls._from_row(A, data, _answers(A).spots)

    @classmethod
    def _from_row(cls, A: AdjacencyMatrix, data: dict, spots: dict[str, Word]) -> "MinimalityWitness":
        """The witness a report row stores, its keys and field types checked
        inline in the order exact_keys and json_field, which raise, would.
        A from or to literal is parsed once per `spots`, a store's; the
        prefix, which no other row shares, every time.  The witness is
        stored unchecked (``_unchecked``): ``verify`` checks it."""
        if type(data) is not dict or data.keys() != _MINIMALITY_KEYS:
            exact_keys(data, _MINIMALITY_KEYS)
        ends = []
        for key in ("from", "to"):
            literal = data[key]
            if type(literal) is not str:
                json_field(data, str, key)
            word = spots.get(literal)
            if word is None:
                word = spots[literal] = word_from_string(literal)
            ends.append(word)
        prefix, shifts = data["prefix"], data["shifts"]
        if type(prefix) is not str:
            json_field(data, str, "prefix")
        prefix = word_from_string(prefix)
        if type(shifts) is not int:
            json_field(data, int, "shifts")
        return cls._unchecked(A, ends[0], ends[1], prefix, shifts)


_set_matrix, _set_start, _set_target, _set_prefix, _set_shifts = (
    MinimalityWitness.__dict__[name].__set__ for name in ("matrix", "start", "target", "prefix", "shifts")
)


@dataclass(frozen=True, eq=False, slots=True)
class FreenessEntry:
    """The per-cylinder record: a point word . tail^infinity of [word]
    where the i-th and j-th shifts differ, and where they first do."""

    witness: OneSidedPoint
    differs_at: int  # 1-based coordinate where the shifted tails differ

    @property
    def word(self) -> Word:
        return self.witness.prefix


def _format1_entry(A: AdjacencyMatrix, i: int, w: Word, data: dict) -> dict:
    """A report-format-1 entry at the word w as the format-2 entry it
    encodes.  Its word, its witness literal (any left period) and its forced
    point w . (w[i:])^inf, null without the junction edge, must be exactly
    what the format-2 entry implies."""
    exact_keys(data, _FORMAT1_ENTRY_KEYS)
    witness = EventuallyPeriodicSeq.from_literal(A, json_field(data, str, "witness"))
    forced = None if data["forced"] is None else json_field(data, str, "forced")
    if json_field(data, str, "word") != word_to_string(w) or (witness.origin, witness.core) != (0, w):
        raise CertificateInvalid("word or witness literal does not start with the entry's word")
    if forced is not None:
        forced = EventuallyPeriodicSeq.from_literal(A, forced)
        forced = (forced.origin, forced.core, forced.right_period)
    if forced != ((0, w, w[i:]) if (w[-1], w[i]) in A.edges else None):
        raise CertificateInvalid("forced literal is not w . (w[i:])^inf, or null without its edge")
    return {"differs_at": data["differs_at"], "tail": word_to_string(witness.right_period)}


@contextmanager
def located(place: str | Callable[[], str]):
    """Prefix `place` (or, on failure, the string it returns) to the message
    of any SubshiftError raised inside, so the error names where it lies."""
    try:
        yield
    except SubshiftError as exc:
        raise type(exc)(f"{place if isinstance(place, str) else place()}{exc}") from None


# The answers of one m = j - i, in one block per symbol s: the (tail,
# differs_at) answers of the depth-m words that start with s, in listing order.
_Blocks = tuple[list[tuple[Word, int]], ...]


@dataclass(eq=False, slots=True)
class _Answers:
    """What one call works out over `matrix`, one dict per kind: depth-j
    listings by j (``_depth_words``), answer blocks by m (``_answer_blocks``),
    tails read by (w[-1], literal) and first differences scanned by
    (j - i, w[i:], tail) (``FreenessCertificate.from_dict`` and ``verify``),
    and minimality from/to words by literal (``MinimalityWitness._from_row``)."""

    matrix: AdjacencyMatrix | None = None
    words: dict[int, list[Word]] = field(default_factory=dict)
    blocks: dict[int, _Blocks] = field(default_factory=dict)
    tails: dict[tuple[int, str], Word] = field(default_factory=dict)
    differences: dict[tuple[int, Word, Word], int] = field(default_factory=dict)
    spots: dict[str, Word] = field(default_factory=dict)


_open_store: ContextVar[_Answers | None] = ContextVar("subshift.freeness answers", default=None)


@contextmanager
def _one_store():
    """One store open for the block, or for each call of a function
    decorated with ``@_one_store()``, and closed however it ends."""
    token = _open_store.set(_Answers())
    try:
        yield
    finally:
        _open_store.reset(token)


def _answers(A: AdjacencyMatrix) -> _Answers:
    """The open store, bound to A at its first lookup, if it is A's; else a
    fresh store, which the caller drops when it returns."""
    store = _open_store.get()
    if store is None:
        return _Answers(A)
    if store.matrix is None:
        store.matrix = A
    return store if store.matrix is A else _Answers(A)


def _depth_words(store: _Answers, j: int) -> list[Word]:
    """``enumerate_words(A, j)`` over the store's matrix A, refused on every
    call exactly when it is (``require_work_limit``), but listed once per
    store: callers only read the list it keeps."""
    require_work_limit(store.matrix, j)
    words = store.words.get(j)
    if words is None:
        words = store.words[j] = enumerate_words(store.matrix, j)
    return words


def _covers(store: _Answers, j: int, size: int) -> bool:
    """Whether the store's matrix has exactly `size` depth-j words.  Once
    ``_depth_words`` has kept the depth-j listing its length answers;
    before, the words are counted no further than `size` (``count_past``),
    so a depth is counted before it is listed."""
    words = store.words.get(j)
    return count_past(store.matrix, j, size) == (j, size) if words is None else len(words) == size


def _tail_difference(u: Word, t: Word) -> int | None:
    """First coordinate c >= 0 where u . t^inf and t^inf differ, or None if
    they agree everywhere: where shift^i and shift^j first differ on a
    point w . t^inf with |w| = j and w[i:] = u, which they map to those two.

    Both repeat t from coordinate |u| on, so the first |u| + |t|
    coordinates decide: u + t is scanned against t repeated.  Built
    answers mostly differ within their first three coordinates, where a
    plain loop stops; a C-level first difference costs more to set up."""
    k = len(t)
    for c, a in enumerate(u + t):
        if a != t[c % k]:
            return c
    return None


@dataclass(frozen=True, eq=False)
class FreenessCertificate:
    """One entry per admissible depth-j word, proving no cylinder sits
    inside {x : shift^i(x) = shift^j(x)}.

    The set is closed, so this is exactly the empty-interior statement.
    It meets [w] only in w . (w[i:])^inf, so it holds no deeper cylinder
    either; each witness shows it does not hold [w] itself.

    A table that ``freeness_certificate`` built records its layout
    (`_layout`): the answer blocks of m = j - i, for each depth-(i+1) word
    q in listing order the block of q[-1], and the depth-j listing.  A
    table read by ``from_dict`` is laid out as its rows' one block.
    ``verdict.dump_json`` writes and ``verify`` checks a laid-out table
    from its layout; a table from the constructor or ``replace`` has none,
    and is written and checked from its entries.

    A laid-out table makes its entries only when `.entries` is first read
    (``_laid_out_entries``); its ``to_dict`` reads them, so makes them.
    That rule is bound to `entries` as a ``functools.cached_property`` after
    the dataclass is made, so `entries` stays a field for the constructor,
    ``fields``, ``replace`` and ``repr``.  The entries made are stored in the
    instance ``__dict__``, where ``__init__`` stores given ones, so the class
    has no slots.
    """

    matrix: AdjacencyMatrix
    i: int
    j: int
    entries: tuple[FreenessEntry, ...]
    _layout: tuple[_Blocks, list[int], list[Word]] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def verify(self) -> None:
        """Check that the exponents are ints, that the entries are the
        depth-j words' (counted by ``_covers``, then ``_depth_words``) and
        that each differs_at, an int, is where the i-th and j-th shifts of
        its witness w . t^inf first differ.

        That place depends only on m = j - i, u = w[i:] and t: shift^i maps
        w . t^inf to u . t^inf, with |u| = m.  From coordinate m on, u . t^inf
        and its m-shift both repeat with period |t|, so a first difference,
        if any, lies below m + |t| <= |w| + |t|.  So it is a function of
        (m, u, t), and ``_tail_difference(u, t)`` scans each once per
        store.  A scan that equalizes the shifts is kept nowhere, and every
        entry's differs_at is compared.

        A table with a layout is checked from it, never from `.entries`: its
        depth-j listing zipped with its blocks' answers (t, differs_at) in
        layout order, each point built over the table's matrix.  A table
        from the constructor or ``replace`` feeds its entries' words, answers
        and matrices into the same loop, each point's matrix compared."""
        i, j, A = self.i, self.j, self.matrix
        if type(i) is not int or type(j) is not int:
            raise CertificateInvalid(f"(i={i!r}, j={j!r}): exponents must be integers")
        if not 0 <= i < j:
            raise CertificateInvalid(f"(i={i}, j={j}): exponents must satisfy 0 <= i < j")
        if self._layout is None:
            entries = self.entries
            words = [e.witness.prefix for e in entries]
            answers = [(e.witness.tail, e.differs_at) for e in entries]
            matrices = [e.witness.matrix for e in entries]
        else:  # as many answers as words, each point over A (freeness_certificate, from_dict)
            blocks, ends, words = self._layout
            answers, matrices = chain.from_iterable(map(blocks.__getitem__, ends)), repeat(A)
        store = _answers(A)
        if not _covers(store, j, len(words)) or words != _depth_words(store, j):  # no more than stored
            raise CertificateInvalid(f"(i={i}, j={j}): entries do not cover the depth-j cylinders")
        m, differences = j - i, store.differences
        with located(lambda: f"(i={i}, j={j}).entries[{k}] [{word_to_string(words[k])}]: "):
            for k, (w, (t, differs_at), M) in enumerate(zip(words, answers, matrices)):
                if M is not A and M != A:
                    raise CertificateInvalid("witness built over a different matrix")
                if type(differs_at) is not int:
                    raise CertificateInvalid(f"differs_at must be an integer, got {differs_at!r}")
                u = w[i:]
                key = m, u, t
                c = differences.get(key)
                if c is None:
                    c = _tail_difference(u, t)
                    if c is None:
                        raise CertificateInvalid("witness equalizes the shifts")
                    differences[key] = c
                if c != differs_at - 1:
                    raise CertificateInvalid(f"differs_at {differs_at}, but they first differ at {c + 1}")

    def to_dict(self) -> dict:
        """The table as a report stores it, one row per entry, read from
        `.entries`: a laid-out table makes its entries here."""
        rows = [{"differs_at": e.differs_at, "tail": word_to_string(e.witness.tail)} for e in self.entries]
        return {"i": self.i, "j": self.j, "entries": rows}

    @classmethod
    def from_dict(cls, A: AdjacencyMatrix, data: dict, report_format: int = 2) -> "FreenessCertificate":
        """The table as a report of `report_format` stores it: entry k belongs
        to the k-th depth-j word, listed once the entry count matches
        (``_covers``) and only if the work limit allows it (``_depth_words``).

        Every row's keys and field types are checked.  Whether the tail t
        may follow w, w . t^inf being admissible, depends only on w[-1] and
        t, since w is a listed word.  So the first entry of each (w[-1],
        tail literal) pair that the store meets, in this table or an earlier
        one, parses t and checks its point, and a bad tail fails at its
        first such entry with that entry's message; later entries of the
        pair reuse the parsed tail.  The rows' answers (t, differs_at) make
        the table's one answer block, laid out with the depth-j listing as
        a built table is, so no entry is made.  Whether each differs_at is
        right is left to ``verify``."""
        i, j = json_field(data, int, "i"), json_field(data, int, "j")
        rows = exact_keys(data, _TABLE_KEYS, f"(i={i}, j={j}): ")["entries"]
        if type(rows) is not list:
            raise MalformedInput(f"(i={i}, j={j}): entries must be a JSON array, got {reprlib.repr(rows)}")
        if not 0 <= i < j:
            raise CertificateInvalid(f"(i={i}, j={j}): exponents must satisfy 0 <= i < j")
        store = _answers(A)
        if not _covers(store, j, len(rows)):
            raise CertificateInvalid(f"(i={i}, j={j}): entries do not cover the depth-j cylinders")
        words, answers, tails = _depth_words(store, j), [], store.tails
        with located(lambda: f"(i={i}, j={j}).entries[{k}] [{word_to_string(words[k])}]: "):
            for k, (w, row) in enumerate(zip(words, rows)):
                # Each row's keys and types are tested inline; exact_keys and json_field raise.
                if report_format == 1:
                    row = _format1_entry(A, i, w, row)
                elif type(row) is not dict or row.keys() != _ENTRY_KEYS:
                    exact_keys(row, _ENTRY_KEYS)
                literal, differs_at = row["tail"], row["differs_at"]
                if type(literal) is not str:
                    json_field(row, str, "tail")
                tail = tails.get((w[-1], literal))
                if tail is None:
                    tail = word_from_string(literal)
                    require_point(A, w, tail)
                    tails[w[-1], literal] = tail
                if type(differs_at) is not int:
                    json_field(row, int, "differs_at")
                answers.append((tail, differs_at))
        cert = object.__new__(cls)  # no entries yet: they are made on first read
        cert.__dict__.update(matrix=A, i=i, j=j, _layout=((answers,), [0], words))
        return cert


def _laid_out_entries(cert: FreenessCertificate) -> tuple[FreenessEntry, ...]:
    """A laid-out table's entries, made when `.entries` is first read: the
    point w . t^inf and the entry of each word w of the depth-j listing the
    layout keeps, zipped with the answers (t, differs_at) of its blocks in
    order.  Each point's check passes, as ``freeness_certificate`` and
    ``FreenessCertificate.from_dict`` argue, so the read cannot raise."""
    blocks, ends, words = cert._layout
    A, answers = cert.matrix, chain.from_iterable(map(blocks.__getitem__, ends))
    return tuple(FreenessEntry(OneSidedPoint(A, w, t), c) for w, (t, c) in zip(words, answers))


# Bound after the dataclass is made, so that `entries` stays a field with no default.
FreenessCertificate.entries = cached_property(_laid_out_entries)
FreenessCertificate.entries.__set_name__(FreenessCertificate, "entries")


def _require_dichotomy_hypotheses(A: AdjacencyMatrix) -> None:
    if not is_transitive(A):
        raise NotTransitive("the graph is not transitive")
    if is_cycle(A):
        raise GraphIsCycle("every symbol has exactly one successor")


def find_nontrivial_invariant(A: AdjacencyMatrix) -> InvariantSetCertificate:
    """Build a word r whose occurrence set is a nontrivial open invariant
    subset of the two-sided space, with member and non-member points.

    r travels the smallest genuine cycle through symbol 1 and returns to
    it, so the cycle's periodic point contains r.  The avoiding point is
    the smallest cycle that misses one of r's symbols when such a cycle
    exists, otherwise the shortest periodic detour that breaks r's
    return pattern.
    """
    _require_dichotomy_hypotheses(A)
    cycle_word = first_return_word(A, 1)
    r = cycle_word + (cycle_word[0],)
    member = periodic_seq(A, cycle_word)
    non_member = _avoiding_point(A, cycle_word)
    return InvariantSetCertificate(A, r, member, non_member)


def _avoiding_point(A: AdjacencyMatrix, cycle_word: Word) -> EventuallyPeriodicSeq:
    for s in sorted(set(cycle_word)):
        period = shortest_cycle_avoiding(A, s)
        if period is not None:
            return periodic_seq(A, period)
    # A transitive non-cycle graph always has a cycle missing some vertex,
    # so reaching this point means the missed vertex lies outside the
    # cycle word's symbols.  Route through one such symbol and return:
    # the resulting period visits the start symbol exactly once, too far
    # apart for r = cycle_word + start to occur.
    used = set(cycle_word)
    outside = [y for y in A.symbols if y not in used]
    if not outside:
        raise GraphIsCycle("no symbol can be avoided; the graph is a cycle")
    x1 = cycle_word[0]
    to_y = _path(A, x1, outside[0])
    back = _path(A, outside[0], x1)
    return periodic_seq(A, to_y + back[1:-1])


def _spot_witness(A: AdjacencyMatrix, start: Word, target: Word, middle: Word) -> MinimalityWitness:
    """The one construction rule of a minimality witness: start itself when
    start == target, else start + middle + target, where `middle` is the
    interior of ``find_path(A, start[-1], target[0])``.  It holds by
    construction (start, the connector's edges and target are admissible;
    dropping len(prefix) - len(target) symbols leaves target), so it is
    returned unchecked."""
    prefix = start if start == target else start + middle + target
    return MinimalityWitness._unchecked(A, start, target, prefix, len(prefix) - len(target))


def minimality_witness(A: AdjacencyMatrix, w, z) -> MinimalityWitness:
    """A point of the cylinder [w] whose orbit enters [z]: an admissible
    word starting with w whose suffix after `shifts` drops is exactly z.

    When the last symbol of w and the first of z coincide the connector
    still travels a real cycle, so the witness stays admissible without
    assuming a self-loop.  The words and the matrix are checked, then the
    witness is built by ``_spot_witness``, unchecked;
    test_minimality_witnesses_verify_for_any_admissible_words verifies it.
    """
    start = require_admissible(A, w)
    target = require_admissible(A, z)
    if not start or not target:
        raise MalformedInput("minimality witness needs nonempty words")
    if not is_transitive(A):
        raise NotTransitive("the graph is not transitive")
    middle = () if start == target else find_path(A, start[-1], target[0])[1:-1]
    return _spot_witness(A, start, target, middle)


def spot_witnesses(A: AdjacencyMatrix, words: list[Word]) -> tuple[MinimalityWitness, ...]:
    """``minimality_witness(A, w, z)`` for every pair of `words`, in
    row-major order, without its checks: the caller passes nonempty
    admissible words and a transitive A.  Each connector's interior is
    taken once per pair of symbols, read with every other connector to the
    same target symbol off one search (``_walks_to``, the walks
    ``find_path`` returns), and each witness is ``_spot_witness`` of the
    pair, so the words are shared, not copied, by the witnesses."""
    middles = {(a, b): walk[1:-1] for b in A.symbols for a, walk in _walks_to(A, b).items()}
    return tuple(_spot_witness(A, w, z, middles[w[-1], z[0]]) for w in words for z in words)


def freeness_certificate(A: AdjacencyMatrix, i: int, j: int) -> FreenessCertificate:
    """Certify per depth-j cylinder that shift^i and shift^j agree on at
    most one point of it, and exhibit a point where they differ.

    A point x in [w] has shift^i(x) = shift^j(x) exactly when its tail
    repeats r = w[i:] forever, which needs the edge from w's last symbol
    back to the start of r; if that edge exists the repetition is the
    unique candidate, otherwise the intersection is empty.  The
    differing witness extends w by a tail that visits a symbol r misses,
    or diverts off r's cycle when r uses the whole alphabet; without the
    junction edge any cycle back to w's last symbol will do.  Either way
    the two shifted tails cannot agree.

    The entry of w depends only on m = j - i and the suffix u = w[i:],
    the image cylinder: shift^i maps [w] onto [u], since no row is zero,
    and the junction edge (w[-1], w[i]) is (u[-1], u[0]), the tail is
    chosen from u alone, and shift^i(w . t^inf) = u . t^inf, so shift^i
    and shift^j first differ on w . t^inf where shift^0 and shift^m do on
    u . t^inf.  Listed in order, the depth-j words are each depth-(i+1)
    word q followed by every depth-m word u that starts with q[-1], in
    order, minus its first symbol.  So the table is, for each q in order,
    the answer block of m and q[-1] (``_answer_blocks``), read in order
    and zipped with the depth-j listing.  The depth-j words are listed
    first, so the work limit refuses a table by its length j, and once per
    store (``_depth_words``).

    Every check and every listing is done here, so each refusal raises
    from this call.  The table it returns keeps the blocks, their order
    and the listing as its layout (``FreenessCertificate``).

    No witness w . t^inf is checked here: w is an enumerated, so
    admissible, word, and u . t^inf was checked when its answer was first
    built.  Since w[-1] = u[-1], the junction from w into t and t's own
    wrap are those of u . t^inf, so w . t^inf is admissible too.
    """
    if type(i) is not int or type(j) is not int:
        raise BadExponents(f"exponents must be integers, got i={i!r}, j={j!r}")
    if i < 0 or i >= j:
        raise BadExponents(f"need 0 <= i < j, got i={i}, j={j}")
    _require_dichotomy_hypotheses(A)
    store = _answers(A)
    words = _depth_words(store, j)
    blocks = _answer_blocks(store, i, j, words)
    ends = [q[-1] - 1 for q in _depth_words(store, i + 1)]  # the block of each depth-(i+1) word
    cert = object.__new__(FreenessCertificate)  # no entries yet: they are made on first read
    cert.__dict__.update(matrix=A, i=i, j=j, _layout=(blocks, ends, words))
    return cert


def _answer_blocks(store: _Answers, i: int, j: int, words: list[Word]) -> _Blocks:
    """The answer blocks of m = j - i over the store's matrix A, worked out
    and checked once per store.  A tail that equalizes the shifts on
    u . t^inf raises CertificateInvalid naming the pair and the first of the
    depth-j `words` whose suffix from i is u."""
    m, A = j - i, store.matrix
    blocks = store.blocks.get(m)
    if blocks is None:
        blocks = tuple([] for _ in A.symbols)
        for u in _depth_words(store, m):
            tail = _diverting_tail(A, u) if (u[-1], u[0]) in A.edges else _path(A, u[-1], u[-1])[1:]
            require_point(A, u, tail)
            c = _tail_difference(u, tail)
            if c is None:
                k = next(k for k, w in enumerate(words) if w[i:] == u)
                where = f"(i={i}, j={j}).entries[{k}] [{word_to_string(words[k])}]"
                raise CertificateInvalid(f"{where}: witness equalizes the shifts")
            blocks[u[0] - 1].append((tail, c + 1))
        store.blocks[m] = blocks
    return blocks


def _diverting_tail(A: AdjacencyMatrix, r: Word) -> Word:
    """A period word starting at r[0], ending next to it like r does, that
    differs from the pure repetition of r.

    Prefers a trip through a symbol absent from r; when r exhausts the
    alphabet it leaves r's cycle along some extra edge, which the
    non-cycle hypothesis provides.
    """
    used = set(r)
    outside = [y for y in A.symbols if y not in used]
    if outside:
        return _path(A, r[0], outside[0]) + _path(A, outside[0], r[-1])[1:]
    k = len(r)
    for idx in range(k):
        follow = r[(idx + 1) % k]
        for b in A.successors(r[idx]):
            if b == follow:
                continue
            if b == r[-1]:
                return r[: idx + 1] + (b,)
            return r[: idx + 1] + (b,) + _path(A, b, r[-1])[1:]
    raise GraphIsCycle("no diverting edge found; the graph is a cycle")
