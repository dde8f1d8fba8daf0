"""Constructive certificates for the three dynamical facts the verdict uses.

For a transitive matrix whose graph is not a cycle this module builds:

* a word r with the occurrence set { x : r occurs in x } a nontrivial
  open invariant subset of the two-sided space, witnessed by a point
  containing r and a point avoiding it;
* for any two cylinders of the one-sided space, an explicit point of the
  first that lands in the second after finitely many shifts (so no
  proper nonempty open set is shift-invariant);
* for exponents i < j, a table over all depth-j cylinders [w] showing
  that the set {x : shift^i(x) = shift^j(x)} meets [w] in at most one
  point and never contains it.

Every certificate re-verifies itself from its stored data alone via
``verify``; construction runs ``verify`` before returning.  One-sided
points are stored in the two-sided representation with canonical left
padding and all one-sided checks read coordinates >= 0 only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadExponents,
    CertificateInvalid,
    GraphIsCycle,
    MalformedInput,
    NotTransitive,
)
from .graph import (
    AdjacencyMatrix,
    Word,
    find_path,
    first_return_word,
    is_cycle,
    is_transitive,
    shortest_cycle_avoiding,
)
from .sequences import (
    EventuallyPeriodicSeq,
    as_word,
    contains_word,
    enumerate_words,
    one_sided_seq,
    periodic_seq,
    require_admissible,
    word_to_string,
)


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
        return cls(
            A,
            as_word(data["word"]),
            EventuallyPeriodicSeq.from_literal(A, data["member"]),
            EventuallyPeriodicSeq.from_literal(A, data["non_member"]),
        )


@dataclass(frozen=True, eq=False)
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
        require_admissible(self.matrix, self.prefix)
        if self.prefix[: len(self.start)] != self.start:
            raise CertificateInvalid("witness word does not start in the source cylinder")
        if self.shifts != len(self.prefix) - len(self.target):
            raise CertificateInvalid("shift count does not match the word lengths")
        if self.shifts < 0 or self.prefix[self.shifts :] != self.target:
            raise CertificateInvalid("dropping the shifts does not leave the target word")

    def to_dict(self) -> dict:
        return {
            "from": word_to_string(self.start),
            "to": word_to_string(self.target),
            "prefix": word_to_string(self.prefix),
            "shifts": self.shifts,
        }

    @classmethod
    def from_dict(cls, A: AdjacencyMatrix, data: dict) -> "MinimalityWitness":
        return cls(
            A,
            as_word(data["from"]),
            as_word(data["to"]),
            as_word(data["prefix"]),
            int(data["shifts"]),
        )


@dataclass(frozen=True, eq=False)
class FreenessEntry:
    """The per-cylinder record: the unique point of [word] where the i-th
    and j-th shifts could agree (or None when the junction edge is
    missing), and a point of [word] where they provably differ."""

    word: Word
    forced: EventuallyPeriodicSeq | None
    witness: EventuallyPeriodicSeq
    differs_at: int  # 1-based coordinate where the shifted tails differ

    def to_dict(self) -> dict:
        return {
            "word": word_to_string(self.word),
            "forced": None if self.forced is None else self.forced.to_literal(),
            "witness": self.witness.to_literal(),
            "differs_at": self.differs_at,
        }

    @classmethod
    def from_dict(cls, A: AdjacencyMatrix, data: dict) -> "FreenessEntry":
        forced = data.get("forced")
        return cls(
            as_word(data["word"]),
            None if forced is None else EventuallyPeriodicSeq.from_literal(A, forced),
            EventuallyPeriodicSeq.from_literal(A, data["witness"]),
            int(data["differs_at"]),
        )


def _tail_difference(s: EventuallyPeriodicSeq, i: int, j: int) -> int | None:
    """First coordinate c >= 0 with s[i+c] != s[j+c], or None if the two
    shifted tails agree everywhere.

    Both tails are eventually periodic with the right period of s and
    preperiod at most len(core), so scanning len(core) + len(period)
    coordinates decides equality exactly.
    """
    limit = len(s.core) + len(s.right_period)
    for c in range(limit):
        if s[i + c] != s[j + c]:
            return c
    return None


@dataclass(frozen=True, eq=False)
class FreenessCertificate:
    """One entry per admissible depth-j word, proving no cylinder sits
    inside {x : shift^i(x) = shift^j(x)}.

    The set is closed, so this is exactly the empty-interior statement;
    the per-cylinder uniqueness of the forced point covers all deeper
    cylinders at once (a set with at most one point contains no cylinder).
    """

    matrix: AdjacencyMatrix
    i: int
    j: int
    entries: tuple[FreenessEntry, ...]

    def verify(self) -> None:
        i, j, A = self.i, self.j, self.matrix
        if not 0 <= i < j:
            raise CertificateInvalid("certificate exponents must satisfy 0 <= i < j")
        words = [e.word for e in self.entries]
        if words != enumerate_words(A, j):
            raise CertificateInvalid("entry table does not cover the depth-j cylinders")
        for e in self.entries:
            self._verify_entry(e)

    def _verify_entry(self, e: FreenessEntry) -> None:
        A, i, j = self.matrix, self.i, self.j
        w = e.word
        label = word_to_string(w)
        if e.witness.matrix != A or (e.forced is not None and e.forced.matrix != A):
            raise CertificateInvalid(f"[{label}] sequence built over a different matrix")
        if e.witness.window(0, j) != w:
            raise CertificateInvalid(f"[{label}] witness does not lie in the cylinder")
        junction = A.rows[w[-1] - 1][w[i] - 1]
        if e.forced is None:
            if junction:
                raise CertificateInvalid(
                    f"[{label}] junction edge exists, a forced point is required"
                )
        else:
            if not junction:
                raise CertificateInvalid(
                    f"[{label}] no junction edge, yet a forced point is recorded"
                )
            if e.forced.window(0, j) != w:
                raise CertificateInvalid(f"[{label}] forced point not in the cylinder")
            if _tail_difference(e.forced, i, j) is not None:
                raise CertificateInvalid(
                    f"[{label}] forced point does not equalize the shifts"
                )
        c = _tail_difference(e.witness, i, j)
        if c is None:
            raise CertificateInvalid(f"[{label}] witness equalizes the shifts")
        if c != e.differs_at - 1:
            raise CertificateInvalid(
                f"[{label}] recorded difference coordinate {e.differs_at} "
                f"does not match the first difference {c + 1}"
            )

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "entries": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, A: AdjacencyMatrix, data: dict) -> "FreenessCertificate":
        return cls(
            A,
            int(data["i"]),
            int(data["j"]),
            tuple(FreenessEntry.from_dict(A, e) for e in data["entries"]),
        )


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
    cert = InvariantSetCertificate(A, r, member, non_member)
    cert.verify()
    return cert


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
    outside = [y for y in A.symbols if y not in set(cycle_word)]
    if not outside:
        raise GraphIsCycle("no symbol can be avoided; the graph is a cycle")
    x1 = cycle_word[0]
    to_y = find_path(A, x1, outside[0])
    back = find_path(A, outside[0], x1)
    return periodic_seq(A, to_y + back[1:-1])


def minimality_witness(A: AdjacencyMatrix, w, z) -> MinimalityWitness:
    """A point of the cylinder [w] whose orbit enters [z]: an admissible
    word starting with w whose suffix after `shifts` drops is exactly z.

    When the last symbol of w and the first of z coincide the connector
    still travels a real cycle, so the witness stays admissible without
    assuming a self-loop.
    """
    start = require_admissible(A, w)
    target = require_admissible(A, z)
    if not start or not target:
        raise MalformedInput("minimality witness needs nonempty words")
    if not is_transitive(A):
        raise NotTransitive("the graph is not transitive")
    if start == target:
        wit = MinimalityWitness(A, start, target, start, 0)
    else:
        connector = find_path(A, start[-1], target[0])
        prefix = start + connector[1:-1] + target
        wit = MinimalityWitness(A, start, target, prefix, len(prefix) - len(target))
    wit.verify()
    return wit


def freeness_certificate(A: AdjacencyMatrix, i: int, j: int) -> FreenessCertificate:
    """Certify per depth-j cylinder that shift^i and shift^j agree on at
    most one point of it, and exhibit a point where they differ.

    A point x in [w] has shift^i(x) = shift^j(x) exactly when its tail
    repeats r = w[i:] forever, which needs the edge from w's last symbol
    back to the start of r; if that edge exists the repetition is the
    unique candidate (the forced point), otherwise the intersection is
    empty.  The differing witness extends w by a tail that visits a
    symbol r misses, or diverts off r's cycle when r uses the whole
    alphabet; either way the two shifted tails cannot agree.
    """
    if i < 0 or i >= j:
        raise BadExponents(f"need 0 <= i < j, got i={i}, j={j}")
    _require_dichotomy_hypotheses(A)
    entries = []
    for w in enumerate_words(A, j):
        r = w[i:]
        if A.rows[w[-1] - 1][r[0] - 1]:
            forced = one_sided_seq(A, w, r)
            witness = one_sided_seq(A, w, _diverting_tail(A, r))
        else:
            forced = None
            witness = one_sided_seq(A, w, find_path(A, w[-1], w[-1])[1:])
        c = _tail_difference(witness, i, j)
        if c is None:
            raise CertificateInvalid(
                f"construction failed to separate the shifts on {word_to_string(w)}"
            )
        entries.append(FreenessEntry(w, forced, witness, c + 1))
    cert = FreenessCertificate(A, i, j, tuple(entries))
    cert.verify()
    return cert


def _diverting_tail(A: AdjacencyMatrix, r: Word) -> Word:
    """A period word starting at r[0], ending next to it like r does, that
    differs from the pure repetition of r.

    Prefers a trip through a symbol absent from r; when r exhausts the
    alphabet it leaves r's cycle along some extra edge, which the
    non-cycle hypothesis provides.
    """
    outside = [y for y in A.symbols if y not in set(r)]
    if outside:
        to_y = find_path(A, r[0], outside[0])
        return to_y + find_path(A, outside[0], r[-1])[1:]
    k = len(r)
    for idx in range(k):
        follow = r[(idx + 1) % k]
        for b in A.successors(r[idx]):
            if b == follow:
                continue
            if b == r[-1]:
                return r[: idx + 1] + (b,)
            return r[: idx + 1] + (b,) + find_path(A, b, r[-1])[1:]
    raise GraphIsCycle("no diverting edge found; the graph is a cycle")
