"""0-1 matrices, their directed graphs, and exact path witnesses.

Symbols are 1-based: a matrix of size n has alphabet {1, ..., n}, and
entry (i, j) = 1 allows the two-symbol word "ij".  Paths are nonempty
symbol words whose consecutive pairs are edges; a path between two
symbols always uses at least one edge, so a path from i to itself is a
closed walk such as "11" or "212".

Each matrix stores its edge set, which decides admissibility
(``AdjacencyMatrix.admits``), and its neighbour tuples once, at
construction.  Every path question is answered by one breadth-first
search (``_distances``) and one greedy reconstruction of the
lexicographically smallest shortest walk (``_shortest_walk``).  Each
matrix answers ``find_path`` for a pair of symbols, and ``is_transitive``,
once: the answer is kept in the matrix's private table and read back on
every later call, so one matrix runs at most n^2 ``find_path`` searches
however many certificates ask; ``_path`` reads them without checking the
symbols, for callers that take them from A's own words.  ``_walks_to``
reads the walks from every source to one target off a single search, for
callers that want them all.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import MalformedInput, NoPath, SymbolOutOfRange, ZeroRow

Word = tuple[int, ...]
NUMERAL_DIGITS = 4300  # int()'s default digit limit: the longest numeral it reads and str() writes
NUMERAL = f"[0-9]{{1,{NUMERAL_DIGITS}}}"  # ASCII digits that int() reads on every supported Python
_NATURAL = re.compile(NUMERAL)
_INT_ONLY = frozenset({int})  # the symbol types the edge set vouches for (bool is not int)


@dataclass(frozen=True)
class AdjacencyMatrix:
    """A 0-1 transition matrix with no zero rows.

    Rows index the current symbol, columns the next one.  Every row must
    contain a 1 so the shift map is defined on every point; zero columns
    are allowed (the shift is then not onto).  Every entry must be the
    int 0 or 1: a bool, a float or a string is refused, never converted.
    `edges` holds the pairs (i, j) with entry 1; ``admits`` reads it for
    every admissibility test; `_extensions` maps each symbol to its
    successors as one-symbol words, which ``extend_words`` appends.
    `_answers` keeps each answer as it is first asked, ``find_path`` under
    its pair of symbols and ``is_transitive`` under "transitive": at most
    n^2 + 1 keys.  What the certificates work out lives for one call
    (``freeness._Answers``).
    """

    rows: tuple[tuple[int, ...], ...]
    edges: frozenset[tuple[int, int]] = field(init=False, repr=False, compare=False)
    _successors: tuple[Word, ...] = field(init=False, repr=False, compare=False)
    _predecessors: tuple[Word, ...] = field(init=False, repr=False, compare=False)
    _extensions: dict[int, tuple[Word, ...]] = field(init=False, repr=False, compare=False)
    _answers: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n < 1:
            raise MalformedInput("matrix must have size at least 1")
        for r, row in enumerate(self.rows, start=1):
            if len(row) != n:
                raise MalformedInput(f"row {r} has {len(row)} entries, expected {n}")
            if any(type(b) is not int or b not in (0, 1) for b in row):
                raise MalformedInput(f"row {r} contains a non-bit entry")
            if 1 not in row:
                raise ZeroRow(f"symbol {r} has no successor")
        succ = tuple(tuple(j for j, b in enumerate(row, 1) if b) for row in self.rows)
        pred = tuple(tuple(i for i, row in enumerate(self.rows, 1) if row[j]) for j in range(n))
        edges = frozenset((i, j) for i, js in enumerate(succ, 1) for j in js)
        extensions = {i: tuple((j,) for j in js) for i, js in enumerate(succ, 1)}
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_successors", succ)
        object.__setattr__(self, "_predecessors", pred)
        object.__setattr__(self, "_extensions", extensions)
        object.__setattr__(self, "_answers", {})

    @classmethod
    def from_rows(cls, rows) -> "AdjacencyMatrix":
        return cls(tuple(map(tuple, rows)))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def symbols(self) -> range:
        return range(1, self.n + 1)

    def check_symbol(self, s: int) -> None:
        if not (isinstance(s, int) and 1 <= s <= self.n):
            raise SymbolOutOfRange(f"symbol {s!r} not in 1..{self.n}")

    def admits(self, word: Word) -> bool:
        """True iff every consecutive pair of `word` is in the edge set.
        Symbols are checked (SymbolOutOfRange) only when the set cannot vouch
        for them: under two symbols, a missing pair, or a non-int like 1.0."""
        pairs_ok = self.edges.issuperset(zip(word, word[1:]))
        if len(word) > 1 and pairs_ok and _INT_ONLY.issuperset(map(type, word)):
            return True
        for s in word:
            self.check_symbol(s)
        return pairs_ok

    def entry(self, i: int, j: int) -> int:
        return int(self.admits((i, j)))

    def successors(self, i: int) -> tuple[int, ...]:
        """Symbols j with an edge i -> j, ascending."""
        self.check_symbol(i)
        return self._successors[i - 1]

    def predecessors(self, j: int) -> tuple[int, ...]:
        """Symbols i with an edge i -> j, ascending (column j)."""
        self.check_symbol(j)
        return self._predecessors[j - 1]


def parse_natural(token: str) -> int | None:
    """`token` as a natural number, or None unless it is a ``NUMERAL``:
    1 to 4300 ASCII digits.  It reads every header: the matrix size, and
    the ``depth`` and ``domain`` of function and weight files."""
    return int(token) if _NATURAL.fullmatch(token) else None


def parse_matrix(text: str) -> AdjacencyMatrix:
    """Parse the matrix file format.

    Line 1 is the decimal size n; the next n lines hold n space-separated
    bits each.  A single trailing newline is tolerated, anything else is
    MalformedInput; an all-zero row is ZeroRow.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedInput("empty matrix file")
    n = parse_natural(lines[0].strip())
    if n is None:
        raise MalformedInput(f"first line must be the matrix size, got {lines[0]!r}")
    if n < 1:
        raise MalformedInput("matrix size must be at least 1")
    if len(lines) != n + 1:
        raise MalformedInput(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != n:
            raise MalformedInput(f"line {lineno}: expected {n} entries, got {len(tokens)}")
        if any(t not in ("0", "1") for t in tokens):
            raise MalformedInput(f"line {lineno}: entries must be 0 or 1")
        rows.append(tuple(int(t) for t in tokens))
    return AdjacencyMatrix(tuple(rows))


def format_matrix(A: AdjacencyMatrix) -> str:
    lines = [str(A.n)]
    lines.extend(" ".join(str(b) for b in row) for row in A.rows)
    return "\n".join(lines) + "\n"


def is_cycle(A: AdjacencyMatrix) -> bool:
    """True iff every row has exactly one 1 (one outgoing edge per symbol)."""
    return all(sum(row) == 1 for row in A.rows)


def is_transitive(A: AdjacencyMatrix) -> bool:
    """True iff every ordered symbol pair is joined by a path (>= 1 edge).

    With no zero rows this is strong connectivity: a closed walk at i
    leaves along any edge i -> u and comes back along a path u -> i.  So
    one forward and one backward search from symbol 1 decide it, once
    per matrix.
    """
    answer = A._answers.get("transitive")
    if answer is None:
        everything = frozenset(A.symbols)
        answer = A._answers["transitive"] = all(
            len(_distances(step, (1,), everything)) == A.n
            for step in (A._successors, A._predecessors)
        )
    return answer


def _distances(
    step: tuple[Word, ...], sources: Iterable[int], allowed: frozenset[int]
) -> dict[int, int]:
    """Breadth-first distances from the nearest source, following `step`
    (``A._successors`` or ``A._predecessors``) through `allowed` symbols.

    Sources sit at distance 0; symbols `step` cannot reach are absent.
    """
    dist = dict.fromkeys(sources, 0)
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        for u in step[v - 1]:
            if u in allowed and u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _shortest_walk(
    A: AdjacencyMatrix, i: int, targets: Iterable[int], allowed: frozenset[int]
) -> Word | None:
    """Lexicographically smallest of the shortest words i, x1, ..., xm
    (m >= 1) with every x in `allowed` and xm in `targets`.

    `i` itself need not lie in `allowed`.  Returns None when no such walk
    exists.
    """
    dist = _distances(A._predecessors, [t for t in targets if t in allowed], allowed)
    ahead = [dist[u] for u in A._successors[i - 1] if u in dist]
    if not ahead:
        return None
    word = [int(i)]  # a bool that passes check_symbol must not start the walk
    for remaining in range(min(ahead), -1, -1):
        word.append(min(u for u in A._successors[word[-1] - 1] if dist.get(u) == remaining))
    return tuple(word)


def find_path(A: AdjacencyMatrix, i: int, j: int) -> Word:
    """Shortest admissible word from i to j, using at least one edge.

    The result starts with i, ends with j, and among shortest candidates is
    the lexicographically smallest; a self-loop at i gives find_path(i, i)
    = (i, i).  Raises NoPath when i cannot reach j, on every call.  The
    search runs once per pair and matrix; later calls read its answer.
    """
    A.check_symbol(i)
    A.check_symbol(j)
    return _path(A, i, j)


def _path(A: AdjacencyMatrix, i: int, j: int) -> Word:
    """``find_path(A, i, j)`` without its symbol checks, for callers whose
    symbols come from A's own words: a kept walk is read back at once."""
    try:
        walk = A._answers[i, j]
    except KeyError:
        walk = A._answers[i, j] = _shortest_walk(A, i, (j,), frozenset(A.symbols))
    if walk is None:
        raise NoPath(f"no path from {i} to {j}")
    return walk


def _walks_to(A: AdjacencyMatrix, j: int) -> dict[int, Word]:
    """``find_path(A, i, j)`` for every symbol i that reaches j, keyed by i,
    from one backward search instead of one per source.

    The greedy step of ``_shortest_walk`` from a symbol v != j goes to the
    smallest successor one step closer to j, which depends on v alone, so
    the walks to j share their suffixes: walk(v) = (v,) + walk(next(v)),
    filled in order of distance.  The walk from j itself, which needs an
    edge, starts at j's smallest successor nearest to j instead.
    """
    dist = _distances(A._predecessors, (j,), frozenset(A.symbols))
    walks = {j: (j,)}
    for v, d in dist.items():  # breadth-first, so in order of distance
        if d:
            walks[v] = (v,) + walks[min(u for u in A._successors[v - 1] if dist.get(u) == d - 1)]
    nearest = min((dist[u] for u in A._successors[j - 1] if u in dist), default=None)
    if nearest is None:
        del walks[j]
    else:
        walks[j] = (j,) + walks[min(u for u in A._successors[j - 1] if dist.get(u) == nearest)]
    return walks


def preimage_symbols(A: AdjacencyMatrix, s: int) -> frozenset[int]:
    """Symbols a such that a point starting with s pulls back to a point
    starting with a, i.e. the nonzero column entries A(a, s) = 1."""
    return frozenset(A.predecessors(s))


def shortest_cycle_avoiding(A: AdjacencyMatrix, banned: int) -> Word | None:
    """Period word of the shortest cycle that never visits `banned`.

    Returns e.g. (2,) for a self-loop at 2 or (1, 2) for 1 -> 2 -> 1;
    the closing edge back to the first symbol is implied.  Ties broken by
    smallest start symbol, then lexicographically.  None if the subgraph
    without `banned` has no cycle.
    """
    allowed = frozenset(v for v in A.symbols if v != banned)
    walks = (_shortest_walk(A, v, (v,), allowed) for v in allowed)
    # A period starts with its start symbol, so the key breaks ties by start first.
    return min((w[:-1] for w in walks if w is not None), key=lambda p: (len(p), p), default=None)


def first_return_word(A: AdjacencyMatrix, start: int) -> Word:
    """Shortest word start, x2, ..., xm with m >= 2, no interior return to
    `start`, and an edge from xm back to `start`.

    This is the smallest genuine cycle through `start`: it leaves the
    vertex and comes back.  Raises NoPath when no such excursion exists.
    """
    A.check_symbol(start)
    others = frozenset(v for v in A.symbols if v != start)
    walk = _shortest_walk(A, start, A._predecessors[start - 1], others)
    if walk is None:
        raise NoPath(f"no return cycle through {start} that leaves it")
    return walk
