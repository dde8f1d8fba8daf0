"""0-1 matrices, their directed graphs, and exact path witnesses.

Symbols are 1-based: a matrix of size n has alphabet {1, ..., n}, and
entry (i, j) = 1 allows the two-symbol word "ij".  Paths are nonempty
symbol words whose consecutive pairs are edges; a path between two
symbols always uses at least one edge, so a path from i to itself is a
closed walk such as "11" or "212".

Each matrix stores its successor and predecessor tuples once, at
construction.  Every path question is answered by one breadth-first
search (``_distances``) and one greedy reconstruction of the
lexicographically smallest shortest walk (``_shortest_walk``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .errors import MalformedInput, NoPath, SymbolOutOfRange, ZeroRow

Word = tuple[int, ...]


@dataclass(frozen=True)
class AdjacencyMatrix:
    """A 0-1 transition matrix with no zero rows.

    Rows index the current symbol, columns the next one.  Every row must
    contain a 1 so the shift map is defined on every point; zero columns
    are allowed (the shift is then not onto).
    """

    rows: tuple[tuple[int, ...], ...]
    _successors: tuple[Word, ...] = field(init=False, repr=False, compare=False)
    _predecessors: tuple[Word, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n < 1:
            raise MalformedInput("matrix must have size at least 1")
        for r, row in enumerate(self.rows, start=1):
            if len(row) != n:
                raise MalformedInput(f"row {r} has {len(row)} entries, expected {n}")
            if any(b not in (0, 1) for b in row):
                raise MalformedInput(f"row {r} contains a non-bit entry")
            if 1 not in row:
                raise ZeroRow(f"symbol {r} has no successor")
        succ = tuple(tuple(j for j, b in enumerate(row, 1) if b) for row in self.rows)
        pred = tuple(
            tuple(i for i, row in enumerate(self.rows, 1) if row[j]) for j in range(n)
        )
        object.__setattr__(self, "_successors", succ)
        object.__setattr__(self, "_predecessors", pred)

    @classmethod
    def from_rows(cls, rows) -> "AdjacencyMatrix":
        return cls(tuple(tuple(int(b) for b in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def symbols(self) -> range:
        return range(1, self.n + 1)

    def check_symbol(self, s: int) -> None:
        if not (isinstance(s, int) and 1 <= s <= self.n):
            raise SymbolOutOfRange(f"symbol {s!r} not in 1..{self.n}")

    def entry(self, i: int, j: int) -> int:
        self.check_symbol(i)
        self.check_symbol(j)
        return self.rows[i - 1][j - 1]

    def successors(self, i: int) -> tuple[int, ...]:
        """Symbols j with an edge i -> j, ascending."""
        self.check_symbol(i)
        return self._successors[i - 1]

    def predecessors(self, j: int) -> tuple[int, ...]:
        """Symbols i with an edge i -> j, ascending (column j)."""
        self.check_symbol(j)
        return self._predecessors[j - 1]


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
    head = lines[0].strip()
    if not head.isdigit():
        raise MalformedInput(f"first line must be the matrix size, got {lines[0]!r}")
    n = int(head)
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
    one forward and one backward search from symbol 1 decide it.
    """
    everything = frozenset(A.symbols)
    return all(
        len(_distances(step, (1,), everything)) == A.n
        for step in (A.successors, A.predecessors)
    )


def _distances(
    step: Callable[[int], Word], sources: Iterable[int], allowed: frozenset[int]
) -> dict[int, int]:
    """Breadth-first distances from the nearest source, following `step`
    (``A.successors`` or ``A.predecessors``) through `allowed` symbols.

    Sources sit at distance 0; symbols `step` cannot reach are absent.
    """
    dist = dict.fromkeys(sources, 0)
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        for u in step(v):
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
    dist = _distances(A.predecessors, [t for t in targets if t in allowed], allowed)
    ahead = [dist[u] for u in A.successors(i) if u in dist]
    if not ahead:
        return None
    word = [i]
    for remaining in range(min(ahead), -1, -1):
        word.append(min(u for u in A.successors(word[-1]) if dist.get(u) == remaining))
    return tuple(word)


def find_path(A: AdjacencyMatrix, i: int, j: int) -> Word:
    """Shortest admissible word from i to j, using at least one edge.

    The result starts with i, ends with j, and among shortest candidates is
    the lexicographically smallest; a self-loop at i gives find_path(i, i)
    = (i, i).  Raises NoPath when i cannot reach j.
    """
    A.check_symbol(i)
    A.check_symbol(j)
    walk = _shortest_walk(A, i, (j,), frozenset(A.symbols))
    if walk is None:
        raise NoPath(f"no path from {i} to {j}")
    return walk


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
    best: Word | None = None
    for v in sorted(allowed):
        walk = _shortest_walk(A, v, (v,), allowed)
        if walk is None:
            continue
        period = walk[:-1]
        if best is None or (len(period), period) < (len(best), best):
            best = period
    return best


def first_return_word(A: AdjacencyMatrix, start: int) -> Word:
    """Shortest word start, x2, ..., xm with m >= 2, no interior return to
    `start`, and an edge from xm back to `start`.

    This is the smallest genuine cycle through `start`: it leaves the
    vertex and comes back.  Raises NoPath when no such excursion exists.
    """
    A.check_symbol(start)
    others = frozenset(v for v in A.symbols if v != start)
    walk = _shortest_walk(A, start, A.predecessors(start), others)
    if walk is None:
        raise NoPath(f"no return cycle through {start} that leaves it")
    return walk
