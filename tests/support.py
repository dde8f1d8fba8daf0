"""Shared random generators and independent brute-force oracles.

The oracles deliberately avoid the package's own search code: words are
enumerated with itertools.product, reachability by trying every word up
to the pigeonhole length, counts by plain integer matrix powers.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path

import subshift as ss
from subshift.errors import SymbolOutOfRange


def random_matrix(rng, nmax=4, nmin=1) -> ss.AdjacencyMatrix:
    n = rng.randint(nmin, nmax)
    rows = []
    for _ in range(n):
        row = [rng.randint(0, 1) for _ in range(n)]
        if 1 not in row:
            row[rng.randrange(n)] = 1
        rows.append(row)
    return ss.AdjacencyMatrix.from_rows(rows)


def near_cycle(n: int) -> ss.AdjacencyMatrix:
    """The cycle 1 -> 2 -> ... -> n -> 1 plus a loop at 1: transitive, not a cycle."""
    return ss.AdjacencyMatrix.from_rows(
        [[int(c == (r + 1) % n or r == c == 0) for c in range(n)] for r in range(n)]
    )


def random_fraction(rng, span=6, den=5, nonneg=False, positive=False) -> Fraction:
    lo = 1 if positive else (0 if nonneg else -span)
    return Fraction(rng.randint(lo, span), rng.randint(1, den))


def random_function(rng, A, depth, nonneg=False, positive=False, zero_prob=0.0):
    table = {}
    for w in ss.enumerate_words(A, depth):
        if zero_prob and rng.random() < zero_prob:
            table[w] = Fraction(0)
        else:
            table[w] = random_fraction(rng, nonneg=nonneg, positive=positive)
    return ss.CylinderFunction(A, depth, table)


def random_mask(rng, A, depth, full_prob=0.5) -> ss.DomainMask:
    if rng.random() < full_prob:
        return ss.DomainMask.full(A, depth)
    words = ss.enumerate_words(A, depth)
    k = rng.randint(1, len(words))
    return ss.DomainMask(A, depth, frozenset(rng.sample(words, k)))


def random_weight(rng, A, depth_max=3, zero_prob=0.0, domain=None) -> ss.Weight:
    depth = rng.randint(1, depth_max)
    if domain is None:
        domain = random_mask(rng, A, rng.randint(1, depth))
    carrier = random_function(rng, A, depth, positive=True, zero_prob=zero_prob)
    return ss.Weight(carrier, domain)


def masked(f: ss.CylinderFunction, U: ss.DomainMask) -> ss.CylinderFunction:
    """Force f to vanish outside U (makes it a valid operator argument)."""
    return ss.pointwise("mul", f, U.indicator())


def no_zero_row_matrices(n):
    """Every n-by-n 0-1 matrix whose rows all contain a 1."""
    rows = [r for r in itertools.product((0, 1), repeat=n) if any(r)]
    for combo in itertools.product(rows, repeat=n):
        yield ss.AdjacencyMatrix(tuple(combo))


# ----- independent oracles -----


def brute_force_words(A: ss.AdjacencyMatrix, k: int) -> list[tuple[int, ...]]:
    """All admissible length-k words by filtering the full product."""
    out = []
    for w in itertools.product(range(1, A.n + 1), repeat=k):
        if all(A.rows[a - 1][b - 1] for a, b in zip(w, w[1:])):
            out.append(w)
    return out


def per_entry_row(A: ss.AdjacencyMatrix, i: int, j: int, w) -> tuple:
    """The entry of w in table (i, j) by the per-entry rule: the tail chosen
    from u = w[i:] alone, and where shift^i and shift^j of w . t^inf first
    differ, scanned on that point itself, coordinate by coordinate."""
    u = w[i:]
    if (u[-1], u[0]) in A.edges:
        tail = ss.freeness._diverting_tail(A, u)
    else:
        tail = ss.find_path(A, u[-1], u[-1])[1:]
    point = ss.sequences.OneSidedPoint(A, w, tail)
    return w, tail, next(c for c in range(len(w) + len(tail)) if point[i + c] != point[j + c]) + 1


def dense_refine(A: ss.AdjacencyMatrix, table: dict, k: int, depth: int) -> dict:
    """The depth-`depth` table of the function whose depth-k table is `table`."""
    return {w: table[w[:k]] for w in brute_force_words(A, depth)}


def brute_force_transfer(A: ss.AdjacencyMatrix, rho, f, depth: int) -> dict:
    """The preimage sum on every admissible length-`depth` word x: rho(a.x)
    * f(a.x) over the symbols a with an edge a -> x[0].  rho and f read the
    prefix of a word that they depend on."""
    return {
        x: sum(
            (rho((a,) + x) * f((a,) + x) for a in range(1, A.n + 1) if A.rows[a - 1][x[0] - 1]),
            Fraction(0),
        )
        for x in brute_force_words(A, depth)
    }


def brute_force_admissible(A: ss.AdjacencyMatrix, word) -> bool:
    """Every symbol an int in 1..n (SymbolOutOfRange first, before any
    answer), then every consecutive pair a 1 entry of the rows."""
    for s in word:
        if not (isinstance(s, int) and 1 <= s <= A.n):
            raise SymbolOutOfRange(f"symbol {s!r} not in 1..{A.n}")
    return all(A.rows[a - 1][b - 1] for a, b in zip(word, word[1:]))


def brute_force_shortest_cycle_avoiding(A: ss.AdjacencyMatrix, banned: int):
    """The smallest (length, word) period whose cycle, closing edge
    included, avoids `banned`; None if there is none.  A shortest cycle
    repeats no symbol, so lengths up to the number of other symbols do."""
    others = [s for s in range(1, A.n + 1) if s != banned]
    for length in range(1, len(others) + 1):
        for w in itertools.product(others, repeat=length):  # lexicographic
            if all(A.rows[a - 1][b - 1] for a, b in zip(w, w[1:] + w[:1])):
                return w
    return None


def matrix_power_word_count(A: ss.AdjacencyMatrix, k: int) -> int:
    """Sum of the entries of A^(k-1) with plain integer arithmetic."""
    n = A.n
    power = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for _ in range(k - 1):
        power = [
            [sum(power[r][m] * A.rows[m][c] for m in range(n)) for c in range(n)]
            for r in range(n)
        ]
    return sum(sum(row) for row in power)


def brute_force_transitive(A: ss.AdjacencyMatrix) -> bool:
    """Try every candidate word up to the pigeonhole length for each pair."""
    n = A.n

    def connected(i, j):
        for length in range(2, n + 2):
            for w in itertools.product(range(1, n + 1), repeat=length):
                if w[0] != i or w[-1] != j:
                    continue
                if all(A.rows[a - 1][b - 1] for a, b in zip(w, w[1:])):
                    return True
        return False

    return all(connected(i, j) for i in range(1, n + 1) for j in range(1, n + 1))


def brute_force_preimage_count(A: ss.AdjacencyMatrix, s: int) -> int:
    """Number of one-step preimages of a point starting with s: count the
    admissible two-symbol words ending in s."""
    return sum(1 for w in brute_force_words(A, 2) if w[1] == s)


def tail_entry_verifies(A: ss.AdjacencyMatrix, w, i: int, j: int, tail_text, differs_at) -> bool:
    """Whether a format-2 freeness entry of the table (i, j) at the word w
    is valid: `tail_text` spells a nonempty word t over 1..n (digits, so
    n <= 9), w + t + t[:1] uses only 1-entries of the rows (t follows w and
    wraps around), and on x = w t t t ... the first c with x[i + c] !=
    x[j + c] is differs_at - 1.  Scans far past where periodicity would
    allow a first difference."""
    if not (isinstance(tail_text, str) and tail_text and set(tail_text) <= set("123456789")):
        return False
    tail = tuple(int(ch) for ch in tail_text)
    path = tuple(w) + tail + tail[:1]
    if not all(s <= A.n for s in tail) or not all(
        A.rows[a - 1][b - 1] for a, b in zip(path, path[1:])
    ):
        return False
    x = tuple(w) + tail * (2 * (len(w) + j + len(tail)))
    diffs = [c for c in range(len(x) - j) if x[i + c] != x[j + c]]
    return bool(diffs) and diffs[0] == differs_at - 1


# analyze's reports at report format 1, before the format key existed.
FORMAT1_FIXTURES = {
    "golden_d4": ([[1, 1], [1, 0]], 4),
    "full3_d3": ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], 3),
    "n4_d4": ([[0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1], [1, 1, 0, 0]], 4),
}


def format1_text(name: str) -> str:
    return (Path(__file__).parent / "fixtures" / f"{name}_format1.json").read_text()


def format1_as_format2(doc: dict) -> dict:
    """A format-1 report document as the format-2 document it encodes: a
    top-level "format": 2, and each freeness entry reduced to its
    differs_at and the right period of its witness literal as the tail."""
    out = json.loads(json.dumps(doc))
    out["format"] = 2
    for table in out["certificates"]["freeness"]:
        table["entries"] = [
            {"differs_at": e["differs_at"], "tail": e["witness"].split()[2].removeprefix("R:")}
            for e in table["entries"]
        ]
    return out
