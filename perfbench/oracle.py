"""Independent reference math for checking subshift's outputs.

Nothing here imports subshift: word counts come from integer matrix
powers, hypotheses from boolean matrix powers, word lists from plain
extension, and the transfer operator from its preimage-sum definition
evaluated with Fractions.  Matrices are tuples of 0-1 row tuples,
symbols are 1-based, and words are tuples of symbols.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[int, ...], ...]
Word = tuple[int, ...]


def word_count(A: Matrix, k: int) -> int:
    """N, the number of admissible words of length k: the entry sum of A^(k-1)."""
    n = len(A)
    power = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(k - 1):
        power = [
            [sum(power[r][m] * A[m][c] for m in range(n)) for c in range(n)]
            for r in range(n)
        ]
    return sum(map(sum, power))


def is_transitive(A: Matrix) -> bool:
    """Every ordered symbol pair joined by a path of >= 1 edge (boolean powers)."""
    n = len(A)
    reach = [list(row) for row in A]
    step = [list(row) for row in A]
    for _ in range(n - 1):
        step = [
            [int(any(step[r][m] and A[m][c] for m in range(n))) for c in range(n)]
            for r in range(n)
        ]
        reach = [[reach[r][c] | step[r][c] for c in range(n)] for r in range(n)]
    return all(all(row) for row in reach)


def is_cycle(A: Matrix) -> bool:
    return all(sum(row) == 1 for row in A)


def expected_conclusion(A: Matrix) -> str:
    return "not_isomorphic" if is_transitive(A) and not is_cycle(A) else "inconclusive"


def words(A: Matrix, k: int) -> list[Word]:
    """All admissible length-k words, lexicographic."""
    out: list[Word] = [(s,) for s in range(1, len(A) + 1)]
    for _ in range(k - 1):
        out = [w + (b,) for w in out for b in range(1, len(A) + 1) if A[w[-1] - 1][b - 1]]
    return out


def word_str(w: Word) -> str:
    return "".join(map(str, w)) if all(s <= 9 for s in w) else ".".join(map(str, w))


def parse_word(text: str) -> Word:
    return tuple(int(p) for p in (text.split(".") if "." in text else text))


def format_matrix(A: Matrix) -> str:
    return "\n".join([str(len(A))] + [" ".join(map(str, row)) for row in A]) + "\n"


def format_table(depth: int, table: dict[Word, Fraction]) -> str:
    lines = [f"depth {depth}"] + [f"{word_str(w)} {table[w]}" for w in sorted(table)]
    return "\n".join(lines) + "\n"


def format_weight(depth: int, table: dict[Word, Fraction], dom_depth: int, members) -> str:
    return format_table(depth, table) + f"domain {dom_depth}\n" + "".join(
        word_str(w) + "\n" for w in sorted(members)
    )


def parse_table(text: str) -> tuple[int, dict[Word, Fraction]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "depth":
        raise ValueError("function table must start with 'depth <k>'")
    return int(lines[0][1]), {parse_word(w): Fraction(v) for w, v in lines[1:]}


def parse_weight(text: str) -> tuple[int, dict[Word, Fraction], int, frozenset[Word]]:
    head, sep, tail = text.partition("domain ")
    if not sep:
        raise ValueError("weight file has no domain section")
    depth, table = parse_table(head)
    dom_lines = tail.split()
    return depth, table, int(dom_lines[0]), frozenset(parse_word(w) for w in dom_lines[1:])


class Fn:
    """A locally constant function: `value` reads the first `depth` symbols."""

    def __init__(self, depth: int, value):
        self.depth, self.value = depth, value

    def __call__(self, w: Word) -> Fraction:
        return self.value(w)


def table_fn(depth: int, table: dict[Word, Fraction]) -> Fn:
    return Fn(depth, lambda w: table[w[:depth]])


def same_function(A: Matrix, f: Fn, g: Fn) -> bool:
    k = max(f.depth, g.depth)
    return all(f(w) == g(w) for w in words(A, k))


def weight_fn(depth, table, dom_depth, members) -> Fn:
    """The weight as a function: its carrier on the domain, zero off it."""

    def value(w: Word) -> Fraction:
        return table[w[:depth]] if w[:dom_depth] in members else Fraction(0)

    return Fn(max(depth, dom_depth), value)


def same_weight(A: Matrix, left, right) -> bool:
    """Equal carriers (as functions vanishing off the domain) and equal domains."""
    (d1, t1, e1, m1), (d2, t2, e2, m2) = left, right
    k = max(d1, d2, e1, e2)
    if any((w[:e1] in m1) != (w[:e2] in m2) for w in words(A, k)):
        return False
    return same_function(A, weight_fn(d1, t1, e1, m1), weight_fn(d2, t2, e2, m2))


def transfer_apply(A: Matrix, weight, f: Fn) -> Fn:
    """(L f)(x) = sum over symbols a with a -> x_1 and a.x in the domain of
    rho(a.x) f(a.x), tabulated deep enough to read rho and f exactly."""
    depth, table, dom_depth, members = weight
    rho = weight_fn(depth, table, dom_depth, members)
    d = max(rho.depth, f.depth)
    out_depth = max(d - 1, 1)
    out = {}
    for x in words(A, out_depth):
        total = Fraction(0)
        for a in range(1, len(A) + 1):
            y = (a,) + x
            if A[a - 1][x[0] - 1] and y[:dom_depth] in members:
                total += rho(y) * f(y)
        out[x] = total
    return table_fn(out_depth, out)
