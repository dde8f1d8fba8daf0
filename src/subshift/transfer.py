"""Weighted transfer operators on cylinder functions, exactly.

A weight is a nonnegative cylinder function rho carried on a clopen
domain U.  Its transfer operator sends f (supported in U) to the
function

    x  |->  sum of rho(a.x) * f(a.x) over symbols a with an edge a -> x_1
            and a.x inside U,

which is zero off the image of U automatically (the sum is empty there).
Each output value is summed in integers, as one unreduced numerator and
denominator, and reduced once: an output has at most n terms, so its
denominator stays the product of theirs, however many distinct
denominators the whole table holds.
Besides applying such operators this module inverts the construction:
given any abstract linear positive operator satisfying the transfer
identity, it rebuilds the unique weight inducing it, using the cylinder
indicators of U as a partition of unity.  Indicators are idempotent, so
the square roots a general partition of unity would need collapse:
sqrt(xi) = xi exactly, keeping everything rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cylinders import (
    CylinderFunction,
    DomainMask,
    alpha,
    format_function_file,
    parse_function_file,
    pointwise,
    refine,
)
from .errors import (
    DomainMismatch,
    MalformedInput,
    MatrixMismatch,
    NegativeWeight,
    NotTransfer,
    SupportViolation,
)
from .graph import AdjacencyMatrix, Word, parse_natural
from .sequences import enumerate_words, extend_words, word_from_string, word_to_string

AbstractTransferOp = Callable[[CylinderFunction], CylinderFunction]


@dataclass(frozen=True, eq=False)
class Weight:
    """A nonnegative cylinder function on a clopen domain.

    The carrier is normalized at construction: it is refined to at least
    the domain depth and set to zero outside the domain, the canonical
    extension of a function living on U.  It is built from the domain's
    member words when U is at least as deep as the carrier, and otherwise
    by keeping the stored words U covers, so no other word is listed.
    Values must be nonnegative on U; zero values are allowed and are
    reported by :func:`zero_set`, never assumed away.
    """

    carrier: CylinderFunction
    domain: DomainMask

    def __post_init__(self) -> None:
        if self.carrier.matrix != self.domain.matrix:
            raise MatrixMismatch("carrier and domain built over different matrices")
        U, c, values = self.domain, self.carrier.depth, self.carrier.nonzero
        if U.depth >= c:
            depth, table = U.depth, {u: v for u in U.members if (v := values.get(u[:c]))}
        else:
            depth, table = c, {w: v for w, v in values.items() if U.covers(w)}
        negative = [w for w, v in table.items() if v < 0]
        if negative:
            w = min(negative)
            raise NegativeWeight(f"weight is {table[w]} on cylinder {word_to_string(w)}")
        carrier = CylinderFunction.from_nonzero(self.matrix, depth, table)
        object.__setattr__(self, "carrier", carrier)

    @classmethod
    def full(cls, carrier: CylinderFunction) -> "Weight":
        """The weight with domain the whole space (the classical case)."""
        return cls(carrier, DomainMask.full(carrier.matrix))

    @property
    def matrix(self) -> AdjacencyMatrix:
        return self.carrier.matrix

    @property
    def depth(self) -> int:
        return self.carrier.depth

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        return self.carrier == other.carrier and self.domain == other.domain

    def __repr__(self) -> str:
        return f"Weight({self.carrier!r}, domain={self.domain!r})"


def transfer_apply(rho: Weight, f: CylinderFunction) -> CylinderFunction:
    """Apply the transfer operator of `rho` to `f`.

    f must be supported in the domain of rho (SupportViolation otherwise);
    d = max(rho.depth, f.depth) is at least the domain depth, so f's
    depth-d words decide it.  L(f)(x) is the sum of rho(a.x) * f(a.x) over
    the predecessors a of x_1, computed as a scatter over the nonzero
    words y of f at depth d: each adds rho(y[:e]) * f(y), rho read at its
    own depth e, to the depth-(d - 1) word y[1:], or to every successor
    of y[0] when d = 1.  rho's carrier is zero off its domain and at
    least as deep, so only preimages inside the domain contribute, and
    only a word y with rho(y[:e]) = 0 can lie outside it: those alone are
    tested against the domain.  Each sum is kept as an unreduced integer
    pair, adding numerators over an equal denominator and
    cross-multiplying otherwise, and becomes one Fraction, or is dropped
    when it is 0.
    """
    A = rho.matrix
    if f.matrix != A:
        raise MatrixMismatch("function built over a different matrix")
    d, e = max(rho.depth, f.depth), rho.depth
    fv, rv = refine(f, d).nonzero, rho.carrier.nonzero
    images = (lambda y: (y[1:],)) if d > 1 else (lambda y: [(s,) for s in A.successors(y[0])])
    sums: dict[Word, tuple[int, int]] = {}  # unreduced numerator, denominator
    outside = []
    for y, v in fv.items():
        r = rv.get(y[:e])
        if r is None:
            if not rho.domain.covers(y):
                outside.append(y)
            continue
        p, q = r.numerator * v.numerator, r.denominator * v.denominator
        for x in images(y):
            s = sums.get(x)
            if s is None:
                sums[x] = p, q
            elif s[1] == q:
                sums[x] = s[0] + p, q
            else:
                sums[x] = s[0] * q + p * s[1], s[1] * q
    if outside:
        y = min(outside)
        raise SupportViolation(
            f"function is {fv[y]} on cylinder {word_to_string(y)} outside the domain"
        )
    table = {x: Fraction(p, q) for x, (p, q) in sums.items() if p}
    return CylinderFunction.from_nonzero(A, max(d - 1, 1), table)


def as_operator(rho: Weight) -> AbstractTransferOp:
    """The transfer operator of `rho` as a plain callable."""
    return lambda f: transfer_apply(rho, f)


def verify_transfer_identity(
    rho: Weight, f: CylinderFunction, g: CylinderFunction
) -> bool:
    """Check L(f * alpha(g)) == L(f) * g exactly, f supported in the domain."""
    lhs = transfer_apply(rho, pointwise("mul", f, alpha(g)))
    rhs = pointwise("mul", transfer_apply(rho, f), g)
    return lhs == rhs


_LINEARITY_COEFFS = (Fraction(2, 3), Fraction(5, 7))


def recover_weight(L: AbstractTransferOp, U: DomainMask) -> Weight:
    """Rebuild the weight behind an abstract transfer operator on U.

    The depth-d cylinders composing U partition it, the shift is
    injective on each, and their indicators xi_a are idempotent, so

        rho = sum over member cylinders a of alpha(L(xi_a)) * xi_a

    recovers the weight exactly: on a point y in [a], alpha(L(xi_a))
    evaluates L at the shifted point, where the only preimage inside [a]
    is y itself.  The xi_a are disjoint, so rho(w) = L(xi_a)(w[1:]) for
    a = w[:d] in U and 0 off U.  The operator is then spot-checked against
    transfer_apply(rho, .) on every cylinder indicator of depth d and
    d+1 inside U (NotTransfer on disagreement) and must be linear on
    fixed rational combinations of neighbouring indicators.  A negative
    recovered value means L was not positive (NegativeWeight).

    L is queried once per indicator: the depth-d answers that build rho
    also serve its spot-check, so a nonempty U costs |members| +
    |depth-(d+1) members| + (|members| - 1) queries, the last for the
    linearity combinations.
    """
    A = U.matrix
    d = U.depth

    def query(f: CylinderFunction) -> CylinderFunction:
        res = L(f)
        if not isinstance(res, CylinderFunction):
            raise NotTransfer("operator did not return a cylinder function")
        if res.matrix != A:
            raise MatrixMismatch("operator returned a function over a different matrix")
        return res

    members = sorted(U.members)
    if not members:
        rho = Weight(CylinderFunction.zero(A, d), U)
        if not query(CylinderFunction.zero(A, d)).is_zero():
            raise NotTransfer("operator is nonzero on the zero function")
        return rho

    # Mask members are admissible by construction, and so are their extensions.
    indicator = lambda w: CylinderFunction.from_nonzero(A, len(w), {w: Fraction(1)})
    indicators = {a: indicator(a) for a in members}
    queried = {a: query(indicators[a]) for a in members}

    def shifted_query(w: Word) -> Fraction:
        q = queried.get(w[:d])
        return 0 if q is None else q.nonzero.get(w[1 : q.depth + 1], 0)

    depth = max(d, *(q.depth + 1 for q in queried.values()))
    rho = Weight(CylinderFunction.tabulate(A, depth, shifted_query), U)

    deeper = extend_words(A, members, 1)  # U's depth-(d+1) cylinders
    for w in members + deeper:
        xi = indicator(w)
        answer = queried[w] if len(w) == d else query(xi)
        if transfer_apply(rho, xi) != answer:
            raise NotTransfer("operator disagrees with its recovered weight on an indicator")
    s, t = _LINEARITY_COEFFS
    for a, b in zip(members, members[1:]):
        combo = s * indicators[a] + t * indicators[b]
        expected = s * queried[a] + t * queried[b]
        if query(combo) != expected:
            raise NotTransfer("operator is not linear on indicator combinations")
    return rho


def zero_set(rho: Weight) -> frozenset[Word]:
    """The carrier-depth words on which the weight vanishes."""
    nonzero = rho.carrier.nonzero
    return frozenset(w for w in enumerate_words(rho.matrix, rho.depth) if w not in nonzero)


def weights_equivalent(
    rho: Weight, rho2: Weight
) -> tuple[bool, CylinderFunction | None]:
    """Decide whether rho = r * rho2 for some nowhere-zero continuous r.

    For locally constant weights this holds exactly when the two vanish
    on the same cylinders: the ratio on the finitely many nonzero
    cylinders is automatically bounded away from zero, and setting r = 1
    on the common zero cylinders keeps it nonvanishing.  Returns the
    witness r when equivalent.  rho == r * rho2 holds exactly by
    construction: both carriers have the same support, r = c1 / c2 on it
    and r = 1 off it, where both vanish (test_criterion_6_weight_equivalence).
    """
    if rho.matrix != rho2.matrix:
        raise MatrixMismatch("weights built over different matrices")
    if rho.domain != rho2.domain:
        raise DomainMismatch("weights live on different domains")
    k = max(rho.depth, rho2.depth)
    c1 = refine(rho.carrier, k).nonzero
    c2 = refine(rho2.carrier, k).nonzero
    if c1.keys() != c2.keys():
        return False, None
    return True, CylinderFunction.tabulate(rho.matrix, k, lambda w: c1[w] / c2[w] if w in c2 else 1)


def parse_weight_file(A: AdjacencyMatrix, text: str) -> Weight:
    """Parse a weight file: the function table format, optionally followed
    by a "domain <d>" header and one mask word per line.  Without a
    domain section the weight lives on the whole space."""
    lines = text.split("\n")
    split_at = None
    for idx, ln in enumerate(lines):
        if ln.strip().startswith("domain"):
            split_at = idx
            break
    if split_at is None:
        carrier = parse_function_file(A, text)
        return Weight.full(carrier)
    carrier = parse_function_file(A, "\n".join(lines[:split_at]))
    head = lines[split_at].split()
    depth = parse_natural(head[1]) if len(head) == 2 and head[0] == "domain" else None
    if depth is None:
        raise MalformedInput(f"bad domain header {lines[split_at]!r}")
    words = frozenset(word_from_string(ln) for ln in lines[split_at + 1 :] if ln.strip())
    return Weight(carrier, DomainMask(A, depth, words))


def format_weight_file(rho: Weight) -> str:
    out = format_function_file(rho.carrier)
    out += f"domain {rho.domain.depth}\n"
    for w in sorted(rho.domain.members):
        out += word_to_string(w) + "\n"
    return out
