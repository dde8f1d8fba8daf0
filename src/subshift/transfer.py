"""Weighted transfer operators on cylinder functions, exactly.

A weight is a nonnegative cylinder function rho carried on a clopen
domain U.  Its transfer operator sends f (supported in U) to the
function

    x  |->  sum of rho(a.x) * f(a.x) over symbols a with an edge a -> x_1
            and a.x inside U,

which is zero off the image of U automatically (the sum is empty there).
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
from functools import reduce
from typing import Callable

from .cylinders import CylinderFunction, DomainMask, alpha, pointwise, refine
from .errors import (
    CertificateInvalid,
    DomainMismatch,
    MalformedInput,
    MatrixMismatch,
    NegativeWeight,
    NotTransfer,
    SupportViolation,
)
from .graph import AdjacencyMatrix, Word
from .sequences import enumerate_words, word_from_string, word_to_string

AbstractTransferOp = Callable[[CylinderFunction], CylinderFunction]


@dataclass(frozen=True, eq=False)
class Weight:
    """A nonnegative cylinder function on a clopen domain.

    The carrier is normalized at construction: it is refined to at least
    the domain depth and set to zero outside the domain, the canonical
    extension of a function living on U.  Values must be nonnegative on
    U; zero values are allowed and are reported by :func:`zero_set`,
    never assumed away.
    """

    carrier: CylinderFunction
    domain: DomainMask

    def __post_init__(self) -> None:
        if self.carrier.matrix != self.domain.matrix:
            raise MatrixMismatch("carrier and domain built over different matrices")
        c = refine(self.carrier, max(self.carrier.depth, self.domain.depth))
        table = {}
        for w, v in c.values.items():
            if not self.domain.covers(w):
                table[w] = Fraction(0)
                continue
            if v < 0:
                raise NegativeWeight(f"weight is {v} on cylinder {word_to_string(w)}")
            table[w] = v
        object.__setattr__(self, "carrier", CylinderFunction(c.matrix, c.depth, table))

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


def check_supported(f: CylinderFunction, U: DomainMask) -> None:
    """Raise SupportViolation unless f vanishes outside U."""
    d = max(f.depth, U.depth)
    fd = refine(f, d)
    for w, v in fd.values.items():
        if v != 0 and not U.covers(w):
            raise SupportViolation(
                f"function is {v} on cylinder {word_to_string(w)} outside the domain"
            )


def transfer_apply(rho: Weight, f: CylinderFunction) -> CylinderFunction:
    """Apply the transfer operator of `rho` to `f`.

    f must be supported in the domain of rho.  The result is tabulated
    at depth max(rho.depth, f.depth) - 1 (at least 1): each preimage
    symbol a prepended to an output word gives a word deep enough to
    read both rho and f exactly.
    """
    A = rho.matrix
    if f.matrix != A:
        raise MatrixMismatch("function built over a different matrix")
    check_supported(f, rho.domain)
    d = max(rho.depth, f.depth)
    rv = refine(rho.carrier, d).values
    fv = refine(f, d).values
    U = rho.domain
    out_depth = max(d - 1, 1)
    table: dict[Word, Fraction] = {}
    for x in enumerate_words(A, out_depth):
        total = Fraction(0)
        for a in A.predecessors(x[0]):
            y = (a,) + x
            if U.covers(y):
                total += rv[y[:d]] * fv[y[:d]]
        table[x] = total
    return CylinderFunction(A, out_depth, table)


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
    is y itself.  The operator is then spot-checked against
    transfer_apply(rho, .) on every cylinder indicator of depth d and
    d+1 inside U (NotTransfer on disagreement) and must be linear on
    fixed rational combinations of neighbouring indicators.  A negative
    recovered value means L was not positive (NegativeWeight).
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

    indicators = {a: CylinderFunction.indicator(A, a) for a in members}
    queried = {a: query(indicators[a]) for a in members}
    terms = [
        pointwise("mul", alpha(queried[a]), indicators[a]) for a in members
    ]
    carrier = reduce(lambda f, g: pointwise("add", f, g), terms)
    for w, v in carrier.values.items():
        if v < 0 and U.covers(w):
            raise NegativeWeight(
                f"recovered value {v} on cylinder {word_to_string(w)}; "
                "the operator was not positive"
            )
    rho = Weight(carrier, U)

    basis = [indicators[a] for a in members]
    basis.extend(
        CylinderFunction.indicator(A, w)
        for w in enumerate_words(A, d + 1)
        if U.covers(w)
    )
    for xi in basis:
        if transfer_apply(rho, xi) != query(xi):
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
    return frozenset(w for w, v in rho.carrier.values.items() if v == 0)


def weights_equivalent(
    rho: Weight, rho2: Weight
) -> tuple[bool, CylinderFunction | None]:
    """Decide whether rho = r * rho2 for some nowhere-zero continuous r.

    For locally constant weights this holds exactly when the two vanish
    on the same cylinders: the ratio on the finitely many nonzero
    cylinders is automatically bounded away from zero, and setting r = 1
    on the common zero cylinders keeps it nonvanishing.  Returns the
    witness r (with rho == r * rho2 exactly) when equivalent.
    """
    if rho.matrix != rho2.matrix:
        raise MatrixMismatch("weights built over different matrices")
    if rho.domain != rho2.domain:
        raise DomainMismatch("weights live on different domains")
    k = max(rho.depth, rho2.depth)
    c1 = refine(rho.carrier, k).values
    c2 = refine(rho2.carrier, k).values
    if {w for w, v in c1.items() if v == 0} != {w for w, v in c2.items() if v == 0}:
        return False, None
    table = {
        w: c1[w] / c2[w] if c2[w] != 0 else Fraction(1) for w in c1
    }
    r = CylinderFunction(rho.matrix, k, table)
    if pointwise("mul", r, rho2.carrier) != rho.carrier:
        raise CertificateInvalid("equivalence witness does not reproduce the weight")
    return True, r


def parse_weight_file(A: AdjacencyMatrix, text: str) -> Weight:
    """Parse a weight file: the function table format, optionally followed
    by a "domain <d>" header and one mask word per line.  Without a
    domain section the weight lives on the whole space."""
    from .cylinders import parse_function_file

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
    if len(head) != 2 or head[0] != "domain" or not head[1].isdigit():
        raise MalformedInput(f"bad domain header {lines[split_at]!r}")
    depth = int(head[1])
    words = []
    for ln in lines[split_at + 1 :]:
        ln = ln.strip()
        if not ln:
            continue
        w = word_from_string(ln)
        if len(w) != depth:
            raise MalformedInput(
                f"domain word {ln!r} does not have the declared depth {depth}"
            )
        words.append(w)
    return Weight(carrier, DomainMask(A, depth, frozenset(words)))


def format_weight_file(rho: Weight) -> str:
    from .cylinders import format_function_file

    out = format_function_file(rho.carrier)
    out += f"domain {rho.domain.depth}\n"
    for w in sorted(rho.domain.members):
        out += word_to_string(w) + "\n"
    return out
