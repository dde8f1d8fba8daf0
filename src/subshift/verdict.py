"""Assemble the simplicity dichotomy verdict and its report document.

For a transitive non-cycle matrix the one-sided shift algebra is simple
(minimality plus topological freeness) while the two-sided construction
has a nontrivial ideal (from a nontrivial open invariant set), so the
two are not *-isomorphic and no invertible weight can make them so.
``analyze`` checks the hypotheses, builds every certificate, and returns
a structured verdict; outside the hypotheses it returns "inconclusive"
and never guesses a converse.  Reports serialize to a deterministic JSON
document and can be re-verified from the serialized form alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import CertificateInvalid, MalformedInput
from .freeness import (
    FreenessCertificate,
    InvariantSetCertificate,
    MinimalityWitness,
    find_nontrivial_invariant,
    freeness_certificate,
    minimality_witness,
)
from .graph import AdjacencyMatrix, is_cycle, is_transitive
from .sequences import enumerate_words, word_count

NOT_ISOMORPHIC = "not_isomorphic"
INCONCLUSIVE = "inconclusive"

_CYCLE_NOTE = (
    "cycle means: every symbol has exactly one outgoing edge; "
    "the graph may still split into several disjoint loops"
)
_HYPOTHESIS_NOTE = "the dichotomy asserts nothing when its hypotheses fail"

_DICHOTOMY_CITATIONS = (
    "occurrence sets {x : r occurs in x} are open and invariant for the "
    "two-sided shift; a transitive non-cycle graph admits one that is "
    "neither empty nor the whole space",
    "for a transitive non-cycle graph, the only open forward-invariant "
    "subsets of the one-sided shift are the empty set and the whole space",
    "for a transitive non-cycle graph, the one-sided shift is topologically "
    "free: no cylinder lies inside {x : shift^i(x) = shift^j(x)} for i < j",
    "a nontrivial open invariant set for the two-sided shift yields a "
    "nontrivial ideal in its algebra",
    "topological freeness plus the absence of nontrivial open invariant "
    "sets make the one-sided algebra simple",
    "a simple algebra is never *-isomorphic to one with a nontrivial ideal",
    "weights equal up to an everywhere-nonzero continuous factor give "
    "*-isomorphic one-sided algebras, so no invertible weight bridges the "
    "two constructions",
)

_MINIMALITY_SPOT_DEPTHS = (1, 2)


@dataclass(frozen=True, eq=False)
class AnalysisVerdict:
    """The structured outcome of ``analyze`` with embedded certificates."""

    matrix: AdjacencyMatrix
    depth_budget: int
    transitive: bool
    cycle: bool
    one_sided: str  # "simple" or "inconclusive"
    two_sided: str  # "non_simple" or "inconclusive"
    conclusion: str  # NOT_ISOMORPHIC or INCONCLUSIVE
    hypothesis_failed: str | None
    corollary_no_invertible_weight: bool
    invariant_set: InvariantSetCertificate | None
    minimality: tuple[MinimalityWitness, ...]
    freeness: tuple[FreenessCertificate, ...]
    citations: tuple[str, ...]
    notes: tuple[str, ...]


def _freeness_pairs(depth_budget: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, depth_budget + 1) for i in range(j)]


def _minimality_spot_pairs(A: AdjacencyMatrix):
    words = []
    for depth in _MINIMALITY_SPOT_DEPTHS:
        words.extend(enumerate_words(A, depth))
    return [(w, z) for w in words for z in words]


def analyze(A: AdjacencyMatrix, depth_budget: int = 4) -> AnalysisVerdict:
    """Run the full decision pipeline on a matrix.

    With both hypotheses satisfied the verdict carries a verified
    invariant-set certificate, minimality spot witnesses over shallow
    cylinder pairs, and freeness tables for every exponent pair
    0 <= i < j <= depth_budget; otherwise it is inconclusive and names
    the failed hypothesis.
    """
    if depth_budget < 2:
        raise MalformedInput("depth budget must be at least 2")
    transitive = is_transitive(A)
    cycle = is_cycle(A)
    notes: list[str] = []
    if cycle:
        notes.append(_CYCLE_NOTE)

    if transitive and not cycle:
        return AnalysisVerdict(
            matrix=A,
            depth_budget=depth_budget,
            transitive=True,
            cycle=False,
            one_sided="simple",
            two_sided="non_simple",
            conclusion=NOT_ISOMORPHIC,
            hypothesis_failed=None,
            corollary_no_invertible_weight=True,
            invariant_set=find_nontrivial_invariant(A),
            minimality=tuple(
                minimality_witness(A, w, z) for w, z in _minimality_spot_pairs(A)
            ),
            freeness=tuple(
                freeness_certificate(A, i, j) for i, j in _freeness_pairs(depth_budget)
            ),
            citations=_DICHOTOMY_CITATIONS,
            notes=tuple(notes),
        )

    failed = "not_transitive" if not transitive else "cycle"
    notes.append(_HYPOTHESIS_NOTE)
    return AnalysisVerdict(
        matrix=A,
        depth_budget=depth_budget,
        transitive=transitive,
        cycle=cycle,
        one_sided=INCONCLUSIVE,
        two_sided=INCONCLUSIVE,
        conclusion=INCONCLUSIVE,
        hypothesis_failed=failed,
        corollary_no_invertible_weight=False,
        invariant_set=None,
        minimality=(),
        freeness=(),
        citations=(),
        notes=tuple(notes),
    )


def matrix_echo(A: AdjacencyMatrix) -> dict:
    """The matrix as it appears in every JSON document."""
    return {"n": A.n, "rows": [list(row) for row in A.rows]}


def dump_json(doc: dict) -> str:
    """The one JSON layout of every document: sorted keys, indent 2."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _status_blocks(v: AnalysisVerdict) -> dict:
    one = ["minimality", "freeness"] if v.one_sided == "simple" else []
    two = ["invariant_set"] if v.two_sided == "non_simple" else []
    return {
        "one_sided": {"status": v.one_sided, "certificates": one},
        "two_sided": {"status": v.two_sided, "certificates": two},
    }


def _verdict_to_dict(v: AnalysisVerdict) -> dict:
    doc = {
        "matrix": matrix_echo(v.matrix),
        "depth_budget": v.depth_budget,
        "hypotheses": {"transitive": v.transitive, "cycle": v.cycle},
        **_status_blocks(v),
        "conclusion": v.conclusion,
        "corollary_no_invertible_weight": v.corollary_no_invertible_weight,
        "certificates": {
            "invariant_set": None if v.invariant_set is None else v.invariant_set.to_dict(),
            "minimality": [w.to_dict() for w in v.minimality],
            "freeness": [c.to_dict() for c in v.freeness],
        },
        "citations": list(v.citations),
        "notes": list(v.notes),
    }
    if v.hypothesis_failed is not None:
        doc["hypothesis_failed"] = v.hypothesis_failed
    return doc


def render_report(v: AnalysisVerdict) -> str:
    """Serialize a verdict deterministically (sorted keys, stable layout)."""
    return dump_json(_verdict_to_dict(v))


def _load_report(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"report is not valid JSON: {exc}") from None


def parse_report(text: str) -> AnalysisVerdict:
    return _verdict_from_doc(_load_report(text))


def _verdict_from_doc(doc) -> AnalysisVerdict:
    try:
        A = AdjacencyMatrix.from_rows(doc["matrix"]["rows"])
        certs = doc["certificates"]
        invariant = certs["invariant_set"]
        return AnalysisVerdict(
            matrix=A,
            depth_budget=int(doc["depth_budget"]),
            transitive=bool(doc["hypotheses"]["transitive"]),
            cycle=bool(doc["hypotheses"]["cycle"]),
            one_sided=doc["one_sided"]["status"],
            two_sided=doc["two_sided"]["status"],
            conclusion=doc["conclusion"],
            hypothesis_failed=doc.get("hypothesis_failed"),
            corollary_no_invertible_weight=bool(doc["corollary_no_invertible_weight"]),
            invariant_set=(
                None if invariant is None else InvariantSetCertificate.from_dict(A, invariant)
            ),
            minimality=tuple(
                MinimalityWitness.from_dict(A, d) for d in certs["minimality"]
            ),
            freeness=tuple(
                FreenessCertificate.from_dict(A, d) for d in certs["freeness"]
            ),
            citations=tuple(doc["citations"]),
            notes=tuple(doc.get("notes", [])),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedInput(f"report document is missing or mistypes a field: {exc}") from None


def verify_report(text: str) -> AnalysisVerdict:
    """Parse a serialized report and re-check everything it claims.

    Recomputes the hypotheses from the matrix echo, confirms the
    conclusion matches them, and re-verifies every embedded certificate
    from its stored data.  A conclusive report must hold exactly the
    certificates ``analyze`` emits for its depth budget; counts are
    compared before any expected list is built.  Raises
    CertificateInvalid on any failure.
    """
    doc = _load_report(text)
    v = _verdict_from_doc(doc)
    A = v.matrix
    if v.transitive != is_transitive(A) or v.cycle != is_cycle(A):
        raise CertificateInvalid("stored hypotheses do not match the matrix")
    expected = NOT_ISOMORPHIC if (v.transitive and not v.cycle) else INCONCLUSIVE
    if v.conclusion != expected:
        raise CertificateInvalid(
            f"conclusion {v.conclusion!r} inconsistent with the hypotheses"
        )
    if v.corollary_no_invertible_weight != (v.conclusion == NOT_ISOMORPHIC):
        raise CertificateInvalid("corollary flag inconsistent with the conclusion")
    for side, block in _status_blocks(v).items():
        if doc[side] != block:
            raise CertificateInvalid(f"{side} must read {block}")
    if v.conclusion == NOT_ISOMORPHIC:
        if v.one_sided != "simple" or v.two_sided != "non_simple":
            raise CertificateInvalid("status fields inconsistent with the conclusion")
        if v.invariant_set is None:
            raise CertificateInvalid("conclusive verdict is missing certificates")
        b = v.depth_budget
        if b < 2:
            raise CertificateInvalid("depth budget must be at least 2")
        tables = [(c.i, c.j) for c in v.freeness]
        if len(tables) != b * (b + 1) // 2 or tables != _freeness_pairs(b):
            raise CertificateInvalid(f"freeness tables are not those of depth budget {b}")
        spots = [(m.start, m.target) for m in v.minimality]
        n_spots = sum(word_count(A, d) for d in _MINIMALITY_SPOT_DEPTHS) ** 2
        if len(spots) != n_spots or spots != _minimality_spot_pairs(A):
            raise CertificateInvalid("minimality witnesses do not cover the spot pairs")
        v.invariant_set.verify()
        for wit in v.minimality:
            wit.verify()
        for cert in v.freeness:
            cert.verify()
    else:
        if v.one_sided != INCONCLUSIVE or v.two_sided != INCONCLUSIVE:
            raise CertificateInvalid("status fields inconsistent with the conclusion")
        if v.hypothesis_failed not in ("not_transitive", "cycle"):
            raise CertificateInvalid("inconclusive verdict must name the failed hypothesis")
    return v
