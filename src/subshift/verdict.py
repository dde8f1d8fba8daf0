"""Assemble the simplicity dichotomy verdict and its report document.

For a transitive non-cycle matrix the one-sided shift algebra is simple
(minimality plus topological freeness) while the two-sided construction
has a nontrivial ideal (from a nontrivial open invariant set), so the
two are not *-isomorphic and no invertible weight can make them so.
``analyze`` checks the hypotheses, builds every certificate, and returns
a structured verdict; outside the hypotheses it returns "inconclusive"
and never guesses a converse.  Reports serialize to a deterministic JSON
document and can be re-verified from the serialized form alone.

Everything but the certificates is a function of the matrix and the
depth budget (``_skeleton``).  ``analyze`` fills the certificates in;
``verify_report`` requires every other field to read exactly what
``analyze`` writes for the echoed matrix and budget, in canonical JSON,
and every integer field to be a JSON integer.

``render_report`` hands ``dump_json`` the document with the certificate
objects in it, and ``dump_json`` writes each as ``json.dumps`` writes its
``to_dict()``, without making that dict where it can (``dump_json``).  The
minimality section pays once per report for each of its spot words, the
symbols and the edges: ``analyze`` builds the (n + |E|)^2 witnesses from
them unchecked, ``dump_json`` spells each once, the reader parses each
from/to literal once, and ``verify_report`` compares the spot pairs
without listing them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

from .errors import CertificateInvalid, MalformedInput, WorkLimitExceeded
from .freeness import (
    FreenessCertificate,
    InvariantSetCertificate,
    MinimalityWitness,
    _answers,
    _one_store,
    exact_keys,
    find_nontrivial_invariant,
    freeness_certificate,
    json_field,
    located,
    spot_witnesses,
)
from . import sequences
from .graph import AdjacencyMatrix, is_cycle, is_transitive
# verdict lists no words itself; enumerate_words stays bound for perfbench, which traces every binding.
from .sequences import enumerate_words, require_work_limit, word_to_string  # noqa: F401

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

_CERTIFICATE_KEYS = frozenset({"invariant_set", "minimality", "freeness"})
_CONSTANTS = {None: "null", True: "true", False: "false"}  # how JSON writes None and the bools


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


def _minimality_spot_words(A: AdjacencyMatrix) -> list:
    # The words of lengths 1 and 2: the symbols, then the edges sorted.  The spot
    # pairs are their pairs in row-major order; callers compare
    # _minimality_spot_count first, since the pairs are not bounded by the matrix.
    return [(s,) for s in A.symbols] + sorted(A.edges)


def _minimality_spot_count(A: AdjacencyMatrix) -> int:
    return (A.n + len(A.edges)) ** 2


def _skeleton(A: AdjacencyMatrix, depth_budget: int) -> AnalysisVerdict:
    """Everything a verdict says besides its certificates, which stay empty:
    a function of the matrix and the depth budget alone."""
    transitive, cycle = is_transitive(A), is_cycle(A)
    conclusive = transitive and not cycle
    notes = (_CYCLE_NOTE,) if cycle else ()
    return AnalysisVerdict(
        matrix=A,
        depth_budget=depth_budget,
        transitive=transitive,
        cycle=cycle,
        one_sided="simple" if conclusive else INCONCLUSIVE,
        two_sided="non_simple" if conclusive else INCONCLUSIVE,
        conclusion=NOT_ISOMORPHIC if conclusive else INCONCLUSIVE,
        hypothesis_failed=None if conclusive else ("cycle" if transitive else "not_transitive"),
        corollary_no_invertible_weight=conclusive,
        invariant_set=None,
        minimality=(),
        freeness=(),
        citations=_DICHOTOMY_CITATIONS if conclusive else (),
        notes=notes if conclusive else notes + (_HYPOTHESIS_NOTE,),
    )


@_one_store()
def analyze(A: AdjacencyMatrix, depth_budget: int = 4) -> AnalysisVerdict:
    """Run the full decision pipeline on a matrix.

    With both hypotheses satisfied the verdict carries an
    invariant-set certificate, minimality spot witnesses over shallow
    cylinder pairs, and freeness tables for every exponent pair
    0 <= i < j <= depth_budget; otherwise it is inconclusive and names
    the failed hypothesis.  WorkLimitExceeded, before any certificate is
    built, if the freeness tables would hold over MAX_FREENESS_ENTRIES
    entries (``require_work_limit``) or the minimality spot witnesses
    would number over it.
    """
    if type(depth_budget) is not int:
        raise MalformedInput(f"depth budget must be an integer, got {depth_budget!r}")
    if depth_budget < 2:
        raise MalformedInput("depth budget must be at least 2")
    v = _skeleton(A, depth_budget)
    if v.conclusion == INCONCLUSIVE:
        return v
    require_work_limit(A, depth_budget, work="freeness tables would hold")  # j tables of depth j
    if _minimality_spot_count(A) > (limit := sequences.MAX_FREENESS_ENTRIES):
        raise WorkLimitExceeded(
            f"minimality would need over {limit} spot witnesses"
            " (subshift.sequences.MAX_FREENESS_ENTRIES)"
        )
    return replace(
        v,
        invariant_set=find_nontrivial_invariant(A),
        minimality=spot_witnesses(A, _minimality_spot_words(A)),
        freeness=tuple(freeness_certificate(A, i, j) for i, j in _freeness_pairs(depth_budget)),
    )


def matrix_echo(A: AdjacencyMatrix) -> dict:
    """The matrix as it appears in every JSON document."""
    return {"n": A.n, "rows": [list(row) for row in A.rows]}


def dump_json(doc: dict) -> str:
    """The one JSON layout of every document: indent 2, sorted keys, ASCII
    escapes and one trailing newline.  It writes str, int, bool, None, dict
    and list or tuple values as ``json.dumps(doc, indent=2, sort_keys=True)
    + "\\n"`` does, and refuses any other with the stdlib's TypeError, a
    float too, which ``json.dumps`` would write; no document holds a float.
    A certificate it writes as ``json.dumps`` writes its ``to_dict()``: a
    laid-out freeness table, built or read, from its answer blocks, each
    block's rows made into text once per call and nesting level and joined
    in the table's layout (``_table_text``), so it makes no entry; an exact
    ``MinimalityWitness`` with an int `shifts` as one string, each from or
    to word spelled once per call (``_witness_text``); any other through
    its ``to_dict()``.  The stdlib's C encoder serves only ``indent=None``;
    with an indent every chunk climbs a generator per nesting level, so this
    writer appends each to one list instead."""
    out: list[str] = []
    _write_json(doc, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str], spelled: dict) -> None:
    """Append `value` to `out` as ``json.dumps`` lays it out at the nesting
    level whose line break and indent is `newline`: a dict key by key, in
    sorted order.  `spelled` keeps the text the call has made of a freeness
    table's answer blocks and of a witness's words, keyed by the identity of
    those objects, which the document keeps alive for the call and nothing
    edits once built."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out, spelled)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append(_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out, spelled)
            separator = "," + inner
        out.append(newline + "]")
    elif type(value) is MinimalityWitness and type(value.shifts) is int:
        out.append(_witness_text(value, newline, spelled))
    elif type(value) is FreenessCertificate and value._layout is not None:
        out.append(_table_text(value, newline, spelled))
    elif isinstance(value, (InvariantSetCertificate, MinimalityWitness, FreenessCertificate)):
        _write_json(value.to_dict(), newline, out, spelled)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _witness_text(m: MinimalityWitness, newline: str, spelled: dict) -> str:
    """The ``to_dict`` row of the witness `m` at the nesting level `newline`.
    Its from and to words are spelled once per word object, never per
    value: (True,) == (1,), but the two are written apart.  Its prefix is
    spelled with its row, unless it is the start object itself."""
    ends = []
    for w in (m.start, m.target):
        text = spelled.get(id(w))
        if text is None:
            text = spelled[id(w)] = encode_basestring_ascii(word_to_string(w))
        ends.append(text)
    inner = newline + "  "
    prefix = ends[0] if m.prefix is m.start else encode_basestring_ascii(word_to_string(m.prefix))
    return (
        f'{{{inner}"from": {ends[0]},{inner}"prefix": {prefix},{inner}"shifts": {int.__repr__(m.shifts)}'
        f',{inner}"to": {ends[1]}{newline}}}'
    )


def _table_text(cert: FreenessCertificate, newline: str, spelled: dict) -> str:
    """The ``to_dict`` table of the laid-out table `cert` at the nesting
    level `newline`, written from its layout: each depth-(i+1) word's block
    of rows, in order.  Its exponents and every differs_at are exact ints
    (``freeness_certificate``, ``FreenessCertificate.from_dict``).  The
    text of each block of its answer blocks is made once per call and
    nesting level, for every table of its j - i."""
    blocks, ends, _ = cert._layout
    keys, rows = newline + "  ", newline + "    "
    texts = spelled.get((id(blocks), newline))
    if texts is None:
        field = "," + rows + "  "
        texts = spelled[id(blocks), newline] = [
            ("," + rows).join(
                f'{{{rows}  "differs_at": {c}{field}"tail": {encode_basestring_ascii(word_to_string(t))}'
                f"{rows}}}"
                for t, c in block
            )
            for block in blocks
        ]
    entries = ("," + rows).join(map(texts.__getitem__, ends))
    return f'{{{keys}"entries": [{rows}{entries}{keys}],{keys}"i": {cert.i},{keys}"j": {cert.j}{newline}}}'


def _verdict_to_dict(v: AnalysisVerdict) -> dict:
    """The report document of `v`, holding its certificate objects
    themselves, which ``dump_json`` writes as ``json.dumps`` writes their
    ``to_dict()`` (``render_report``)."""
    one = ["minimality", "freeness"] if v.one_sided == "simple" else []
    two = ["invariant_set"] if v.two_sided == "non_simple" else []
    doc = {
        "format": 2,  # reports before this key are format 1 (verify_report reads both)
        "matrix": matrix_echo(v.matrix),
        "depth_budget": v.depth_budget,
        "hypotheses": {"transitive": v.transitive, "cycle": v.cycle},
        "one_sided": {"status": v.one_sided, "certificates": one},
        "two_sided": {"status": v.two_sided, "certificates": two},
        "conclusion": v.conclusion,
        "corollary_no_invertible_weight": v.corollary_no_invertible_weight,
        "certificates": {"invariant_set": v.invariant_set, "minimality": v.minimality, "freeness": v.freeness},
        "citations": list(v.citations),
        "notes": list(v.notes),
    }
    if v.hypothesis_failed is not None:
        doc["hypothesis_failed"] = v.hypothesis_failed
    return doc


def render_report(v: AnalysisVerdict) -> str:
    """Serialize a verdict deterministically (sorted keys, stable layout):
    the bytes ``json.dumps`` writes of ``_verdict_to_dict(v)`` with each
    certificate replaced by its ``to_dict()``, written by ``dump_json``
    from the certificate objects themselves."""
    return dump_json(_verdict_to_dict(v))


def _load_report(text: str):
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        # JSONDecodeError, an integer past int()'s digit limit, or nesting past the recursion limit
        raise MalformedInput(f"report is not valid JSON: {exc}") from None


@_one_store()
def parse_report(text: str) -> AnalysisVerdict:
    return _verdict_from_doc(_load_report(text))


def _verdict_from_doc(doc) -> AnalysisVerdict:
    try:
        A = AdjacencyMatrix.from_rows(doc["matrix"]["rows"])
        report_format = doc.get("format", 1)  # format 1 predates the "format" key
        if "format" in doc and (type(report_format) is not int or report_format != 2):
            raise MalformedInput(f"report format must be 2, or absent for format 1, got {report_format!r}")
        b = json_field(doc, int, "depth_budget")
        certs = exact_keys(doc["certificates"], _CERTIFICATE_KEYS, "certificates: ")
        invariant = certs["invariant_set"]
        with located("certificates.invariant_set: "):
            invariant = None if invariant is None else InvariantSetCertificate.from_dict(A, invariant)
        minimality: list[MinimalityWitness] = []
        read, spots = MinimalityWitness._from_row, _answers(A).spots  # looked up once for every row
        with located(lambda: f"certificates.minimality[{len(minimality)}]: "):
            for d in certs["minimality"]:
                minimality.append(read(A, d, spots))
        # Tables are counted and listed only once every (i, j) is the budget's, so
        # the work stays bounded by the document; verify_report judges an empty list.
        pairs: list[tuple[int, int]] = []
        with located(lambda: f"certificates.freeness[{len(pairs)}]: "):
            for t in certs["freeness"]:
                pairs.append((json_field(t, int, "i"), json_field(t, int, "j")))
        if pairs and (len(pairs) != b * (b + 1) // 2 or pairs != _freeness_pairs(b)):
            raise CertificateInvalid(f"freeness tables are not those of depth budget {b}")
        freeness: list[FreenessCertificate] = []
        with located(lambda: f"certificates.freeness[{len(freeness)}] "):
            for t in certs["freeness"]:
                freeness.append(FreenessCertificate.from_dict(A, t, report_format))
        return AnalysisVerdict(
            matrix=A,
            depth_budget=b,
            transitive=json_field(doc, bool, "hypotheses", "transitive"),
            cycle=json_field(doc, bool, "hypotheses", "cycle"),
            one_sided=doc["one_sided"]["status"],
            two_sided=doc["two_sided"]["status"],
            conclusion=doc["conclusion"],
            hypothesis_failed=doc.get("hypothesis_failed"),
            corollary_no_invertible_weight=json_field(doc, bool, "corollary_no_invertible_weight"),
            invariant_set=invariant,
            minimality=tuple(minimality),
            freeness=tuple(freeness),
            citations=tuple(doc["citations"]),
            notes=tuple(doc.get("notes", [])),
        )
    except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedInput(f"report document is missing or mistypes a field: {exc}") from None


@_one_store()
def verify_report(text: str) -> AnalysisVerdict:
    """Parse a serialized report and re-check everything it claims.

    Every field besides the certificates must read exactly what
    ``analyze`` writes for the echoed matrix and depth budget, compared in
    canonical JSON form, so ``1`` is not ``true``.  An inconclusive report
    carries no certificates; a conclusive one holds exactly those
    ``analyze`` emits for its depth budget, counts compared before any
    expected list is built, and each is re-verified from its stored data.
    A report without a ``format`` key is read as format 1 (README).

    A failure raises a SubshiftError, naming its place in the document
    where it has one: CertificateInvalid when a field or certificate is
    wrong, InadmissibleWord when a stored word or point is not admissible,
    MalformedInput when the text is not a report document.  A symbol
    outside the alphabet, a zero row in the echoed matrix or a table past
    the work limit raises SymbolOutOfRange, ZeroRow or WorkLimitExceeded.
    """
    doc = _load_report(text)
    v = _verdict_from_doc(doc)
    A, b = v.matrix, v.depth_budget
    if b < 2:
        raise CertificateInvalid("depth_budget must be at least 2")
    skeleton = _skeleton(A, b)
    expected = _verdict_to_dict(skeleton)
    if "format" not in doc:
        del expected["format"]
    conclusive = skeleton.conclusion == NOT_ISOMORPHIC

    def canonical(d: dict, key: str) -> str:
        return json.dumps(d[key], sort_keys=True) if key in d else "(absent)"

    for key in sorted((set(doc) | set(expected)) - ({"certificates"} if conclusive else set())):
        if canonical(doc, key) != canonical(expected, key):
            raise CertificateInvalid(f"report field {key!r} must read {canonical(expected, key)}")
    if not conclusive:
        return v
    if v.invariant_set is None or not v.freeness:
        raise CertificateInvalid("conclusive verdict is missing certificates")
    covered = len(v.minimality) == _minimality_spot_count(A)  # counted before any word is listed
    if covered:
        words = _minimality_spot_words(A)
        pairs = ((w, z) for w in words for z in words)
        covered = all(m.start == w and m.target == z for m, (w, z) in zip(v.minimality, pairs))
    if not covered:
        raise CertificateInvalid("minimality witnesses do not cover the spot pairs")
    with located("certificates.invariant_set: "):
        v.invariant_set.verify()
    with located(lambda: f"certificates.minimality[{k}]: "):
        for k, wit in enumerate(v.minimality):
            wit.verify()
    with located(lambda: f"certificates.freeness[{k}] "):
        for k, cert in enumerate(v.freeness):
            cert.verify()
    return v
