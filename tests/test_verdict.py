import hashlib
import json

import pytest

import subshift as ss
from subshift.errors import CertificateInvalid, MalformedInput
from support import no_zero_row_matrices


def test_analyze_golden(golden):
    v = ss.analyze(golden)
    assert v.conclusion == ss.NOT_ISOMORPHIC
    assert v.one_sided == "simple" and v.two_sided == "non_simple"
    assert v.corollary_no_invertible_weight
    assert v.hypothesis_failed is None
    assert v.invariant_set is not None
    assert v.minimality and v.freeness
    assert {(c.i, c.j) for c in v.freeness} == {
        (i, j) for j in range(1, 5) for i in range(j)
    }
    assert v.citations


def test_analyze_cycle(swap2):
    v = ss.analyze(swap2)
    assert v.conclusion == ss.INCONCLUSIVE
    assert v.hypothesis_failed == "cycle"
    assert v.transitive and v.cycle
    assert v.invariant_set is None and not v.freeness
    assert not v.corollary_no_invertible_weight
    assert any("cycle" in note for note in v.notes)


def test_analyze_disconnected(split2):
    v = ss.analyze(split2)
    assert v.conclusion == ss.INCONCLUSIVE
    assert v.hypothesis_failed == "not_transitive"


def test_analyze_depth_budget_gate(golden):
    with pytest.raises(MalformedInput):
        ss.analyze(golden, depth_budget=1)
    v = ss.analyze(golden, depth_budget=2)
    assert {(c.i, c.j) for c in v.freeness} == {(0, 1), (0, 2), (1, 2)}


def test_report_structure(golden):
    doc = json.loads(ss.render_report(ss.analyze(golden)))
    assert set(doc) >= {
        "matrix",
        "hypotheses",
        "one_sided",
        "two_sided",
        "conclusion",
        "certificates",
        "citations",
    }
    assert doc["conclusion"] == "not_isomorphic"
    assert doc["one_sided"]["certificates"] == ["minimality", "freeness"]
    assert doc["two_sided"]["certificates"] == ["invariant_set"]
    assert doc["certificates"]["invariant_set"]["word"] == "121"
    assert "hypothesis_failed" not in doc


def test_report_inconclusive_names_hypothesis(swap2):
    doc = json.loads(ss.render_report(ss.analyze(swap2)))
    assert doc["hypothesis_failed"] == "cycle"
    assert doc["certificates"]["invariant_set"] is None


def test_report_round_trip(golden, swap2, split2):
    for A in (golden, swap2, split2):
        rendered = ss.render_report(ss.analyze(A))
        assert ss.render_report(ss.parse_report(rendered)) == rendered


def test_verify_report_accepts_fresh(golden, swap2):
    for A in (golden, swap2):
        ss.verify_report(ss.render_report(ss.analyze(A)))


def test_verify_report_rejects_tampering(golden, swap2):
    doc = json.loads(ss.render_report(ss.analyze(golden)))

    flipped = dict(doc, conclusion="inconclusive")
    with pytest.raises(CertificateInvalid):
        ss.verify_report(json.dumps(flipped))

    wrong_hypothesis = json.loads(json.dumps(doc))
    wrong_hypothesis["hypotheses"]["cycle"] = True
    with pytest.raises(CertificateInvalid):
        ss.verify_report(json.dumps(wrong_hypothesis))

    corrupt_word = json.loads(json.dumps(doc))
    corrupt_word["certificates"]["invariant_set"]["word"] = "11"
    with pytest.raises(CertificateInvalid):
        ss.verify_report(json.dumps(corrupt_word))

    corrupt_freeness = json.loads(json.dumps(doc))
    corrupt_freeness["certificates"]["freeness"][0]["entries"][0]["differs_at"] = 99
    with pytest.raises(CertificateInvalid):
        ss.verify_report(json.dumps(corrupt_freeness))

    missing_cert = json.loads(json.dumps(doc))
    missing_cert["certificates"]["invariant_set"] = None
    with pytest.raises(CertificateInvalid):
        ss.verify_report(json.dumps(missing_cert))

    cycle_doc = json.loads(ss.render_report(ss.analyze(swap2)))
    cycle_doc.pop("hypothesis_failed")
    with pytest.raises(CertificateInvalid):
        ss.verify_report(json.dumps(cycle_doc))


def test_verify_report_rejects_garbage():
    with pytest.raises(MalformedInput):
        ss.verify_report("not json")
    with pytest.raises(MalformedInput):
        ss.verify_report("{}")


def test_analyze_formula_exhaustive_n2():
    for A in no_zero_row_matrices(2):
        v = ss.analyze(A)
        expected = ss.is_transitive(A) and not ss.is_cycle(A)
        assert (v.conclusion == ss.NOT_ISOMORPHIC) == expected
        ss.verify_report(ss.render_report(v))


def test_analyze_propagates_certificate_failures(golden, monkeypatch):
    def broken(A, i, j):
        raise CertificateInvalid("construction bug")

    monkeypatch.setattr("subshift.verdict.freeness_certificate", broken)
    with pytest.raises(CertificateInvalid, match="construction bug"):
        ss.analyze(golden)


def test_report_bytes_are_pinned():
    # Every witness word comes from the graph search; this digest pins the
    # chosen witnesses and the report layout over all matrices with n <= 3.
    digest = hashlib.sha256()
    for n in (1, 2, 3):
        for A in no_zero_row_matrices(n):
            digest.update(ss.render_report(ss.analyze(A, 3)).encode())
    assert digest.hexdigest() == (
        "cd8986e220a44358eda3dcf17d12bccf8e13cb19eb96a98b6f78f9d2428e6ea1"
    )
