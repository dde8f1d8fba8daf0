import copy
import hashlib
import json
import random
import re
import time
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subshift as ss
from subshift.errors import CertificateInvalid, MalformedInput, WorkLimitExceeded
from support import (
    FORMAT1_FIXTURES,
    brute_force_words,
    format1_as_format2,
    format1_text,
    masked,
    near_cycle,
    no_zero_row_matrices,
    per_entry_row,
    random_function,
    random_matrix,
    random_weight,
    tail_entry_verifies,
)

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


def test_every_report_analyze_writes_fits_the_verifier_listings(golden, monkeypatch):
    # Golden's sum of j * N_j to depth 5 is 120: at that limit analyze writes
    # the budget-5 report, and each table the verifier lists fits it too.
    monkeypatch.setattr(ss.sequences, "MAX_FREENESS_ENTRIES", 119)
    with pytest.raises(WorkLimitExceeded, match="freeness tables would hold"):
        ss.analyze(golden, 5)
    monkeypatch.setattr(ss.sequences, "MAX_FREENESS_ENTRIES", 120)
    ss.verify_report(ss.render_report(ss.analyze(golden, 5)))


def test_a_long_near_match_invariant_word_is_refused_at_once(golden):
    # The word follows the member point ...1212... for 4,001 symbols, then leaves it.
    doc = json.loads(ss.render_report(ss.analyze(golden, 2)))
    doc["certificates"]["invariant_set"]["word"] = "12" * 2000 + "11"
    started = time.perf_counter()
    with pytest.raises(CertificateInvalid, match="member does not contain the certificate word"):
        ss.verify_report(json.dumps(doc))
    assert time.perf_counter() - started < 1


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


def test_verify_report_rejects_garbage(golden):
    with pytest.raises(MalformedInput):
        ss.verify_report("not json")
    with pytest.raises(MalformedInput):
        ss.verify_report("{}")
    infinite = json.loads(ss.render_report(ss.analyze(golden)))
    infinite["depth_budget"] = float("inf")  # json writes Infinity
    with pytest.raises(MalformedInput):
        ss.verify_report(json.dumps(infinite))
    nested = "[" * 100000  # json.loads raises RecursionError on it
    with pytest.raises(MalformedInput):
        ss.verify_report(nested)


@pytest.mark.parametrize(
    "path, value",
    [
        (("hypotheses", "transitive"), "x"),
        (("hypotheses", "transitive"), 1),
        (("hypotheses", "cycle"), 0),
        (("hypotheses", "cycle"), None),
        (("corollary_no_invertible_weight",), "true"),
    ],
)
def test_parse_report_reads_flags_as_json_booleans(golden, path, value):
    doc = json.loads(ss.render_report(ss.analyze(golden, 3)))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(MalformedInput, match=".".join(path)):
        ss.parse_report(json.dumps(doc))


def test_verify_report_requires_every_promised_certificate(golden):
    doc = json.loads(ss.render_report(ss.analyze(golden, 3)))
    certs = doc["certificates"]
    cut_downs = [
        dict(doc, certificates=dict(certs, freeness=certs["freeness"][:1])),
        dict(doc, certificates=dict(certs, freeness=certs["freeness"][::-1])),
        dict(doc, certificates=dict(certs, minimality=certs["minimality"][:1])),
        dict(doc, depth_budget=99),
        dict(doc, depth_budget=-1000000),
        dict(doc, depth_budget=10**30),
        dict(doc, one_sided=dict(doc["one_sided"], certificates=["minimality"])),
        dict(doc, two_sided=dict(doc["two_sided"], certificates=[])),
    ]
    for report in cut_downs:
        with pytest.raises(CertificateInvalid):
            ss.verify_report(json.dumps(report))


# Single-field edits that used to verify: every field besides the
# certificates must read what analyze writes, and integers must be JSON
# integers rather than floats that int() would truncate.
_MISSTATED_FIELDS = [
    ("golden", ("hypothesis_failed",), "cycle"),
    ("golden", ("matrix", "n"), 7),
    ("golden", ("extra",), 1),
    ("golden", ("citations", 0), "x"),
    ("golden", ("notes",), ["x"]),
    ("golden", ("hypotheses", "transitive"), "x"),
    ("golden", ("hypotheses", "cycle"), 0),
    ("golden", ("corollary_no_invertible_weight",), 1),
    ("golden", ("depth_budget",), 3.0),
    ("golden", ("certificates", "freeness", 0, "i"), 0.5),
    ("golden", ("certificates", "freeness", 0, "j"), 1.5),
    ("golden", ("certificates", "minimality", 1, "shifts"), 1.5),
    ("golden", ("certificates", "freeness", 0, "entries", 0, "differs_at"), 2.5),
    ("swap2", ("hypothesis_failed",), "not_transitive"),
    ("swap2", ("matrix", "n"), 7),
    ("swap2", ("extra",), 1),
    ("swap2", ("citations",), ["x"]),
    ("swap2", ("notes", 0), "x"),
    ("swap2", ("hypotheses", "transitive"), 1),
    ("swap2", ("corollary_no_invertible_weight",), 0),
    ("swap2", ("depth_budget",), 1),
    ("swap2", ("depth_budget",), -5),
    ("swap2", ("certificates", "minimality"), [{"from": "1", "to": "1", "prefix": "1", "shifts": 0}]),
]


@pytest.mark.parametrize("fixture, path, value", _MISSTATED_FIELDS)
def test_verify_report_rejects_a_misstated_field(request, fixture, path, value):
    doc = json.loads(ss.render_report(ss.analyze(request.getfixturevalue(fixture), 3)))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(ss.SubshiftError) as failure:
        ss.verify_report(json.dumps(doc))
    # The error names the field: its top-level key, or the integer field read.
    named = path[-1] if fixture == "golden" and path[0] == "certificates" else path[0]
    assert named in str(failure.value)


_LEAF_VALUES = (None, [], {}, -1, 0, 10**6, 2.5, "", "x", "121", 40)


def _leaf_paths(node, path=()):
    """Key paths of every scalar or empty container in a JSON document."""
    if isinstance(node, dict) and node:
        children = node.items()
    elif isinstance(node, list) and node:
        children = enumerate(node)
    else:
        yield path
        return
    for key, child in children:
        yield from _leaf_paths(child, path + (key,))


def _mutation_verifies(A, doc, path, old, new) -> bool:
    """Whether a report whose leaf at `path` changed from old to new should
    still verify: only a same-value change, or a freeness tail that the
    independent oracle accepts for the entry's word."""
    if json.dumps(new) == json.dumps(old):
        return True
    if path[-1] != "tail":
        return False
    _, _, t, _, k, _ = path
    table = doc["certificates"]["freeness"][t]
    i, j = table["i"], table["j"]
    w = brute_force_words(A, j)[k]
    return tail_entry_verifies(A, w, i, j, new, table["entries"][k]["differs_at"])


def _check_leaf_mutations(A, doc):
    paths = list(_leaf_paths(doc))
    rng = random.Random(43)
    for _ in range(300):
        mutated = json.loads(json.dumps(doc))
        path = rng.choice(paths)
        *parents, last = path
        node = mutated
        for key in parents:
            node = node[key]
        old, node[last] = node[last], rng.choice(_LEAF_VALUES)
        text = json.dumps(mutated)
        if _mutation_verifies(A, doc, path, old, node[last]):
            ss.verify_report(text)
            continue
        with pytest.raises(ss.SubshiftError):
            ss.verify_report(text)


def test_report_leaf_mutations_succeed_or_raise_subshift_errors(golden):
    _check_leaf_mutations(golden, json.loads(ss.render_report(ss.analyze(golden, 3))))


def test_format1_report_leaf_mutations_succeed_or_raise_subshift_errors(golden):
    _check_leaf_mutations(golden, json.loads(format1_text("golden_d4")))


_GOLDEN_REPORT = ss.render_report(ss.analyze(ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]]), 3))
_GOLDEN_DOC = json.loads(_GOLDEN_REPORT)
_FORMAT1_DOC = json.loads(format1_text("golden_d4"))
_SUBTREES = (
    None, True, 0, -1, 1, 3, 2.5, 10**6, "", "x", "121", "L:1 C: R:1 O:0", [], {}, [1],
    {"i": 0}, _GOLDEN_DOC["matrix"], _GOLDEN_DOC["certificates"]["invariant_set"],
    _GOLDEN_DOC["certificates"]["minimality"][1], _GOLDEN_DOC["certificates"]["freeness"][2],
    _GOLDEN_DOC["certificates"]["freeness"][3]["entries"][1],
    _FORMAT1_DOC["certificates"]["freeness"][3]["entries"][1], {"format": 2},
)


def _paths(node, path=()):
    """Key paths of every node of a JSON document, () for the document itself."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


@st.composite
def _edited_reports(draw, source=_GOLDEN_DOC):
    """A report (by default the golden depth-3 one) after one to three
    structural edits: a subtree replaced from a pool, a key or list item
    dropped, or a list item duplicated in place."""
    doc = copy.deepcopy(source)
    for _ in range(draw(st.integers(1, 3))):
        *parents, last = draw(st.sampled_from([p for p in _paths(doc) if p]))
        node = doc
        for key in parents:
            node = node[key]
        action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if action == "replace":
            node[last] = copy.deepcopy(draw(st.sampled_from(_SUBTREES)))
        elif action == "drop":
            del node[last]
        elif isinstance(node, list):
            node.insert(last, copy.deepcopy(node[last]))
    return json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(_edited_reports())
# json.loads raises a plain ValueError past int()'s digit limit.
@example(_GOLDEN_REPORT.replace('"depth_budget": 3', '"depth_budget": ' + "1" * 5000))
def test_structurally_edited_reports_verify_or_raise_subshift_errors(text):
    try:
        ss.verify_report(text)
    except ss.SubshiftError:
        pass


@settings(max_examples=100, deadline=None)
@given(_edited_reports(_FORMAT1_DOC))
def test_structurally_edited_format1_reports_verify_or_raise_subshift_errors(text):
    try:
        ss.verify_report(text)
    except ss.SubshiftError:
        pass


@pytest.mark.parametrize("name", sorted(FORMAT1_FIXTURES))
def test_format1_fixtures_verify_and_map_to_format2(name):
    rows, depth = FORMAT1_FIXTURES[name]
    text = format1_text(name)
    assert "format" not in json.loads(text)
    assert ss.verify_report(text).depth_budget == depth
    expected = json.dumps(format1_as_format2(json.loads(text)), indent=2, sort_keys=True) + "\n"
    assert ss.render_report(ss.analyze(ss.AdjacencyMatrix.from_rows(rows), depth)) == expected


def _tampered_format1(t, k, field, value):
    doc = json.loads(format1_text("golden_d4"))
    doc["certificates"]["freeness"][t]["entries"][k][field] = value
    return json.dumps(doc)


# Tables 3 and 4 hold (i, j) = (0, 3) and (1, 3).  Entry 2 of (1, 3) is [121]:
# junction edge 1 -> 2, forced point 121.(21)^inf.  Entry 4 of (0, 3) is [212]:
# no edge 2 -> 2, so no forced point.
_FORMAT1_TAMPERS = {
    "word": (4, 2, "word", "211"),
    "forced-dropped": (4, 2, "forced", None),
    "forced-origin": (4, 2, "forced", "L:1 C:121 R:21 O:1"),
    "forced-period": (4, 2, "forced", "L:1 C:121 R:2121 O:0"),
    "forced-added": (3, 4, "forced", "L:1 C:212 R:12 O:0"),
    "witness-core": (4, 2, "witness", "L:1 C:12 R:112 O:0"),
    "witness-origin": (4, 2, "witness", "L:1 C:121 R:121 O:1"),
    "witness-equalizes": (4, 2, "witness", "L:1 C:121 R:21 O:0"),
    "differs_at": (4, 2, "differs_at", 4),
}


@pytest.mark.parametrize("case", sorted(_FORMAT1_TAMPERS))
def test_tampered_format1_entries_raise_certificate_invalid(case):
    t, k, field, value = _FORMAT1_TAMPERS[case]
    assert json.loads(format1_text("golden_d4"))["certificates"]["freeness"][t]["entries"][k][field] != value
    with pytest.raises(CertificateInvalid, match=rf"^certificates\.freeness\[{t}\] \(i={t - 3}, j=3\)\.entries\[{k}\] "):
        ss.verify_report(_tampered_format1(t, k, field, value))


def test_failures_name_their_place_in_the_document(golden):
    place = "certificates.freeness[4] (i=1, j=3).entries[2] [121]: "
    text = _tampered_format1(*_FORMAT1_TAMPERS["witness-equalizes"])
    with pytest.raises(CertificateInvalid) as failure:
        ss.verify_report(text)
    assert str(failure.value) == place + "witness equalizes the shifts"
    doc = json.loads(ss.render_report(ss.analyze(golden, 3)))
    doc["certificates"]["freeness"][4]["entries"][2]["tail"] = "21"
    with pytest.raises(CertificateInvalid) as failure:
        ss.verify_report(json.dumps(doc))
    assert str(failure.value) == place + "witness equalizes the shifts"
    doc["certificates"]["freeness"][4]["entries"][2]["tail"] = "22"
    with pytest.raises(ss.SubshiftError, match=r"^certificates\.freeness\[4\] .*\[121\]: point"):
        ss.verify_report(json.dumps(doc))
    doc = json.loads(ss.render_report(ss.analyze(golden, 3)))
    doc["certificates"]["minimality"][1]["shifts"] += 1
    with pytest.raises(CertificateInvalid, match=r"^certificates\.minimality\[1\]: "):
        ss.verify_report(json.dumps(doc))


_UNWRITTEN_KEYS = [
    (("certificates", "freeness", 0, "entries", 0), "word", "222",
     "certificates.freeness[0] (i=0, j=1).entries[0] [1]: unexpected key 'word'"),
    (("certificates", "freeness", 0), "note", "x",
     "certificates.freeness[0] (i=0, j=1): unexpected key 'note'"),
    (("certificates", "minimality", 0), "extra", 1, "certificates.minimality[0]: unexpected key 'extra'"),
    (("certificates", "invariant_set"), "claim", True, "certificates.invariant_set: unexpected key 'claim'"),
    (("certificates",), "extra_cert", [], "certificates: unexpected key 'extra_cert'"),
]


@pytest.mark.parametrize(
    "path, key, value, message",
    _UNWRITTEN_KEYS,
    ids=["entry", "table", "minimality", "invariant_set", "certificates"],
)
def test_verify_report_rejects_keys_to_dict_never_writes(golden, path, key, value, message):
    doc = json.loads(ss.render_report(ss.analyze(golden, 3)))
    node = doc
    for step in path:
        node = node[step]
    node[key] = value
    with pytest.raises(MalformedInput) as failure:
        ss.verify_report(json.dumps(doc))
    assert str(failure.value) == message


def test_report_matrix_entries_are_json_bits(golden):
    # Truncating each entry read [[1.9, 1], [1, 0.2]] as golden.
    doc = json.loads(ss.render_report(ss.analyze(golden, 3)))
    doc["matrix"]["rows"] = [[1.9, 1], [1, 0.2]]
    for check in (ss.parse_report, ss.verify_report):
        with pytest.raises(MalformedInput, match="non-bit entry"):
            check(json.dumps(doc))


# Each literal field with its place; entry 2 of table 4, (i, j) = (1, 3), is [121].
_LITERAL_FIELDS = {
    "word": (("invariant_set", "word"), "certificates.invariant_set: "),
    "member": (("invariant_set", "member"), "certificates.invariant_set: "),
    "non_member": (("invariant_set", "non_member"), "certificates.invariant_set: "),
    "from": (("minimality", 1, "from"), "certificates.minimality[1]: "),
    "to": (("minimality", 1, "to"), "certificates.minimality[1]: "),
    "prefix": (("minimality", 1, "prefix"), "certificates.minimality[1]: "),
    "tail": (("freeness", 4, "entries", 2, "tail"), "certificates.freeness[4] (i=1, j=3).entries[2] [121]: "),
    "format1-word": (("freeness", 4, "entries", 2, "word"), "certificates.freeness[4] (i=1, j=3).entries[2] [121]: "),
    "format1-witness": (("freeness", 4, "entries", 2, "witness"), "certificates.freeness[4] (i=1, j=3).entries[2] [121]: "),
    "format1-forced": (("freeness", 4, "entries", 2, "forced"), "certificates.freeness[4] (i=1, j=3).entries[2] [121]: "),
}
_NON_STRINGS = {
    # A word as its array of symbols, a sequence literal as a one-string array.
    "array": lambda text: list(map(int, text)) if text.isdecimal() else [text],
    "integer": lambda text: int(text) if text.isdecimal() else 1,
}


@pytest.mark.parametrize("kind", sorted(_NON_STRINGS))
@pytest.mark.parametrize("field", list(_LITERAL_FIELDS))
def test_report_literals_must_be_json_strings(golden, field, kind):
    (*path, key), place = _LITERAL_FIELDS[field]
    doc = json.loads(format1_text("golden_d4") if field.startswith("format1") else ss.render_report(ss.analyze(golden, 3)))
    node = doc["certificates"]
    for step in path:
        node = node[step]
    node[key] = _NON_STRINGS[kind](node[key])
    with pytest.raises(MalformedInput) as failure:
        ss.verify_report(json.dumps(doc))
    assert str(failure.value).startswith(f"{place}{key} must be a JSON string, got ")


# Spellings of the golden member point L:12 C: R:12 O:0 that to_literal never writes.
_MEMBER_RESPELLINGS = [
    "L:12 X:junk C: R:12 O:0",
    "C: R:12 O:0 L:12",
    "L:99 L:12 C: R:12 O:7 O:0",
    "L:12 C: R:12 O:1_0",
    "L:12\tC: R:12 O:0",
    "L:12 C: R:12\nO:0",
    "L:12 C: R:12 O:\u0663",
    "L:12 C: R:12 O:0 X:1",
]


@pytest.mark.parametrize("member", _MEMBER_RESPELLINGS)
def test_report_sequence_literals_have_one_spelling(member):
    doc = copy.deepcopy(_GOLDEN_DOC)
    doc["certificates"]["invariant_set"]["member"] = member
    with pytest.raises(MalformedInput, match=r"^certificates\.invariant_set: sequence literal "):
        ss.verify_report(json.dumps(doc))


@pytest.mark.parametrize("field", ["witness", "forced"])
def test_format1_sequence_literals_have_one_spelling(field):
    doc = json.loads(format1_text("golden_d4"))
    doc["certificates"]["freeness"][4]["entries"][2][field] += " X:1"
    place = r"^certificates\.freeness\[4\] \(i=1, j=3\)\.entries\[2\] \[121\]: sequence literal "
    with pytest.raises(MalformedInput, match=place):
        ss.verify_report(json.dumps(doc))


def test_format1_entries_hold_exactly_their_four_keys():
    doc = json.loads(format1_text("golden_d4"))
    entry = doc["certificates"]["freeness"][0]["entries"][0]
    place = r"^certificates\.freeness\[0\] \(i=0, j=1\)\.entries\[0\] \[1\]: "
    entry["tail"] = "1"
    with pytest.raises(MalformedInput, match=place + "unexpected key 'tail'$"):
        ss.verify_report(json.dumps(doc))
    del entry["tail"], entry["forced"]
    with pytest.raises(MalformedInput, match=place + "missing key 'forced'$"):
        ss.verify_report(json.dumps(doc))


def test_report_format_key(golden):
    doc = json.loads(ss.render_report(ss.analyze(golden, 3)))
    assert doc["format"] == 2
    for value in (1, 3, "2", None):
        with pytest.raises(ss.SubshiftError, match="format"):
            ss.verify_report(json.dumps(dict(doc, format=value)))
    # A format-2 body without the key is read as format 1, whose entries name their words.
    del doc["format"]
    with pytest.raises(MalformedInput):
        ss.verify_report(json.dumps(doc))


@pytest.mark.parametrize("value", [1, 3, "2", None, True, 2.0])
def test_parse_report_reads_only_the_formats_it_knows(golden, value):
    # No "format" key is format 1 and 2 is format 2; parse_report refuses any
    # other value as it reads, before verify_report would compare the field.
    doc = json.loads(ss.render_report(ss.analyze(golden, 3)))
    message = f"report format must be 2, or absent for format 1, got {value!r}"
    for read in (ss.parse_report, ss.verify_report):
        with pytest.raises(MalformedInput) as refused:
            read(json.dumps(dict(doc, format=value)))
        assert str(refused.value) == message
    ss.parse_report(format1_text("golden_d4"))
    ss.parse_report(json.dumps(doc))


_NOT_OBJECTS = {"array": [1], "number": 5}


@pytest.mark.parametrize("value", sorted(_NOT_OBJECTS))
@pytest.mark.parametrize(
    "path, place",
    [
        (("invariant_set",), "certificates.invariant_set: "),
        (("minimality", 2), "certificates.minimality[2]: "),
        (("freeness", 3), "certificates.freeness[3]: "),
        (("freeness", 2, "entries", 1), "certificates.freeness[2] (i=1, j=2).entries[1] [12]: "),
    ],
)
def test_a_certificate_that_is_no_object_is_refused_where_it_lies(golden, path, place, value):
    # A reader's refusal of what is not a JSON object keeps its class inside
    # verify_report and gains its place in the document.
    doc = json.loads(ss.render_report(ss.analyze(golden, 3)))
    node = doc["certificates"]
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = _NOT_OBJECTS[value]
    with pytest.raises(MalformedInput) as refused:
        ss.verify_report(json.dumps(doc))
    assert str(refused.value) == f"{place}expected a JSON object, got {_NOT_OBJECTS[value]!r}"


def test_analyze_formula_exhaustive_n2():
    for A in no_zero_row_matrices(2):
        v = ss.analyze(A)
        expected = ss.is_transitive(A) and not ss.is_cycle(A)
        assert (v.conclusion == ss.NOT_ISOMORPHIC) == expected
        ss.verify_report(ss.render_report(v))


def test_alphabets_past_nine_analyze_render_verify():
    # Spot pairs, freeness tails and invariant periods name single symbols
    # past 9, whose literals must read back as one symbol.
    rng = random.Random(10)
    matrices = [near_cycle(10)]
    while len(matrices) < 4:
        A = random_matrix(rng, nmax=12, nmin=10)
        if ss.is_transitive(A) and not ss.is_cycle(A):
            matrices.append(A)
    for A in matrices:
        v = ss.analyze(A, 2)
        assert v.conclusion == ss.NOT_ISOMORPHIC
        ss.verify_report(ss.render_report(v))


def test_analyze_propagates_certificate_failures(golden, monkeypatch):
    def broken(A, i, j):
        raise CertificateInvalid("construction bug")

    monkeypatch.setattr("subshift.verdict.freeness_certificate", broken)
    with pytest.raises(CertificateInvalid, match="construction bug"):
        ss.analyze(golden)


# Text that needs escapes: quotes, backslashes, control characters,
# non-ASCII letters, a lone surrogate, an astral symbol and a line separator.
_JSON_TEXT = st.text(
    st.characters(blacklist_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\n\t\u00e9\ud800\U0001f600\u2028'),
    max_size=8,
)
_JSON_DOCS = st.dictionaries(
    _JSON_TEXT,
    st.recursive(
        st.none() | st.booleans() | st.integers(-(10**30), 10**30) | _JSON_TEXT,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
        max_leaves=24,
    ),
    max_size=5,
)


# One dict object at three nesting levels and twice in one list, and dicts
# equal in content ({"x": True} == {"x": 1}) that must be written apart.
_SHARED = {"b": [1, {"c": None}], "a": "x"}
_TRUE, _ONE = {"x": True}, {"x": 1}


# Every scalar a leaf dict (one written as a single string) may hold.
_LEAF = {"t": True, "o": 1, "n": None, "b": 10**40, "s": "\u00e9\""}


@settings(max_examples=100, deadline=None)
@given(_JSON_DOCS)
@example({"": [], "a": {}, "b": [[], {}, [[]]], "c": {"d": {}}, "e": [True, False, None, 0, -1, 2**64]})
@example({"a": _LEAF, "b": {"c": dict(_LEAF)}, "d": [{"e": [dict(_LEAF), _LEAF]}]})
@example({"x": _SHARED, "y": [_SHARED, 0, _SHARED], "z": {"x": _SHARED, "w": [[_SHARED]]}, "v": [_SHARED]})
@example({"p": [_TRUE, _ONE, _TRUE, _ONE], "q": _ONE, "r": {"s": _TRUE}, "t": [[_ONE, _TRUE]]})
def test_dump_json_writes_the_stdlib_layout(doc):
    assert ss.verdict.dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dump_json_refuses_what_no_document_holds():
    with pytest.raises(TypeError) as stdlib:
        json.dumps({"x": {1}})
    with pytest.raises(TypeError) as ours:
        ss.verdict.dump_json({"x": {1}})
    assert str(ours.value) == str(stdlib.value) == "Object of type set is not JSON serializable"
    with pytest.raises(TypeError, match="^Object of type float is not JSON serializable$"):
        ss.verdict.dump_json({"x": [0.5]})
    # Dicts otherwise of scalars: json.dumps writes the float and turns the key 1 into "1".
    for doc in ({"x": {"y": 0.5}}, {"x": [{"y": 1, "z": {2}}]}, {"x": {1: "a"}}):
        with pytest.raises(TypeError):
            ss.verdict.dump_json(doc)


def test_reports_are_written_in_the_stdlib_layout(golden):
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    # Near-cycle 10 is the first n that writes dotted literals; its spot word 10. is one symbol.
    for A, depth in ((full3, 5), (golden, 9), (near_cycle(12), 3), (near_cycle(10), 2)):
        v = ss.analyze(A, depth)
        doc = ss.verdict._verdict_to_dict(v)
        text = ss.render_report(v)
        assert text == json.dumps(doc, indent=2, sort_keys=True, default=lambda c: c.to_dict()) + "\n"
        # A parsed table has no layout and is written entry by entry, to the same bytes.
        assert ss.render_report(ss.parse_report(text)) == text


def test_render_report_hands_dump_json_nothing_json_dumps_writes_otherwise(golden, monkeypatch):
    # render_report hands dump_json the document with the certificate objects in
    # it.  json.dumps must refuse that document, never write other bytes, and the
    # report must be what json.dumps writes of the plain document: for analyze's
    # and parse_report's witnesses, and for public ones that take the writer's
    # to_dict path, two in a row whose row dicts live one at a time, or share no
    # word objects, (True,) and (1,) among them, equal but written apart.
    handed, dump_json = [], ss.verdict.dump_json

    def keep(doc):
        handed.append(doc)
        return dump_json(doc)

    monkeypatch.setattr(ss.verdict, "dump_json", keep)
    v = ss.analyze(near_cycle(10), 2)
    W = ss.MinimalityWitness
    odd = (
        W(golden, (1,), (2,), (1, 2), True),
        W(golden, (2,), (1,), (2, 1), None),
        W(golden, (True,), (1,), (True,), 0),
        W(golden, (1,), (1,), (1,), 0),
        W(golden, (1, 2), (2,), (1, 2), 1),
    )
    for verdict in (v, ss.parse_report(ss.render_report(v)), replace(v, minimality=odd), replace(v, minimality=())):
        handed.clear()
        text = ss.render_report(verdict)
        (doc,) = handed
        try:
            written = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        except TypeError:
            pass
        else:
            assert written == text
        plain = json.dumps(ss.verdict._verdict_to_dict(verdict), indent=2, sort_keys=True, default=lambda c: c.to_dict())
        assert text == plain + "\n"
    rows = json.loads(ss.render_report(replace(v, minimality=odd)))["certificates"]["minimality"]
    assert rows == [m.to_dict() for m in odd] and rows[2]["from"] != rows[2]["to"]


def test_block_built_tables_are_the_per_entry_tables_in_entries_and_bytes():
    # analyze builds each table from answer blocks, one per (j - i, first
    # symbol), and writes each block's rows once per report.  Over 200 seeded
    # transitive non-cycle matrices with n <= 5, every entry of every table
    # 0 <= i < j <= 4 is the per-entry rule's, and the report's bytes are
    # those of the same tables written entry by entry, their layouts dropped.
    rng, seen = random.Random(61), 0
    while seen < 200:
        A = random_matrix(rng, nmax=5, nmin=2)
        if not ss.is_transitive(A) or ss.is_cycle(A):
            continue
        seen += 1
        v = ss.analyze(A, 4)
        for cert in v.freeness:
            i, j = cert.i, cert.j
            rule = [per_entry_row(A, i, j, w) for w in brute_force_words(A, j)]
            assert [(e.word, e.witness.tail, e.differs_at) for e in cert.entries] == rule, (A.rows, i, j)
        plain = replace(v, freeness=tuple(replace(cert) for cert in v.freeness))
        assert all(cert._layout is None for cert in plain.freeness)
        assert ss.render_report(v) == ss.verdict.dump_json(ss.verdict._verdict_to_dict(plain)), A.rows


def test_dump_json_writes_certificate_objects_as_json_dumps_writes_their_dicts(golden):
    # dump_json writes a built table from its answer blocks, each block's text
    # made once per call and nesting level, and an exact witness as one string.
    # Every document must read as json.dumps writes it with each certificate
    # replaced by its to_dict(): one table twice and at several levels, tables
    # of one j - i, tables without a layout, odd witnesses, dotted literals.
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    t13, t02 = ss.freeness_certificate(golden, 1, 3), ss.freeness_certificate(golden, 0, 2)
    wide = [ss.freeness_certificate(full3, i, i + 2) for i in range(3)]
    e = t13.entries[3]
    edited = replace(t13, entries=t13.entries[:3] + (replace(e, differs_at=e.differs_at + 1),) + t13.entries[4:])
    parsed = ss.FreenessCertificate.from_dict(golden, t13.to_dict())
    W = ss.MinimalityWitness
    odd = [
        W(golden, (1,), (2,), (1, 2), True),
        W(golden, (2,), (1,), (2, 1), None),
        W(golden, (True,), (1,), (True,), 0),
        W(golden, (1,), (1,), (1,), 0),
        W(golden, (1, 2), (2,), (1, 2), 1),
        W(golden, (1,), (True,), (True,), 0),
    ]
    docs = [
        {"a": t13, "b": [t13, {"c": [t02, t13]}], "d": {"e": {"f": wide}}, "g": t02},
        {"t": wide + [t13, replace(t13), edited, parsed], "u": [[parsed, edited]]},
        {"w": odd, "x": [odd[0], {"y": odd}], "z": [ss.find_nontrivial_invariant(golden)]},
    ]
    for A, depth in ((near_cycle(10), 2), (near_cycle(12), 3)):
        v = ss.analyze(A, depth)
        docs += [ss.verdict._verdict_to_dict(v), {"m": v.minimality, "f": [v.freeness]}]
    for doc in docs:
        text = ss.verdict.dump_json(doc)
        assert text == json.dumps(doc, indent=2, sort_keys=True, default=lambda c: c.to_dict()) + "\n"


def test_every_small_report_is_its_plain_document_and_verifies():
    # Over every no-zero-row 3x3 matrix at depth 3, the report written from the
    # certificate objects is json.dumps of the plain document, and verify_report
    # reads the conclusion back.
    for A in no_zero_row_matrices(3):
        v = ss.analyze(A, 3)
        text = ss.render_report(v)
        doc = ss.verdict._verdict_to_dict(v)
        assert text == json.dumps(doc, indent=2, sort_keys=True, default=lambda c: c.to_dict()) + "\n", A.rows
        assert ss.verify_report(text).conclusion == v.conclusion, A.rows


def test_an_entry_sharing_its_answer_is_still_checked_at_its_place():
    # Each (w[i:], tail) is scanned once per table, but every entry's own
    # differs_at is compared: tamper one whose answer an earlier entry shares.
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    doc = json.loads(ss.render_report(ss.analyze(full3, 3)))
    for t, table in enumerate(doc["certificates"]["freeness"]):
        i, j = table["i"], table["j"]
        seen = set()
        for k, (w, row) in enumerate(zip(ss.enumerate_words(full3, j), table["entries"])):
            if i > 0 and (w[i:], row["tail"]) in seen:
                break
            seen.add((w[i:], row["tail"]))
        else:
            continue
        break
    assert k > 0 and i > 0
    row["differs_at"] += 1
    where = f"certificates.freeness[{t}] (i={i}, j={j}).entries[{k}] [{ss.word_to_string(w)}]: "
    with pytest.raises(CertificateInvalid, match=re.escape(where) + "differs_at"):
        ss.verify_report(json.dumps(doc))
    # Each answer is scanned once per matrix: (i=1, j=2) at 11 shares j - i = 1,
    # w[i:] = 1 and its tail with (i=0, j=1) at 1, two tables earlier.
    doc = json.loads(ss.render_report(ss.analyze(full3, 3)))
    doc["certificates"]["freeness"][2]["entries"][0]["differs_at"] += 1
    message = "certificates.freeness[2] (i=1, j=2).entries[0] [11]: differs_at 3, but they first differ at 2"
    with pytest.raises(CertificateInvalid, match=f"^{re.escape(message)}$"):
        ss.verify_report(json.dumps(doc))


def test_a_tail_is_refused_at_the_first_word_it_cannot_follow(golden):
    # On golden the tail 21 follows a word ending in 1 (edge 1 -> 2) but not one
    # ending in 2 (no loop at 2).  Every word ending in 1 gets it, and so does the
    # last word ending in 2: the literal is read once and reused for the words
    # ending in 1, and that last word still raises where it always did.
    doc = json.loads(ss.render_report(ss.analyze(golden, 4)))
    t = len(doc["certificates"]["freeness"]) - 1
    table = doc["certificates"]["freeness"][t]
    words = ss.enumerate_words(golden, table["j"])
    k = max(k for k, w in enumerate(words) if w[-1] == 2)
    for row, w in zip(table["entries"], words):
        if w[-1] == 1 or w == words[k]:
            row["tail"] = "21"
    assert sum(w[-1] == 1 for w in words[:k]) > 1  # reused before it fails
    w = ss.word_to_string(words[k])
    message = (
        f"certificates.freeness[{t}] (i={table['i']}, j={table['j']}).entries[{k}] [{w}]: "
        f"point {w} . (21)^inf is not admissible"
    )
    with pytest.raises(ss.errors.InadmissibleWord, match=f"^{re.escape(message)}$"):
        ss.verify_report(json.dumps(doc))
    # Each tail is read once per matrix and last symbol: 21 read for the word 1
    # in the first table is read again for a word ending in 2 in the last one.
    doc = json.loads(ss.render_report(ss.analyze(golden, 4)))
    tables = doc["certificates"]["freeness"]
    tables[0]["entries"][0]["tail"] = "21"  # 1 . (21)^inf is admissible
    k = min(k for k, w in enumerate(words) if w[-1] == 2)
    tables[t]["entries"][k]["tail"] = "21"
    w = ss.word_to_string(words[k])
    message = (
        f"certificates.freeness[{t}] (i={table['i']}, j={table['j']}).entries[{k}] [{w}]: "
        f"point {w} . (21)^inf is not admissible"
    )
    with pytest.raises(ss.errors.InadmissibleWord, match=f"^{re.escape(message)}$"):
        ss.verify_report(json.dumps(doc))


def _transitive_noncycle(seed: int) -> ss.AdjacencyMatrix:
    rng = random.Random(seed)
    while True:
        A = random_matrix(rng, nmax=4, nmin=2)
        if ss.is_transitive(A) and not ss.is_cycle(A):
            return A


@st.composite
def _reports_with_edited_rows(draw):
    """A seeded transitive non-cycle matrix with n <= 4, its report at a
    depth of 2 to 4, and the places of one to three freeness rows edited
    in it: each given a new tail, its differs_at moved by one, or replaced
    by a copy of a row of any table."""
    A = _transitive_noncycle(draw(st.integers(0, 2**32)))
    doc = json.loads(ss.render_report(ss.analyze(A, draw(st.integers(2, 4)))))
    tables, edited = doc["certificates"]["freeness"], set()
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.integers(0, len(tables) - 1))
        k = draw(st.integers(0, len(tables[t]["entries"]) - 1))
        row = tables[t]["entries"][k] = dict(tables[t]["entries"][k])
        edit = draw(st.sampled_from(["tail", "differs_at", "copy"]))
        if edit == "tail":
            row["tail"] = "".join(map(str, draw(st.lists(st.integers(1, A.n), min_size=1, max_size=3))))
        elif edit == "differs_at":
            row["differs_at"] += draw(st.sampled_from([-1, 1]))
        else:
            source = tables[draw(st.integers(0, len(tables) - 1))]["entries"]
            row.update(source[draw(st.integers(0, len(source) - 1))])
        edited.add((t, k))
    return A, doc, edited


@settings(max_examples=100, deadline=None)
@given(_reports_with_edited_rows())
def test_edited_freeness_rows_verify_exactly_when_each_entry_does(case):
    # Answers, tails and listings are kept across a report's tables; the kept
    # ones must judge every row as the brute-force oracle does.  Rows not
    # edited are analyze's, which the oracle accepts.
    A, doc, edited = case
    tables = doc["certificates"]["freeness"]
    valid = True
    for t, k in edited:
        i, j, row = tables[t]["i"], tables[t]["j"], tables[t]["entries"][k]
        valid &= tail_entry_verifies(A, brute_force_words(A, j)[k], i, j, row["tail"], row["differs_at"])
    if valid:
        ss.verify_report(json.dumps(doc))
    else:
        with pytest.raises(ss.SubshiftError):
            ss.verify_report(json.dumps(doc))


def _freeness_traffic(monkeypatch, run) -> tuple[int, int]:
    """(listings, tail scans) that `run` makes through the freeness module."""
    counts = Counter()

    def counted(name, f):
        def call(*args):
            counts[name] += 1
            return f(*args)

        return call

    for name in ("enumerate_words", "_tail_difference"):
        monkeypatch.setattr(ss.freeness, name, counted(name, getattr(ss.freeness, name)))
    run()
    monkeypatch.undo()
    return counts["enumerate_words"], counts["_tail_difference"]


def test_a_report_lists_each_depth_and_scans_each_answer_once(monkeypatch):
    # Per table, verify_report of golden d9 listed each depth 2j times, 90 in
    # all, and scanned 575 tails; full3 d5 listed 30 and scanned 537.  Per
    # matrix, each depth is listed once, and each (j - i, w[i:], tail) scanned once.
    golden, full3 = [[1, 1], [1, 0]], [[1, 1, 1]] * 3
    for rows, depth, scans in ((golden, 9, 230), (full3, 5, 363)):
        text = ss.render_report(ss.analyze(ss.AdjacencyMatrix.from_rows(rows), depth))
        assert _freeness_traffic(monkeypatch, lambda: ss.verify_report(text)) == (depth, scans)
    A = ss.AdjacencyMatrix.from_rows(golden)
    listings, _ = _freeness_traffic(monkeypatch, lambda: ss.analyze(A, 9))
    assert listings == 9  # one per table, 45, before


def test_a_report_counts_each_depth_once_and_still_sizes_every_table(monkeypatch):
    # verify_report counted a table's words to read it and again to verify it,
    # 90 counts over golden d9's 45 tables.  Each depth is counted once, before
    # its first listing, and every later table's size is compared with that
    # listing's length, so a later table one row short or long is still refused.
    counts = Counter()
    count_past = ss.freeness.count_past

    def counted(A, k, size):
        counts[k] += 1
        return count_past(A, k, size)

    monkeypatch.setattr(ss.freeness, "count_past", counted)
    text = ss.render_report(ss.analyze(ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]]), 9))
    ss.verify_report(text)
    assert counts == Counter(range(1, 10))
    doc = json.loads(text)
    tables = doc["certificates"]["freeness"]
    t = next(t for t, table in enumerate(tables) if (table["i"], table["j"]) == (1, 4))
    assert (tables[t - 1]["i"], tables[t - 1]["j"]) == (0, 4)  # read first: it lists depth 4
    rows = tables[t]["entries"]
    place = re.escape(f"certificates.freeness[{t}] (i=1, j=4): ")
    for wrong in (rows[:-1], rows + rows[:1]):
        tables[t]["entries"] = wrong
        counts.clear()
        with pytest.raises(CertificateInvalid, match=f"^{place}entries do not cover the depth-j cylinders$"):
            ss.verify_report(json.dumps(doc))
        assert counts[4] == 1  # the (0, 4) table's count; (1, 4) compared with the listing


def test_analyze_searches_each_connector_once_per_matrix(monkeypatch):
    # n = 4 at depth 4: one search per minimality witness and per freeness
    # table asked 251 path searches of 16 distinct ones.
    A = ss.AdjacencyMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1], [1, 1, 1, 0]])
    searches, inside = Counter(), []
    shortest_walk = ss.graph._shortest_walk

    def counted(*args):
        searches[inside[-1] if inside else "find_path"] += 1
        return shortest_walk(*args)

    def marked(f):
        def call(*args):
            inside.append(f.__name__)
            try:
                return f(*args)
            finally:
                inside.pop()

        return call

    monkeypatch.setattr(ss.graph, "_shortest_walk", counted)
    for name in ("first_return_word", "shortest_cycle_avoiding"):
        monkeypatch.setattr(ss.freeness, name, marked(getattr(ss.graph, name)))
    ss.analyze(A, 4)
    assert searches["first_return_word"] and searches["shortest_cycle_avoiding"]
    assert searches["find_path"] <= A.n**2


def test_every_spot_row_is_the_public_witness_of_its_pair(golden):
    # analyze builds its spot witnesses without minimality_witness's checks, and
    # the writer spells their words apart from to_dict; each row it writes must
    # still be the public witness's row.  The pairs run over the symbols, then the
    # edges sorted, in row-major order.  Near-cycle 12 writes dotted literals,
    # which the pinned digest (n <= 3) never reaches.
    rng = random.Random(24)
    n4 = next(A for A in iter(lambda: random_matrix(rng, nmax=4, nmin=4), None)
              if ss.is_transitive(A) and not ss.is_cycle(A))
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    for A in (golden, full3, n4, near_cycle(12)):
        rows = json.loads(ss.render_report(ss.analyze(A, 2)))["certificates"]["minimality"]
        B = ss.AdjacencyMatrix(A.rows)
        words = [(s,) for s in B.symbols] + sorted(B.edges)
        assert rows == [ss.minimality_witness(B, w, z).to_dict() for w in words for z in words]


def test_a_report_spells_and_parses_each_spot_word_once(monkeypatch):
    # n = 4 with 9 edges: 169 witnesses over 13 spot words.  Each row spelled its
    # from and to words, so analyze+render spelled each spot word 27 times (26 as
    # from or to, once as the prefix of its own pair), and verify_report parsed
    # every row's from, to and prefix, 507 parses.  Now each spot word object is
    # spelled once, and each from/to literal parsed once, besides each prefix.
    # The report writer spells through verdict's binding, to_dict through freeness's.
    A = ss.AdjacencyMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1], [1, 1, 1, 0]])
    spelled = []  # keeps every spelled word alive, so no two share an id
    word_to_string = ss.sequences.word_to_string

    def spell(w):
        spelled.append(w)
        return word_to_string(w)

    for module in (ss.freeness, ss.verdict):
        monkeypatch.setattr(module, "word_to_string", spell)
    v = ss.analyze(A, 4)
    text = ss.render_report(v)
    monkeypatch.undo()
    spots = {id(m.start): m.start for m in v.minimality}
    assert len(spots) == A.n + len(A.edges)
    spellings = Counter(map(id, spelled))
    assert [spellings[key] for key in spots] == [1] * len(spots)

    # The report reader reads each row with MinimalityWitness._from_row.
    parsed, reading = Counter(), []
    word_from_string, from_row = ss.freeness.word_from_string, ss.MinimalityWitness._from_row.__func__

    def parse(literal):
        if reading:
            parsed[literal] += 1
        return word_from_string(literal)

    def read(cls, A, data, spots):
        reading.append(data)
        try:
            return from_row(cls, A, data, spots)
        finally:
            reading.pop()

    monkeypatch.setattr(ss.freeness, "word_from_string", parse)
    monkeypatch.setattr(ss.MinimalityWitness, "_from_row", classmethod(read))
    ss.verify_report(text)
    monkeypatch.undo()
    rows = json.loads(text)["certificates"]["minimality"]
    assert len(rows) == 169
    assert parsed == Counter({row["from"] for row in rows}) + Counter(row["prefix"] for row in rows)


def test_unchecked_witnesses_are_the_constructed_ones(golden):
    # analyze and from_dict store each witness's fields straight into its slots,
    # as MinimalityWitness._unchecked; the result must be the constructor's witness.
    A = near_cycle(10)
    v = ss.analyze(A, 2)
    for m in v.minimality + ss.parse_report(ss.render_report(v)).minimality:
        public = ss.minimality_witness(A, m.start, m.target)
        assert [getattr(m, f.name) for f in fields(m)] == [getattr(public, f.name) for f in fields(public)]
        m.verify()
    m = ss.MinimalityWitness._unchecked(golden, (1,), (2,), (1, 2), 1)
    assert type(m) is ss.MinimalityWitness and repr(m) == repr(ss.MinimalityWitness(golden, (1,), (2,), (1, 2), 1))
    m.verify()
    with pytest.raises(CertificateInvalid, match="^shift count does not match the word lengths$"):
        replace(m, shifts=0).verify()
    with pytest.raises(FrozenInstanceError):
        m.shifts = 0


def test_a_bad_minimality_prefix_is_an_inadmissible_word(golden):
    # verify_report raises more classes than CertificateInvalid; its docstring names them.
    doc = json.loads(ss.render_report(ss.analyze(golden, 3)))
    doc["certificates"]["minimality"][5].update(prefix="122", shifts=2)
    message = r"^certificates\.minimality\[5\]: word 122 is not admissible$"
    with pytest.raises(ss.errors.InadmissibleWord, match=message):
        ss.verify_report(json.dumps(doc))


def test_report_bytes_are_pinned():
    # Every witness word comes from the graph search; this digest pins the
    # chosen witnesses and the report layout over all matrices with n <= 3.
    digest = hashlib.sha256()
    for n in (1, 2, 3):
        for A in no_zero_row_matrices(n):
            digest.update(ss.render_report(ss.analyze(A, 3)).encode())
    assert digest.hexdigest() == (
        "4887dcf0af26c6198bac03276ce664fcbffe280d3dce97f33e5af789c1a16512"
    )


def test_transfer_outputs_are_pinned():
    # Recovered weights and transfer images over 60 seeded random weights;
    # the digest pins every value the transfer layer tabulates.
    rng = random.Random(29)
    digest = hashlib.sha256()
    for _ in range(60):
        A = random_matrix(rng, nmax=3)
        rho = random_weight(rng, A, depth_max=3, zero_prob=0.3)
        f = masked(random_function(rng, A, rng.randint(1, 4)), rho.domain)
        recovered = ss.recover_weight(ss.as_operator(rho), rho.domain)
        digest.update(ss.format_weight_file(recovered).encode())
        digest.update(ss.format_function_file(ss.transfer_apply(rho, f)).encode())
    assert digest.hexdigest() == (
        "a96dbc13b1fe8679eb492c0f4d372dff96f72ee72bc608de83c4dafdd450ebcf"
    )
