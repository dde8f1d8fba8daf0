"""Every text input either parses or raises SubshiftError.

Each kind of number read from text has one grammar: word literals
(``word_from_string``), naturals (the headers, ``graph.parse_natural``) and
rationals (values, ``cylinders._as_fraction``).  Anything outside it is
MalformedInput through every entry point, whatever int() or Fraction()
of the running Python would accept.

Inputs are free text, or valid files with a few edits: a token replaced
by one that once leaked another exception (superscript digits, which
str.isdigit() accepts and int() rejects, or a zero denominator), a line
dropped or a line repeated.  The files that leaked are pinned as explicit
examples.  Numbers an edit can write are at most 8, so header depths stay
at most 8 and every example runs in milliseconds; that cap bounds the
runtime of this test, it does not mean deeper headers are cheap.

On the command line every verb, given such files, reports with one edit,
or files holding a byte that is not UTF-8, exits 0 or 2 with no traceback.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subshift as ss
from subshift.cli import main
from subshift.errors import MalformedInput

GOLDEN = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])
FULL3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)

_EDITS = st.sampled_from(
    ["0", "1", "2", "3", "8", "-1", "1.2", "2.1.1", "²", "2²", "1/2", "1/0", "0/0",
     "1e2", "x", ".", ":", "", "L:12", "O:1.5"]
)
_VALUES = st.sampled_from(["0", "1", "1/2", "3"])


def _edit(draw, text: str) -> str:
    lines = [ln.split(" ") for ln in text.split("\n")]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["token", "drop", "repeat"]))
        if action == "token":
            line = lines[at]
            line[draw(st.integers(0, len(line) - 1))] = draw(_EDITS)
        elif action == "drop":
            del lines[at]
        else:
            lines.insert(at, list(lines[at]))
        if not lines:
            break
    return "\n".join(" ".join(ln) for ln in lines)


@st.composite
def _matrix_files(draw):
    n = draw(st.integers(1, 3))
    masks = [draw(st.integers(1, 2**n - 1)) for _ in range(n)]
    A = ss.AdjacencyMatrix.from_rows([[(m >> c) & 1 for c in range(n)] for m in masks])
    return _edit(draw, ss.format_matrix(A))


def _carrier(draw, A):
    depth = draw(st.integers(1, 3))
    return ss.CylinderFunction(A, depth, {w: draw(_VALUES) for w in ss.enumerate_words(A, depth)})


@st.composite
def _function_files(draw):
    A = draw(st.sampled_from([GOLDEN, FULL3]))
    return A, _edit(draw, ss.format_function_file(_carrier(draw, A)))


@st.composite
def _weight_files(draw):
    A = draw(st.sampled_from([GOLDEN, FULL3]))
    depth = draw(st.integers(1, 3))
    members = draw(st.sets(st.sampled_from(ss.enumerate_words(A, depth))))
    rho = ss.Weight(_carrier(draw, A), ss.DomainMask(A, depth, frozenset(members)))
    return A, _edit(draw, ss.format_weight_file(rho))


@st.composite
def _sequence_literals(draw):
    A = draw(st.sampled_from([GOLDEN, FULL3]))
    period = draw(st.sampled_from(ss.periodic_points(A, draw(st.integers(1, 3)))))
    s = ss.periodic_seq(A, period, draw(st.integers(-3, 3)))
    return A, _edit(draw, s.to_literal())


def _succeeds_or_raises_subshift_error(call, *args):
    try:
        call(*args)
    except ss.SubshiftError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.text(max_size=30), _matrix_files()))
@example("2²\n1 1\n1 0\n")
def test_parse_matrix_is_total(text):
    _succeeds_or_raises_subshift_error(ss.parse_matrix, text)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.tuples(st.just(GOLDEN), st.text(max_size=30)), _function_files()))
@example((GOLDEN, "depth ²\n1 1\n2 1\n"))
@example((GOLDEN, "depth 1\n1 1/0\n2 1\n"))
def test_parse_function_file_is_total(case):
    _succeeds_or_raises_subshift_error(ss.parse_function_file, *case)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.tuples(st.just(GOLDEN), st.text(max_size=30)), _weight_files()))
@example((GOLDEN, "depth 1\n1 1\n2 1\ndomain ²\n1\n"))
def test_parse_weight_file_is_total(case):
    _succeeds_or_raises_subshift_error(ss.parse_weight_file, *case)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.text(max_size=20), _EDITS))
def test_word_from_string_is_total(text):
    _succeeds_or_raises_subshift_error(ss.word_from_string, text)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.tuples(st.just(GOLDEN), st.text(max_size=20)), _sequence_literals()))
def test_sequence_literals_are_total(case):
    _succeeds_or_raises_subshift_error(ss.EventuallyPeriodicSeq.from_literal, *case)


def test_decimal_values_parse():
    f = ss.parse_function_file(GOLDEN, "depth 1\n1 0.5\n2 -3\n")
    assert f.values == {(1,): Fraction(1, 2), (2,): Fraction(-3)}


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.fractions().map(str), st.sampled_from(["-3", "+3", "6/4", "-7/3", "0.5", "-.25", "1."])))
def test_written_and_documented_values_read_back(text):
    # str(Fraction), as every file this package writes holds, and README's examples.
    f = ss.parse_function_file(GOLDEN, f"depth 1\n1 {text}\n2 0\n")
    assert f.values[(1,)] == Fraction(text)


GOLDEN_REPORT = ss.render_report(ss.analyze(GOLDEN, 3))
LONG = "1" * 4301  # one digit past int()'s default limit


def _refused(call, *args) -> str:
    with pytest.raises(MalformedInput) as refusal:
        call(*args)
    return str(refusal.value)


def _report_with(text, *path) -> str:
    """The refusal of analyze(golden, 3)'s report with the certificate field at `path` set to `text`."""
    doc = json.loads(GOLDEN_REPORT)
    *keys, last = path
    field = doc["certificates"]
    for key in keys:
        field = field[key]
    field[last] = text
    return _refused(ss.verify_report, json.dumps(doc))


def _witness_minimal(text, tmp_path) -> str:
    matrix = tmp_path / "golden.mat"
    matrix.write_text(ss.format_matrix(GOLDEN))
    with redirect_stderr(io.StringIO()) as err:
        assert main(["witness", "minimal", str(matrix), text, "1"]) == 2
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
    return err.getvalue()[len("error: ") :].rstrip("\n")


_ENTRIES = {
    "word_from_string": lambda text, _: _refused(ss.word_from_string, text),
    "function literal": lambda text, _: _refused(ss.parse_function_file, GOLDEN, f"depth 1\n{text} 1\n2 1\n"),
    "domain word": lambda text, _: _refused(ss.parse_weight_file, GOLDEN, f"depth 1\n1 1\n2 1\ndomain 1\n{text}\n"),
    "witness minimal": _witness_minimal,
    "report member": lambda text, _: _report_with(text, "invariant_set", "member"),
    "report prefix": lambda text, _: _report_with(text, "minimality", 3, "prefix"),
    "report tail": lambda text, _: _report_with(text, "freeness", 2, "entries", 0, "tail"),
    "matrix size": lambda text, _: _refused(ss.parse_matrix, f"{text}\n1 1\n1 0\n"),
    "function depth": lambda text, _: _refused(ss.parse_function_file, GOLDEN, f"depth {text}\n1 1\n2 1\n"),
    "weight domain": lambda text, _: _refused(ss.parse_weight_file, GOLDEN, f"depth 1\n1 1\n2 1\ndomain {text}\n1\n"),
    "function value": lambda text, _: _refused(ss.parse_function_file, GOLDEN, f"depth 1\n1 {text}\n2 1\n"),
    "constructor value": lambda text, _: _refused(ss.CylinderFunction, GOLDEN, 1, {"1": text, "2": "1"}),
}


_REFUSALS = [
    ("word_from_string", "١٢", "cannot parse word literal '١٢'"),
    ("word_from_string", "+1.", "cannot parse word literal '+1.'"),
    ("word_from_string", "1_0.", "cannot parse word literal '1_0.'"),
    ("word_from_string", "0_1.+2", "cannot parse word literal '0_1.+2'"),
    ("word_from_string", f"1.{LONG}", f"cannot parse word literal '1.{LONG}'"),
    ("function literal", "١", "cannot parse word literal '١'"),
    ("function literal", "+1.", "cannot parse word literal '+1.'"),
    ("domain word", "+2.", "cannot parse word literal '+2.'"),
    ("witness minimal", "+2.", "cannot parse word literal '+2.'"),
    ("report member", "L:١٢ C:+1.+2 R:1.2 O:0", "certificates.invariant_set: cannot parse word literal '١٢'"),
    ("report prefix", "+1.+1.+2", "certificates.minimality[3]: cannot parse word literal '+1.+1.+2'"),
    (
        "report tail",
        " 01. 02. 01",
        "certificates.freeness[2] (i=1, j=2).entries[0] [11]: cannot parse word literal '01. 02. 01'",
    ),
    (
        "report member",
        f"L:12 C: R:12 O:{LONG}",
        f"certificates.invariant_set: sequence literal 'L:12 C: R:12 O:{LONG}' is not 'L:<word> C:<word> R:<word> O:<int>'",
    ),
    ("matrix size", "٢", "first line must be the matrix size, got '٢'"),
    ("matrix size", LONG, f"first line must be the matrix size, got '{LONG}'"),
    ("function depth", "١", "bad header 'depth ١', expected 'depth <k>'"),
    ("function depth", LONG, f"bad header 'depth {LONG}', expected 'depth <k>'"),
    ("weight domain", "١", "bad domain header 'domain ١'"),
    ("function value", "1_000", "cannot parse rational '1_000'"),
    ("function value", "١/٢", "cannot parse rational '١/٢'"),
    ("function value", "1e3", "cannot parse rational '1e3'"),
    ("function value", LONG, f"cannot parse rational '{LONG}'"),
    ("constructor value", " 1", "cannot parse rational ' 1'"),
]


@pytest.mark.parametrize(
    "entry, text, message", _REFUSALS, ids=[f"{e}-{t if len(t) < 30 else 'long'}" for e, t, _ in _REFUSALS]
)
def test_numbers_outside_their_grammar_are_refused(entry, text, message, tmp_path):
    assert _ENTRIES[entry](text, tmp_path) == message


_CLI_VERBS = [
    ["words", "{m}", "{k}"],
    ["analyze", "{m}", "--depth", "{k}"],
    ["witness", "invariant", "{m}"],
    ["witness", "minimal", "{m}", "{x}", "{y}"],
    ["witness", "freeness", "{m}", "{i}", "{k}"],
    ["transfer", "apply", "{m}", "{w}", "{f}"],
    ["transfer", "recover", "{m}", "{w}"],
    ["transfer", "equiv", "{m}", "{w}", "{v}"],
    ["verify", "{r}"],
]
# Valid reports over a conclusive, a cycle and a not-transitive matrix, at depth budgets 2 to 4.
_REPORTS = [
    ss.render_report(ss.analyze(ss.AdjacencyMatrix.from_rows(rows), depth))
    for rows in ([[1, 1], [1, 0]], [[1, 1, 1]] * 3, [[0, 1], [1, 0]], [[1, 0], [0, 1]])
    for depth in (2, 3, 4)
]
_JSON_VALUES = st.sampled_from([0, 1, 2, -1, 10**30, 1.5, True, False, None, "", "1", "12", "121", "3", "x", [], {}])


def _places(value):
    """Every (container, key) of the document `value`: each dict key and list index, at any depth."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield value, key
        yield from _places(item)


@st.composite
def _report_files(draw):
    """A valid report with one edit: a leaf changed, a key deleted or repeated, or the text cut short."""
    text = draw(st.sampled_from(_REPORTS))
    action = draw(st.sampled_from(["leaf", "delete", "repeat", "truncate"]))
    if action == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    if action == "leaf":
        places = [(c, key) for c, key in _places(doc) if not isinstance(c[key], (dict, list))]
    else:
        places = [(c, key) for c, key in _places(doc) if isinstance(c, dict)]
    container, key = places[draw(st.integers(0, len(places) - 1))]
    if action == "delete":
        del container[key]
    elif action == "leaf":
        container[key] = draw(_JSON_VALUES)
    else:  # the key written twice, the second time with another value, which json.loads keeps
        container["\0"] = None
        repeated = f"{json.dumps(key)}: {json.dumps(draw(_JSON_VALUES))}"
        return json.dumps(doc, indent=2).replace('"\\u0000": null', repeated)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def _cli_runs(draw):
    """A verb's argv and the files it names, drawn as above over one matrix.

    A report is a valid one with one edit (``_report_files``).  One random
    edit more may put a byte that is not UTF-8 into one of the files.
    """
    argv = draw(st.sampled_from(_CLI_VERBS))
    A, weight = draw(_weight_files())
    texts = {
        "m": draw(st.one_of(st.just(ss.format_matrix(A)), _matrix_files())),
        "w": weight,
        "v": draw(_weight_files().filter(lambda case: case[0] is A))[1],
        "f": draw(_function_files().filter(lambda case: case[0] is A))[1],
    }
    if "{r}" in argv:
        texts["r"] = draw(_report_files())
    files = {name: text.encode() for name, text in texts.items() if f"{{{name}}}" in argv}
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(files)))
        at = draw(st.integers(0, len(files[name])))
        byte = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]))
        files[name] = files[name][:at] + byte + files[name][at:]
    args = {"x": draw(_EDITS), "y": draw(_EDITS), "i": draw(st.integers(0, 3)), "k": draw(st.integers(0, 4))}
    return [a.format(**{name: name for name in files}, **args) for a in argv], files


@settings(max_examples=200, deadline=None)
@given(_cli_runs())
@example((["words", "m", "2"], {"m": b"\xff\xfe\n"}))
def test_every_verb_exits_0_or_2(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            status = main([str(Path(tmp, a)) if a in files else a for a in argv])
    assert status in (0, 2) and "Traceback" not in err.getvalue()
