"""Every text input either parses or raises SubshiftError.

Inputs are free text, or valid files with a few edits: a token replaced
by one that once leaked another exception (superscript digits, which
str.isdigit() accepts and int() rejects, or a zero denominator), a line
dropped or a line repeated.  The files that leaked are pinned as explicit
examples.  Numbers an edit can write are at most 8, so header depths stay
at most 8 and every example runs in milliseconds; that cap bounds the
runtime of this test, it does not mean deeper headers are cheap.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import subshift as ss

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
