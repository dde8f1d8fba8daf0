import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subshift as ss
from subshift.errors import MalformedInput, NoPath, SymbolOutOfRange, ZeroRow
from subshift.graph import first_return_word, shortest_cycle_avoiding
from support import (
    brute_force_shortest_cycle_avoiding,
    brute_force_transitive,
    near_cycle,
    no_zero_row_matrices,
    random_matrix,
)


@st.composite
def matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    masks = [draw(st.integers(1, 2**n - 1)) for _ in range(n)]
    return ss.AdjacencyMatrix.from_rows(
        [[(m >> c) & 1 for c in range(n)] for m in masks]
    )


def test_parse_matrix_basic():
    A = ss.parse_matrix("2\n1 1\n1 0")
    assert A.n == 2
    assert A.rows == ((1, 1), (1, 0))


def test_parse_matrix_zero_row():
    with pytest.raises(ZeroRow):
        ss.parse_matrix("2\n1 1\n0 0")


def test_parse_matrix_single():
    assert ss.parse_matrix("1\n1").rows == ((1,),)


def test_parse_matrix_tolerates_one_trailing_newline():
    assert ss.parse_matrix("2\n1 1\n1 0\n").rows == ((1, 1), (1, 0))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n1 1",  # missing row
        "2\n1 1\n1 0\n1 1",  # extra row
        "2\n1 1 1\n1 0",  # ragged
        "2\n1 2\n1 0",  # non-bit
        "x\n1",  # bad header
        "0",  # empty alphabet
        "2\n1 1\n1 0\n\n",  # extra blank line
    ],
)
def test_parse_matrix_malformed(text):
    with pytest.raises(MalformedInput):
        ss.parse_matrix(text)


def test_format_matrix_round_trip(golden):
    assert ss.parse_matrix(ss.format_matrix(golden)) == golden


def test_is_transitive_examples(golden, split2):
    assert brute_force_transitive(golden)  # oracle agrees
    assert ss.is_transitive(golden)
    assert not ss.is_transitive(split2)
    assert ss.is_transitive(ss.AdjacencyMatrix.from_rows([[1]]))


@settings(max_examples=40, deadline=None)
@given(matrices(max_n=4))
def test_is_transitive_matches_brute_force(A):
    assert ss.is_transitive(A) == brute_force_transitive(A)


@settings(max_examples=40, deadline=None)
@given(matrices(max_n=4))
def test_neighbour_tuples_match_the_rows(A):
    for s in A.symbols:
        assert A.successors(s) == tuple(t for t in A.symbols if A.entry(s, t))
        assert A.predecessors(s) == tuple(t for t in A.symbols if A.entry(t, s))
        assert A._extensions[s] == tuple((t,) for t in A.successors(s))  # what extend_words appends
    for bad in (0, A.n + 1):
        with pytest.raises(SymbolOutOfRange):
            A.successors(bad)
        with pytest.raises(SymbolOutOfRange):
            A.predecessors(bad)


def test_is_cycle_examples(golden, swap2):
    assert ss.is_cycle(swap2)
    assert not ss.is_cycle(golden)
    assert ss.is_cycle(ss.AdjacencyMatrix.from_rows([[1]]))


def test_cycle_and_transitive_implies_permutation():
    # Matrices failing is_cycle contribute vacuously, so enumerating all
    # one-1-per-row matrices with n <= 4 covers the whole claim.
    for n in range(1, 5):
        import itertools

        for targets in itertools.product(range(n), repeat=n):
            rows = [[1 if c == t else 0 for c in range(n)] for t in targets]
            A = ss.AdjacencyMatrix.from_rows(rows)
            assert ss.is_cycle(A)
            if ss.is_transitive(A):
                for c in range(n):
                    assert sum(row[c] for row in A.rows) == 1


def test_find_path_examples(golden, split2):
    assert ss.find_path(golden, 2, 2) == (2, 1, 2)
    # a path always travels at least one edge, so i = j rides the self-loop
    assert ss.find_path(golden, 1, 1) == (1, 1)
    with pytest.raises(NoPath):
        ss.find_path(split2, 1, 2)


def test_first_return_word_examples(golden, split2):
    # The smallest cycle that leaves the symbol: golden's self-loop at 1 does not count.
    assert first_return_word(golden, 1) == (1, 2)
    assert first_return_word(golden, 2) == (2, 1)
    staircase = ss.AdjacencyMatrix.from_rows([[1, 1], [0, 1]])
    for A in (staircase, split2):
        with pytest.raises(NoPath, match="no return cycle through 1 that leaves it"):
            first_return_word(A, 1)


def test_find_path_checks_symbols_before_reading_its_answer(golden, split2):
    assert ss.find_path(golden, 1, 2) == (1, 2)
    for i in (1.0, 0, 3, "1"):
        with pytest.raises(SymbolOutOfRange):
            ss.find_path(golden, i, 2)
    assert type(ss.find_path(golden, True, 2)[0]) is int
    # A pair with no path raises NoPath on every call, not only the first.
    for _ in range(3):
        with pytest.raises(NoPath):
            ss.find_path(split2, 1, 2)


def test_each_matrix_answers_each_question_once(golden, split2, monkeypatch):
    answers = [(A, ss.is_transitive(A), ss.find_path(A, 2, 2)) for A in (golden, split2)]

    def search_again(*args):
        raise AssertionError("a question this matrix answered was searched again")

    monkeypatch.setattr(ss.graph, "_distances", search_again)
    for A, transitive, path in answers:
        assert ss.is_transitive(A) is transitive and ss.find_path(A, 2, 2) == path
    # The answers belong to the matrix object: an equal matrix searches afresh.
    with pytest.raises(AssertionError, match="searched again"):
        ss.is_transitive(ss.AdjacencyMatrix(golden.rows))


def test_walks_to_a_target_are_find_paths_walks():
    # One backward search per target gives every source's walk, shared suffixes
    # and all, exactly as find_path's search per pair does; a source that cannot
    # reach the target has no walk, where find_path raises NoPath.
    rng, transitive = random.Random(25), 0
    matrices = [near_cycle(12), ss.AdjacencyMatrix.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]])]
    while transitive < 300:
        matrices.append(random_matrix(rng, nmax=9, nmin=2))
        transitive += ss.is_transitive(matrices[-1])
    for A in matrices:
        for b in A.symbols:
            walks = ss.graph._walks_to(A, b)
            for a in A.symbols:
                try:
                    walk = ss.find_path(A, a, b)
                except NoPath:
                    walk = None
                assert walks.pop(a, None) == walk
            assert not walks


def test_find_path_lexicographic_tie_break():
    A = ss.AdjacencyMatrix.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    # both 121 and 131 are shortest returns; the smaller word wins
    assert ss.find_path(A, 1, 1) == (1, 2, 1)


def test_find_path_is_admissible_and_shortest(golden, full2):
    for A in (golden, full2):
        for i in A.symbols:
            for j in A.symbols:
                w = ss.find_path(A, i, j)
                assert ss.is_admissible(A, w)
                assert w[0] == i and w[-1] == j and len(w) >= 2


@settings(max_examples=40, deadline=None)
@given(matrices(max_n=4))
def test_transitive_iff_all_pairs_path(A):
    def path_exists(i, j):
        try:
            ss.find_path(A, i, j)
            return True
        except NoPath:
            return False

    all_pairs = all(path_exists(i, j) for i in A.symbols for j in A.symbols)
    assert ss.is_transitive(A) == all_pairs


def test_preimage_symbols_examples(golden):
    assert ss.preimage_symbols(golden, 1) == {1, 2}
    assert ss.preimage_symbols(golden, 2) == {1}
    one = ss.AdjacencyMatrix.from_rows([[1]])
    assert ss.preimage_symbols(one, 1) == {1}


@settings(max_examples=40, deadline=None)
@given(matrices(max_n=4))
def test_preimage_symbols_are_the_length_two_paths(A):
    for s in A.symbols:
        direct = set()
        for a in A.symbols:
            try:
                if ss.find_path(A, a, s) == (a, s):
                    direct.add(a)
            except NoPath:
                pass
        assert ss.preimage_symbols(A, s) == direct


def test_symbol_range_checks(golden):
    with pytest.raises(SymbolOutOfRange):
        golden.entry(0, 1)
    with pytest.raises(SymbolOutOfRange):
        ss.preimage_symbols(golden, 3)
    with pytest.raises(SymbolOutOfRange):
        ss.find_path(golden, 1, 5)


def test_admits_checks_symbols_only_when_the_edges_cannot_vouch(golden, monkeypatch):
    checked = []
    original = ss.AdjacencyMatrix.check_symbol
    monkeypatch.setattr(ss.AdjacencyMatrix, "check_symbol", lambda A, s: checked.append(s) or original(A, s))
    assert golden.admits((1, 2, 1)) and checked == []
    # True and 1.0 hash as the symbol 1, so the edge set holds their pairs;
    # only the symbol check tells a bool or a float from an int.
    assert golden.admits((1, True)) and checked == [1, True]
    with pytest.raises(SymbolOutOfRange):
        golden.admits((1.0, 2))
    assert checked == [1, True, 1.0]


def test_matrix_rejects_bad_rows():
    with pytest.raises(MalformedInput):
        ss.AdjacencyMatrix.from_rows([[1, 1], [1]])
    with pytest.raises(MalformedInput):
        ss.AdjacencyMatrix.from_rows([[1, 2], [1, 0]])
    with pytest.raises(ZeroRow):
        ss.AdjacencyMatrix.from_rows([[1, 1], [0, 0]])
    with pytest.raises(MalformedInput, match="size at least 1"):
        ss.AdjacencyMatrix.from_rows([])


@pytest.mark.parametrize(
    "rows", [[[0.5, 1], [1, 0]], [[1.0, 1], [1, 0]], [[True, 1], [1, 0]], ["11", "10"], [[1, "1"], [1, 0]]]
)
def test_matrix_entries_are_the_integers_0_and_1(rows):
    # int() would truncate 0.5 to 0 and read "1" as 1; nothing is converted.
    with pytest.raises(MalformedInput, match="row 1 contains a non-bit entry"):
        ss.AdjacencyMatrix.from_rows(rows)


def test_shortest_cycle_avoiding_exhaustive_n3():
    for n in (1, 2, 3):
        for A in no_zero_row_matrices(n):
            for banned in range(0, n + 2):
                expected = brute_force_shortest_cycle_avoiding(A, banned)
                assert shortest_cycle_avoiding(A, banned) == expected, (A.rows, banned)
