import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subshift as ss
from subshift.errors import (
    DepthZero,
    InadmissibleWord,
    MalformedInput,
    SymbolOutOfRange,
)
from support import brute_force_words, matrix_power_word_count, random_matrix


def words_equal(ws, strings):
    return [ss.word_to_string(w) for w in ws] == strings


def test_word_string_round_trip():
    assert ss.word_from_string("121") == (1, 2, 1)
    assert ss.word_from_string("") == ()
    assert ss.word_from_string("10.2.1") == (10, 2, 1)
    assert ss.word_to_string((1, 2, 1)) == "121"
    assert ss.word_to_string((10, 2)) == "10.2"
    with pytest.raises(MalformedInput):
        ss.word_from_string("1a1")


def test_is_admissible_examples(golden):
    assert ss.is_admissible(golden, "121")
    assert not ss.is_admissible(golden, "22")
    assert ss.is_admissible(golden, "")
    assert ss.is_admissible(golden, "2")
    with pytest.raises(SymbolOutOfRange):
        ss.is_admissible(golden, (1, 3))


def test_enumerate_words_examples(golden):
    assert words_equal(ss.enumerate_words(golden, 2), ["11", "12", "21"])
    assert words_equal(
        ss.enumerate_words(golden, 3), ["111", "112", "121", "211", "212"]
    )
    one = ss.AdjacencyMatrix.from_rows([[1]])
    assert words_equal(ss.enumerate_words(one, 4), ["1111"])
    with pytest.raises(DepthZero):
        ss.enumerate_words(golden, 0)


def test_enumerate_words_long_words_do_not_recurse(swap2):
    assert ss.enumerate_words(swap2, 2000) == [(1, 2) * 1000, (2, 1) * 1000]


def test_enumerate_words_is_sorted_and_admissible(golden, full2):
    for A in (golden, full2):
        for k in range(1, 5):
            ws = ss.enumerate_words(A, k)
            assert ws == sorted(ws)
            assert all(ss.is_admissible(A, w) for w in ws)


def test_enumerate_words_against_brute_force_and_matrix_power():
    rng = random.Random(7)
    samples = [
        ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]]),
        ss.AdjacencyMatrix.from_rows([[1, 1], [1, 1]]),
        ss.AdjacencyMatrix.from_rows([[0, 1], [1, 0]]),
    ] + [random_matrix(rng, nmax=4) for _ in range(10)]
    for A in samples:
        for k in range(1, 7):
            ws = ss.enumerate_words(A, k)
            assert ws == brute_force_words(A, k)
            assert len(ws) == matrix_power_word_count(A, k)


def test_periodic_points_examples(golden, swap2):
    assert words_equal(ss.periodic_points(golden, 1), ["1"])
    assert words_equal(ss.periodic_points(golden, 2), ["11", "12", "21"])
    assert ss.periodic_points(swap2, 1) == []


def test_periodic_points_make_valid_sequences(golden, full2):
    for A in (golden, full2):
        for p in range(1, 5):
            for w in ss.periodic_points(A, p):
                s = ss.EventuallyPeriodicSeq(A, w, (), w)
                assert s.window(0, 2 * p) == w + w


def test_sequence_rejects_bad_junctions(golden):
    with pytest.raises(InadmissibleWord):
        ss.EventuallyPeriodicSeq(golden, (2,), (), (2,))  # no 2 -> 2 edge
    with pytest.raises(InadmissibleWord):
        ss.EventuallyPeriodicSeq(golden, (1,), (2, 2), (1,))  # core breaks
    with pytest.raises(MalformedInput):
        ss.EventuallyPeriodicSeq(golden, (), (1,), (1,))  # empty period


def test_indexing_and_shift(golden):
    s = ss.periodic_seq(golden, "12")  # ... 1 2 [1] 2 1 2 ...
    assert [s[i] for i in range(-2, 4)] == [1, 2, 1, 2, 1, 2]
    assert s.shift(1)[0] == 2
    assert s.shift(0) == s
    assert s.shift(3).shift(-3) == s


def test_equality_is_coordinatewise(golden):
    compact = ss.periodic_seq(golden, "12")
    doubled = ss.periodic_seq(golden, "1212")
    with_core = ss.EventuallyPeriodicSeq(golden, (1, 2), (1, 2), (1, 2))
    assert compact == doubled
    assert compact == with_core
    assert compact.shift(2) == compact  # period two
    assert compact.shift(1) != compact
    assert compact != ss.periodic_seq(golden, "1")


def test_contains_word_examples(golden):
    s12 = ss.periodic_seq(golden, "12")
    assert ss.contains_word(s12, "121")
    ones = ss.periodic_seq(golden, "1")
    assert not ss.contains_word(ones, "121")
    junction = ss.EventuallyPeriodicSeq(golden, (1,), (2,), (1,))
    assert ss.contains_word(junction, "12")
    assert ss.contains_word(junction, "21")
    assert not ss.contains_word(junction, "212")
    with pytest.raises(MalformedInput):
        ss.contains_word(s12, "")


def test_contains_word_shift_invariant():
    rng = random.Random(11)
    for _ in range(25):
        A = random_matrix(rng, nmax=3)
        for p in range(1, 4):
            points = ss.periodic_points(A, p)
            if not points:
                continue
            s = ss.periodic_seq(A, rng.choice(points))
            r = rng.choice(ss.enumerate_words(A, rng.randint(1, 3)))
            base = ss.contains_word(s, r)
            for t in range(-5, 6):
                assert ss.contains_word(ss.shift(s, t), r) == base


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(-5, 5), st.data())
def test_shift_reads_like_offset(period_len, t, data):
    A = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 1]])
    word = tuple(data.draw(st.integers(1, 2)) for _ in range(period_len))
    s = ss.periodic_seq(A, word)
    shifted = ss.shift(s, t)
    assert all(shifted[i] == s[i + t] for i in range(-6, 7))


def test_literal_round_trip(golden):
    s = ss.EventuallyPeriodicSeq(golden, (1, 2), (1, 1), (2, 1), -3)
    assert s.to_literal() == "L:12 C:11 R:21 O:-3"
    assert ss.EventuallyPeriodicSeq.from_literal(golden, s.to_literal()) == s
    pure = ss.periodic_seq(golden, "12")
    assert pure.to_literal() == "L:12 C: R:12 O:0"
    assert ss.EventuallyPeriodicSeq.from_literal(golden, "L:12 C: R:12 O:0") == pure


@pytest.mark.parametrize("bad", ["L:12 C: R:12", "L:12 C: R:12 O:x", "nonsense"])
def test_literal_malformed(golden, bad):
    with pytest.raises(MalformedInput):
        ss.EventuallyPeriodicSeq.from_literal(golden, bad)


def test_one_sided_seq_reads_prefix_then_tail(golden):
    s = ss.one_sided_seq(golden, "211", "21")
    assert s.window(0, 7) == (2, 1, 1, 2, 1, 2, 1)
    with pytest.raises(InadmissibleWord):
        ss.one_sided_seq(golden, "22", "1")
