import contextlib
import io
import random
import time
from itertools import islice
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subshift as ss
from subshift.errors import (
    DepthZero,
    InadmissibleWord,
    MalformedInput,
    SymbolOutOfRange,
    WorkLimitExceeded,
)
from subshift.cli import main
from subshift.sequences import (
    count_past,
    extend_words,
    require_work_limit,
    spelled_words,
    word_count,
    word_counts,
)
from support import (
    brute_force_admissible,
    brute_force_words,
    matrix_power_word_count,
    random_matrix,
)


def words_equal(ws, strings):
    return [ss.word_to_string(w) for w in ws] == strings


def test_word_string_round_trip():
    assert ss.word_from_string("121") == (1, 2, 1)
    assert ss.word_from_string("") == ()
    assert ss.word_from_string("10.2.1") == (10, 2, 1)
    assert ss.word_to_string((1, 2, 1)) == "121"
    assert ss.word_to_string((10, 2)) == "10.2"
    assert ss.word_to_string((12,)) == "12." and ss.word_from_string("12.") == (12,)
    assert ss.word_from_string("12") == (1, 2)  # a literal without dots: one digit per symbol
    assert ss.word_to_string((1, 10)) == "1.10" and ss.word_to_string(()) == ""
    assert ss.word_from_string("1.2") == (1, 2) and ss.word_from_string("1.") == (1,)  # respellings
    for malformed in ["1a1", "1.2.", ".", "..", ".1", "1..2", "12..", "1.2..3"]:
        with pytest.raises(MalformedInput, match="cannot parse word literal"):
            ss.word_from_string(malformed)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 30), max_size=8).map(tuple))
@example((10,))
@example((12,))
@example((1, 2))
def test_word_literals_round_trip_over_any_alphabet(w):
    text = ss.word_to_string(w)
    assert ss.word_from_string(text) == w
    if all(s <= 9 for s in w):
        assert text == "".join(map(str, w))  # alphabets up to 9 keep their bytes
    # The documented respellings: dotted numerals (1.2 for 12, 1. for 1), leading zeros, surrounding space.
    for numerals in (map(str, w), (f"0{s}" for s in w)):
        dotted = ".".join(numerals) + ("." if len(w) == 1 else "")
        assert ss.word_from_string(dotted) == w
    assert ss.word_from_string(f" {text}\t\n") == w


def test_a_bool_symbol_is_written_as_its_integer(golden):
    assert ss.word_from_string(ss.word_to_string((True, 2))) == (1, 2)
    data = ss.minimality_witness(golden, (True,), (2,)).to_dict()
    assert data["from"] == "1." and data["prefix"] == "1.2"
    ss.MinimalityWitness.from_dict(golden, data).verify()


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


def test_spelled_words_key_the_listed_words(monkeypatch):
    # Alphabets on both sides of 9: digits built by prefix, and word_to_string past 9.
    rng = random.Random(31)
    sides = set()
    for _ in range(200):
        A = random_matrix(rng, nmax=12)
        k = rng.randint(1, 6)
        while k > 1 and word_count(A, k) > 2_000:
            k -= 1
        monkeypatch.setattr(ss.sequences, "MAX_FREENESS_ENTRIES", rng.randint(1, 4_000))
        try:
            words = ss.enumerate_words(A, k)
        except WorkLimitExceeded:
            with pytest.raises(WorkLimitExceeded):
                spelled_words(A, k)
            continue
        assert list(spelled_words(A, k).items()) == [(ss.word_to_string(w), w) for w in words]
        sides.add(A.n > 9)
    assert sides == {False, True}
    for A in (random_matrix(rng, nmax=3), random_matrix(rng, nmin=10, nmax=12)):
        for k in (0, -1):
            with pytest.raises(DepthZero):
                spelled_words(A, k)


def test_enumerate_words_long_words_do_not_recurse(swap2, monkeypatch):
    # Listing both length-2000 words builds 2 * (1 + 2 + ... + 2000) = 4,002,000 symbols.
    started = time.perf_counter()
    with pytest.raises(WorkLimitExceeded):
        ss.enumerate_words(swap2, 2000)
    assert time.perf_counter() - started < 1
    monkeypatch.setattr(ss.sequences, "MAX_FREENESS_ENTRIES", 4_002_000)
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
            assert len(ws) == matrix_power_word_count(A, k) == word_count(A, k)
        assert word_count(A, 40) == matrix_power_word_count(A, 40)


def test_counts_stop_once_they_stop_growing(swap2):
    # N_l = 2 at every length: the count stops at length 2, not at 10**6.
    for count, expected in (
        (lambda: count_past(swap2, 10**6, 2), (10**6, 2)),
        (lambda: word_count(swap2, 10**6), 2),
        (lambda: len(ss.CylinderFunction.zero(swap2, 10**6).values), 2),
    ):
        started = time.perf_counter()
        assert count() == expected
        assert time.perf_counter() - started < 0.1


def test_count_past_agrees_with_the_full_count():
    rng = random.Random(17)
    for _ in range(3000):
        A = random_matrix(rng, nmax=4)
        k, size = rng.randint(1, 12), rng.randint(0, 60)
        counts = list(islice(word_counts(A), k))
        length = next((l for l, c in enumerate(counts, 1) if c > size), k)
        assert count_past(A, k, size) == (length, counts[length - 1])
    with pytest.raises(DepthZero, match="word length must be at least 1"):
        count_past(A, 0, 1)


def test_work_limit_refuses_exactly_past_the_symbols_built(monkeypatch):
    # Small limits make both ways of deciding run: the bound that needs no
    # counting, and the count from `word_counts`.
    rng = random.Random(13)
    for _ in range(300):
        A = random_matrix(rng, nmax=3)
        k = rng.randint(1, 3)
        singles = [(s,) for s in A.symbols]  # extend_words lists under any limit the last pass patched
        level = extend_words(A, singles, k - 1)
        words = None if rng.random() < 0.3 else rng.sample(level, min(len(level), rng.randint(0, 2)))
        start, length = (singles, 1) if words is None else (words, k)
        depth = length + rng.randint(0, 5)
        built = [extend_words(A, start, j) for j in range(depth - length + 1)]
        assert [len(ws) for ws in built] == list(islice(word_counts(A, words), len(built)))
        total = sum((length + j) * len(ws) for j, ws in enumerate(built))
        limit = rng.randint(1, 400)
        monkeypatch.setattr(ss.sequences, "MAX_FREENESS_ENTRIES", limit)
        if total > limit:
            with pytest.raises(WorkLimitExceeded):
                require_work_limit(A, depth, words)
        else:
            require_work_limit(A, depth, words)


def _words_verb(A, k, tmp_path):
    path = tmp_path / "A.mat"
    path.write_text(f"{A.n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in A.rows))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        if main(["words", str(path), str(k)]) == 2:
            raise WorkLimitExceeded(err.getvalue())


_FULL_LISTINGS = {
    "enumerate_words": lambda A, k, _: ss.enumerate_words(A, k),
    "spelled_words": lambda A, k, _: spelled_words(A, k),
    "words verb": _words_verb,
    "values view": lambda A, k, _: list(ss.CylinderFunction.zero(A, k).values),
    "tabulate": lambda A, k, _: ss.CylinderFunction.tabulate(A, k, lambda w: 1),
    "constant": lambda A, k, _: ss.CylinderFunction.constant(A, 1, k),
    "full mask": lambda A, k, _: ss.DomainMask.full(A, k),
    "function file": lambda A, k, _: ss.format_function_file(ss.CylinderFunction.zero(A, k)),
    "freeness table": lambda A, k, _: ss.freeness_certificate(A, 0, k),
    "periodic points": lambda A, k, _: ss.periodic_points(A, k),
    "zero set": lambda A, k, _: ss.zero_set(ss.Weight.full(ss.CylinderFunction.zero(A, k))),
}


@pytest.mark.parametrize("listing", _FULL_LISTINGS.values(), ids=_FULL_LISTINGS)
@pytest.mark.parametrize("limit", [30, 100])
def test_full_listings_read_the_one_limit(golden, full2, listing, limit, monkeypatch, tmp_path):
    # Sums of j * N_j for lengths 1..6: golden 2, 8, 23, 55, 120, 246; full2 2, 10, 34, 98, 258, 642.
    monkeypatch.setattr(ss.sequences, "MAX_FREENESS_ENTRIES", limit)
    for A in (golden, full2):
        for k in range(1, 7):
            try:
                require_work_limit(A, k)
            except WorkLimitExceeded:
                with pytest.raises(WorkLimitExceeded, match=f"over {limit} entries .*MAX_FREENESS_ENTRIES"):
                    listing(A, k, tmp_path)
            else:
                listing(A, k, tmp_path)


def test_analyze_counts_spot_witnesses_against_the_one_limit(golden, monkeypatch):
    # Golden has 2 + 3 words of lengths 1 and 2, so 25 spot witnesses; its
    # depth-2 freeness tables hold 2 + 2 * 3 = 8 entries, under either limit.
    monkeypatch.setattr(ss.sequences, "MAX_FREENESS_ENTRIES", 24)
    with pytest.raises(WorkLimitExceeded, match="minimality would need over 24 spot witnesses"):
        ss.analyze(golden, 2)
    monkeypatch.setattr(ss.sequences, "MAX_FREENESS_ENTRIES", 25)
    assert len(ss.analyze(golden, 2).minimality) == 25


def test_periodic_points_examples(golden, swap2):
    assert words_equal(ss.periodic_points(golden, 1), ["1"])
    assert words_equal(ss.periodic_points(golden, 2), ["11", "12", "21"])
    assert ss.periodic_points(swap2, 1) == []
    with pytest.raises(DepthZero, match="period must be at least 1"):
        ss.periodic_points(golden, 0)


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


def _scan_contains(s, word):
    # Every start in the window contains_word reads, compared symbol by symbol.
    m = len(word)
    pad = m + max(len(s.left_period), len(s.right_period))
    starts = range(-pad, len(s.core) + pad + 1)
    return any(all(s.at_abs(p + t) == word[t] for t in range(m)) for p in starts)


_FULL12 = ss.AdjacencyMatrix.from_rows([[1] * 12] * 12)
# Symbols whose numerals run together without delimiters: 1 2 reads 12, 1 1 2 reads 11 2.
_SYMBOLS = st.sampled_from([1, 2, 11, 12])
_SYMBOL_WORDS = st.lists(_SYMBOLS, min_size=1, max_size=5).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_SYMBOL_WORDS, st.lists(_SYMBOLS, max_size=6).map(tuple), _SYMBOL_WORDS, st.data())
def test_contains_word_agrees_with_a_scan(left, core, right, data):
    s = ss.EventuallyPeriodicSeq(_FULL12, left, core, right, data.draw(st.integers(-8, 8)))
    symbols = st.sampled_from([1, 2, 11, 12, 13])  # 13 is outside the alphabet
    if data.draw(st.booleans()):  # a block of the point, then perhaps one symbol changed
        start, m = data.draw(st.integers(-12, 12)), data.draw(st.integers(1, 12))
        r = list(s.window(start, m))
        if data.draw(st.booleans()):
            r[data.draw(st.integers(0, m - 1))] = data.draw(symbols)
    else:
        r = data.draw(st.lists(symbols, min_size=1, max_size=12))
    assert ss.contains_word(s, r) == _scan_contains(s, tuple(r))


@pytest.mark.parametrize("repeats, seconds", [(2000, 0.1), (100_000, 1)])
def test_contains_word_reads_a_long_near_match_once(golden, repeats, seconds):
    # The word follows the point ...1212... for all but its last symbol.
    word = (1, 2) * repeats + (1, 1)
    started = time.perf_counter()
    assert not ss.contains_word(ss.periodic_seq(golden, "12"), word)
    assert ss.contains_word(ss.periodic_seq(golden, "12"), word[:-1])
    assert time.perf_counter() - started < seconds


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
    assert ss.EventuallyPeriodicSeq.from_literal(golden, "L:1.2 C:1. R:2.1 O:-0") == pure


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data())
def test_literals_read_back_what_they_write(n, data):
    # Past 9 symbols the words are dotted numerals; every field is read back as written.
    A = ss.AdjacencyMatrix.from_rows([[1] * n] * n)
    words = st.lists(st.integers(1, n), max_size=5).map(tuple)
    left, core, right = data.draw(words.filter(bool)), data.draw(words), data.draw(words.filter(bool))
    s = ss.EventuallyPeriodicSeq(A, left, core, right, data.draw(st.integers(-(10**30), 10**30)))
    read = ss.EventuallyPeriodicSeq.from_literal(A, s.to_literal())
    assert (read.left_period, read.core, read.right_period, read.origin) == (left, core, right, s.origin)


_MALFORMED_LITERALS = [
    "nonsense",
    "L:12 C: R:12",
    "L:12 C: R:12 O:x",
    "L:1x C: R:12 O:0",
    "L:12 X:junk C: R:12 O:0",  # an unknown field
    "C: R:12 O:0 L:12",  # the fields out of order
    "L:99 L:12 C: R:12 O:7 O:0",  # a field twice
    "L:12 C: R:12 O:1_0",  # int() reads digit separators
    "L:12\tC: R:12\nO:0",  # other whitespace
    "L:12 C: R:12 O:\u0663",  # int() reads non-ASCII digits
    " L:12 C: R:12 O:0",
    "L:12 C: R:12  O:0",
    "L:12 C: R:12 O:+0",
    pytest.param("L:12 C: R:12 O:" + "1" * 5000, id="origin past int()'s digit limit"),
]


@pytest.mark.parametrize("bad", _MALFORMED_LITERALS)
def test_literal_malformed(golden, bad):
    with pytest.raises(MalformedInput):
        ss.EventuallyPeriodicSeq.from_literal(golden, bad)


def _scan_equal(s, t):
    """The reference equality: a scan of every coordinate from before the
    leftmost core start to past the rightmost core end."""
    if s.matrix != t.matrix:
        return False
    lo = min(-s.origin, -t.origin)
    hi = max(len(s.core) - s.origin, len(t.core) - t.origin)
    lper = lcm(len(s.left_period), len(t.left_period))
    rper = lcm(len(s.right_period), len(t.right_period))
    return all(s[i] == t[i] for i in range(lo - lper, hi + rper))


def _respelled(rng, s):
    """The same point spelled otherwise: periods repeated or rotated into the core."""
    L, C, R, origin = s.left_period, s.core, s.right_period, s.origin
    for _ in range(rng.randint(0, 3)):
        step = rng.randrange(4)
        if step == 0:
            C, R = C + R[:1], R[1:] + R[:1]
        elif step == 1:
            L, C, origin = L[-1:] + L[:-1], L[-1:] + C, origin + 1
        elif step == 2:
            L = L * 2
        else:
            R = R * 2
    return ss.EventuallyPeriodicSeq(s.matrix, L, C, R, origin)


def test_equality_agrees_with_a_scan():
    rng = random.Random(19)
    A = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 1]])

    def word(lo, hi):
        return tuple(rng.choice((1, 2)) for _ in range(rng.randint(lo, hi)))

    def point():
        return ss.EventuallyPeriodicSeq(A, word(1, 3), word(0, 5), word(1, 3), rng.randint(-50, 50))

    verdicts = []
    for _ in range(12_000):
        s = point()
        kind = rng.randrange(4)
        if kind == 0:
            t = point()
        elif kind == 1:
            t = s.shift(rng.randint(-50, 50))
        else:
            t = _respelled(rng, s).shift(rng.choice((0, 0, 1, -1)))
            if kind == 3 and t.core:  # one symbol of the core changed
                core = list(t.core)
                core[rng.randrange(len(core))] = rng.choice((1, 2))
                t = ss.EventuallyPeriodicSeq(A, t.left_period, tuple(core), t.right_period, t.origin)
        verdicts.append(s == t)
        assert verdicts[-1] == _scan_equal(s, t) == (t == s), (s, t)
    assert min(verdicts.count(True), verdicts.count(False)) > 2000


@pytest.mark.parametrize("origin, equal", [(10**12, True), (10**12 + 1, False)])
def test_equality_costs_nothing_per_origin(golden, origin, equal):
    started = time.perf_counter()
    assert (ss.periodic_seq(golden, "12", origin=origin) == ss.periodic_seq(golden, "12")) == equal
    assert time.perf_counter() - started < 0.01


def test_one_sided_seq_reads_prefix_then_tail(golden):
    s = ss.one_sided_seq(golden, "211", "21")
    assert s.window(0, 7) == (2, 1, 1, 2, 1, 2, 1)
    with pytest.raises(InadmissibleWord, match=r"point 22 \. \(1\)\^inf"):
        ss.one_sided_seq(golden, "22", "1")
    with pytest.raises(InadmissibleWord):  # the tail 2 wraps around through 2 -> 2
        ss.one_sided_seq(golden, "1", "2")
    with pytest.raises(IndexError):
        s[-1]
    assert ss.evaluate(ss.CylinderFunction.indicator(golden, "21"), s) == 1


@st.composite
def _admissibility_cases(draw):
    """A matrix with n <= 4, a word, and the three parts of a sequence.

    Symbols come from -1..n+1 and the non-int values 1.0, True and "1";
    half of the words start as walks in the graph, so admissible words
    are common, and may then have one symbol replaced.
    """
    n = draw(st.integers(1, 4))
    masks = [draw(st.integers(1, 2**n - 1)) for _ in range(n)]
    A = ss.AdjacencyMatrix.from_rows([[(m >> c) & 1 for c in range(n)] for m in masks])
    symbols = st.one_of(st.integers(-1, n + 1), st.sampled_from([1.0, True, "1"]))

    def word(min_size):
        if draw(st.booleans()):
            return tuple(draw(st.lists(symbols, min_size=min_size, max_size=4)))
        w = [draw(st.integers(1, n))]
        for _ in range(draw(st.integers(max(min_size - 1, 0), 3))):
            w.append(draw(st.sampled_from(A.successors(w[-1]))))
        if draw(st.booleans()):
            w[draw(st.integers(0, len(w) - 1))] = draw(symbols)
        return tuple(w[: max(min_size, draw(st.integers(0, len(w))))])

    return A, word(0), (word(1), word(0), word(1))


def _outcome(call, *args):
    """What `call` returns, or the class of the SubshiftError it raises."""
    try:
        return call(*args)
    except ss.SubshiftError as exc:
        return type(exc)


def _built(cls, *args):
    """True if cls(*args) constructs, else the SubshiftError class it raises."""
    return _outcome(lambda: cls(*args) is not None)


_GOLDEN = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])


@settings(max_examples=300, deadline=None)
@given(_admissibility_cases())
@example((_GOLDEN, (1.5, 2), ((1,), (), (1,))))  # a float symbol is not truncated
@example((_GOLDEN, ("x",), ((1,), (), (1,))))  # a str symbol raises SymbolOutOfRange
def test_admissibility_agrees_with_the_rows(case):
    A, w, (L, C, R) = case
    assert _outcome(A.admits, w) == _outcome(brute_force_admissible, A, w)
    expected = _outcome(brute_force_admissible, A, w)  # as_word converts no symbol
    assert _outcome(ss.is_admissible, A, w) == expected

    ring = _outcome(brute_force_admissible, A, L + L + C + R + R)
    seq = _built(ss.EventuallyPeriodicSeq, A, L, C, R)
    assert seq == (InadmissibleWord if ring is False else ring)

    if w:
        table = {v: 0 for v in brute_force_words(A, len(w)) if v != w}
        table[w] = 1
        built = True if expected is True else MalformedInput
        assert _built(ss.CylinderFunction, A, len(w), table) == built
        assert _built(ss.DomainMask, A, len(w), frozenset([w])) == built


_LEAVES = st.one_of(
    st.integers(-2, 5), st.floats(), st.none(), st.booleans(), st.text(max_size=3), st.binary(max_size=3)
)
_ANY_VALUES = st.one_of(
    st.integers(),
    st.recursive(
        _LEAVES,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.lists(inner, max_size=4).map(lambda xs: (x for x in xs)),
        ),
        max_leaves=8,
    ),
)
_WORD_CALLS = {
    "as_word": ss.as_word,
    "is_admissible": lambda value: ss.is_admissible(_GOLDEN, value),
    "indicator": lambda value: ss.CylinderFunction.indicator(_GOLDEN, value),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_WORD_CALLS)), _ANY_VALUES)
@example("as_word", None)  # each of these four raised a bare TypeError
@example("as_word", 1.5)
@example("is_admissible", 5)
@example("indicator", 5)
def test_words_from_arbitrary_values_succeed_or_raise_subshift_errors(call, value):
    # Ints, floats, None, bytes, strings, and nested lists, tuples and generators of them.
    try:
        result = _WORD_CALLS[call](value)
    except ss.SubshiftError:
        return
    if call == "as_word":
        assert isinstance(result, tuple) and all(isinstance(s, int) for s in result)
