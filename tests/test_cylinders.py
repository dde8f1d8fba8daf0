import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subshift as ss
from subshift.errors import (
    DepthZero,
    InadmissibleWord,
    MalformedInput,
    MatrixMismatch,
    ShallowerDepth,
    TooShort,
    WorkLimitExceeded,
)
from support import (
    brute_force_transfer,
    brute_force_words,
    dense_refine,
    random_function,
    random_matrix,
)


def table(A, depth, mapping):
    return ss.CylinderFunction(A, depth, {ss.as_word(k): v for k, v in mapping.items()})


def test_construction_requires_totality(golden):
    with pytest.raises(MalformedInput):
        table(golden, 1, {"1": 1})  # missing "2"
    with pytest.raises(MalformedInput):
        table(golden, 1, {"1": 1, "2": 2, "22": 3})  # inadmissible extra
    with pytest.raises(DepthZero):
        ss.CylinderFunction(golden, 0, {})


def test_value_coercion(golden):
    f = table(golden, 1, {"1": "1/3", "2": 4})
    assert f((1,)) == Fraction(1, 3)
    assert f((2,)) == 4
    with pytest.raises(MalformedInput):
        table(golden, 1, {"1": 0.5, "2": 1})


def test_refine_examples(golden):
    one = ss.CylinderFunction.constant(golden, 1)
    assert ss.refine(one, 3) == ss.CylinderFunction.constant(golden, 1, depth=3)
    ind = ss.CylinderFunction.indicator(golden, "1")
    refined = ss.refine(ind, 2)
    assert refined.values == {(1, 1): 1, (1, 2): 1, (2, 1): 0}
    assert ss.refine(ind, ind.depth) is ind
    assert ind.refine(2).nonzero == refined.nonzero  # the method is the function
    with pytest.raises(ShallowerDepth):
        ss.refine(refined, 1)


_GOLDEN = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])
_ONE_WORD_40 = ss.CylinderFunction.indicator(_GOLDEN, "1" * 40)
_ONE_WORD_1 = ss.DomainMask(_GOLDEN, 1, {(1,)})


@pytest.mark.parametrize(
    "build",
    [
        lambda: _ONE_WORD_1.refine(40),
        lambda: ss.mask_image(ss.DomainMask(_GOLDEN, 41, {(1,) * 41})) == _ONE_WORD_1,
        lambda: ss.pointwise("add", _ONE_WORD_40, ss.CylinderFunction.constant(_GOLDEN, 1)),
        lambda: ss.pointwise("mul", ss.CylinderFunction.constant(_GOLDEN, 1), _ONE_WORD_40),
        lambda: _ONE_WORD_40 == ss.CylinderFunction.constant(_GOLDEN, 1),
        # One word, but building its extensions copies 1 + 2 + ... + 10**6 symbols.
        lambda: ss.refine(ss.CylinderFunction.constant(ss.AdjacencyMatrix.from_rows([[1]]), 1), 10**6),
    ],
    ids=["mask-refine", "mask-image-eq", "add", "mul", "eq", "one-word-quadratic"],
)
def test_refinement_past_the_work_limit_is_refused_at_once(build):
    started = time.perf_counter()
    with pytest.raises(WorkLimitExceeded, match="refining to depth .*MAX_FREENESS_ENTRIES"):
        build()
    assert time.perf_counter() - started < 1


def test_refinement_counts_from_the_stored_words():
    full3 = ss.AdjacencyMatrix.from_rows([[1] * 3] * 3)
    # A dense depth-10 function stores 59,049 words; refining it to depth 11
    # builds 10 * 3**10 + 11 * 3**11 = 2,539,107 symbols, the sparse one 10 + 33.
    dense = ss.CylinderFunction.tabulate(full3, 10, lambda w: 1)
    with pytest.raises(WorkLimitExceeded, match="refining to depth 11"):
        ss.refine(dense, 11)
    # From depth 9 to 10 it builds 9 * 3**9 + 10 * 3**10 = 767,637, within the limit.
    assert len(ss.refine(ss.CylinderFunction.constant(full3, 1, 9), 10).nonzero) == 3**10
    sparse = ss.CylinderFunction.indicator(full3, "3" * 10) * 5
    assert ss.refine(sparse, 11).nonzero == {(3,) * 10 + (s,): 5 for s in (1, 2, 3)}
    assert ss.refine(ss.CylinderFunction.zero(full3), 10**9).is_zero()  # no words, no work


def test_alpha_examples(full2, golden):
    f = table(full2, 1, {"1": 3, "2": 5})
    assert ss.alpha(f).values == {(1, 1): 3, (1, 2): 5, (2, 1): 3, (2, 2): 5}
    c = ss.CylinderFunction.constant(golden, "7/2")
    assert ss.alpha(c) == c
    a = ss.alpha(ss.CylinderFunction.indicator(golden, "2"))
    assert a.values == {(1, 1): 0, (1, 2): 1, (2, 1): 0}


def test_pointwise_examples(golden):
    ones = ss.CylinderFunction.indicator(golden, "1") + ss.CylinderFunction.indicator(
        golden, "2"
    )
    # depth-1 cylinders partition the space
    assert ones == ss.CylinderFunction.constant(golden, 1)
    f = table(golden, 1, {"1": "2/3", "2": -1})
    assert ss.pointwise("mul", f, ss.CylinderFunction.zero(golden)).is_zero()
    assert ss.pointwise("neg", ss.pointwise("neg", f)) == f
    assert ss.pointwise("abs", f) == table(golden, 1, {"1": "2/3", "2": 1})
    g = table(golden, 2, {"11": 3, "12": "1/2", "21": 0})
    assert f * g == table(golden, 2, {"11": 2, "12": "1/3", "21": 0})
    assert f - g == table(golden, 2, {"11": "-7/3", "12": "1/6", "21": -1})


def test_pointwise_errors(golden, full2):
    f = ss.CylinderFunction.constant(golden, 1)
    g = ss.CylinderFunction.constant(full2, 1)
    with pytest.raises(MatrixMismatch):
        ss.pointwise("add", f, g)
    with pytest.raises(MalformedInput):
        ss.pointwise("pow", f, f)
    with pytest.raises(MalformedInput):
        ss.pointwise("neg", f, f)
    with pytest.raises(MalformedInput):
        ss.pointwise("mul", f)


def test_evaluate_examples(golden, full2):
    ind = ss.CylinderFunction.indicator(golden, "1")
    assert ss.evaluate(ind, "12") == 1
    assert ss.evaluate(ss.CylinderFunction.constant(golden, 7), ss.periodic_seq(golden, "12")) == 7
    f = table(golden, 2, {"11": 0, "12": 0, "21": "1/3"})
    assert ss.evaluate(f, ss.periodic_seq(golden, "21")) == Fraction(1, 3)
    with pytest.raises(TooShort):
        ss.evaluate(f, "2")
    with pytest.raises(InadmissibleWord):
        ss.evaluate(f, "22")
    with pytest.raises(MatrixMismatch, match="sequence built over a different matrix"):
        ss.evaluate(f, ss.periodic_seq(full2, "21"))


def test_eval_refine_agree_on_random_points():
    rng = random.Random(3)
    for _ in range(12):
        A = random_matrix(rng, nmax=3)
        f = random_function(rng, A, rng.randint(1, 3))
        k2 = rng.randint(f.depth, 5)
        g = ss.refine(f, k2)
        points = []
        for p in range(1, 4):
            points.extend(ss.periodic_points(A, p))
        seqs = [ss.periodic_seq(A, rng.choice(points)) for _ in range(50)]
        for s in seqs:
            assert ss.evaluate(f, s) == ss.evaluate(g, s)


def test_alpha_defining_property():
    rng = random.Random(5)
    for _ in range(20):
        A = random_matrix(rng, nmax=3)
        f = random_function(rng, A, rng.randint(1, 3))
        af = ss.alpha(f)
        for p in range(1, 4):
            for w in ss.periodic_points(A, p):
                s = ss.periodic_seq(A, w)
                assert ss.evaluate(af, s) == ss.evaluate(f, ss.shift(s, 1))


def test_pointwise_commutes_with_refine():
    rng = random.Random(9)
    for _ in range(20):
        A = random_matrix(rng, nmax=3)
        f = random_function(rng, A, rng.randint(1, 2))
        g = random_function(rng, A, rng.randint(1, 2))
        k = max(f.depth, g.depth) + rng.randint(0, 2)
        for op in ("add", "mul"):
            direct = ss.refine(ss.pointwise(op, f, g), k)
            refined = ss.pointwise(op, ss.refine(f, k), ss.refine(g, k))
            assert direct == refined
        assert ss.refine(-f, k) == -ss.refine(f, k)


def test_mask_basics(golden):
    U = ss.DomainMask.full(golden)
    assert U.is_full() and not U.is_empty()
    V = ss.DomainMask.from_words(golden, ["21"])
    assert V.covers((2, 1, 1)) and not V.covers((1, 2, 1))
    with pytest.raises(TooShort):
        V.covers((2,))
    with pytest.raises(MalformedInput):
        ss.DomainMask.from_words(golden, ["22"])  # inadmissible member
    with pytest.raises(MalformedInput, match="share one length"):
        ss.DomainMask.from_words(golden, ["1", "21"])
    with pytest.raises(DepthZero, match="masks need depth at least 1"):
        ss.DomainMask(golden, 0, frozenset())
    assert U == U.refine(3)  # equality is as sets
    with pytest.raises(ShallowerDepth, match="cannot refine depth 2 down to 1"):
        V.refine(1)


def test_reprs_name_the_represented_data(golden):
    f = table(golden, 1, {"1": "1/2", "2": 0})
    U = ss.DomainMask.from_words(golden, ["21", "11"])
    assert repr(f) == "CylinderFunction(depth=1, 1=1/2, 2=0)"
    assert repr(U) == "DomainMask(depth=2, members=['11', '21'])"
    assert repr(ss.Weight(f, U)) == (
        "Weight(CylinderFunction(depth=2, 11=1/2, 12=0, 21=0), "
        "domain=DomainMask(depth=2, members=['11', '21']))"
    )
    assert repr(ss.periodic_seq(golden, "12", 1)) == "EventuallyPeriodicSeq('L:12 C: R:12 O:1')"


def test_mask_image_examples(golden, full2):
    assert ss.mask_image(ss.DomainMask.full(full2)) == ss.DomainMask.full(full2)
    V = ss.mask_image(ss.DomainMask.from_words(golden, ["21"]))
    assert V == ss.DomainMask.from_words(golden, ["1"])
    assert ss.mask_image(ss.DomainMask.empty(golden)).is_empty()


def test_mask_image_drops_unreachable_cylinder(golden):
    # nothing shifts onto [2] unless a member cylinder continues with 2
    U = ss.DomainMask.from_words(golden, ["11"])
    assert ss.mask_image(U) == ss.DomainMask.from_words(golden, ["1"])


def test_mask_indicator(golden):
    U = ss.DomainMask.from_words(golden, ["11", "21"])
    ind = U.indicator()
    assert ind.values == {(1, 1): 1, (1, 2): 0, (2, 1): 1}


def test_function_file_round_trip(golden):
    f = table(golden, 2, {"11": "1/2", "12": 0, "21": "-7/3"})
    text = ss.format_function_file(f)
    assert ss.parse_function_file(golden, text) == f
    assert text == "depth 2\n11 1/2\n12 0\n21 -7/3\n"
    full10 = ss.AdjacencyMatrix.from_rows([[1] * 10] * 10)
    f = ss.CylinderFunction(full10, 1, {(s,): Fraction(s, 3) for s in full10.symbols})
    text = ss.format_function_file(f)
    assert text.endswith("\n9 3\n10. 10/3\n")
    assert ss.parse_function_file(full10, text) == f
    dotted = text.replace("\n3 1\n", "\n3. 1\n")  # a respelled literal is read on its own
    assert ss.parse_function_file(full10, dotted) == f


def test_function_file_values_are_converted_once(monkeypatch):
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    text = ss.format_function_file(ss.CylinderFunction.constant(full3, "1/2", 3))
    text = text.replace("1/2", "2/4", 10)  # 27 values, two distinct value strings
    calls = []
    convert = ss.cylinders._as_fraction
    monkeypatch.setattr(ss.cylinders, "_as_fraction", lambda v: calls.append(v) or convert(v))
    f = ss.parse_function_file(full3, text)
    assert calls == ["2/4", "1/2"] and set(f.values.values()) == {Fraction(1, 2)}
    with pytest.raises(MalformedInput, match="cannot parse rational 'one'"):
        ss.parse_function_file(full3, text.replace("1/2", "one", 1))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "depth x\n",
        "depth 1\n1 1",  # missing word "2"
        "depth 1\n1 1\n2 2\n2 3",  # duplicate
        "depth 1\n1 1\n2 2\n22 0",  # unknown word
        "depth 1\n1 one\n2 2",  # bad value
        "depth 1\n1\n2 2",  # bad line
        "depth 2\n11 0\n12 1\n11 0",  # a duplicated zero-valued word
    ],
)
def test_function_file_malformed(golden, text):
    with pytest.raises(MalformedInput):
        ss.parse_function_file(golden, text)


@pytest.mark.parametrize(
    "depth, words",
    [
        (2, ["11", "12", "22"]),  # the right line count, one unknown word in place of "21"
        (2, ["11", "12", "2"]),  # a mixed-length table
        (2, ["1", "11", "12"]),  # mixed, the first word too short to list the depth-2 words
        (2, ["11", "1.2", "3.1"]),  # respelled and out-of-range words, not listed
        (2, ["11", "21"]),  # one word missing
        (0, ["1"]),
        (0, []),
    ],
)
def test_function_file_fails_as_the_constructor_does(golden, depth, words):
    text = f"depth {depth}\n" + "".join(f"{w} 1\n" for w in words)
    with pytest.raises(ss.SubshiftError) as expected:
        ss.CylinderFunction(golden, depth, {ss.as_word(w): 1 for w in words})
    with pytest.raises(ss.SubshiftError) as parsed:
        ss.parse_function_file(golden, text)
    assert (type(parsed.value), str(parsed.value)) == (type(expected.value), str(expected.value))


def _dotted(literal):
    """A second spelling of a digit literal's word: its symbols as dotted numerals."""
    return ".".join(literal) + ("." if len(literal) == 1 else "")


def _single_defects(k, rows):
    """(name, depth, rows) for the table `rows` of (literal, value) and each
    mutation of it with one defect, at every row it can touch."""
    unknown = ["4" * k, "0" * k, "1" * (k + 1)]  # out of range, both ways, and too long
    yield "as written", k, rows
    yield "depth 0", 0, rows
    for at, (word, value) in enumerate(rows):
        keep = rows[:at] + rows[at + 1:]
        yield "respelled", k, rows[:at] + [(_dotted(word), value)] + rows[at + 1:]
        yield "duplicate", k, rows[: at + 1] + [(_dotted(word), "7")] + rows[at + 1:]
        yield "missing", k, keep
        for bad in unknown:
            yield "unknown instead", k, rows[:at] + [(bad, value)] + rows[at + 1:]
        for bad in ("x", "1/0", "1e3", "0x1"):
            yield "bad value", k, rows[:at] + [(word, bad)] + rows[at + 1:]
        for bad in ("1x", "1..2", ".", "1.2."):
            yield "bad literal", k, rows[:at] + [(bad, value)] + rows[at + 1:]
    for bad in unknown:
        yield "unknown added", k, rows + [(bad, "1")]


def _outcome(build):
    try:
        return build()
    except ss.SubshiftError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("rows", [[[1, 1], [1, 0]], [[1, 1, 1]] * 3], ids=["golden", "full3"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_table_checkers_agree_on_every_single_defect(rows, k):
    # A table as a dict for the constructor and the same rows as a function
    # file: both refuse with one exception and message, or both accept one function.
    A = ss.AdjacencyMatrix.from_rows(rows)
    values = ["1", "0", "1/2", "-3"]
    table = [(ss.word_to_string(w), values[i % 4]) for i, w in enumerate(ss.enumerate_words(A, k))]
    for name, depth, mutated in _single_defects(k, table):
        assert len(dict(mutated)) == len(mutated)  # each literal once, so the dict keeps every row
        built = _outcome(lambda: ss.CylinderFunction(A, depth, dict(mutated)))
        text = f"depth {depth}\n" + "".join(f"{w} {v}\n" for w, v in mutated)
        parsed = _outcome(lambda: ss.parse_function_file(A, text))
        assert parsed == built, (name, mutated)
        assert isinstance(built, tuple) != (name in ("as written", "respelled")), (name, mutated)


def test_constructor_refuses_two_keys_for_one_word(golden):
    with pytest.raises(MalformedInput, match=r"^duplicate word 1\.$"):
        ss.CylinderFunction(golden, 1, {"1": 1, "1.": 5, "2": 3})
    with pytest.raises(MalformedInput, match=r"^duplicate word 1$"):
        ss.CylinderFunction(golden, 1, {"1": 1, (1,): 2, "2": 3})


_DEEP = "2" * 200_000  # a literal of the header's length that is not admissible on golden


@pytest.mark.parametrize(
    "parse, text, unknown",
    [
        (ss.parse_function_file, "depth 1000000000\n1 1\n", "1"),
        (ss.parse_weight_file, "depth 1000000000\n1 1\ndomain 1\n1\n", "1"),
        (ss.parse_function_file, f"depth 200000\n{_DEEP} 1\n", _DEEP),
        (ss.parse_weight_file, f"depth 200000\n{_DEEP} 1\ndomain 1\n1\n", _DEEP),
    ],
    ids=["function", "weight", "function-inadmissible", "weight-inadmissible"],
)
def test_a_deep_header_is_refused_without_counting(golden, parse, text, unknown):
    # N_k takes k steps to count in full; counting against the one line stops at
    # N_1 = 2, and every word is checked before N_k is counted.
    # The clock stops at the parse: compiling a 200,000-symbol match= pattern
    # would cost several times the parse itself.
    started = time.perf_counter()
    with pytest.raises(MalformedInput) as refused:
        parse(golden, text)
    assert time.perf_counter() - started < 1
    assert f"unknown ['{unknown}']" in str(refused.value)


_ADMISSIBLE_DEEP = "1" * 200_000  # a literal of the header's length that golden admits


@pytest.mark.parametrize(
    "build",
    [
        lambda A: ss.parse_function_file(A, f"depth 200000\n{_ADMISSIBLE_DEEP} 1\n"),
        lambda A: ss.parse_weight_file(A, f"depth 200000\n{_ADMISSIBLE_DEEP} 1\n"),
        lambda A: ss.CylinderFunction(A, 200_000, {(1,) * 200_000: 1}),
    ],
    ids=["function", "weight", "constructor"],
)
def test_a_deep_table_of_admissible_words_is_not_counted_through(golden, build):
    # N_200000 has over 40,000 digits; counting stops at N_1 = 2, past the one line.
    started = time.perf_counter()
    with pytest.raises(MalformedInput, match=r"missing at least 1\)"):
        build(golden)
    assert time.perf_counter() - started < 1


def test_missing_counts_are_exact_at_the_depth_and_bounds_before_it(golden):
    # Golden N_1..N_3 = 2, 3, 5: two depth-3 words pass N_2 = 3 before depth 3.
    with pytest.raises(MalformedInput, match=r"missing at least 1\)"):
        ss.parse_function_file(golden, "depth 3\n111 1\n112 1\n")
    with pytest.raises(MalformedInput, match=r"missing 2\)"):
        ss.parse_function_file(golden, "depth 3\n111 1\n112 1\n121 1\n")
    started = time.perf_counter()
    assert not ss.DomainMask(golden, 200_000, frozenset()).is_full()
    assert ss.DomainMask.full(golden, 5).is_full()
    assert not ss.DomainMask.from_words(golden, ["111", "112", "121", "211"]).is_full()
    assert time.perf_counter() - started < 1


def test_values_length_stops_counting_past_what_len_can_hold(golden):
    assert len(ss.CylinderFunction.zero(golden, 90).values) == 7_540_113_804_746_346_429
    started = time.perf_counter()
    for depth in (91, 100_000):  # N_91 > 2**63 - 1, which len() refuses to return
        with pytest.raises(WorkLimitExceeded, match=f"depth-{depth} words number over"):
            len(ss.CylinderFunction.zero(golden, depth).values)
    assert time.perf_counter() - started < 1


def test_unknown_word_in_a_deep_function_file_is_named(golden):
    text = ss.format_function_file(ss.CylinderFunction.constant(golden, 1, 18))
    unknown = "2" * 18
    with pytest.raises(MalformedInput, match=rf"unknown \['{unknown}'\]"):
        ss.parse_function_file(golden, text + f"{unknown} 1\n")


def test_constructors_check_only_the_given_words(golden):
    # Depth 40 has 267,914,296 admissible words; none of them is listed.
    with pytest.raises(MalformedInput, match=r"unknown \['1'\]"):
        ss.parse_function_file(golden, "depth 40\n1 1\n")
    with pytest.raises(MalformedInput, match="missing all"):
        ss.parse_function_file(golden, "depth 40\n")
    with pytest.raises(MalformedInput, match="missing 1"):
        ss.parse_function_file(golden, "depth 2\n11 1\n12 1\n")
    with pytest.raises(MalformedInput, match=r"unknown \['3', '31'\]"):
        ss.CylinderFunction(golden, 1, {(1,): 1, (2,): 1, (3,): 1, (3, 1): 1})
    U = ss.DomainMask(golden, 40, frozenset())
    assert U.is_empty() and not U.is_full()
    with pytest.raises(MalformedInput, match=r"\['22'\]"):
        ss.DomainMask.from_words(golden, ["12", "22"])
    assert ss.DomainMask.full(golden, 3).is_full()


@pytest.mark.parametrize(
    "listing",
    [
        lambda A: ss.DomainMask.full(A, 40),
        lambda A: ss.CylinderFunction.constant(A, 1, 40),
        lambda A: ss.periodic_points(A, 40),
        lambda A: list(ss.CylinderFunction.zero(A, 40).values),
    ],
    ids=["full mask", "constant", "periodic points", "values view"],
)
def test_full_listings_obey_the_work_limit(golden, listing):
    # Depth 40 has 267,914,296 admissible words.
    started = time.perf_counter()
    with pytest.raises(WorkLimitExceeded, match="MAX_FREENESS_ENTRIES"):
        listing(golden)
    assert time.perf_counter() - started < 1


def test_a_file_past_the_listing_limit_reads_each_literal_alone(swap2):
    # Two lines name both depth-100000 words of the 2-cycle; listing them would
    # build 2 * (1 + ... + 100000) symbols, so the literal map is not built.
    words = {(1, 2) * 50_000: Fraction(1, 2), (2, 1) * 50_000: Fraction(-3)}
    text = "depth 100000\n" + "".join(f"{ss.word_to_string(w)} {v}\n" for w, v in words.items())
    started = time.perf_counter()
    f = ss.parse_function_file(swap2, text)
    assert time.perf_counter() - started < 1
    expected = ss.CylinderFunction(swap2, 100_000, words)
    assert (f.depth, f.nonzero) == (expected.depth, expected.nonzero)


def test_the_literal_map_is_skipped_not_refused(full2, monkeypatch):
    # Full2's sum of j * N_j to depth 5 is 258, past a limit of 30.
    table = {w: Fraction(len(w) - w.count(1), 3) for w in ss.enumerate_words(full2, 5)}
    text = "depth 5\n" + "".join(f"{ss.word_to_string(w)} {v}\n" for w, v in table.items())
    monkeypatch.setattr(ss.sequences, "MAX_FREENESS_ENTRIES", 30)
    with pytest.raises(WorkLimitExceeded):
        ss.enumerate_words(full2, 5)
    f = ss.parse_function_file(full2, text)
    assert (f.depth, f.nonzero) == (5, ss.CylinderFunction(full2, 5, table).nonzero)


def test_a_ten_symbol_file_lists_its_words_once(monkeypatch):
    # Past 9 symbols the literals are spelled from the listed words, not listed
    # again; both bindings are counted, so a second listing through either shows.
    full10 = ss.AdjacencyMatrix.from_rows([[1] * 10] * 10)
    f = ss.CylinderFunction.tabulate(full10, 2, lambda w: Fraction(w[0], w[-1]))
    listed, enumerate_words = [], ss.sequences.enumerate_words
    counted = lambda A, k: listed.append(k) or enumerate_words(A, k)
    for module in (ss.sequences, ss.cylinders):
        monkeypatch.setattr(module, "enumerate_words", counted)
    text = ss.format_function_file(f)
    assert listed == [2] and "\n1.10 1/10\n21 2\n" in text and text.endswith("\n10.10 1\n")
    assert ss.parse_function_file(full10, text) == f
    assert listed == [2, 2]


def test_a_value_no_numeral_spells_is_refused_by_the_one_value_writer(golden):
    big = 10**4300  # a numeral has at most 4300 digits
    for value in (big - 1, -(big - 1), Fraction(1, big - 1), Fraction(-(big - 1), big - 2)):
        f = table(golden, 1, {"1": value, "2": 1})
        text = ss.format_function_file(f)
        assert ss.parse_function_file(golden, text) == f
        assert ss.cylinders.spelled_values(f)["1"] == text.split("\n")[1].split()[1]
    for value in (big, -big, Fraction(1, big), Fraction(big + 1, big - 1)):
        f = table(golden, 2, {"11": 0, "12": 1, "21": value})
        with pytest.raises(MalformedInput, match="^the value at word 21 has a numerator or denominator of over 4300"):
            ss.format_function_file(f)
        with pytest.raises(MalformedInput, match="at word 21 "):
            ss.cylinders.spelled_values(f)


_SPELLINGS = ["0", "-0", "+3", "6/4", "0.5", "-.25", "-7/3", "12"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["none", "drop", "replace"]))
def test_parsed_files_match_the_constructor(seed, edit):
    # A table on a random matrix (n <= 12), written with respelled words
    # and values in shuffled order, parses to the function the validating
    # constructor builds from the same pairs, or fails with its message.
    rng = random.Random(seed)
    A = random_matrix(rng, nmax=12)
    k = rng.randint(1, 3 if A.n <= 6 else 2)
    table = {w: rng.choice(_SPELLINGS) for w in ss.enumerate_words(A, k)}
    if edit == "drop":
        del table[rng.choice(list(table))]
    elif edit == "replace":
        other = tuple(rng.randint(1, A.n + 1) for _ in range(rng.choice([k, k, k + 1])))
        if other not in table:
            del table[rng.choice(list(table))]
            table[other] = "12"
    dotted = lambda w: ".".join(map(str, w)) + ("." if len(w) == 1 else "")
    lines = [f"{rng.choice([ss.word_to_string(w)] * 3 + [dotted(w)])} {v}\n" for w, v in table.items()]
    rng.shuffle(lines)
    try:
        expected = ss.CylinderFunction(A, k, table)
    except MalformedInput as exc:
        with pytest.raises(MalformedInput) as parsed:
            ss.parse_function_file(A, f"depth {k}\n" + "".join(lines))
        assert str(parsed.value) == str(exc)
        return
    f = ss.parse_function_file(A, f"depth {k}\n" + "".join(lines))
    assert f.depth == k and f.nonzero == expected.nonzero


_VALUES = st.sampled_from([0, 0, 0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def _sparse_cases(draw):
    """A matrix with n <= 4 and tables that are mostly exact zeros."""
    n = draw(st.integers(1, 4))
    masks = [draw(st.integers(1, 2**n - 1)) for _ in range(n)]
    A = ss.AdjacencyMatrix.from_rows([[(m >> c) & 1 for c in range(n)] for m in masks])

    def table(depth, values=_VALUES):
        return {w: Fraction(draw(values)) for w in brute_force_words(A, depth)}

    kf, kg, ku, kv, ke = (draw(st.integers(1, 3)) for _ in range(5))
    members = frozenset(w for w in brute_force_words(A, ku) if draw(st.booleans()))
    other = frozenset(w for w in brute_force_words(A, kv) if draw(st.booleans()))
    kh = draw(st.integers(ku, 3))
    h = {w: v if w[:ku] in members else Fraction(0) for w, v in table(kh).items()}
    weight = table(ke, st.sampled_from([0, 0, 1, 2, Fraction(1, 3)]))
    masks = (ku, members), (kv, other)
    return A, (kf, table(kf)), (kg, table(kg)), masks, (kh, h), (ke, weight), draw(_VALUES)


def _matches(f, depth, reference):
    """f has this depth and total table, and stores exactly its nonzero values."""
    return (
        f.depth == depth
        and f.values == reference
        and f.nonzero == {w: v for w, v in reference.items() if v}
    )


@settings(max_examples=150, deadline=None)
@given(_sparse_cases(), st.integers(0, 2))
def test_sparse_operations_match_dense_tables(case, extra):
    A, (kf, ft), (kg, gt), ((ku, members), (kv, other)), (kh, ht), (ke, et), c = case
    f, g = ss.CylinderFunction(A, kf, ft), ss.CylinderFunction(A, kg, gt)

    # The values view: key order, length, zeros read back, KeyError off the words.
    words = brute_force_words(A, kf)
    assert list(f.values) == words and len(f.values) == len(words)
    assert f.values == ft and dict(f.values) == ft
    assert all(f.values[w] == ft[w] and type(f.values[w]) is Fraction for w in words)
    for key in ((0,) * kf, (A.n + 1,) * kf, words[0] * 2, words[0][:-1], "1" * kf, None):
        with pytest.raises(KeyError):
            f.values[key]
    inadmissible = [w for w in itertools.product(range(1, A.n + 1), repeat=kf) if w not in ft]
    for w in inadmissible[:3]:
        with pytest.raises(KeyError):
            f.values[w]

    k2 = kf + extra
    assert _matches(ss.refine(f, k2), k2, dense_refine(A, ft, kf, k2))
    assert _matches(ss.alpha(f), kf + 1, {w: ft[w[1:]] for w in brute_force_words(A, kf + 1)})
    assert _matches(-f, kf, {w: -v for w, v in ft.items()})
    assert _matches(abs(f), kf, {w: abs(v) for w, v in ft.items()})
    assert _matches(c * f, kf, {w: c * v for w, v in ft.items()})
    k = max(kf, kg)
    fk, gk = dense_refine(A, ft, kf, k), dense_refine(A, gt, kg, k)
    assert _matches(ss.pointwise("add", f, g), k, {w: fk[w] + gk[w] for w in fk})
    assert _matches(ss.pointwise("mul", f, g), k, {w: fk[w] * gk[w] for w in fk})
    assert (f == g) == (fk == gk)
    assert f.is_zero() == (not any(ft.values()))

    def member_oracle(k, words, depth):
        """The depth-`depth` words inside the union of the depth-k cylinders of `words`."""
        return {w for w in brute_force_words(A, depth) if w[:k] in words}

    U, V = ss.DomainMask(A, ku, members), ss.DomainMask(A, kv, other)
    ku2 = ku + extra
    assert U.refine(ku2).members == member_oracle(ku, members, ku2)
    assert V.refine(kv + extra).members == member_oracle(kv, other, kv + extra)
    # Equality is as point sets: both refined to the common depth, over one matrix.
    kc = max(ku, kv)
    assert (U == V) == (member_oracle(ku, members, kc) == member_oracle(kv, other, kc))
    assert U == ss.DomainMask(A, ku2, member_oracle(ku, members, ku2))
    full = ss.AdjacencyMatrix.from_rows([[1] * A.n] * A.n)  # admits every word of A
    assert (U == ss.DomainMask(full, ku, members)) == (A == full)
    indicator = {w: Fraction(w in members) for w in brute_force_words(A, ku)}
    assert _matches(U.indicator(), ku, indicator)

    rho = ss.Weight(ss.CylinderFunction(A, ke, et), U)
    h = ss.CylinderFunction(A, kh, ht)
    d = max(ke, ku, kh)
    expected = brute_force_transfer(
        A,
        lambda y: et[y[:ke]] if y[:ku] in members else 0,
        lambda y: ht[y[:kh]],
        max(d - 1, 1),
    )
    assert _matches(ss.transfer_apply(rho, h), max(d - 1, 1), expected)
