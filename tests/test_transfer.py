import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subshift as ss
from subshift.errors import (
    DomainMismatch,
    MalformedInput,
    MatrixMismatch,
    NegativeWeight,
    NotTransfer,
    SupportViolation,
)
from support import (
    brute_force_preimage_count,
    brute_force_transfer,
    brute_force_words,
    masked,
    near_cycle,
    no_zero_row_matrices,
    random_function,
    random_fraction,
    random_mask,
    random_matrix,
    random_weight,
)


def const_weight(A, value=1):
    return ss.Weight.full(ss.CylinderFunction.constant(A, value))


def test_weight_normalization(golden):
    U = ss.DomainMask.from_words(golden, ["11", "21"])
    carrier = ss.CylinderFunction(golden, 1, {(1,): 2, (2,): 3})
    rho = ss.Weight(carrier, U)
    assert rho.depth == 2  # refined up to the domain depth
    assert rho.carrier.values == {(1, 1): 2, (1, 2): 0, (2, 1): 3}
    # negative values outside the domain are masked away, inside they fail
    negative_outside = ss.CylinderFunction(golden, 2, {(1, 1): 1, (1, 2): -5, (2, 1): 0})
    assert ss.Weight(negative_outside, U).carrier.values[(1, 2)] == 0
    with pytest.raises(NegativeWeight):
        ss.Weight(ss.CylinderFunction(golden, 1, {(1,): -1, (2,): 1}), ss.DomainMask.full(golden))
    # A domain shallower than the carrier keeps the stored words it covers,
    # and a negative value names the smallest covered word.
    V = ss.DomainMask.from_words(golden, ["1"])
    words = ss.enumerate_words(golden, 3)
    deep = ss.CylinderFunction(golden, 3, {w: -1 if w[0] == 2 else 1 for w in words})
    assert ss.Weight(deep, V).carrier.values == {w: int(w[0] == 1) for w in words}
    negative = ss.CylinderFunction(golden, 3, {w: -1 if w[1] == 2 else 1 for w in words})
    with pytest.raises(NegativeWeight, match="cylinder 121"):
        ss.Weight(negative, V)


def test_transfer_apply_examples(golden, full2):
    assert ss.transfer_apply(
        const_weight(full2), ss.CylinderFunction.constant(full2, 1)
    ) == ss.CylinderFunction.constant(full2, 2)
    out = ss.transfer_apply(const_weight(golden), ss.CylinderFunction.indicator(golden, "2"))
    assert out == ss.CylinderFunction.indicator(golden, "1")
    zero = ss.transfer_apply(const_weight(golden, 0), ss.CylinderFunction.constant(golden, 5))
    assert zero.is_zero()


def test_a_part_over_another_matrix_is_refused(golden, full2):
    with pytest.raises(MatrixMismatch, match="carrier and domain built over different matrices"):
        ss.Weight(ss.CylinderFunction.constant(golden, 1), ss.DomainMask.full(full2))
    with pytest.raises(MatrixMismatch, match="function built over a different matrix"):
        ss.transfer_apply(const_weight(golden), ss.CylinderFunction.constant(full2, 1))


def test_transfer_apply_output_depth(golden):
    rho = ss.Weight.full(random_function(random.Random(0), golden, 3, positive=True))
    f = random_function(random.Random(1), golden, 2)
    assert ss.transfer_apply(rho, f).depth == 2  # max(3, 2) - 1
    shallow = ss.transfer_apply(const_weight(golden), ss.CylinderFunction.constant(golden, 1))
    assert shallow.depth == 1  # floored at 1


def test_transfer_apply_zero_off_image(golden):
    # U = [21]: the image is [1], so the result vanishes on [2]
    U = ss.DomainMask.from_words(golden, ["21"])
    rho = ss.Weight(ss.CylinderFunction.constant(golden, 1), U)
    f = U.indicator()
    out = ss.transfer_apply(rho, f)
    assert ss.evaluate(out, "21") == 0
    assert ss.evaluate(out, "12") == 1


def test_support_violation(golden):
    U = ss.DomainMask.from_words(golden, ["21"])
    rho = ss.Weight(ss.CylinderFunction.constant(golden, 1), U)
    with pytest.raises(SupportViolation):
        ss.transfer_apply(rho, ss.CylinderFunction.constant(golden, 1))


def _support_violation_of_every_word(rho, f):
    """The message of the former support check, which tested every nonzero
    word of f against the domain, or None where it passed."""
    fv = ss.refine(f, max(rho.depth, f.depth)).nonzero
    outside = [y for y in fv if not rho.domain.covers(y)]
    return None if not outside else (
        f"function is {fv[min(outside)]} on cylinder {ss.word_to_string(min(outside))} outside the domain"
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_support_is_checked_only_where_the_weight_vanishes(seed):
    # The carrier is zero off the domain and at least as deep, so testing the
    # words where it vanishes refuses exactly what testing every word did.
    rng = random.Random(seed)
    A = random_matrix(rng, nmax=3, nmin=2)
    U = random_mask(rng, A, rng.randint(1, 3), full_prob=0.2)
    rho = random_weight(rng, A, depth_max=3, zero_prob=0.3, domain=U)
    f = random_function(rng, A, rng.randint(1, 3), zero_prob=rng.choice((0, 0.5, 0.9)))
    if rng.random() < 0.5:  # inside the domain, but for at most one cylinder
        w = rng.choice(ss.enumerate_words(A, rng.randint(1, 3)))
        f = masked(f, rho.domain) + rng.randint(0, 1) * ss.CylinderFunction.indicator(A, w)
    try:
        ss.transfer_apply(rho, f)
        refused = None
    except SupportViolation as exc:
        refused = str(exc)
    assert refused == _support_violation_of_every_word(rho, f)


def _wide(rng, lo):
    return Fraction(rng.randint(lo, 10**6), rng.randint(1, 10**6))


def test_transfer_apply_matches_the_preimage_sum_with_wide_values():
    # Partial domains, zero weights, signed values over denominators up to
    # 10^6, and outputs whose preimage terms are made to cancel to 0.
    rng = random.Random(37)
    cancelled = {"d = 1": 0, "d > 1": 0}
    for _ in range(300):
        A = random_matrix(rng, nmax=4)
        e, kh = (1, 1) if rng.random() < 0.3 else (rng.randint(1, 3), rng.randint(1, 3))
        ku, d = rng.randint(1, e), max(e, kh)
        domain = brute_force_words(A, ku)
        members = set(rng.sample(domain, rng.randint(1, len(domain))))
        et = {w: Fraction(0) if rng.random() < 0.25 else _wide(rng, 0) for w in brute_force_words(A, e)}
        rho_at = lambda y: et[y[:e]] if y[:ku] in members else 0
        ht = {w: _wide(rng, -10**6) if w[:ku] in members else Fraction(0) for w in brute_force_words(A, kh)}
        forced = []
        if kh == d:  # f's words are the working depth: one term per preimage
            outputs = brute_force_words(A, max(d - 1, 1))
            for x in rng.sample(outputs, min(len(outputs), 1 if d == 1 else 3)):
                pre = [(a,) + x for a in A.symbols if A.rows[a - 1][x[0] - 1]]
                pre = [y[:kh] for y in pre if rho_at(y)]
                if len(pre) > 1:
                    for y in pre[1:]:
                        ht[y] = ht[y] or Fraction(1, 999_983)
                    ht[pre[0]] = -sum(rho_at(y) * ht[y] for y in pre[1:]) / rho_at(pre[0])
                    forced.append(x)
        rho = ss.Weight(ss.CylinderFunction(A, e, et), ss.DomainMask(A, ku, members))
        out = ss.transfer_apply(rho, ss.CylinderFunction(A, kh, ht))
        expected = brute_force_transfer(A, rho_at, lambda y: ht[y[:kh]], max(d - 1, 1))
        assert out.depth == max(d - 1, 1)
        assert out.nonzero == {x: v for x, v in expected.items() if v}
        assert all(type(v) is Fraction for v in out.nonzero.values())
        for x in forced:
            assert expected[x] == 0 and x not in out.nonzero
            cancelled["d = 1" if d == 1 else "d > 1"] += 1
    assert min(cancelled.values()) >= 10, cancelled


def _primes(count):
    sieve, found = bytearray([1]) * 100_000, []
    for p in range(2, len(sieve)):
        if sieve[p]:
            found.append(p)
            sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
    return found[:count]


def test_transfer_apply_reduces_each_output_alone():
    # Every value has its own prime denominator: 3 primes for the weight and
    # 3^8 = 6,561 for the function.  A denominator shared by the whole table
    # would be their product, 94,379 bits; each output sums 3 terms.
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    primes = _primes(3 + 3**8)
    weights = {(s,): Fraction(1, p) for s, p in zip(full3.symbols, primes)}
    values = dict(zip(ss.enumerate_words(full3, 8), (Fraction(1, q) for q in primes[3:])))
    rho = ss.Weight.full(ss.CylinderFunction(full3, 1, weights))
    f = ss.CylinderFunction(full3, 8, values)
    start = time.perf_counter()
    out = ss.transfer_apply(rho, f)
    assert time.perf_counter() - start < 1.0
    expected = brute_force_transfer(full3, lambda y: weights[y[:1]], lambda y: values[y], 7)
    assert out.nonzero == expected


def test_transfer_identity_trivial_cases(golden):
    rho = const_weight(golden)
    f = ss.CylinderFunction.indicator(golden, "12")
    assert ss.verify_transfer_identity(rho, f, ss.CylinderFunction.constant(golden, 1))
    assert ss.verify_transfer_identity(
        rho, ss.CylinderFunction.zero(golden), random_function(random.Random(2), golden, 2)
    )


def test_transfer_identity_random_suite():
    rng = random.Random(13)
    for _ in range(60):
        A = random_matrix(rng, nmax=4)
        rho = random_weight(rng, A, depth_max=3, zero_prob=0.2)
        f = masked(random_function(rng, A, rng.randint(1, 3)), rho.domain)
        g = random_function(rng, A, rng.randint(1, 3))
        assert ss.verify_transfer_identity(rho, f, g)


def test_transfer_linearity_and_positivity():
    rng = random.Random(17)
    for _ in range(40):
        A = random_matrix(rng, nmax=4)
        rho = random_weight(rng, A, zero_prob=0.2)
        f = masked(random_function(rng, A, rng.randint(1, 3)), rho.domain)
        g = masked(random_function(rng, A, rng.randint(1, 3)), rho.domain)
        a, b = random_fraction(rng), random_fraction(rng)
        lhs = ss.transfer_apply(rho, a * f + b * g)
        assert lhs == a * ss.transfer_apply(rho, f) + b * ss.transfer_apply(rho, g)
        nonneg = masked(random_function(rng, A, 2, nonneg=True), rho.domain)
        image = ss.transfer_apply(rho, nonneg)
        assert all(v >= 0 for v in image.values.values())


def test_counting_law_matches_brute_force():
    corpus = [
        ss.AdjacencyMatrix.from_rows([[1, 1], [1, 1]]),
        ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]]),
        ss.AdjacencyMatrix.from_rows([[0, 1], [1, 0]]),
    ]
    for A in corpus:
        counting = ss.transfer_apply(const_weight(A), ss.CylinderFunction.constant(A, 1))
        assert counting.depth == 1
        for s in A.symbols:
            column_sum = sum(A.rows[a - 1][s - 1] for a in A.symbols)
            assert ss.evaluate(counting, (s,)) == column_sum
            assert column_sum == brute_force_preimage_count(A, s)


def test_recover_weight_examples(full2, golden):
    rho0 = ss.Weight.full(ss.CylinderFunction(full2, 1, {(1,): "1/2", (2,): "1/3"}))
    assert ss.recover_weight(ss.as_operator(rho0), rho0.domain) == rho0

    U = ss.DomainMask.full(golden)
    zero_op = lambda f: ss.CylinderFunction.zero(golden)
    assert ss.recover_weight(zero_op, U) == ss.Weight.full(ss.CylinderFunction.zero(golden))

    counting = const_weight(golden)
    assert ss.recover_weight(ss.as_operator(counting), U) == counting

    empty = ss.Weight(ss.CylinderFunction.constant(golden, 1), ss.DomainMask.empty(golden))
    assert ss.recover_weight(ss.as_operator(empty), empty.domain) == ss.Weight(
        ss.CylinderFunction.zero(golden), empty.domain
    )


def test_recover_weight_round_trip_with_zeros_and_domains():
    rng = random.Random(23)
    for _ in range(40):
        A = random_matrix(rng, nmax=3)
        rho = random_weight(rng, A, depth_max=3, zero_prob=0.3)
        recovered = ss.recover_weight(ss.as_operator(rho), rho.domain)
        assert recovered == rho


def test_recover_weight_is_fast_on_a_full_depth_5_domain():
    # 243 member cylinders and 729 at depth 6: every indicator check reads
    # only the indicator's one nonzero entry, not a table of all words.
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    rho = ss.Weight(ss.CylinderFunction.constant(full3, "1/2"), ss.DomainMask.full(full3, 5))
    start = time.perf_counter()
    recovered = ss.recover_weight(ss.as_operator(rho), rho.domain)
    assert time.perf_counter() - start < 1.0
    assert recovered == rho


def test_recover_weight_rejects_non_transfer(golden):
    U = ss.DomainMask.full(golden)
    with pytest.raises(NotTransfer):
        ss.recover_weight(lambda f: ss.CylinderFunction.constant(golden, 1), U)
    with pytest.raises(NotTransfer):
        ss.recover_weight(lambda f: ss.pointwise("mul", f, f), U)


def test_recover_weight_rejects_negative_operator(golden):
    rho = const_weight(golden)
    negated = lambda f: -ss.transfer_apply(rho, f)
    with pytest.raises(NegativeWeight):
        ss.recover_weight(negated, rho.domain)


def test_recover_weight_wrong_matrix(golden, full2):
    with pytest.raises(MatrixMismatch):
        ss.recover_weight(
            lambda f: ss.CylinderFunction.zero(full2), ss.DomainMask.full(golden)
        )


def _tampered(rho, word, extra):
    """The operator of rho, except that it adds `extra` to its value on the
    indicator of `word`."""
    target = ss.CylinderFunction.indicator(rho.matrix, word)
    return lambda f: ss.transfer_apply(rho, f) + (extra if f == target else 0)


def _right_on_indicators_only(rho):
    """The operator of rho on each cylinder indicator, and 0 on anything else."""
    def L(f):
        if list(f.nonzero.values()) == [1]:
            return ss.transfer_apply(rho, f)
        return ss.CylinderFunction.zero(rho.matrix)
    return L


def test_recover_weight_rejection_branches_fire():
    A = ss.AdjacencyMatrix.from_rows([[1, 1, 0], [1, 1, 1], [1, 0, 1]])
    rho = ss.Weight.full(ss.CylinderFunction(A, 1, {(1,): "1/2", (2,): "1/3", (3,): 2}))
    U = rho.domain
    # 1 -> 3 is no edge, so no weight puts L(xi_1) on [3]; xi_11 and xi_12 stay untouched.
    off_image = ss.CylinderFunction.indicator(A, "3")
    cases = [
        (_tampered(rho, "1", off_image), U, NotTransfer, "disagrees"),  # at depth d
        (_tampered(rho, "12", 1), U, NotTransfer, "disagrees"),  # at depth d + 1
        (_right_on_indicators_only(rho), U, NotTransfer, "not linear"),
        (lambda f: None, U, NotTransfer, "did not return a cylinder function"),
        (lambda f: -ss.transfer_apply(rho, f), U, NegativeWeight, "weight is -1/2"),
        (lambda f: ss.CylinderFunction.constant(A, 1), ss.DomainMask.empty(A), NotTransfer, "zero function"),
    ]
    assert ss.recover_weight(ss.as_operator(rho), U) == rho  # the untampered operator passes
    for L, domain, error, message in cases:
        with pytest.raises(error, match=message):
            ss.recover_weight(L, domain)


def test_recover_weight_queries_each_indicator_once():
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    U = ss.DomainMask.from_words(full3, ["11", "12", "23", "31", "33"])
    rho = ss.Weight(ss.CylinderFunction(full3, 1, {(1,): 1, (2,): "1/2", (3,): 3}), U)
    queries = []

    def counting(f):
        queries.append((f.depth, tuple(sorted(f.nonzero.items()))))
        return ss.transfer_apply(rho, f)

    assert ss.recover_weight(counting, U) == rho
    members, deeper = sorted(U.members), sorted(U.refine(3).members)
    assert len(queries) == len(members) + len(deeper) + (len(members) - 1) == 24
    assert len(set(queries)) == len(queries)
    indicators = {q for q in queries if [v for _, v in q[1]] == [1]}
    assert indicators == {(len(w), ((w, 1),)) for w in members + deeper}


def test_zero_set_examples(golden, full2):
    assert ss.zero_set(const_weight(golden)) == frozenset()
    ind = ss.Weight.full(ss.CylinderFunction.indicator(full2, "1"))
    assert ss.zero_set(ind) == {(2,)}
    zero = ss.Weight.full(ss.CylinderFunction.zero(golden, 2))
    assert ss.zero_set(zero) == set(ss.enumerate_words(golden, 2))


def test_weights_equivalent_examples(golden, full2):
    rng = random.Random(29)
    rho = random_weight(rng, golden, domain=ss.DomainMask.full(golden))
    doubled = ss.Weight(2 * rho.carrier, rho.domain)
    equivalent, r = ss.weights_equivalent(rho, doubled)
    assert equivalent and r == ss.CylinderFunction.constant(golden, "1/2")

    ind = ss.Weight.full(ss.CylinderFunction.indicator(full2, "1"))
    one = const_weight(full2)
    assert ss.weights_equivalent(ind, one) == (False, None)

    positive = ss.Weight.full(ss.CylinderFunction(full2, 1, {(1,): "3/4", (2,): 5}))
    equivalent, r = ss.weights_equivalent(one, positive)
    assert equivalent
    assert ss.pointwise("mul", r, positive.carrier) == one.carrier
    assert all(v != 0 for v in r.values.values())


def test_weights_equivalent_errors(golden, full2):
    with pytest.raises(MatrixMismatch):
        ss.weights_equivalent(const_weight(golden), const_weight(full2))
    with pytest.raises(DomainMismatch):
        ss.weights_equivalent(
            const_weight(golden),
            ss.Weight(
                ss.CylinderFunction.constant(golden, 1),
                ss.DomainMask.from_words(golden, ["21"]),
            ),
        )


def test_weights_equivalent_respects_zero_cylinders(golden):
    U = ss.DomainMask.full(golden, 2)
    base = ss.CylinderFunction(golden, 2, {(1, 1): 0, (1, 2): 2, (2, 1): "1/5"})
    rho = ss.Weight(ss.CylinderFunction(golden, 2, {(1, 1): 0, (1, 2): 1, (2, 1): 3}), U)
    rho2 = ss.Weight(base, U)
    equivalent, r = ss.weights_equivalent(rho, rho2)
    assert equivalent
    assert ss.pointwise("mul", r, rho2.carrier) == rho.carrier
    assert all(v != 0 for v in r.values.values())
    bumped = ss.Weight(
        ss.CylinderFunction(golden, 2, {(1, 1): 1, (1, 2): 1, (2, 1): 3}), U
    )
    assert ss.weights_equivalent(rho, bumped) == (False, None)


def test_deep_empty_domain_lists_no_words(golden):
    # Depth 40 has 267,914,296 admissible words; the carrier is built from
    # the domain's members, of which there are none.
    start = time.perf_counter()
    rho = ss.parse_weight_file(golden, "depth 1\n1 1\n2 1\ndomain 40\n")
    recovered = ss.recover_weight(ss.as_operator(rho), rho.domain)
    assert time.perf_counter() - start < 1.0
    assert rho.depth == 40 and rho.carrier.is_zero() and rho.domain.is_empty()
    assert recovered.depth == 40 and recovered.carrier.is_zero() and recovered.domain == rho.domain


def test_weight_file_round_trip(golden):
    U = ss.DomainMask.from_words(golden, ["11", "21"])
    rho = ss.Weight(ss.CylinderFunction(golden, 1, {(1,): "1/2", (2,): 1}), U)
    text = ss.format_weight_file(rho)
    assert ss.parse_weight_file(golden, text) == rho
    full = ss.parse_weight_file(golden, "depth 1\n1 1/2\n2 1\n")
    assert full.domain.is_full()
    # The mask constructor rejects a domain word of the wrong length.
    with pytest.raises(MalformedInput, match=r"depth-2 words, got \['121'\]"):
        ss.parse_weight_file(golden, "depth 1\n1 1/2\n2 1\ndomain 2\n11\n121\n")
    A = near_cycle(10)
    U = ss.DomainMask.from_words(A, [(10,), (1,)])
    rho = ss.Weight(ss.CylinderFunction(A, 1, {(s,): Fraction(1, s) for s in A.symbols}), U)
    text = ss.format_weight_file(rho)
    assert text.endswith("\n10. 1/10\ndomain 1\n1\n10.\n")
    assert ss.parse_weight_file(A, text) == rho


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_derived_tables_pass_the_constructor_check(seed):
    # Tables built by CylinderFunction.tabulate skip the constructor's
    # check; every one of them must still pass it.
    rng = random.Random(seed)
    A = random_matrix(rng, nmax=3)
    f = random_function(rng, A, rng.randint(1, 3))
    g = random_function(rng, A, rng.randint(1, 3))
    rho = random_weight(rng, A, depth_max=3, zero_prob=0.3)
    factor = random_function(rng, A, rho.depth, positive=True)
    rho2 = ss.Weight(ss.pointwise("mul", rho.carrier, factor), rho.domain)
    equivalent, witness = ss.weights_equivalent(rho, rho2)
    assert equivalent
    derived = [
        ss.CylinderFunction.constant(A, random_fraction(rng), rng.randint(1, 3)),
        ss.CylinderFunction.indicator(A, rng.choice(ss.enumerate_words(A, rng.randint(1, 3)))),
        ss.refine(f, f.depth + rng.randint(1, 2)),
        ss.alpha(f),
        *(ss.pointwise(op, f, g) for op in ("add", "mul")),
        *(ss.pointwise(op, f) for op in ("neg", "abs")),
        rho.domain.indicator(),
        rho.carrier,
        ss.transfer_apply(rho, masked(f, rho.domain)),
        ss.recover_weight(ss.as_operator(rho), rho.domain).carrier,
        witness,
    ]
    for h in derived:
        assert all(type(v) is Fraction for v in h.values.values())
        assert ss.CylinderFunction(h.matrix, h.depth, h.values).values == h.values
