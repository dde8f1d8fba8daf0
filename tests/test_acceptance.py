"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All equalities are exact (Fraction arithmetic); the
time budgets are generous ceilings, not tolerances.
"""

import random
import time
from fractions import Fraction

import subshift as ss
from support import (
    brute_force_preimage_count,
    masked,
    no_zero_row_matrices,
    random_function,
    random_matrix,
    random_weight,
)

GOLDEN = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])
FULL2 = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 1]])
SWAP2 = ss.AdjacencyMatrix.from_rows([[0, 1], [1, 0]])


def _report(num, label, budget, t0):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"criterion {num} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_transfer_identity_suite():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for _ in range(200):
        A = random_matrix(rng, nmax=4)
        rho = random_weight(rng, A, depth_max=3, zero_prob=0.15)
        f = masked(random_function(rng, A, rng.randint(1, 3)), rho.domain)
        g = random_function(rng, A, rng.randint(1, 3))
        assert ss.verify_transfer_identity(rho, f, g)
    _report(1, "transfer identity, 200 random cases", 5.0, t0)


def test_criterion_2_recovery_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(202)
    for k in range(100):
        A = random_matrix(rng, nmax=4)
        zero_prob = 0.0 if k % 2 else 0.35
        rho = random_weight(rng, A, depth_max=3, zero_prob=zero_prob)
        assert ss.recover_weight(ss.as_operator(rho), rho.domain) == rho
    _report(2, "weight recovery round-trip, 100 random weights", 5.0, t0)


def test_criterion_3_counting_law():
    t0 = time.perf_counter()
    corpus = [FULL2, GOLDEN, SWAP2] + list(no_zero_row_matrices(3))
    for A in corpus:
        ones = ss.Weight.full(ss.CylinderFunction.constant(A, 1))
        counting = ss.transfer_apply(ones, ss.CylinderFunction.constant(A, 1))
        assert counting.depth == 1
        for s in A.symbols:
            column_sum = sum(A.rows[a - 1][s - 1] for a in A.symbols)
            assert ss.evaluate(counting, (s,)) == column_sum
            assert column_sum == brute_force_preimage_count(A, s)
    _report(3, "counting law over the matrix corpus", 1.0, t0)


def test_criterion_4_golden_mean_end_to_end():
    t0 = time.perf_counter()
    verdict = ss.analyze(GOLDEN, depth_budget=4)
    assert verdict.conclusion == ss.NOT_ISOMORPHIC

    # re-verify everything from the serialized report alone
    reread = ss.parse_report(ss.render_report(verdict))
    cert = reread.invariant_set
    assert cert is not None
    for t in range(-4, 5):
        assert ss.contains_word(ss.shift(cert.member, t), cert.word)
        assert not ss.contains_word(ss.shift(cert.non_member, t), cert.word)

    pairs = {(c.i, c.j): c for c in reread.freeness}
    for j in range(2, 5):
        for i in range(1, j):
            table = pairs[(i, j)]
            assert [e.word for e in table.entries] == ss.enumerate_words(GOLDEN, j)
            for e in table.entries:
                assert e.witness.window(0, j) == e.word
                c = e.differs_at - 1
                assert e.witness[i + c] != e.witness[j + c]
                # With the junction edge, w . (w[i:])^inf is the one point of [w]
                # that equalizes the shifts.
                if GOLDEN.rows[e.word[-1] - 1][e.word[i] - 1]:
                    forced = ss.one_sided_seq(GOLDEN, e.word, e.word[i:])
                    assert forced.window(0, j) == e.word
                    span = len(forced.prefix) + len(forced.tail)
                    assert all(forced[i + t] == forced[j + t] for t in range(span))
            table.verify()
    _report(4, "golden-mean end-to-end with re-verification", 2.0, t0)


def test_criterion_5_hypothesis_gates_exhaustive():
    t0 = time.perf_counter()
    total = 0
    for n in (1, 2, 3):
        for A in no_zero_row_matrices(n):
            total += 1
            v = ss.analyze(A)
            transitive, cycle = ss.is_transitive(A), ss.is_cycle(A)
            if transitive and not cycle:
                assert v.conclusion == ss.NOT_ISOMORPHIC
            else:
                assert v.conclusion == ss.INCONCLUSIVE
                expected = "not_transitive" if not transitive else "cycle"
                assert v.hypothesis_failed == expected
    assert total == 1 + 9 + 343
    _report(5, "hypothesis gates, exhaustive n <= 3", 30.0, t0)


def test_criterion_6_weight_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(606)

    for _ in range(10):
        A = random_matrix(rng, nmax=3)
        rho = random_weight(rng, A, depth_max=2)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = ss.Weight(c * rho.carrier, rho.domain)
        equivalent, r = ss.weights_equivalent(rho, scaled)
        assert equivalent
        assert ss.pointwise("mul", r, scaled.carrier) == rho.carrier
        assert all(v != 0 for v in r.values.values())

    ind = ss.Weight.full(ss.CylinderFunction.indicator(FULL2, "1"))
    one = ss.Weight.full(ss.CylinderFunction.constant(FULL2, 1))
    assert ss.weights_equivalent(ind, one) == (False, None)

    domain = ss.DomainMask.full(GOLDEN)
    weights = [
        random_weight(rng, GOLDEN, depth_max=2, zero_prob=0.3, domain=domain)
        for _ in range(20)
    ]
    related = [
        [ss.weights_equivalent(a, b)[0] for b in weights] for a in weights
    ]
    for x in range(20):
        assert related[x][x]  # reflexive
        for y in range(20):
            assert related[x][y] == related[y][x]  # symmetric
            for z in range(20):
                if related[x][y] and related[y][z]:
                    assert related[x][z]  # transitive
    _report(6, "weight equivalence and its axioms", 2.0, t0)


def test_criterion_7_minimality_coverage():
    t0 = time.perf_counter()
    words = []
    for depth in (1, 2, 3, 4):
        words.extend(ss.enumerate_words(GOLDEN, depth))
    for w in words:
        for z in words:
            wit = ss.minimality_witness(GOLDEN, w, z)
            wit.verify()
            assert ss.is_admissible(GOLDEN, wit.prefix)
            assert wit.prefix[wit.shifts :] == z
    _report(7, "minimality coverage, golden mean depth <= 4", 2.0, t0)


def test_criterion_8_every_builder_passes_its_own_check():
    # No builder re-verifies what it returns, so every table, witness and
    # invariant set built over the corpus is verified here.
    t0 = time.perf_counter()
    built = 0
    for A in [GOLDEN, FULL2] + list(no_zero_row_matrices(3)):
        if not ss.is_transitive(A) or ss.is_cycle(A):
            continue
        ss.find_nontrivial_invariant(A).verify()
        words = ss.enumerate_words(A, 1) + ss.enumerate_words(A, 2)
        for w in words:
            for z in words:
                ss.minimality_witness(A, w, z).verify()
        for j in range(1, 5):
            for i in range(j):
                ss.freeness_certificate(A, i, j).verify()
        built += 1
    assert built == 2 + 142  # golden, full2 and the transitive non-cycle 3x3 matrices
    _report(8, "every builder's result verifies, transitive non-cycle n <= 3", 30.0, t0)
