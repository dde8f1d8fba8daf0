import random
from dataclasses import replace

import pytest

import subshift as ss
from subshift.errors import (
    BadExponents,
    CertificateInvalid,
    GraphIsCycle,
    MalformedInput,
    NotTransitive,
)
from support import no_zero_row_matrices, random_matrix


def transitive_noncycle(matrices):
    for A in matrices:
        if ss.is_transitive(A) and not ss.is_cycle(A):
            yield A


def test_invariant_certificate_golden(golden):
    cert = ss.find_nontrivial_invariant(golden)
    assert ss.word_to_string(cert.word) == "121"
    assert cert.member == ss.periodic_seq(golden, "12")
    assert cert.non_member == ss.periodic_seq(golden, "1")
    cert.verify()


def test_invariant_certificate_full_shift(full2):
    cert = ss.find_nontrivial_invariant(full2)
    assert ss.word_to_string(cert.word) == "121"
    assert cert.member == ss.periodic_seq(full2, "12")
    assert cert.non_member == ss.periodic_seq(full2, "2")
    cert.verify()


def test_invariant_certificate_detour_case():
    # cycles through 1 and 2 only, but the word 121 is avoided by routing
    # through 3: no single banned symbol kills every cycle
    A = ss.AdjacencyMatrix.from_rows([[0, 1, 1], [1, 0, 0], [0, 1, 0]])
    cert = ss.find_nontrivial_invariant(A)
    assert ss.word_to_string(cert.word) == "121"
    assert cert.non_member == ss.periodic_seq(A, (1, 3, 2))
    cert.verify()


def test_avoiding_point_on_a_cycle_raises(swap2):
    # The proof step is an explicit check, so it also holds under python -O.
    with pytest.raises(GraphIsCycle):
        ss.freeness._avoiding_point(swap2, (1, 2))


def test_invariant_certificate_hypothesis_gates(swap2, split2):
    with pytest.raises(GraphIsCycle):
        ss.find_nontrivial_invariant(swap2)
    with pytest.raises(NotTransitive):
        ss.find_nontrivial_invariant(split2)


def test_invariant_certificates_exhaustive_small():
    seen = 0
    for n in (2, 3):
        for A in transitive_noncycle(no_zero_row_matrices(n)):
            ss.find_nontrivial_invariant(A).verify()
            seen += 1
    assert seen > 100


def test_invariant_certificate_tamper_detection(golden):
    cert = ss.find_nontrivial_invariant(golden)
    swapped = ss.InvariantSetCertificate(golden, cert.word, cert.non_member, cert.member)
    with pytest.raises(CertificateInvalid):
        swapped.verify()
    bad_word = ss.InvariantSetCertificate(golden, (1, 1), cert.member, cert.non_member)
    with pytest.raises(CertificateInvalid):
        bad_word.verify()


def test_minimality_witness_examples(golden, split2):
    wit = ss.minimality_witness(golden, "21", "12")
    assert ss.word_to_string(wit.prefix) == "2112"
    assert wit.shifts == 2
    same = ss.minimality_witness(golden, "121", "121")
    assert same.prefix == (1, 2, 1) and same.shifts == 0
    with pytest.raises(NotTransitive):
        ss.minimality_witness(split2, "1", "2")


def test_minimality_witness_needs_real_connector():
    # no self-loop at 2: joining "12" to "21" must travel 2 -> 1 -> 2
    A = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])
    wit = ss.minimality_witness(A, "12", "21")
    wit.verify()
    assert ss.is_admissible(A, wit.prefix)
    assert wit.prefix[: 2] == (1, 2)
    assert wit.prefix[wit.shifts :] == (2, 1)


def test_minimality_witness_rejects_bad_words(golden):
    with pytest.raises(MalformedInput):
        ss.minimality_witness(golden, "", "1")
    from subshift.errors import InadmissibleWord

    with pytest.raises(InadmissibleWord):
        ss.minimality_witness(golden, "22", "1")


def test_minimality_witness_coverage_small():
    rng = random.Random(31)
    for _ in range(6):
        A = random_matrix(rng, nmax=4)
        if not ss.is_transitive(A):
            continue
        words = []
        for d in (1, 2, 3):
            words.extend(ss.enumerate_words(A, d))
        for w in words:
            for z in words:
                ss.minimality_witness(A, w, z).verify()


def test_minimality_tamper_detection(golden):
    wit = ss.minimality_witness(golden, "21", "12")
    with pytest.raises(CertificateInvalid):
        replace(wit, shifts=1).verify()
    with pytest.raises(CertificateInvalid):
        replace(wit, prefix=(2, 1, 1, 1)).verify()


def test_freeness_certificate_golden_1_2(golden):
    cert = ss.freeness_certificate(golden, 1, 2)
    assert [ss.word_to_string(e.word) for e in cert.entries] == ["11", "12", "21"]
    by_word = {ss.word_to_string(e.word): e for e in cert.entries}
    # [11]: the only candidate fixed by shift^1 = shift^2 is 111...
    assert by_word["11"].forced == ss.one_sided_seq(golden, "11", "1")
    # [12]: no edge 2 -> 2, so no point of [12] equalizes the shifts
    assert by_word["12"].forced is None
    assert by_word["21"].forced == ss.one_sided_seq(golden, "21", "1")
    for e in cert.entries:
        assert e.witness.window(0, 2) == e.word
        c = e.differs_at - 1
        assert e.witness[1 + c] != e.witness[2 + c]
    cert.verify()


def test_freeness_certificate_zero_exponent(golden):
    cert = ss.freeness_certificate(golden, 0, 1)
    by_word = {ss.word_to_string(e.word): e for e in cert.entries}
    assert by_word["1"].forced == ss.periodic_seq(golden, "1")
    assert by_word["2"].forced is None  # no self-loop at 2
    cert.verify()


def test_freeness_certificate_gates(golden, swap2, split2):
    with pytest.raises(BadExponents):
        ss.freeness_certificate(golden, 2, 2)
    with pytest.raises(BadExponents):
        ss.freeness_certificate(golden, -1, 2)
    with pytest.raises(GraphIsCycle):
        ss.freeness_certificate(swap2, 1, 2)
    with pytest.raises(NotTransitive):
        ss.freeness_certificate(split2, 1, 2)


def test_freeness_certificates_small_exhaustive():
    for A in transitive_noncycle(no_zero_row_matrices(2)):
        for j in range(1, 5):
            for i in range(j):
                ss.freeness_certificate(A, i, j).verify()


def test_freeness_certificates_random_larger():
    rng = random.Random(37)
    checked = 0
    while checked < 8:
        A = random_matrix(rng, nmax=4, nmin=3)
        if not (ss.is_transitive(A) and not ss.is_cycle(A)):
            continue
        for j in range(1, 5):
            for i in range(j):
                ss.freeness_certificate(A, i, j).verify()
        checked += 1


def test_freeness_tamper_detection(golden):
    cert = ss.freeness_certificate(golden, 1, 2)
    entries = list(cert.entries)
    entries[0] = replace(entries[0], differs_at=entries[0].differs_at + 1)
    with pytest.raises(CertificateInvalid):
        ss.FreenessCertificate(golden, 1, 2, tuple(entries)).verify()
    with pytest.raises(CertificateInvalid):
        ss.FreenessCertificate(golden, 1, 2, cert.entries[:-1]).verify()
    swapped = [
        replace(e, forced=None) if e.forced is not None else e for e in cert.entries
    ]
    with pytest.raises(CertificateInvalid):
        ss.FreenessCertificate(golden, 1, 2, tuple(swapped)).verify()


def test_certificate_serialization_round_trip(golden):
    inv = ss.find_nontrivial_invariant(golden)
    assert ss.InvariantSetCertificate.from_dict(golden, inv.to_dict()).to_dict() == inv.to_dict()
    wit = ss.minimality_witness(golden, "21", "12")
    assert ss.MinimalityWitness.from_dict(golden, wit.to_dict()).to_dict() == wit.to_dict()
    free = ss.freeness_certificate(golden, 1, 3)
    rebuilt = ss.FreenessCertificate.from_dict(golden, free.to_dict())
    rebuilt.verify()
    assert rebuilt.to_dict() == free.to_dict()
