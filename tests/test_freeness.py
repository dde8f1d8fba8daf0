import copy
import gc
import json
import pickle
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import subshift as ss
from subshift.errors import (
    BadExponents,
    CertificateInvalid,
    GraphIsCycle,
    InadmissibleWord,
    MalformedInput,
    NotTransitive,
    WorkLimitExceeded,
)
from support import (
    FORMAT1_FIXTURES,
    brute_force_words,
    format1_text,
    no_zero_row_matrices,
    per_entry_row,
    random_matrix,
)


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


def test_diverting_tail_on_a_cycle_raises():
    # Every symbol of the 3-cycle has one successor, so r = 123 has no edge to leave by.
    cycle3 = ss.AdjacencyMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(GraphIsCycle, match="no diverting edge found"):
        ss.freeness._diverting_tail(cycle3, (1, 2, 3))


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


@st.composite
def _transitive_noncycle(draw):
    """A seeded random transitive non-cycle matrix with n = 4-6."""
    A = random_matrix(random.Random(draw(st.integers(0, 2**32 - 1))), nmax=6, nmin=4)
    assume(ss.is_transitive(A) and not ss.is_cycle(A))
    return A


def _admissible_literal(draw, A):
    """An admissible word of length 1-5 over A, written as a user writes it."""
    word = [draw(st.sampled_from(A.symbols))]
    for _ in range(draw(st.integers(0, 4))):
        word.append(draw(st.sampled_from(A.successors(word[-1]))))
    return ss.word_to_string(word)


@settings(max_examples=60, deadline=None)
@given(_transitive_noncycle())
def test_invariant_certificates_verify_on_larger_matrices(A):
    # The builder returns its certificate unchecked; verify is the check.
    ss.find_nontrivial_invariant(A).verify()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minimality_witnesses_verify_for_any_admissible_words(data):
    # The words `witness minimal` takes from users, not only analyze's spot pairs.
    A = data.draw(_transitive_noncycle())
    w, z = _admissible_literal(data.draw, A), _admissible_literal(data.draw, A)
    wit = ss.minimality_witness(A, w, z)
    wit.verify()
    assert (wit.start, wit.target) == (ss.word_from_string(w), ss.word_from_string(z))


def test_invariant_certificate_tamper_detection(golden, full2):
    cert = ss.find_nontrivial_invariant(golden)
    swapped = ss.InvariantSetCertificate(golden, cert.word, cert.non_member, cert.member)
    with pytest.raises(CertificateInvalid, match="member does not contain"):
        swapped.verify()
    bad_word = ss.InvariantSetCertificate(golden, (1, 1), cert.member, cert.non_member)
    with pytest.raises(CertificateInvalid):
        bad_word.verify()
    both_members = ss.InvariantSetCertificate(golden, cert.word, cert.member, cert.member)
    with pytest.raises(CertificateInvalid, match="non-member contains the certificate word"):
        both_members.verify()
    # The same literals read over full2: equal words, but points of another space.
    for points in ((ss.periodic_seq(full2, "12"), cert.non_member), (cert.member, ss.periodic_seq(full2, "1"))):
        elsewhere = ss.InvariantSetCertificate(golden, cert.word, *points)
        with pytest.raises(CertificateInvalid, match="built over a different matrix"):
            elsewhere.verify()


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
    with pytest.raises(CertificateInvalid, match="shift count"):
        replace(wit, shifts=1).verify()
    with pytest.raises(CertificateInvalid):
        replace(wit, prefix=(2, 1, 1, 1)).verify()
    # A negative count that matches the lengths is refused by the suffix check.
    short = replace(wit, prefix=(2, 1), target=(1, 2, 1), shifts=-1)
    with pytest.raises(CertificateInvalid, match="does not leave the target word"):
        short.verify()


def test_verify_refuses_the_numbers_its_reader_refuses(golden):
    # from_dict reads differs_at and shifts as JSON integers; verify, of a
    # certificate built in code, refuses a bool or a float too, where it would
    # otherwise pass (True == 1) or slice with it.
    cert = ss.freeness_certificate(golden, 0, 1)
    k = next(k for k, e in enumerate(cert.entries) if e.differs_at == 1)
    place = rf"^\(i=0, j=1\)\.entries\[{k}\] \[{ss.word_to_string(cert.entries[k].word)}\]: "
    for bad in (True, 1.0):
        entries = list(cert.entries)
        entries[k] = replace(entries[k], differs_at=bad)
        tampered = ss.FreenessCertificate(golden, 0, 1, tuple(entries))
        with pytest.raises(CertificateInvalid, match=f"{place}differs_at must be an integer, got {bad!r}$"):
            tampered.verify()
        if bad is True:
            with pytest.raises(MalformedInput, match=f"{place}differs_at must be a JSON integer, got True$"):
                ss.FreenessCertificate.from_dict(golden, tampered.to_dict())
    for bad in (1.0, True):
        with pytest.raises(CertificateInvalid, match=f"^shifts must be an integer, got {bad!r}$"):
            ss.MinimalityWitness(golden, (1,), (2,), (1, 2), bad).verify()
    # So are i and j, also once depth 2's listing is kept, whose length a float j would find.
    cert = ss.freeness_certificate(golden, 0, 2)
    for i, j in ((0, 2.0), (0.0, 2), (False, 2)):
        with pytest.raises(CertificateInvalid, match=rf"^\(i={i!r}, j={j!r}\): exponents must be integers$"):
            ss.FreenessCertificate(golden, i, j, cert.entries).verify()


def equalizes(point, i, j):
    span = len(point.prefix) + len(point.tail)
    return all(point[i + t] == point[j + t] for t in range(span))


def test_freeness_certificate_golden_1_2(golden):
    cert = ss.freeness_certificate(golden, 1, 2)
    assert [ss.word_to_string(e.word) for e in cert.entries] == ["11", "12", "21"]
    # [11]: the only candidate fixed by shift^1 = shift^2 is 111...
    assert equalizes(ss.one_sided_seq(golden, "11", "1"), 1, 2)
    # [12]: no edge 2 -> 2, so no point of [12] equalizes the shifts
    with pytest.raises(InadmissibleWord):
        ss.one_sided_seq(golden, "12", "2")
    assert equalizes(ss.one_sided_seq(golden, "21", "1"), 1, 2)
    for e in cert.entries:
        assert e.witness.window(0, 2) == e.word
        c = e.differs_at - 1
        assert e.witness[1 + c] != e.witness[2 + c]
    cert.verify()


def test_freeness_certificate_zero_exponent(golden):
    cert = ss.freeness_certificate(golden, 0, 1)
    assert [ss.word_to_string(e.word) for e in cert.entries] == ["1", "2"]
    assert equalizes(ss.one_sided_seq(golden, "1", "1"), 0, 1)
    with pytest.raises(InadmissibleWord):  # no self-loop at 2
        ss.one_sided_seq(golden, "2", "2")
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


@pytest.mark.parametrize(
    "build, args, error",
    [
        ("freeness_certificate", (True, 3), BadExponents),
        ("freeness_certificate", (0, True), BadExponents),
        ("freeness_certificate", (0, 2.0), BadExponents),
        ("freeness_certificate", (0.0, 2), BadExponents),
        ("analyze", (3.0,), MalformedInput),
        ("analyze", (True,), MalformedInput),
    ],
)
def test_exponents_and_depth_budgets_must_be_exact_ints(golden, build, args, error):
    # A bool, or a float equal to an int, is refused before anything is built:
    # no raw TypeError, and no table that its own verify refuses.
    with pytest.raises(error, match="must be (an integer|integers), got"):
        getattr(ss, build)(golden, *args)


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


@st.composite
def _freeness_cases(draw):
    """A transitive non-cycle matrix with n <= 5 and exponents 0 < i < j <= 5."""
    n = draw(st.integers(2, 5))
    rows = [[(m >> c) & 1 for c in range(n)] for m in (draw(st.integers(1, 2**n - 1)) for _ in range(n))]
    A = ss.AdjacencyMatrix.from_rows(rows)
    assume(ss.is_transitive(A) and not ss.is_cycle(A))
    j = draw(st.integers(2, 5))
    return rows, draw(st.integers(1, j - 1)), j


def _answers(cert):
    return [(e.word, e.witness.tail, e.differs_at) for e in cert.entries]


@settings(max_examples=40, deadline=None)
@given(_freeness_cases())
def test_a_table_asked_first_matches_one_built_from_kept_answers(case):
    # Each answer is kept per (j - i, w[i:]) for one call, so a table with i > 0
    # asked alone, whose suffixes nothing has answered yet, must read the same
    # as the one in analyze's verdict, whose answers every earlier pair filled in.
    rows, i, j = case
    A = ss.AdjacencyMatrix.from_rows(rows)
    cold = ss.freeness_certificate(A, i, j)
    warm = next(cert for cert in ss.analyze(A, j).freeness if (cert.i, cert.j) == (i, j))
    assert _answers(cold) == _answers(warm)
    cold.verify()
    warm.verify()


def test_a_tail_that_equalizes_the_shifts_is_refused_where_it_is_found(monkeypatch):
    # With r itself as the tail, w . (w[i:])^inf is the one point of [w] where
    # the shifts agree: the builder names the pair and the word, not a later check.
    monkeypatch.setattr(ss.freeness, "_diverting_tail", lambda A, r: r)
    A = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])
    with pytest.raises(CertificateInvalid, match=r"^\(i=1, j=2\)\.entries\[0\] \[11\]: witness equalizes"):
        ss.freeness_certificate(A, 1, 2)


def test_freeness_tamper_detection(golden, full2):
    cert = ss.freeness_certificate(golden, 1, 2)
    entries = list(cert.entries)
    entries[0] = replace(entries[0], differs_at=entries[0].differs_at + 1)
    with pytest.raises(CertificateInvalid):
        ss.FreenessCertificate(golden, 1, 2, tuple(entries)).verify()
    with pytest.raises(CertificateInvalid):
        ss.FreenessCertificate(golden, 1, 2, cert.entries[:-1]).verify()
    # The forced point w . (w[1:])^inf as a witness equalizes the shifts.
    forced = replace(cert.entries[0], witness=ss.one_sided_seq(golden, "11", "1"))
    with pytest.raises(CertificateInvalid, match=r"entries\[0\] \[11\]: witness equalizes"):
        ss.FreenessCertificate(golden, 1, 2, (forced,) + cert.entries[1:]).verify()
    elsewhere = replace(cert.entries[0], witness=ss.one_sided_seq(golden, "12", "1"))
    with pytest.raises(CertificateInvalid):
        ss.FreenessCertificate(golden, 1, 2, (elsewhere,) + cert.entries[1:]).verify()
    other = replace(cert.entries[0], witness=ss.one_sided_seq(full2, "11", "2"))
    with pytest.raises(CertificateInvalid, match=r"entries\[0\] \[11\]: witness built over a different matrix"):
        ss.FreenessCertificate(golden, 1, 2, (other,) + cert.entries[1:]).verify()
    # The matrix is compared by its rows, not only by identity: an equal matrix object passes.
    equal = ss.AdjacencyMatrix(golden.rows)
    ss.FreenessCertificate(
        golden, 1, 2, tuple(replace(e, witness=ss.one_sided_seq(equal, e.word, e.witness.tail)) for e in cert.entries)
    ).verify()
    for i, j in ((2, 2), (3, 2), (-1, 2)):
        with pytest.raises(CertificateInvalid, match=rf"^\(i={i}, j={j}\): exponents must satisfy 0 <= i < j"):
            ss.FreenessCertificate(golden, i, j, cert.entries).verify()
    # from_dict refuses them before it counts: j = 0 has no words to count, and
    # golden's two depth-1 rows match N_1 = 2 whatever i is.
    depth1 = ss.freeness_certificate(golden, 0, 1).to_dict()["entries"]
    for i, j, rows in ((0, 0, []), (3, 1, depth1), (-1, 1, depth1)):
        with pytest.raises(CertificateInvalid, match=rf"^\(i={i}, j={j}\): exponents must satisfy 0 <= i < j$"):
            ss.FreenessCertificate.from_dict(golden, {"i": i, "j": j, "entries": rows})
    # golden has ~2.7e8 depth-40 words: the count is compared before any is listed
    with pytest.raises(CertificateInvalid):
        ss.FreenessCertificate(golden, 0, 40, ()).verify()


def test_first_read_entries_are_the_public_constructors_ones(golden):
    # A built or a read table makes its entries on first read through the
    # public constructors: one per depth-j word in listing order, each point
    # over the table's matrix, and the read table's are the built one's.
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    for A, i, j in ((golden, 1, 3), (full3, 0, 2), (full3, 1, 3)):
        built = ss.freeness_certificate(A, i, j)
        read = ss.FreenessCertificate.from_dict(A, built.to_dict())
        assert _answers(read) == _answers(built)
        assert [e.word for e in built.entries] == ss.enumerate_words(A, j)
        for entry in built.entries + read.entries:
            assert type(entry) is ss.FreenessEntry and type(entry.witness) is ss.sequences.OneSidedPoint
            assert entry.witness.matrix is A
            with pytest.raises(FrozenInstanceError):
                entry.witness.tail = (1,)


_READERS = {  # each public reader, and a valid document of it from golden's depth-3 verdict
    "invariant_set": (ss.InvariantSetCertificate.from_dict, lambda v: v.invariant_set.to_dict()),
    "minimality": (ss.MinimalityWitness.from_dict, lambda v: v.minimality[5].to_dict()),
    "freeness": (ss.FreenessCertificate.from_dict, lambda v: v.freeness[2].to_dict()),
}


@pytest.mark.parametrize("document", ["array", "number", "missing-key"])
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_every_reader_refuses_what_is_not_its_document(golden, reader, document):
    # No document ends a reader in a TypeError or an AttributeError.
    read, valid = _READERS[reader]
    data = valid(ss.analyze(golden, 3))
    read(golden, data)
    key = min(data)
    bad = {"array": [1], "number": 5, "missing-key": {k: v for k, v in data.items() if k != key}}[document]
    message = f"expected a JSON object, got {bad!r}" if document != "missing-key" else f"missing key {key!r}"
    with pytest.raises(MalformedInput) as refused:
        read(golden, bad)
    assert str(refused.value).endswith(message)
    if reader == "freeness":
        with pytest.raises(MalformedInput, match=r"^\(i=1, j=2\): entries must be a JSON array, got 5$"):
            read(golden, dict(data, entries=5))


def test_table_sizes_are_compared_without_counting_through(golden):
    # N_100000 has over 20,000 digits; counting stops at N_1 = 2, past the 0 rows.
    started = time.perf_counter()
    with pytest.raises(CertificateInvalid, match="do not cover the depth-j cylinders"):
        ss.FreenessCertificate.from_dict(golden, {"i": 0, "j": 100_000, "entries": []})
    with pytest.raises(CertificateInvalid, match="do not cover the depth-j cylinders"):
        ss.FreenessCertificate(golden, 0, 100_000, ()).verify()
    assert time.perf_counter() - started < 1
    # Golden N_3 = 5: four rows and six rows are both refused at depth 3.
    rows = ss.freeness_certificate(golden, 1, 3).to_dict()["entries"]
    for wrong in (rows[:4], rows + rows[:1]):
        with pytest.raises(CertificateInvalid, match="do not cover the depth-j cylinders"):
            ss.FreenessCertificate.from_dict(golden, {"i": 1, "j": 3, "entries": wrong})


def test_tables_past_the_work_limit_are_refused_before_listing(swap2):
    # The 2-cycle has N_j = 2 at every depth, so two rows match the count, but
    # listing both depth-100000 words would build 2 * (1 + ... + 100000) symbols.
    entries = tuple(
        ss.FreenessEntry(ss.one_sided_seq(swap2, w * 50_000, w), 1) for w in ((1, 2), (2, 1))
    )
    started = time.perf_counter()
    with pytest.raises(WorkLimitExceeded, match="listing the length-100000 words"):
        ss.FreenessCertificate.from_dict(swap2, {"i": 0, "j": 100_000, "entries": [{}, {}]})
    with pytest.raises(WorkLimitExceeded, match="listing the length-100000 words"):
        ss.FreenessCertificate(swap2, 0, 100_000, entries).verify()
    assert time.perf_counter() - started < 1


def test_table_rows_are_shared_only_when_written_alike(golden):
    # Each entry is written as at every other place: True == 1 and
    # (True,) == (1,), but the rows that hold them are written apart.
    point = lambda w, t: ss.sequences.OneSidedPoint(golden, w, t)
    entries = (
        ss.FreenessEntry(point((1, 1), (1,)), 1),
        ss.FreenessEntry(point((1, 2), (1,)), True),
        ss.FreenessEntry(point((2, 1), (True,)), 1),
    )
    rows = ss.FreenessCertificate(golden, 0, 2, entries).to_dict()["entries"]
    each = [{"differs_at": e.differs_at, "tail": ss.word_to_string(e.witness.tail)} for e in entries]
    assert json.dumps(rows) == json.dumps(each) == (
        '[{"differs_at": 1, "tail": "1"}, {"differs_at": true, "tail": "1"}, {"differs_at": 1, "tail": "1."}]'
    )


def test_tables_without_a_layout_are_written_from_their_own_entries(golden):
    # A built table keeps its answer blocks' layout and is written from it.
    # A table from the constructor or from replace has none, and is written
    # from its own entries, so an edited entry shows in the bytes even where
    # the built table it was edited from has a layout.  A table from_dict
    # reads is laid out as its own rows, one block per depth-(i+1) word, so
    # it writes them too.
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    for A, i, j, k in ((golden, 1, 3, 3), (full3, 1, 3, 4), (full3, 0, 2, 0)):
        cert = ss.freeness_certificate(A, i, j)
        e = cert.entries[k]
        for change in (
            {"differs_at": e.differs_at + 1},
            {"witness": ss.sequences.OneSidedPoint(A, e.word, e.witness.tail * 2)},
        ):
            entries = cert.entries[:k] + (replace(e, **change),) + cert.entries[k + 1 :]
            rows = [{"differs_at": x.differs_at, "tail": ss.word_to_string(x.witness.tail)} for x in entries]
            expected = json.dumps({"i": i, "j": j, "entries": rows}, indent=2, sort_keys=True) + "\n"
            for table in (
                ss.FreenessCertificate(A, i, j, entries),
                replace(cert, entries=entries),
                ss.FreenessCertificate.from_dict(A, {"i": i, "j": j, "entries": rows}),
            ):
                assert ss.verdict.dump_json(table.to_dict()) == expected
                assert ss.verdict.dump_json(table) == expected
        assert ss.verdict.dump_json(cert.to_dict()) != expected


def test_laid_out_tables_make_their_entries_on_first_read(golden, swap2, split2, monkeypatch):
    # A built table keeps its layout, with the depth-j listing, and makes its
    # entries only when .entries is first read, so a report makes none.  The
    # first read gives the eager rule's entries: the point w . t^inf of each
    # depth-j word w, with t and differs_at chosen from u = w[i:] alone.
    # Every refusal still raises from freeness_certificate itself.
    rng = random.Random(28)
    seeded = next(transitive_noncycle(random_matrix(rng, 4, 4) for _ in iter(int, 1)))
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    assert [f.name for f in fields(ss.FreenessCertificate)] == ["matrix", "i", "j", "entries", "_layout"]
    for A, b in ((golden, 6), (full3, 4), (seeded, 4)):
        v = ss.analyze(A, b)
        ss.render_report(v)
        assert [c for c in v.freeness if "entries" in vars(c)] == []
        for cert in v.freeness:
            i, j, entries = cert.i, cert.j, cert.entries
            words = ss.enumerate_words(A, j)
            assert type(entries) is tuple and len(entries) == len(words)
            for w, e in zip(words, entries):
                u = w[i:]
                tail = (
                    ss.freeness._diverting_tail(A, u)
                    if (u[-1], u[0]) in A.edges
                    else ss.find_path(A, u[-1], u[-1])[1:]
                )
                x = e.witness
                first = next(c for c in range(j + len(tail)) if x[i + c] != x[j + c]) + 1
                assert type(e) is ss.FreenessEntry and x.matrix is A
                assert (e.word, x.tail, e.differs_at) == (w, tail, first)
            assert cert.entries is entries and vars(cert)["entries"] is entries
            copied = replace(cert)
            assert copied._layout is None and copied.entries == entries

        def unread():
            return ss.freeness_certificate(A, 1, b)

        (built,) = [c for c in v.freeness if (c.i, c.j) == (1, b)]
        assert repr(unread()).startswith("FreenessCertificate(matrix=")
        unread().verify()
        for twin in (copy.copy(unread()), pickle.loads(pickle.dumps(unread()))):
            assert "entries" not in vars(twin)
            rows = [(e.word, e.witness.tail, e.differs_at) for e in twin.entries]
            assert rows == [(e.word, e.witness.tail, e.differs_at) for e in built.entries]
            assert all(e.witness.matrix is twin.matrix for e in twin.entries)
            twin.verify()

    with pytest.raises(WorkLimitExceeded, match="listing the length-21 words"):
        ss.freeness_certificate(golden, 0, 21)
    with pytest.raises(BadExponents):
        ss.freeness_certificate(golden, 2, 2)
    with pytest.raises(NotTransitive):
        ss.freeness_certificate(split2, 1, 2)
    with pytest.raises(GraphIsCycle):
        ss.freeness_certificate(swap2, 1, 2)
    monkeypatch.setattr(ss.freeness, "_diverting_tail", lambda A, r: r)
    with pytest.raises(CertificateInvalid, match=r"entries\[0\] \[11\]: witness equalizes"):
        ss.freeness_certificate(ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]]), 1, 2)


def test_certificate_serialization_round_trip(golden):
    inv = ss.find_nontrivial_invariant(golden)
    assert ss.InvariantSetCertificate.from_dict(golden, inv.to_dict()).to_dict() == inv.to_dict()
    wit = ss.minimality_witness(golden, "21", "12")
    assert ss.MinimalityWitness.from_dict(golden, wit.to_dict()).to_dict() == wit.to_dict()
    free = ss.freeness_certificate(golden, 1, 3)
    rebuilt = ss.FreenessCertificate.from_dict(golden, free.to_dict())
    rebuilt.verify()
    assert rebuilt.to_dict() == free.to_dict()


def test_work_limit_counts_entries_before_building(golden, monkeypatch):
    # Golden-mean sums of j * N_j: 852,340 at depth 20, 1,454,137 at 21.
    # The limit has one binding, the one every check reads.
    assert not hasattr(ss.freeness, "MAX_FREENESS_ENTRIES") and ss.sequences.MAX_FREENESS_ENTRIES == 1_000_000
    ss.sequences.require_work_limit(golden, 20)
    with pytest.raises(WorkLimitExceeded, match="listing the length-21 words would build"):
        ss.sequences.require_work_limit(golden, 21)
    with pytest.raises(WorkLimitExceeded, match="freeness tables would hold"):
        ss.analyze(golden, 21)

    class Built(Exception):
        """analyze got past its work limit and started the freeness tables."""

    def first_table(A, i, j):
        raise Built

    monkeypatch.setattr(ss.verdict, "freeness_certificate", first_table)
    with pytest.raises(Built):
        ss.analyze(golden, 20)
    monkeypatch.undo()
    # One table lists the depth-j words, so it is refused exactly when that listing is.
    assert len(ss.freeness_certificate(golden, 0, 20).entries) == ss.sequences.word_count(golden, 20)
    for j in (21, 29, 10**9):
        with pytest.raises(WorkLimitExceeded, match=f"listing the length-{j} words"):
            ss.freeness_certificate(golden, 0, j)


def test_a_kept_listing_is_refused_whenever_a_fresh_one_is(monkeypatch):
    # analyze and verify_report each list a depth's words once per call; lowered
    # after those calls, the work limit still refuses a table built, read or
    # verified on their matrices exactly when enumerate_words refuses.
    A = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])
    built = ss.analyze(A, 5)
    read = ss.verify_report(ss.render_report(built))
    outcomes = Counter()
    for v in (built, read):
        M = v.matrix
        for limit in (1, 2, 7, 8, 22, 23, 54, 55, 119):  # golden's sums of j * N_j: 2, 8, 23, 55, 120
            monkeypatch.setattr(ss.sequences, "MAX_FREENESS_ENTRIES", limit)
            for cert in v.freeness:
                try:
                    ss.enumerate_words(M, cert.j)
                except WorkLimitExceeded:
                    outcomes["refused"] += 1
                    for table in (
                        lambda: ss.freeness_certificate(M, cert.i, cert.j),
                        lambda: ss.FreenessCertificate.from_dict(M, cert.to_dict()),
                        cert.verify,
                    ):
                        with pytest.raises(WorkLimitExceeded, match=f"listing the length-{cert.j} words"):
                            table()
                else:
                    ss.freeness_certificate(M, cert.i, cert.j)
                    ss.FreenessCertificate.from_dict(M, cert.to_dict()).verify()
                    cert.verify()
                    outcomes["built"] += 1
    assert outcomes["refused"] and outcomes["built"]


def test_a_report_applies_the_work_limit_once_per_depth_it_lists(monkeypatch):
    # A store lives for one call and lists each depth once, through
    # enumerate_words, which applies the work limit; so a golden d5
    # verify_report checks the limit once for each of the depths 1 to 5.
    text = ss.render_report(ss.analyze(ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]]), 5))
    calls, check = [], ss.sequences.require_work_limit

    def counted(*args, **kwargs):
        calls.append(args[1])
        return check(*args, **kwargs)

    monkeypatch.setattr(ss.sequences, "require_work_limit", counted)
    if hasattr(ss.freeness, "require_work_limit"):
        monkeypatch.setattr(ss.freeness, "require_work_limit", counted)
    ss.verify_report(text)
    assert sorted(calls) == [1, 2, 3, 4, 5]


def _refuse_entries(monkeypatch):
    """From here on, making a FreenessEntry or a OneSidedPoint by any path fails."""

    def made(*args, **kwargs):
        raise AssertionError("a freeness entry or a one-sided point was made")

    for cls in (ss.FreenessEntry, ss.sequences.OneSidedPoint):
        monkeypatch.setattr(cls, "__init__", made)


def _first_read(cert):
    return [(e.word, e.witness.tail, e.differs_at) for e in cert.entries]


def test_read_tables_are_laid_out_and_make_their_entries_on_first_read(monkeypatch):
    # from_dict cuts a table's rows into answer blocks and lays the table out
    # as those blocks zipped with the depth-j listing, as a built table is
    # laid out from its blocks.  Reading and checking a report, and checking
    # a built or a read table, make no entry and no point; a read table's
    # first .entries read gives the per-entry rule's entries, and a verified
    # report renders to its own text.  Over 200 seeded transitive non-cycle
    # matrices at depth budget 4, and the format-1 fixtures.
    rng, reports = random.Random(30), []
    while len(reports) < 200:
        A = random_matrix(rng, nmax=5, nmin=2)
        if ss.is_transitive(A) and not ss.is_cycle(A):
            text = ss.render_report(ss.analyze(A, 4))
            reports.append((A.rows, 4, text, text))
    for name, (rows, b) in sorted(FORMAT1_FIXTURES.items()):
        written = ss.render_report(ss.analyze(ss.AdjacencyMatrix.from_rows(rows), b))
        reports.append((rows, b, format1_text(name), written))
    for seen, (rows, b, text, written) in enumerate(reports):
        with monkeypatch.context() as patch:
            _refuse_entries(patch)
            built = ss.analyze(ss.AdjacencyMatrix.from_rows(rows), b)
            read = ss.verify_report(text)
            assert ss.render_report(read) == written == ss.render_report(built)
            for cert in built.freeness + read.freeness:
                cert.verify()
                assert "entries" not in vars(cert) and cert._layout is not None
        A = read.matrix
        for cert in read.freeness:
            i, j = cert.i, cert.j
            assert _first_read(cert) == [per_entry_row(A, i, j, w) for w in brute_force_words(A, j)], (rows, i, j)
            assert all(type(e) is ss.FreenessEntry and e.witness.matrix is A for e in cert.entries)
            assert vars(cert)["entries"] is cert.entries
        if seen % 20:
            continue
        # copy, pickle and replace treat a read table as they treat a built one.
        built = ss.analyze(ss.AdjacencyMatrix.from_rows(rows), b)
        for cert, twin, expected in zip(ss.parse_report(text).freeness, built.freeness, read.freeness):
            for table in (cert, twin):
                for copied in (copy.copy(table), pickle.loads(pickle.dumps(table))):
                    assert "entries" not in vars(copied) and copied._layout is not None
                    assert _first_read(copied) == _first_read(expected)
                    assert all(e.witness.matrix is copied.matrix for e in copied.entries)
                    copied.verify()
                assert "entries" not in vars(table)
                replaced = replace(table)
                assert replaced._layout is None and _first_read(replaced) == _first_read(expected)
                replaced.verify()
                assert ss.verdict.dump_json(replaced) == ss.verdict.dump_json(table)


_GOLDEN_D4 = ss.render_report(ss.analyze(ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]]), 4))
# Row 3 of table 4 is the word 211, tail 121, differs_at 2; row 0 of table 9 is 1111, tail 121, differs_at 2.
_AT = {4: "certificates.freeness[4] (i=1, j=3)", 9: "certificates.freeness[9] (i=3, j=4)"}
_ROW = {(4, 3): ".entries[3] [211]: ", (9, 0): ".entries[0] [1111]: "}
_ROW_EDITS = {  # edit -> (the row's new fields, the deleted key, whether parse_report refuses it too)
    "differs_at+1": ({"differs_at": 3}, None, False),
    "differs_at-1": ({"differs_at": 1}, None, False),
    "differs_at-true": ({"differs_at": True}, None, True),
    "differs_at-float": ({"differs_at": 2.0}, None, True),
    "other-tail": ({"tail": "112"}, None, False),
    "inadmissible-tail": ({"tail": "22"}, None, True),
    "equalizing-tail": (None, None, False),  # the tail w[i:], which the junction edge lets repeat
    "missing-key": ({}, "tail", True),
    "extra-key": ({"word": "211"}, None, True),
}
# The refusals of verify_report at the commit before from_dict laid read tables out.
_REFUSALS = {
    "differs_at+1": (CertificateInvalid, "{at}{row}differs_at 3, but they first differ at 2"),
    "differs_at-1": (CertificateInvalid, "{at}{row}differs_at 1, but they first differ at 2"),
    "differs_at-true": (MalformedInput, "{at}{row}differs_at must be a JSON integer, got True"),
    "differs_at-float": (MalformedInput, "{at}{row}differs_at must be a JSON integer, got 2.0"),
    "other-tail": (CertificateInvalid, "{at}{row}differs_at 2, but they first differ at 3"),
    "inadmissible-tail": (InadmissibleWord, "{at}{row}point {word} . (22)^inf is not admissible"),
    "equalizing-tail": (CertificateInvalid, "{at}{row}witness equalizes the shifts"),
    "missing-key": (MalformedInput, "{at}{row}missing key 'tail'"),
    "extra-key": (MalformedInput, "{at}{row}unexpected key 'word'"),
    "short": (CertificateInvalid, "{at}: entries do not cover the depth-j cylinders"),
}


@pytest.mark.parametrize("t, k", sorted(_ROW))
@pytest.mark.parametrize("edit", sorted(_REFUSALS))
def test_a_one_row_edit_is_refused_where_and_as_it_was(t, k, edit):
    # Each edit of one row of golden's depth-4 report raises the class and the
    # located message it raised before read tables were laid out, and
    # parse_report refuses exactly the edits it refused then: it does not
    # judge a differs_at, nor whether a tail's shifts differ.
    doc = json.loads(_GOLDEN_D4)
    table = doc["certificates"]["freeness"][t]
    rows = table["entries"]
    word = ss.word_to_string(ss.enumerate_words(ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]]), table["j"])[k])
    assert rows[k] == {"differs_at": 2, "tail": "121"}
    if edit == "short":
        rows.pop()
        parse_refuses = True
    else:
        fields, deleted, parse_refuses = _ROW_EDITS[edit]
        rows[k].update({"tail": word[table["i"]:]} if fields is None else fields)
        rows[k].pop(deleted, None)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    error, message = _REFUSALS[edit]
    message = message.format(at=_AT[t], row=_ROW[t, k], word=word)
    with pytest.raises(error) as refused:
        ss.verify_report(text)
    assert type(refused.value) is error and str(refused.value) == message
    if parse_refuses:
        with pytest.raises(error) as refused:
            ss.parse_report(text)
        assert type(refused.value) is error and str(refused.value) == message
    else:
        ss.parse_report(text)


def test_read_tables_share_the_answer_blocks_of_their_0_m_table():
    # A format-2 table (i, j) with i > 0 whose rows repeat the (0, m) table's,
    # m = j - i, takes that table's answer blocks, as a built table takes the
    # builder's, and makes the same entries and the same bytes.
    golden = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    for A, b in ((golden, 8), (full3, 5)):
        built = ss.analyze(A, b)
        text = ss.render_report(built)
        read = ss.parse_report(text)
        tables = {(c.i, c.j): c for c in read.freeness}
        for cert, twin in zip(read.freeness, built.freeness):
            assert (cert.i, cert.j) == (twin.i, twin.j)
            if cert.i:
                assert cert._layout[0] is tables[0, cert.j - cert.i]._layout[0], (cert.i, cert.j)
        assert ss.render_report(read) == text
        for cert, twin in zip(read.freeness, built.freeness):
            assert _first_read(cert) == _first_read(twin), (cert.i, cert.j)


def _golden_d4_edited(differs_at: int, edit):
    """golden's depth-4 report with the first row of an i > 0 table whose
    differs_at is `differs_at` updated by edit(row).  Returns the text, the
    table's place and its (i, j), the row's index and its word's literal."""
    A = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])
    doc = json.loads(_GOLDEN_D4)
    for t, table in enumerate(doc["certificates"]["freeness"]):
        i, j, rows = table["i"], table["j"], table["entries"]
        k = next((k for k, row in enumerate(rows) if row["differs_at"] == differs_at), None)
        if i and k is not None:
            rows[k].update(edit(rows[k]))
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            word = ss.word_to_string(ss.enumerate_words(A, j)[k])
            return text, f"certificates.freeness[{t}] (i={i}, j={j})", (i, j), k, word
    raise AssertionError(f"no i > 0 row has differs_at {differs_at}")


@pytest.mark.parametrize("value", [1.0, True])
def test_a_differs_at_equal_to_its_int_is_refused_as_no_json_integer(value):
    # 1.0 == true == 1, so the row still compares equal to the (0, m) row it
    # repeats; it is read row by row and refused as it was.
    text, at, _, k, word = _golden_d4_edited(1, lambda row: {"differs_at": value})
    message = f"{at}.entries[{k}] [{word}]: differs_at must be a JSON integer, got {value!r}"
    for read in (ss.parse_report, ss.verify_report):
        with pytest.raises(MalformedInput) as refused:
            read(text)
        assert type(refused.value) is MalformedInput and str(refused.value) == message


def test_a_wrong_differs_at_in_an_i_positive_table_is_refused_at_its_row():
    text, at, _, k, word = _golden_d4_edited(2, lambda row: {"differs_at": 3})
    ss.parse_report(text)
    with pytest.raises(CertificateInvalid) as refused:
        ss.verify_report(text)
    assert str(refused.value) == f"{at}.entries[{k}] [{word}]: differs_at 3, but they first differ at 2"


def test_a_wrong_answer_in_shared_blocks_is_refused_where_each_entry_check_refuses_it():
    # The same wrong differs_at, written for u = 222 in full3's (0, 3) table
    # and for 1222, 2222 and 3222 in its (1, 4) table, is read into the blocks
    # both tables share.  Each table, checked alone in a fresh store, is
    # refused at its first row that uses the bad answer, as the same table
    # without a layout (replace) is refused entry by entry.
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    doc = json.loads(ss.render_report(ss.analyze(full3, 4)))
    tables = {(t["i"], t["j"]): t["entries"] for t in doc["certificates"]["freeness"]}
    for (i, j), k in (((0, 3), 13), ((1, 4), 13), ((1, 4), 40), ((1, 4), 67)):
        tables[i, j][k]["differs_at"] += 1
    v = ss.parse_report(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    shared = {(c.i, c.j): c._layout[0] for c in v.freeness}
    assert shared[1, 4] is shared[0, 3]
    refused = []
    for cert in v.freeness:
        messages = []
        for table in (cert, replace(cert)):
            try:
                table.verify()
                messages.append(None)
            except CertificateInvalid as exc:
                messages.append(str(exc))
        assert messages[0] == messages[1], (cert.i, cert.j)
        if messages[0] is not None:
            refused.append(messages[0])
    assert refused == [
        "(i=0, j=3).entries[13] [222]: differs_at 3, but they first differ at 2",
        "(i=1, j=4).entries[13] [1222]: differs_at 3, but they first differ at 2",
    ]


def test_a_doubled_tail_verifies_and_is_read_as_its_own_blocks():
    # w . (tt)^inf is the point w . t^inf, with the same first difference, so
    # the report verifies; the table no longer repeats the (0, m) rows, so it
    # is read row by row into blocks of its own, written back as it reads.
    text, _, (i, j), _, _ = _golden_d4_edited(2, lambda row: {"tail": row["tail"] * 2})
    v = ss.verify_report(text)
    tables = {(c.i, c.j): c for c in v.freeness}
    assert tables[i, j]._layout[0] is not tables[0, j - i]._layout[0]
    assert ss.render_report(v) == text


def test_a_checked_block_is_not_scanned_again(monkeypatch):
    # In one store, once table (0, m) has checked its blocks, a built or a read
    # (i, j) table of the same m checks them by their identity alone.
    full3 = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    text = ss.render_report(ss.analyze(full3, 4))

    def scanned(u, t):
        raise AssertionError("a checked block was scanned again")

    for read in (False, True):
        with monkeypatch.context() as patch, ss.freeness._one_store():
            if read:
                tables = {(c.i, c.j): c for c in ss.verdict._verdict_from_doc(json.loads(text)).freeness}
            else:
                tables = {(i, j): ss.freeness_certificate(full3, i, j) for i, j in ((0, 2), (1, 3), (2, 4), (0, 3))}
            tables[0, 2].verify()
            patch.setattr(ss.freeness, "_tail_difference", scanned)
            tables[1, 3].verify()
            tables[2, 4].verify()
            with pytest.raises(AssertionError, match="scanned again"):
                tables[0, 3].verify()


def _open_store():
    return ss.freeness._open_store.get()


def test_a_dropped_table_leaves_nothing_on_its_matrix():
    # The answers of a call live for the call: once golden's (0, 20) table is
    # dropped, its matrix holds only its n^2-bounded path answers (5.93 MB in
    # 7 keys when the matrix kept every depth's listing and answers).
    A = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = ss.freeness_certificate(A, 0, 20)
        del cert
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024


def test_a_matrix_keeps_no_depth_sized_answer():
    # Building, reading, writing and checking certificates over a matrix leaves
    # it holding find_path pairs and "transitive" alone.
    A = ss.AdjacencyMatrix.from_rows([[1, 1, 1]] * 3)
    v = ss.analyze(A, 4)
    for cert in v.freeness:
        ss.FreenessCertificate.from_dict(A, cert.to_dict()).verify()
    for m in v.minimality:
        ss.MinimalityWitness.from_dict(A, m.to_dict()).verify()
    ss.freeness_certificate(A, 1, 5).verify()
    assert A._answers and all(
        key == "transitive" or (type(key) is tuple and [type(s) for s in key] == [int, int]) for key in A._answers
    )


def test_threads_analyzing_one_matrix_write_the_single_threaded_bytes():
    # Each thread runs in its own store, though both share the matrix object.
    rows = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1], [1, 1, 1, 0]]
    expected = ss.render_report(ss.analyze(ss.AdjacencyMatrix.from_rows(rows), 4))
    A, start, written = ss.AdjacencyMatrix.from_rows(rows), threading.Barrier(2), [None, None]

    def run(k):
        start.wait(timeout=60)
        written[k] = ss.render_report(ss.analyze(A, 4))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert written == [expected, expected]


def test_a_refused_call_closes_its_store(golden, monkeypatch):
    monkeypatch.setattr(ss.sequences, "MAX_FREENESS_ENTRIES", 10)
    with pytest.raises(WorkLimitExceeded):
        ss.analyze(golden, 4)
    assert _open_store() is None
    monkeypatch.undo()
    doc = json.loads(ss.render_report(ss.analyze(golden, 3)))
    doc["certificates"]["freeness"][0]["entries"][0]["differs_at"] += 1
    with pytest.raises(CertificateInvalid):
        ss.verify_report(json.dumps(doc))
    assert _open_store() is None
