import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import subshift as ss
from subshift.cli import build_parser, main

GOLDEN = "2\n1 1\n1 0\n"
SWAP = "2\n0 1\n1 0\n"
WEIGHT_HALF_THIRD = "depth 1\n1 1/2\n2 1/3\n"
ONES_FUNCTION = "depth 1\n1 1\n2 1\n"


@pytest.fixture
def golden_file(tmp_path):
    p = tmp_path / "golden.mat"
    p.write_text(GOLDEN)
    return str(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_analyze_stdout(golden_file, capsys):
    assert main(["analyze", golden_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["conclusion"] == "not_isomorphic"


def test_analyze_out_file_verifies(golden_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", golden_file, "--out", str(out)]) == 0
    ss.verify_report(out.read_text())


def test_analyze_cycle_is_completed_analysis(tmp_path, capsys):
    m = write(tmp_path, "swap.mat", SWAP)
    assert main(["analyze", m]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["conclusion"] == "inconclusive"
    assert doc["hypothesis_failed"] == "cycle"


def test_analyze_depth_flag(golden_file, capsys):
    assert main(["analyze", golden_file, "--depth", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {(c["i"], c["j"]) for c in doc["certificates"]["freeness"]} == {
        (0, 1),
        (0, 2),
        (1, 2),
    }


def test_words_verb(golden_file, capsys):
    assert main(["words", golden_file, "3"]) == 0
    assert capsys.readouterr().out.split() == ["111", "112", "121", "211", "212"]


def test_symbols_past_nine_on_the_command_line(tmp_path, capsys):
    full10 = write(tmp_path, "full10.mat", "10\n" + "1 1 1 1 1 1 1 1 1 1\n" * 10)
    assert main(["words", full10, "1"]) == 0
    assert capsys.readouterr().out.split()[8:] == ["9", "10."]
    assert main(["witness", "minimal", full10, "10.", "1.10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["minimality"] == {"from": "10.", "to": "1.10", "prefix": "10.1.10", "shifts": 1}


def test_transfer_apply(golden_file, tmp_path, capsys):
    w = write(tmp_path, "w.weight", "depth 1\n1 1\n2 1\n")
    f = write(tmp_path, "f.func", "depth 1\n1 0\n2 1\n")
    assert main(["transfer", "apply", golden_file, w, f]) == 0
    assert capsys.readouterr().out == "depth 1\n1 1\n2 0\n"


def test_transfer_recover_round_trip(golden_file, tmp_path, capsys):
    w = write(tmp_path, "w.weight", WEIGHT_HALF_THIRD)
    assert main(["transfer", "recover", golden_file, w]) == 0
    recovered = ss.parse_weight_file(
        ss.parse_matrix(GOLDEN), capsys.readouterr().out
    )
    original = ss.parse_weight_file(ss.parse_matrix(GOLDEN), WEIGHT_HALF_THIRD)
    assert recovered == original


def test_transfer_equiv_true(golden_file, tmp_path, capsys):
    w1 = write(tmp_path, "w1", WEIGHT_HALF_THIRD)
    w2 = write(tmp_path, "w2", "depth 1\n1 1\n2 2/3\n")
    assert main(["transfer", "equiv", golden_file, w1, w2]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equivalent"] is True
    assert doc["witness"]["values"] == {"1": "1/2", "2": "1/2"}


def test_transfer_equiv_false(golden_file, tmp_path, capsys):
    w1 = write(tmp_path, "w1", "depth 1\n1 1\n2 0\n")
    w2 = write(tmp_path, "w2", ONES_FUNCTION)
    assert main(["transfer", "equiv", golden_file, w1, w2]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equivalent"] is False and doc["witness"] is None
    assert doc["zero_set_left"] == ["2"] and doc["zero_set_right"] == []


def test_witness_invariant(golden_file, capsys):
    assert main(["witness", "invariant", golden_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["invariant_set"]["word"] == "121"
    assert doc["invariant_set"]["member"] == "L:12 C: R:12 O:0"


def test_witness_minimal(golden_file, capsys):
    assert main(["witness", "minimal", golden_file, "21", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["minimality"] == {"from": "21", "to": "12", "prefix": "2112", "shifts": 2}


def test_witness_freeness(golden_file, capsys):
    assert main(["witness", "freeness", golden_file, "1", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(set(e) == {"differs_at", "tail"} for e in doc["freeness"]["entries"])
    A = ss.parse_matrix(GOLDEN)
    cert = ss.FreenessCertificate.from_dict(A, doc["freeness"])
    assert [ss.word_to_string(e.word) for e in cert.entries] == ["11", "12", "21"]
    cert.verify()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "does-not-exist.mat"],
        ["words", "does-not-exist.mat", "2"],
    ],
)
def test_missing_file_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_matrix_exits_2(tmp_path, capsys):
    m = write(tmp_path, "bad.mat", "2\n1 1\n0 0\n")
    assert main(["analyze", m]) == 2
    assert "successor" in capsys.readouterr().err


def test_witness_on_cycle_graph_exits_2(tmp_path, capsys):
    m = write(tmp_path, "swap.mat", SWAP)
    assert main(["witness", "invariant", m]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_word_argument_exits_2(golden_file, capsys):
    assert main(["witness", "minimal", golden_file, "22", "1"]) == 2
    assert "admissible" in capsys.readouterr().err


def test_bad_exponents_exit_2(golden_file, capsys):
    assert main(["witness", "freeness", golden_file, "2", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{m}", "--depth", "22"],  # sum of j * N_j is 2,474,233
        ["analyze", "{m}", "--depth", "1000000"],
        ["witness", "freeness", "{m}", "0", "40"],  # N_40 is 267,914,296
        ["words", "{m}", "40"],
        ["words", "{m}", "1000000000"],
        ["transfer", "recover", "{m}", "{w}"],  # tabulates every depth-40 word
        ["transfer", "equiv", "{m}", "{w}", "{v}"],  # lists the depth-40 zero set
        ["transfer", "apply", "{m}", "{w}", "{z}"],  # prints every depth-39 word
        # refine counts first: without that, each builds the depth-40 words before it can fail.
        ["transfer", "apply", "{m}", "{w}", "{f}"],  # refines F to depth 40
        ["transfer", "equiv", "{m}", "{full}", "{w}"],  # compares the domains at depth 40
        ["witness", "freeness", "{m}", "0", "21"],  # lists the depth-21 words: 1,454,137 symbols
    ],
)
def test_work_past_the_limit_exits_2_at_once(golden_file, tmp_path, capsys, argv):
    # Weights on a one-word depth-40 domain parse at once.
    domain = "domain 40\n" + "1" * 40 + "\n"
    files = {
        "m": golden_file,
        "w": write(tmp_path, "w", "depth 1\n1 1\n2 1\n" + domain),
        "v": write(tmp_path, "v", "depth 1\n1 0\n2 1\n" + domain),
        "z": write(tmp_path, "z", "depth 1\n1 0\n2 0\n"),
        "f": write(tmp_path, "f", ONES_FUNCTION),
        "full": write(tmp_path, "full", WEIGHT_HALF_THIRD),
    }
    started = time.perf_counter()
    assert main([a.format(**files) for a in argv]) == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_FREENESS_ENTRIES" in err and "Traceback" not in err


def test_a_deep_admissible_weight_file_exits_2_at_once(golden_file, tmp_path, capsys):
    # The literal has the header's length and golden admits it; N_200000 is
    # never counted, so the missing words are bounded from below.
    deep = write(tmp_path, "deep", "depth 200000\n" + "1" * 200_000 + " 1\n")
    f = write(tmp_path, "f", ONES_FUNCTION)
    started = time.perf_counter()
    assert main(["transfer", "apply", golden_file, deep, f]) == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert err.startswith("error: table must cover") and "missing at least 1" in err
    assert "Traceback" not in err


def test_minimality_witnesses_are_counted_before_they_are_built(tmp_path, capsys):
    # The cycle 1 -> 2 -> ... -> 500 -> 1 plus a loop at 1: 500 + 501 words of
    # length 1 and 2 ask for 1,002,001 spot witnesses, while the freeness
    # tables at depth budget 4 hold about 5,000 entries.
    n = 500
    rows = [["1" if c == (r + 1) % n or r == c == 0 else "0" for c in range(n)] for r in range(n)]
    m = write(tmp_path, "near-cycle.mat", f"{n}\n" + "".join(" ".join(row) + "\n" for row in rows))
    started = time.perf_counter()
    assert main(["analyze", m]) == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert err.startswith("error: minimality") and "MAX_FREENESS_ENTRIES" in err


_OUT_VERBS = {
    "analyze": ["{m}", "--depth", "2"],
    "transfer apply": ["{m}", "{w}", "{f}"],
    "transfer recover": ["{m}", "{w}"],
    "transfer equiv": ["{m}", "{w}", "{w}"],
    "witness invariant": ["{m}"],
    "witness minimal": ["{m}", "21", "12"],
    "witness freeness": ["{m}", "1", "2"],
}


@pytest.mark.parametrize("verb", sorted(_OUT_VERBS))
def test_out_goes_before_or_after_the_positionals(golden_file, tmp_path, capsys, verb):
    w, f = write(tmp_path, "w", WEIGHT_HALF_THIRD), write(tmp_path, "f", ONES_FUNCTION)
    head, rest = verb.split(), [a.format(m=golden_file, w=w, f=f) for a in _OUT_VERBS[verb]]
    assert main(head + rest) == 0
    printed = capsys.readouterr().out
    before, after = tmp_path / "before", tmp_path / "after"
    assert main(head + ["--out", str(before)] + rest) == 0
    assert main(head + rest + ["--out", str(after)]) == 0
    assert capsys.readouterr().out == ""
    assert before.read_text() == after.read_text() == printed


def test_words_takes_no_out(golden_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["words", golden_file, "2", "--out", str(tmp_path / "listing")])
    assert exited.value.code == 2 and "--out" in capsys.readouterr().err


_DIGITS_5000 = "1" * 5000  # past int()'s 4300-digit limit for strings


@pytest.mark.parametrize(
    "matrix, weight",
    [
        ("2²\n1 1\n1 0\n", ONES_FUNCTION),
        (GOLDEN, "depth ²\n1 1\n2 1\n"),
        (GOLDEN, "depth 1\n1 1\n2 1\ndomain ²\n1\n"),
        (GOLDEN, "depth 1\n1 1/0\n2 1\n"),
        pytest.param(f"{_DIGITS_5000}\n1 1\n1 0\n", ONES_FUNCTION, id="5000-digit-size"),
        pytest.param(GOLDEN, f"depth {_DIGITS_5000}\n1 1\n2 1\n", id="5000-digit-depth"),
        pytest.param(
            GOLDEN, f"depth 1\n1 1\n2 1\ndomain {_DIGITS_5000}\n1\n", id="5000-digit-domain"
        ),
        pytest.param(GOLDEN, "depth 1\n1 1e1000000000\n2 1\n", id="exponent"),
        pytest.param(GOLDEN, "depth 1\n1 1/2\n2 2E1\n", id="capital-exponent"),
    ],
)
def test_unparsable_numbers_exit_2_without_traceback(tmp_path, capsys, matrix, weight):
    m = write(tmp_path, "m.mat", matrix)
    w = write(tmp_path, "w.weight", weight)
    f = write(tmp_path, "f.func", ONES_FUNCTION)
    started = time.perf_counter()
    assert main(["transfer", "apply", m, w, f]) == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err



_NINES = "9" * 4300  # the largest numeral: its products and ratios are not numerals


@pytest.mark.parametrize(
    "argv, word",
    [
        (["transfer", "apply", "m.mat", "w.weight", "f.func"], "1"),
        (["transfer", "equiv", "m.mat", "w.weight", "v.weight"], "2"),
    ],
)
def test_a_value_past_the_numerals_exits_2_before_writing(tmp_path, capsys, argv, word):
    write(tmp_path, "m.mat", GOLDEN)
    write(tmp_path, "w.weight", f"depth 1\n1 {_NINES}\n2 {_NINES}\n")
    write(tmp_path, "v.weight", f"depth 1\n1 1\n2 1/{_NINES}\n")
    write(tmp_path, "f.func", f"depth 2\n11 {_NINES}\n12 {_NINES}\n21 {_NINES}\n")
    out = tmp_path / "out.txt"
    argv = [str(tmp_path / a) if "." in a else a for a in argv] + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the value at word {word} has a numerator or denominator of over 4300 digits")
    assert not out.exists()


def test_one_parser_serves_every_call_without_leaking_state(golden_file, tmp_path, capsys):
    assert build_parser() is build_parser()
    w = write(tmp_path, "w.weight", WEIGHT_HALF_THIRD)
    report, recovered = tmp_path / "report.json", tmp_path / "recovered"
    sequence = [
        ["analyze", golden_file, "--depth", "3", "--out", str(report)],
        ["analyze", golden_file, "--depth", "x"],  # a usage error
        ["analyze", golden_file],  # the default depth 4 must apply
        ["transfer", "recover", golden_file, w, "--out", str(recovered)],
        ["transfer", "recover", golden_file, w],
        ["words", golden_file, "3"],
    ]

    def run(argv):
        report.unlink(missing_ok=True)
        recovered.unlink(missing_ok=True)
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        printed = capsys.readouterr()
        written = Path(argv[-1]).read_bytes() if "--out" in argv else None
        return status, printed.out, printed.err, written

    in_turn = [run(argv) for argv in sequence]
    alone = []
    for argv in sequence:
        build_parser.cache_clear()  # each call alone, on a parser of its own
        alone.append(run(argv))
    assert in_turn == alone
    assert [status for status, *_ in in_turn] == [0, 2, 0, 0, 0, 0]
    assert json.loads(in_turn[2][1])["depth_budget"] == 4
    assert in_turn[3][3].decode() == in_turn[4][1]


# Fresh-process rows: each runs `python [options] -m subshift.cli argv` in a new directory holding the _FILES argv names.


class Row(NamedTuple):
    argv: str
    status: int
    stream: str  # "stdout", "stderr" or "out" (the --out file)
    expect: str | Callable[[str, dict], None]  # the exact text, or a check of it and the row's files
    options: tuple = ()
    timeout: int = 60


def _report(text: str, files: dict) -> None:
    ss.verify_report(text)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"  # the stdlib layout


def _certified(cls, key: str) -> Callable[[str, dict], None]:
    def check(text: str, files: dict) -> None:
        doc = json.loads(text)
        cls.from_dict(ss.AdjacencyMatrix.from_rows(doc["matrix"]["rows"]), doc[key]).verify()
    return check


def _same_weight(text: str, files: dict) -> None:  # reads back as the row's weight file
    matrix, weight = files.values()
    assert ss.parse_weight_file(A := ss.parse_matrix(matrix), text) == ss.parse_weight_file(A, weight)


_DEPTH_1001 = "1" + "0" * 1000  # a numeral that int() reads under the default digit limit but not under 640
_REPORT = ss.render_report(ss.analyze(ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]]), 3))


def _edited_report(edit: Callable[[dict], None]) -> str:
    doc = json.loads(_REPORT)
    edit(doc)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _report_row(k: int, **fields) -> str:
    """golden's depth-3 report with row k of its table (i=1, j=3) set to `fields`."""
    return _edited_report(lambda doc: doc["certificates"]["freeness"][4]["entries"].__setitem__(k, fields))


# The all-ones 708 x 708 matrix has 501,264 depth-2 words, which a report's table (0, 2)
# of as many empty rows matches in count; listing them is refused before any row is read.
_WIDE_ROWS = "[" + ",".join(["[" + ",".join("1" * 708) + "]"] * 708) + "]"
_WIDE_REPORT = (
    '{"format": 2, "matrix": {"n": 708, "rows": ' + _WIDE_ROWS + '}, "depth_budget": 2, "certificates": {'
    '"invariant_set": null, "minimality": [], "freeness": ['
    '{"i": 0, "j": 1, "entries": [' + ", ".join(['{"differs_at": 1, "tail": "1"}'] * 708) + "]}, "
    '{"i": 0, "j": 2, "entries": [' + ", ".join(["{}"] * 708**2) + "]}, "
    '{"i": 1, "j": 2, "entries": []}]}}\n'
)


_FILES = {
    "g.mat": GOLDEN,
    "s.mat": SWAP,
    "w.txt": "depth 1\n1 1/2\n2 3\n",
    "f.txt": "depth 2\n11 1\n12 -2/3\n21 0.5\n",
    "ten.mat": "10\n" + "1 1 1 1 1 1 1 1 1 1\n" * 10,
    "tenw.txt": "depth 1\n1 1\n" + "".join(f"{a} 1/{a}\n" for a in range(2, 10)) + "10. 1/10\n",
    "deep.txt": "depth 200000\n" + "1" * 200_000 + " 1\n",  # golden admits it; N_200000 is never counted
    # Both depth-100000 words of the 2-cycle: read literal by literal, then the depth-99999 output is refused.
    "deep2.txt": f"depth 100000\n{'12' * 50_000} 1\n{'21' * 50_000} 1\n",
    "arabic.mat": "٢\n1 1\n1 0\n",
    "w1000.txt": "depth 1\n1 1_000\n2 3\n",
    "bad.mat": b"\xff\xfe\n",
    "badw.txt": b"depth 1\n1 \xe9\n",
    "badf.txt": b"depth 1\n1 0.5\x80\n",
    "f1001.txt": f"depth {_DEPTH_1001}\n1 1\n2 1\n",
    "r.json": _REPORT,
    "differs.json": _report_row(3, differs_at=3, tail="121"),
    "tail.json": _report_row(3, differs_at=2, tail="22"),
    "symbol.json": _report_row(3, differs_at=2, tail="3"),
    "key.json": _report_row(3, differs_at=2),
    "zero.json": _edited_report(lambda doc: doc["matrix"].__setitem__("rows", [[1, 1], [0, 0]])),
    "wide.json": _WIDE_REPORT,
    "badr.json": _REPORT.encode().replace(b'"121"', b'"12\xe9"', 1),
}
# Past 9 symbols literals are dotted numerals, spelled from the one listing of the words.
_TEN_2 = "".join(f"{a}{b}\n" if max(a, b) < 10 else f"{a}.{b}\n" for a in range(1, 11) for b in range(1, 11))
_DEEP = "error: table must cover every admissible depth-200000 word (missing at least 1)\n"
_TABLE = "error: certificates.freeness[4] (i=1, j=3).entries[3] [211]: "
_LISTING = "error: listing the length-{} words would build over 1000000 entries (subshift.sequences.MAX_FREENESS_ENTRIES)\n"
_ROWS = {
    "analyze": Row("analyze g.mat --depth 3 --out out", 0, "out", _report),
    # A fresh process keeps no freeness answer yet, and this table has i > 0.
    "freeness": Row("witness freeness g.mat 2 5 --out out", 0, "out", _certified(ss.FreenessCertificate, "freeness")),
    "invariant": Row("witness invariant g.mat --out out", 0, "out", _certified(ss.InvariantSetCertificate, "invariant_set")),
    "minimal": Row("witness minimal g.mat 21 12 --out out", 0, "out", _certified(ss.MinimalityWitness, "minimality")),
    "apply": Row("transfer apply g.mat w.txt f.txt --out out", 0, "out", "depth 1\n1 2\n2 -1/3\n"),
    "recover": Row("transfer recover g.mat w.txt --out out", 0, "out", "depth 2\n11 1/2\n12 1/2\n21 3\ndomain 1\n1\n2\n"),
    "ten-1": Row("words ten.mat 1", 0, "stdout", "".join(f"{a}\n" for a in range(1, 10)) + "10.\n"),
    "ten-2": Row("words ten.mat 2", 0, "stdout", _TEN_2),
    "ten-recover": Row("transfer recover ten.mat tenw.txt --out out", 0, "out", _same_weight),
    "words-40": Row("words g.mat 40", 2, "stderr", _LISTING.format(40)),
    "deep": Row("transfer apply g.mat deep.txt f.txt", 2, "stderr", _DEEP, timeout=10),
    "deep-swap": Row("transfer apply s.mat w.txt deep2.txt", 2, "stderr", _LISTING.format(99999), timeout=10),
    "arabic": Row("words arabic.mat 2", 2, "stderr", "error: first line must be the matrix size, got '٢'\n"),
    "1_000": Row("transfer apply g.mat w1000.txt f.txt", 2, "stderr", "error: cannot parse rational '1_000'\n"),
    # Input files are UTF-8 text.
    "utf8-matrix": Row("words bad.mat 2", 2, "stderr", "error: bad.mat is not UTF-8 text\n"),
    "utf8-weight": Row("transfer apply g.mat badw.txt f.txt", 2, "stderr", "error: badw.txt is not UTF-8 text\n"),
    "utf8-function": Row("transfer apply g.mat w.txt badf.txt", 2, "stderr", "error: badf.txt is not UTF-8 text\n"),
    # analyze --out r.json; verify r.json.  A refused report names the refusal's place in it.
    "verify": Row("verify r.json", 0, "stdout", "verified: not_isomorphic at depth budget 3\n"),
    "verify-certificate": Row("verify differs.json", 2, "stderr", f"{_TABLE}differs_at 3, but they first differ at 2\n"),
    "verify-inadmissible": Row("verify tail.json", 2, "stderr", f"{_TABLE}point 211 . (22)^inf is not admissible\n"),
    "verify-symbol": Row("verify symbol.json", 2, "stderr", f"{_TABLE}symbol 3 not in 1..2\n"),
    "verify-malformed": Row("verify key.json", 2, "stderr", f"{_TABLE}missing key 'tail'\n"),
    "verify-zero-row": Row("verify zero.json", 2, "stderr", "error: symbol 2 has no successor\n"),
    "verify-work-limit": Row("verify wide.json", 2, "stderr", _LISTING.format(2).replace("error: ", "error: certificates.freeness[1] ")),
    "utf8-report": Row("verify badr.json", 2, "stderr", "error: badr.json is not UTF-8 text\n"),
}
_REFUSED = "error: int_max_str_digits is {}; subshift needs at least 4300 or 0\n"
_READ = f"error: table words must be admissible depth-{_DEPTH_1001} words (unknown ['1', '2'])\n"  # the header is read
_UNDER_LIMITS = [
    pytest.param(
        Row("transfer apply g.mat w.txt f1001.txt", 2, "stderr", stderr, ("-X", f"int_max_str_digits={limit}")),
        id=f"digit-limit-{limit}",
        marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="Python without int()'s digit limit"),
    )
    for limit, stderr in {"640": _REFUSED.format(640), "4299": _REFUSED.format(4299), "4300": _READ, "0": _READ}.items()
]


@pytest.mark.parametrize("row", [pytest.param(row, id=id_) for id_, row in _ROWS.items()] + _UNDER_LIMITS)
def test_console_row(tmp_path, row):
    files = {name: _FILES[name] for name in row.argv.split() if name in _FILES}
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    argv = [sys.executable, *row.options, "-m", "subshift.cli", *row.argv.split()]
    env = {**os.environ, "PYTHONPATH": str(Path(ss.__file__).parent.parent)}  # the installed one under -o pythonpath=
    run = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=row.timeout)
    assert run.returncode == row.status and b"Traceback" not in run.stderr, run.stderr
    text = ((tmp_path / "out").read_bytes() if row.stream == "out" else getattr(run, row.stream)).decode()
    if callable(row.expect):
        row.expect(text, files)
    else:
        assert text == row.expect
