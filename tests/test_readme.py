"""The README's examples, run as written."""

import itertools
from pathlib import Path

import subshift as ss
from subshift.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text().splitlines()


def _block_after(first: str, stop) -> list[str]:
    at = README.index(first) + 1
    return list(itertools.takewhile(lambda line: not stop(line), README[at:]))


def test_readme_words_example_is_the_output(tmp_path, capsys):
    shown = _block_after("$ subshift words golden.mat 3", lambda line: line.startswith("$"))
    matrix = tmp_path / "golden.mat"
    matrix.write_text("2\n1 1\n1 0\n")  # as the README's printf writes it
    assert main(["words", str(matrix), "3"]) == 0
    assert capsys.readouterr().out.splitlines() == shown == ["111", "112", "121", "211", "212"]


def test_readme_library_example_runs():
    code = _block_after("```python", lambda line: line == "```")
    namespace: dict = {}
    exec("\n".join(code), namespace)
    claimed_true = [line.split("#")[0] for line in code if line.endswith("# True")]
    assert claimed_true and all(eval(expr, namespace) is True for expr in claimed_true)
    assert namespace["verdict"].conclusion == ss.verdict.NOT_ISOMORPHIC  # as its comment says


def test_readme_verify_example_is_the_output(tmp_path, capsys, monkeypatch):
    shown = _block_after("$ subshift verify report.json", lambda line: line.startswith("$"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "golden.mat").write_text("2\n1 1\n1 0\n")
    assert main(["analyze", "golden.mat", "--out", "report.json"]) == 0
    assert main(["verify", "report.json"]) == 0
    assert capsys.readouterr().out.splitlines() == shown == ["verified: not_isomorphic at depth budget 4"]
