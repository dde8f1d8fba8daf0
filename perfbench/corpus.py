"""Seeded inputs, operations and output checks for each workload.

An operation is one user-facing call: ``subshift.cli.main`` for
``analyze`` and ``transfer recover | apply``, or ``subshift.verify_report``
on the report file the preceding ``analyze`` wrote.  A pass is the list
of operations a workload runs in order; the closed loop in ``run.py``
repeats passes.  Every input is written to a file from the seed before
timing starts, and every output is checked against ``oracle``.

Each workload runs all four verbs, because every end-to-end metric is
reported on every workload: besides its own corpus it runs a few small
fixed-shape "probe" operations of the verbs it does not stress, so the
probe share of a pass stays small.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import Matrix

GOLDEN: Matrix = ((1, 1), (1, 0))
FULL3: Matrix = ((1, 1, 1),) * 3

WORKLOADS = ("certify-deep", "certify-wide", "transfer")

# certify-wide strata: edge counts of the conclusive n=4 matrices, and
# (n, depth) -> N_depth band of the larger matrices (about the middle
# half of N for random transitive matrices with 0.3 n^2 edges).
WIDE_N4_EDGES = (7, 8, 9, 10, 11, 12)
WIDE_BIG = {
    (6, 3): (20, 22), (6, 4): (34, 42), (7, 3): (31, 34),
    (7, 4): (67, 80), (8, 3): (44, 48), (8, 4): (100, 119),
}


class Mismatch(Exception):
    """An operation's output disagrees with the reference."""


@dataclass(eq=False)
class Op:
    verb: str  # analyze | verify | recover | apply
    label: str
    n_words: int  # N: admissible words at the operation's working depth
    argv: list[str]  # CLI argv; for verify, the report path alone
    check: object  # output -> None, raises Mismatch
    conclusive: bool = False
    verified: object = field(default=None, repr=False)  # last output that passed


def _fail(message: str) -> None:
    raise Mismatch(message)


class Files:
    """Writes generated inputs into the run's work directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.dir / f"{self.count:05d}-{stem}"
        path.write_text(text, encoding="utf-8")
        return str(path)


# ----- certify: analyze + verify -----


def certify_ops(files: Files, A: Matrix, depth: int, label: str) -> list[Op]:
    mat = files.write("m.mat", oracle.format_matrix(A))
    report = str(files.dir / "report.json")
    expect = oracle.expected_conclusion(A)
    conclusive = expect == "not_isomorphic"
    n_words = oracle.word_count(A, depth)

    def check_report(text: str) -> None:
        doc = json.loads(text)
        if doc["conclusion"] != expect:
            _fail(f"{label}: conclusion {doc['conclusion']!r}, expected {expect!r}")
        if doc["depth_budget"] != depth:
            _fail(f"{label}: depth_budget {doc['depth_budget']}, expected {depth}")
        certs = doc["certificates"]
        if not conclusive:
            failed = "not_transitive" if not oracle.is_transitive(A) else "cycle"
            if doc.get("hypothesis_failed") != failed or certs["freeness"] or certs["minimality"]:
                _fail(f"{label}: inconclusive report does not name {failed} alone")
            return
        pairs = sorted((t["i"], t["j"]) for t in certs["freeness"])
        if pairs != [(i, j) for i in range(depth) for j in range(i + 1, depth + 1)]:
            _fail(f"{label}: freeness tables cover {len(pairs)} exponent pairs, "
                  f"expected the {depth * (depth + 1) // 2} with 0 <= i < j <= {depth}")
        for t in certs["freeness"]:
            if len(t["entries"]) != oracle.word_count(A, t["j"]):
                _fail(f"{label}: freeness table (i={t['i']}, j={t['j']}) has "
                      f"{len(t['entries'])} entries, expected N_{t['j']}")
        shallow = len(A) + oracle.word_count(A, 2)
        if len(certs["minimality"]) != shallow * shallow or certs["invariant_set"] is None:
            _fail(f"{label}: minimality or invariant-set certificates missing")

    def check_verdict(verdict) -> None:
        if verdict.conclusion != expect or verdict.depth_budget != depth:
            _fail(f"{label}: verify_report returned {verdict.conclusion!r} at depth "
                  f"{verdict.depth_budget}")

    argv = ["analyze", mat, "--depth", str(depth), "--out", report]
    return [
        Op("analyze", label, n_words, argv, check_report, conclusive),
        Op("verify", label, n_words, [report], check_verdict, conclusive),
    ]


def random_transitive(rng: random.Random, n: int, ones: int) -> Matrix:
    """A transitive non-cycle n x n matrix with exactly `ones` edges."""
    while True:
        cells = set(rng.sample(range(n * n), ones))
        A = tuple(tuple(int(r * n + c in cells) for c in range(n)) for r in range(n))
        # Every row and column needs an edge; test that first, it is cheap.
        if all(any(row) for row in A) and all(any(col) for col in zip(*A)):
            if oracle.expected_conclusion(A) == "not_isomorphic":
                return A


def random_n4(rng: random.Random) -> Matrix:
    """Uniform over the 15^4 no-zero-row 4x4 matrices."""
    rows = [r for r in ((a, b, c, d) for a in (0, 1) for b in (0, 1) for c in (0, 1)
                        for d in (0, 1)) if any(r)]
    return tuple(rng.choice(rows) for _ in range(4))


# ----- transfer: recover + apply -----


def random_weight(rng, A: Matrix, depth: int, dom_depth: int, share=1.0, zeros=0.0):
    """(carrier depth, carrier table, domain depth, members): positive
    values except round(zeros * N) exact zeros, on round(share * N) of
    the domain-depth words."""
    carrier = oracle.words(A, depth)
    zero_words = set(rng.sample(carrier, round(zeros * len(carrier))))
    table = {
        w: Fraction(0) if w in zero_words else Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for w in carrier
    }
    dom = oracle.words(A, dom_depth)
    members = frozenset(rng.sample(dom, max(1, round(share * len(dom)))))
    return depth, table, dom_depth, members


def random_function(rng, A: Matrix, depth: int, weight) -> dict:
    """Signed values, zero off the weight's domain (transfer_apply requires it)."""
    _, _, dom_depth, members = weight
    return {
        w: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if w[:dom_depth] in members
        else Fraction(0)
        for w in oracle.words(A, depth)
    }


def recover_op(files: Files, A: Matrix, weight, label: str) -> Op:
    mat = files.write("m.mat", oracle.format_matrix(A))
    wfile = files.write("w.txt", oracle.format_weight(*weight))
    out = str(files.dir / "recovered.txt")

    def check(text: str) -> None:
        if not oracle.same_weight(A, oracle.parse_weight(text), weight):
            _fail(f"{label}: recovered weight differs from the input weight")

    n_words = oracle.word_count(A, max(weight[0], weight[2]) + 1)
    return Op("recover", label, n_words, ["transfer", "recover", mat, wfile, "--out", out], check)


def apply_op(files: Files, A: Matrix, weight, f_depth: int, f_table, label: str) -> Op:
    mat = files.write("m.mat", oracle.format_matrix(A))
    wfile = files.write("w.txt", oracle.format_weight(*weight))
    ffile = files.write("f.txt", oracle.format_table(f_depth, f_table))
    out = str(files.dir / "applied.txt")
    expected = oracle.transfer_apply(A, weight, oracle.table_fn(f_depth, f_table))

    def check(text: str) -> None:
        if not oracle.same_function(A, oracle.table_fn(*oracle.parse_table(text)), expected):
            _fail(f"{label}: transfer apply differs from the preimage sum")

    n_words = oracle.word_count(A, max(weight[0], weight[2], f_depth))
    argv = ["transfer", "apply", mat, wfile, ffile, "--out", out]
    return Op("apply", label, n_words, argv, check)


def transfer_probes(rng, files: Files, count: int) -> list[Op]:
    """`count` small recover and apply operations on golden-mean weights."""
    ops = []
    for _ in range(count):
        w = random_weight(rng, GOLDEN, 3, 2, zeros=0.2)
        ops.append(recover_op(files, GOLDEN, w, "probe golden c3 e2"))
        w = random_weight(rng, GOLDEN, 2, 1)
        ops.append(apply_op(files, GOLDEN, w, 9, random_function(rng, GOLDEN, 9, w),
                            "probe golden f9"))
    return ops


# ----- workloads -----


class Workload:
    """A seeded corpus, read one pass at a time in order of pass number.

    certify-wide builds fresh operations for every pass and keeps only
    the latest; the other workloads repeat one list.  A given (seed, p)
    always yields the same operations.  `setup_argv` is the CLI call of
    the first operation."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.files = Files(workdir)
        self._built = -1
        self._ops: list[Op] = []
        self._seen: set = set()

    def pass_ops(self, p: int) -> list[Op]:
        if p < self._built:
            raise ValueError(f"pass {p} requested after pass {self._built}")
        while self._built < p:
            self._built += 1
            if self.name == "certify-wide":
                self._ops = self._wide_pass()
            elif self._built == 0:
                deep = self.name == "certify-deep"
                self._ops = self._deep_pass() if deep else self._transfer_pass()
        return self._ops

    @property
    def setup_argv(self) -> list[str]:
        return self.pass_ops(0)[0].argv

    def _deep_pass(self) -> list[Op]:
        rng, files = self.rng, self.files
        ops = []
        for A, name, depth in [(GOLDEN, "golden", 8), (GOLDEN, "golden", 9),
                               (GOLDEN, "golden", 10), (FULL3, "full3", 4),
                               (FULL3, "full3", 5), (FULL3, "full3", 6)]:
            ops += certify_ops(files, A, depth, f"{name} d{depth}")
        # One seeded transitive n=4 matrix with N_4 in [50, 100].  It ranks
        # among the three cheapest of the seven items, so whatever the seed
        # the median falls amid the samples of one item (golden d9 for
        # analyze, full3 d5 for verify), not on the edge between two, and
        # the p75 tail amid golden d10's samples.
        while True:
            A = random_transitive(rng, 4, 9)
            if 50 <= oracle.word_count(A, 4) <= 100:
                break
        ops += certify_ops(files, A, 4, "seeded n4 d4")
        return ops + transfer_probes(rng, files, 8)

    def _wide_pass(self) -> list[Op]:
        """Fresh matrices every pass, never repeated within a run, so no
        result keyed by (matrix, depth) is ever reused.

        The draw is stratified so every pass has the same shape whatever
        the seed: 16 inconclusive n=4 matrices, 4 conclusive ones for each
        edge count in WIDE_N4_EDGES, and one n=6..8 matrix per WIDE_BIG
        slot with 0.3 n^2 edges and N_d in the slot's band.  The median
        latency then falls inside the conclusive n=4 group and the tail
        inside the n=6..8 group."""
        rng, files = self.rng, self.files
        quota = {"inconclusive": 16, **{edges: 4 for edges in WIDE_N4_EDGES}}
        picked: dict = {key: [] for key in quota}
        while any(len(picked[key]) < quota[key] for key in quota):
            A = random_n4(rng)
            conclusive = oracle.expected_conclusion(A) == "not_isomorphic"
            key = sum(map(sum, A)) if conclusive else "inconclusive"
            if A in self._seen or key not in quota or len(picked[key]) >= quota[key]:
                continue
            self._seen.add(A)
            picked[key].append(A)
        ops = []
        for key, matrices in picked.items():
            label = "n4 d4 inconclusive" if key == "inconclusive" else f"n4 d4 {key} edges"
            for A in matrices:
                ops += certify_ops(files, A, 4, label)
        for (n, depth), (lo, hi) in WIDE_BIG.items():
            while True:
                A = random_transitive(rng, n, round(0.3 * n * n))
                if lo <= oracle.word_count(A, depth) <= hi:
                    break
            ops += certify_ops(files, A, depth, f"n{n} d{depth}")
        return ops + transfer_probes(rng, files, 8)

    def _transfer_pass(self) -> list[Op]:
        rng, files = self.rng, self.files
        # A seeded n=4 matrix with 10 edges and N_7 in [700, 1100], so its
        # operations keep their cost rank among the fixed ones.
        while True:
            n4 = random_n4(rng)
            if sum(map(sum, n4)) == 10 and 700 <= oracle.word_count(n4, 7) <= 1100:
                break
        # Eight recovers and eight applies.  Each set is ordered by cost
        # the same way for every seed: the median falls between two
        # near-equal fixed items (4th and 5th) and the p75 tail between
        # the 6th and 7th, and the seeded n4 items rank below both.
        ops = []
        for A, name, depth, dom_depth, share, zeros in [
            (GOLDEN, "golden", 2, 2, 1.0, 0.0),
            (GOLDEN, "golden", 3, 3, 0.6, 0.2),
            (n4, "n4", 3, 2, 0.4, 0.2),
            (FULL3, "full3", 2, 2, 1.0, 0.0),
            (FULL3, "full3", 2, 2, 1.0, 0.2),
            (FULL3, "full3", 3, 3, 0.6, 0.0),
            (FULL3, "full3", 3, 3, 0.6, 0.2),
            (FULL3, "full3", 3, 3, 1.0, 0.1),
        ]:
            w = random_weight(rng, A, depth, dom_depth, share, zeros)
            label = f"{name} c{depth} e{dom_depth} domain {share:g} zeros {zeros:g}"
            ops.append(recover_op(files, A, w, label))
        for A, name, depth, dom_depth, share, zeros, f_depth in [
            (GOLDEN, "golden", 2, 1, 1.0, 0.0, 9),
            (n4, "n4", 2, 2, 0.6, 0.2, 6),
            (n4, "n4", 2, 2, 1.0, 0.0, 7),
            (FULL3, "full3", 3, 2, 1.0, 0.2, 7),
            (FULL3, "full3", 2, 2, 0.6, 0.0, 7),
            (FULL3, "full3", 2, 2, 0.6, 0.0, 8),
            (FULL3, "full3", 2, 1, 1.0, 0.0, 8),
            (GOLDEN, "golden", 3, 2, 0.6, 0.0, 18),
        ]:
            w = random_weight(rng, A, depth, dom_depth, share, zeros)
            f = random_function(rng, A, f_depth, w)
            label = f"{name} f{f_depth} c{depth} e{dom_depth} domain {share:g}"
            ops.append(apply_op(files, A, w, f_depth, f, label))
        for _ in range(4):
            ops += certify_ops(files, GOLDEN, 5, "probe golden d5")
        return ops
