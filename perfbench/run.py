"""The subshift benchmark: CLI-verb latency and words/s per workload.

Run from the repository root:

    python3 perfbench/run.py --workload certify-deep --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in one thread: the next
operation starts when the previous one returns.  Operations are
in-process calls of ``subshift.cli.main`` (``analyze``, ``transfer
recover``, ``transfer apply``) and ``subshift.verify_report`` on the
report ``analyze`` wrote, on input files generated from ``--seed``
(see ``corpus.py``).  Whole passes over the corpus repeat until
``--seconds`` have elapsed.  Only the calls are timed; output checks,
the once-per-pass negative control and input generation run between
them.  Each latency is normalized to a reference machine speed
measured around the call (``speed.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs each
pass untraced and then traced (``tracer.py``) and prints the per-layer
metrics (``layers.py``), each the median over traced passes.  The last
stdout line is the JSON result; the lines before it give each latency
tail's percentile and sample count and N per operation label, and
``perfbench/results/`` keeps every operation's N, output bytes and
latency.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import corpus  # noqa: E402  (sibling modules; HERE is sys.path[0])
import layers  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

VERBS = ("analyze", "verify", "recover", "apply")
TAIL_LADDER = (999, 990, 950, 900, 750)  # per mille
SETUP_REPEATS = 21
# A run makes at least this many passes.  The tail percentile is chosen
# from the sample count of that many passes, so it does not change when
# a faster program fits more passes into the same seconds.
MIN_PASSES = 10
# Traced span self times must add up to the op's wall time within this.
TRACE_TOL_REL = 0.05
TRACE_TOL_ABS_MS = 0.5

END_TO_END = (
    [("words_per_s", "1/s", "higher")]
    + [(f"{v}.{q}_ms", "ms", "lower") for v in VERBS for q in ("p50", "tail")]
    + [
        ("setup_s", "s", "lower"),
        ("peak_rss_mb", "MB", "lower"),
        ("output_bytes", "bytes", "lower"),
        ("ops_ok_ratio", "ratio", "higher"),
    ]
)

SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import speed
ref_before = speed.reference_ms()
t0 = time.perf_counter()
import subshift.cli
rc = subshift.cli.main(sys.argv[3:])
elapsed = time.perf_counter() - t0
ref = (ref_before + speed.reference_ms()) / 2
sys.exit(rc) if rc else print(elapsed * speed.REF_MS / ref)
"""


def import_subshift():
    """Import the checkout's own subshift from src/, never an installed one."""
    if not (SRC / "subshift" / "__init__.py").is_file():
        raise SystemExit(f"error: no subshift sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import subshift
    import subshift.cli
    import subshift.errors

    if Path(subshift.__file__).resolve().parent != SRC / "subshift":
        raise SystemExit(f"error: imported subshift from {subshift.__file__}, not {SRC}")
    return subshift


class Runner:
    def __init__(self, ss, workload: corpus.Workload):
        self.ss = ss
        self.workload = workload
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.off_cpu = 0.0  # seconds of the last call's wall time off the CPU

    def call(self, op: corpus.Op):
        """Run one operation; return (seconds, output, error or None)."""
        ss = self.ss
        if op.verb == "verify":
            # Reading the report is the harness's I/O, not the op's.
            report = Path(op.argv[0]).read_text(encoding="utf-8")
        cpu_start = time.thread_time()
        start = time.perf_counter()
        try:
            if op.verb == "verify":
                output = ss.verify_report(report)
            else:
                status = ss.cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # a raising op is a failed op
            return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.off_cpu = max(0.0, elapsed - (time.thread_time() - cpu_start))
        if op.verb == "verify":
            return elapsed, output, None
        if status != 0:
            return elapsed, None, f"exit status {status}"
        return elapsed, Path(op.argv[-1]).read_text(encoding="utf-8"), None

    def finish(self, op: corpus.Op, p: int, seconds: float, raw: float, output, error) -> bool:
        """Check an op's output (untimed), record it, and say if it passed."""
        if error is None and output != op.verified:
            try:
                op.check(output)
                op.verified = output
            except (corpus.Mismatch, KeyError, TypeError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self._error(f"{op.label} {op.verb}: {error}")
        self.records.append({
            "pass": p, "verb": op.verb, "label": op.label, "N": op.n_words,
            "bytes": len(output) if error is None and op.verb != "verify" else 0,
            "ms": seconds * 1e3, "raw_ms": raw * 1e3, "ok": error is None,
        })
        return error is None

    def _error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def negative_control(self, report_text: str) -> None:
        """A tampered report must be rejected with CertificateInvalid."""
        doc = json.loads(report_text)
        doc["certificates"]["freeness"][-1]["entries"][0]["differs_at"] += 1
        tampered = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        self.attempted += 1
        try:
            self.ss.verify_report(tampered)
        except self.ss.errors.CertificateInvalid:
            return
        except Exception as exc:  # any other outcome is a failed control
            self._error(f"negative control raised {type(exc).__name__}: {exc}")
        else:
            self._error("negative control: verify_report accepted a tampered report")
        self.failed += 1

    def run_pass(self, p: int, tracer: Tracer | None = None, control: bool = True) -> float:
        """Run pass p; return the summed normalized op seconds.  With a
        tracer, also check that span self times account for each op's
        wall time.  Time the thread spent off the CPU may fall outside
        the spans (the machine is shared), so it widens the check's
        tolerance for uncovered time."""
        total = 0.0
        for op in self.workload.pass_ops(p):
            before = tracer.covered_ns if tracer else 0
            ref_before = speed.reference_ms()
            elapsed, output, error = self.call(op)
            ref_after = speed.reference_ms()
            normalized = elapsed * speed.REF_MS * 2 / (ref_before + ref_after)
            total += normalized
            if tracer is not None and error is None:
                spans_ms = (tracer.covered_ns - before) / 1e6
                wall_ms = elapsed * 1e3
                tol_ms = TRACE_TOL_REL * wall_ms + TRACE_TOL_ABS_MS
                if not -tol_ms <= wall_ms - spans_ms <= tol_ms + self.off_cpu * 1e3:
                    error = (f"spans cover {spans_ms:.3f} ms of {wall_ms:.3f} ms wall "
                             f"({self.off_cpu * 1e3:.3f} ms off the CPU)")
            ok = self.finish(op, p, normalized, elapsed, output, error)
            if control and ok and op.verb == "analyze" and op.conclusive:
                self.negative_control(output)
                control = False
        return total


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def tail(values: list[float], basis: int) -> tuple[float, float]:
    """The highest ladder percentile with at least 10 of `basis` samples
    beyond it (`basis` <= len(values)), or the median below 40 samples."""
    ordered = sorted(values)
    for q in TAIL_LADDER:
        if basis * (1000 - q) >= 10 * 1000:
            return percentile(ordered, q / 10), q / 10
    return statistics.median(ordered), 50.0


def measure_setup(workload: corpus.Workload) -> float:
    """Median over fresh interpreters of importing subshift.cli plus the
    first op, normalized to the reference speed measured around them."""
    argv = list(workload.setup_argv)
    argv[-1] = str(workload.files.dir / "setup.out")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE), *argv],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: setup run failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_plain(runner: Runner, seconds: float, min_passes: int) -> tuple[dict, list[str]]:
    setup_s = measure_setup(runner.workload)
    runner.call(runner.workload.pass_ops(0)[0])  # warm the in-process imports
    deadline = time.perf_counter() + seconds
    p = 0
    while p < max(min_passes, 1) or time.perf_counter() < deadline:
        runner.run_pass(p)
        p += 1
    recs = runner.records
    timed_s = sum(r["ms"] for r in recs) / 1e3
    metrics = {"words_per_s": (sum(r["N"] for r in recs if r["ok"]) / timed_s, "1/s")}
    notes = [f"passes {p}, ops {len(recs)}, timed {timed_s:.3f} s"]
    for verb in VERBS:
        lat = [r["ms"] for r in recs if r["verb"] == verb]
        per_pass = sum(r["verb"] == verb for r in recs if r["pass"] == 0)
        value, pct = tail(lat, per_pass * min(p, MIN_PASSES))
        metrics[f"{verb}.p50_ms"] = (statistics.median(lat), "ms")
        metrics[f"{verb}.tail_ms"] = (value, "ms")
        notes.append(f"{verb}.tail_ms is p{pct:g} of {len(lat)} samples")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["output_bytes"] = (sum(r["bytes"] for r in recs if r["pass"] == 0), "bytes")
    metrics["ops_ok_ratio"] = ((runner.attempted - runner.failed) / runner.attempted, "ratio")
    notes.append(f"ops_failed_ratio {runner.failed / runner.attempted:g} "
                 f"({runner.failed} of {runner.attempted}, negative controls included)")
    by_label: dict[tuple[str, str], list[dict]] = {}
    for r in recs:
        by_label.setdefault((r["label"], r["verb"]), []).append(r)
    for (label, verb), rs in sorted(by_label.items(), key=lambda kv: kv[1][0]["N"]):
        notes.append(f"  N={rs[0]['N']:>6} {verb:<8} {label:<26} "
                     f"median {statistics.median(r['ms'] for r in rs):9.3f} ms  "
                     f"bytes {rs[0]['bytes']:>8}  x{len(rs)}")
    return metrics, notes


def run_traced(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    tracer = Tracer("subshift", [t for t, _ in layers.TARGETS])
    runner.call(runner.workload.pass_ops(0)[0])
    deadline = time.perf_counter() + seconds
    per_pass: list[dict[str, float]] = []
    untraced = traced = 0.0
    p = 0
    while p == 0 or time.perf_counter() < deadline:
        # Alternate which run of the pass goes first, so drift cancels
        # out of the overhead ratio.
        for traced_run in (p % 2 == 1, p % 2 == 0):
            if traced_run:
                with tracer:
                    traced += runner.run_pass(p, tracer, control=False)
                per_pass.append(layers.pass_values(tracer.stats))
            else:
                untraced += runner.run_pass(p)
        p += 1
    units = {name: u for name, u, _ in layers.metric_names()}
    metrics = {
        name: (statistics.median(v[name] for v in per_pass), units[name]) for name in per_pass[0]
    }
    metrics[layers.OVERHEAD] = (traced / untraced, "ratio")
    notes = [f"traced passes {p}, untraced {untraced:.3f} s, traced {traced:.3f} s"]
    return metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(
    workload: str, seed: int, seconds: float, trace: bool, min_passes: int = MIN_PASSES
) -> tuple[dict, list[str], Runner]:
    """Run one benchmark measurement; return (result, notes, runner).
    Smoke tests lower `min_passes`; measurements keep the default."""
    ss = import_subshift()
    workdir = HERE / "work" / f"{workload}-{os.getpid()}"
    try:
        runner = Runner(ss, corpus.Workload(workload, seed, workdir))
        if trace:
            metrics, notes = run_traced(runner, seconds)
        else:
            metrics, notes = run_plain(runner, seconds, min_passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes + runner.errors, runner


def main(argv=None) -> int:
    args = parse_args(argv)
    result, notes, runner = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "notes": notes, "ops": runner.records}) + "\n")
    for line in notes:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
