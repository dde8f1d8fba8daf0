"""Machine-speed reference for normalizing latencies.

On a shared machine the core this process runs on changes speed by up
to ~1.7x within seconds (CPU time and wall time move together, so the
cause is contention on the core, not preemption).  A fixed pure-Python
loop timed next to each operation tracks that speed.  An operation's
latency is reported as its wall time scaled by REF_MS / (reference
time measured around it): milliseconds at the speed where the
reference loop takes REF_MS.  The loop uses only builtins, so nothing
in subshift can change it.
"""

from __future__ import annotations

import time

# Nominal reference time: about the loop's time on an uncontended core
# of the 2-core x86-64 machine the benchmark was sized on (Python 3.11).
REF_MS = 0.14


def _reference_work() -> int:
    words = [(s,) for s in (1, 2, 3)]
    for _ in range(6):
        words = [w + (b,) for w in words for b in (1, 2, 3) if (w[-1] + b) % 4]
    table = {w: len(w) * w[0] + w[-1] for w in words}
    total = 0
    for w in words:
        total += table[w] * table.get(w[1:] + (1,), 1) % 7
    return total


def reference_ms() -> float:
    """Fastest of three timed runs of the reference loop, in ms."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best * 1e3
