"""The traced subshift functions and the per-layer metrics read from them.

Metric names are ``<module>.<function>.<kind>``, with the class name
before the method for methods (``construct`` is ``__init__``).  Kinds:
``calls``, ``self_ms`` and ``total_ms`` per pass, ``distinct_ratio``
(distinct argument keys / calls), ``applies`` (transfer_apply calls per
recover_weight call), and otherwise an item count summed over the pass.
"""

from __future__ import annotations

from tracer import Stat, Target

TARGETS: list[tuple[Target, tuple[str, ...]]] = [
    (Target("graph", "is_transitive"), ("calls", "self_ms")),
    (Target("graph", "find_path"), ("calls", "self_ms")),
    (Target("graph", "first_return_word"), ("self_ms",)),
    (Target("graph", "shortest_cycle_avoiding"), ("self_ms",)),
    (Target("graph", "AdjacencyMatrix.successors"), ("calls",)),
    (Target("graph", "AdjacencyMatrix.predecessors"), ("calls",)),
    (Target("graph", "parse_matrix"), ("self_ms",)),
    (
        Target(
            "sequences",
            "enumerate_words",
            items={"words": lambda args, res: len(res)},
            distinct=lambda args: args,
        ),
        ("calls", "words", "self_ms", "distinct_ratio"),
    ),
    (Target("sequences", "one_sided_seq"), ("calls", "self_ms")),
    (Target("sequences", "contains_word"), ("calls", "self_ms")),
    (Target("sequences", "EventuallyPeriodicSeq.construct"), ("calls", "self_ms")),
    (Target("cylinders", "CylinderFunction.construct"), ("calls", "self_ms", "total_ms")),
    (Target("cylinders", "DomainMask.construct"), ("calls", "self_ms")),
    (Target("cylinders", "refine"), ("calls", "self_ms")),
    (Target("cylinders", "alpha"), ("calls", "self_ms")),
    (Target("cylinders", "pointwise"), ("calls", "self_ms")),
    (Target("cylinders", "parse_function_file"), ("self_ms",)),
    (Target("cylinders", "format_function_file"), ("self_ms",)),
    (
        Target(
            "transfer",
            "transfer_apply",
            items={"words_out": lambda args, res: len(res.values)},
            within="transfer.recover_weight",
            within_item="applies",
        ),
        ("calls", "self_ms", "words_out"),
    ),
    (Target("transfer", "recover_weight"), ("self_ms", "total_ms", "applies")),
    (Target("transfer", "Weight.construct"), ("calls", "self_ms")),
    (Target("transfer", "parse_weight_file"), ("self_ms",)),
    (
        Target(
            "freeness",
            "freeness_certificate",
            items={"entries": lambda args, res: len(res.entries)},
        ),
        ("calls", "self_ms", "entries"),
    ),
    (Target("freeness", "minimality_witness"), ("calls", "self_ms")),
    (Target("freeness", "find_nontrivial_invariant"), ("self_ms",)),
    (Target("freeness", "FreenessCertificate.verify"), ("self_ms",)),
    (Target("freeness", "MinimalityWitness.verify"), ("self_ms",)),
    (Target("freeness", "InvariantSetCertificate.verify"), ("self_ms",)),
    (Target("verdict", "analyze"), ("self_ms",)),
    (
        Target("verdict", "render_report", items={"bytes": lambda args, res: len(res)}),
        ("self_ms", "bytes"),
    ),
    (Target("verdict", "parse_report"), ("self_ms",)),
    (Target("verdict", "verify_report"), ("self_ms",)),
    (Target("cli", "main"), ("self_ms",)),
]

OVERHEAD = "trace.overhead_ratio"


def unit(kind: str) -> str:
    if kind.endswith("_ms"):
        return "ms"
    if kind.endswith("_ratio"):
        return "ratio"
    return "bytes" if kind == "bytes" else "count"


def better(kind: str) -> str:
    return "higher" if kind == "distinct_ratio" else "lower"


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = [
        (f"{t.key}.{kind}", unit(kind), better(kind)) for t, kinds in TARGETS for kind in kinds
    ]
    return rows + [(OVERHEAD, "ratio", "lower")]


def value(stat: Stat, kind: str) -> float:
    if kind == "calls":
        return stat.calls
    if kind == "self_ms":
        return stat.self_ns / 1e6
    if kind == "total_ms":
        return stat.total_ns / 1e6
    if kind == "distinct_ratio":
        return len(stat.distinct) / stat.calls if stat.calls else 0.0
    if kind == "applies":
        return stat.items.get("applies", 0) / stat.calls if stat.calls else 0.0
    return stat.items.get(kind, 0)


def pass_values(stats: dict[str, Stat]) -> dict[str, float]:
    """Every per-layer metric except the overhead, from one traced pass."""
    return {
        f"{t.key}.{kind}": value(stats[t.key], kind) for t, kinds in TARGETS for kind in kinds
    }
