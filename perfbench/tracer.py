"""A span tracer that wraps subshift's layer functions from outside.

Each target is a module-level function or a class method of one
subshift module.  Modules import each other's functions with
``from .x import y``, so one function object is bound under several
module names; ``Tracer.install`` replaces every binding in every
subshift module, and ``Tracer.remove`` puts every original back.

A span is one call of a target.  Its self time is its duration minus
the durations of the target calls made inside it, so the self times of
all spans under one root add up to the root's duration.  A garbage
collection that runs while no span is open (the interpreter may start
one on any allocation, also in the caller's code next to a root call)
is counted as well, so ``covered_ns`` accounts for all of an
operation's time whatever lands where.  Spans are not
stored one by one (a single operation makes up to millions): each
target keeps running totals of calls, self and total nanoseconds, and
any item counts the target declares.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from collections.abc import Callable
from time import perf_counter_ns

MODULES = ("graph", "sequences", "cylinders", "transfer", "freeness", "verdict", "cli")


class Stat:
    __slots__ = ("calls", "self_ns", "total_ns", "items", "distinct")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.items: dict[str, float] = {}
        self.distinct: set = set()


class Target:
    """One traced function: `module.qualname`, with optional item counters.

    `items` maps an item name to a function of (args, result) giving the
    amount to add per call.  `distinct` maps the call's args to a key;
    the set of keys seen measures how many calls repeat earlier work.
    `within` names another target key: calls of this target made while
    that one is running are counted on it under the item `within_item`.
    """

    def __init__(self, module, qualname, items=None, distinct=None, within=None, within_item=None):
        self.module = module
        self.qualname = qualname
        self.items: dict[str, Callable] = items or {}
        self.distinct = distinct
        self.within = within
        self.within_item = within_item

    @property
    def key(self) -> str:
        return f"{self.module}.{self.qualname}"


class Tracer:
    def __init__(self, package: str, targets: list[Target]):
        self.package = package
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.self_sum_ns = 0
        self.outside_gc_ns = 0  # collections run while no span was open
        self._stack: list[list] = []  # [key, child_ns] per open span
        self._gc_start: int | None = None
        self._patches: list[tuple[object, str, bool, object]] = []

    def reset(self) -> None:
        self.stats = {t.key: Stat() for t in self.targets}
        self.self_sum_ns = 0
        self.outside_gc_ns = 0

    @property
    def covered_ns(self) -> int:
        """Span self times plus collections outside any span."""
        return self.self_sum_ns + self.outside_gc_ns

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = None if self._stack else perf_counter_ns()
        elif self._gc_start is not None:
            self.outside_gc_ns += perf_counter_ns() - self._gc_start
            self._gc_start = None

    def _modules(self):
        names = [self.package] + [f"{self.package}.{m}" for m in MODULES]
        return [importlib.import_module(n) for n in names]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        modules = self._modules()
        for t in self.targets:
            home = sys.modules[f"{self.package}.{t.module}"]
            owner_name, _, attr = t.qualname.rpartition(".")
            if owner_name:
                # A method: the class holds its only binding.
                owner = getattr(home, owner_name)
                method_attr = "__init__" if attr == "construct" else attr
                original = owner.__dict__[method_attr]
                self._patch(owner, method_attr, self._wrap(t, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(t, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        self._patches.append((owner, name, had, vars(owner).get(name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, name, had, original = self._patches.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, target: Target, fn):
        key = target.key
        stack = self._stack
        items = list(target.items.items())
        distinct = target.distinct
        within = target.within
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if within is not None and any(frame[0] == within for frame in stack):
                outer = tracer.stats[within].items
                outer[target.within_item] = outer.get(target.within_item, 0) + 1
            frame = [key, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += total
                st = tracer.stats[key]
                st.calls += 1
                st.total_ns += total
                st.self_ns += total - frame[1]
                tracer.self_sum_ns += total - frame[1]
            for name, count in items:
                st.items[name] = st.items.get(name, 0) + count(args, result)
            if distinct is not None:
                st.distinct.add(distinct(args))
            return result

        return traced
