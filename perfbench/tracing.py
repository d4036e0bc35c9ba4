"""Per-layer tracing from outside the program.

``instrument`` replaces, by identity, every public function found in a
``phaselab.*`` module namespace (``cli``, ``verify`` and ``baselines`` bind
names with ``from ... import``, so each namespace holds its own reference),
the values of ``OPERATOR_BUILDERS``, the arithmetic methods of the
operator classes, and the entries of ``verify``'s check registry, with
wrappers that record a span per call. No file of the program changes.

A span is ``[group, start, end, parent index]``; the spans of one
invocation are drained after it returns and folded into ``LayerTotals``.
A group's self time is its spans' duration minus the part of each span
that its child spans cover.
"""

from __future__ import annotations

import functools
import re
import sys
import time
import types
from collections import defaultdict

# Groups of the ``phase`` module's public functions; anything else in the
# module is ``phase.other``.
_PHASE_GROUPS = {
    "eigen_decompose_sg": "phase.eig",
    "phase_distribution": "phase.dist",
    "circular_stats": "phase.dist",
    "phase_state": "phase.state",
    "distribution_to_csv": "phase.render",
    "distribution_to_json_dict": "phase.render",
}

# Arithmetic methods of the dense operator classes
ARITH_METHODS = ("adjoint", "apply", "__matmul__", "__add__", "__sub__",
                 "__mul__", "__rmul__", "__neg__")


def group_of(module: str, name: str) -> str:
    """Layer group of a phaselab function, from its module and name."""
    layer = module.rpartition(".")[2]
    if layer == "operators":
        if name == "operator_to_json_dict":
            return "operators.dump"
        if name.startswith("build_") or name in ("<lambda>", "lowering_coefficient"):
            return "operators.build"
        return "operators.arith"
    if layer == "phase":
        return _PHASE_GROUPS.get(name, "phase.other")
    return layer


class Tracer:
    """Records spans of wrapped calls into an in-memory list."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def wrap(self, fn, group: str):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [group, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def drain(self) -> list[list]:
        """Spans recorded since the last drain (all of them closed)."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def fold_spans(spans: list[list]) -> tuple[dict, dict, dict]:
    """(self seconds, total seconds, calls) per group for one span tree."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for group, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, (group, start, end, _parent) in enumerate(spans):
        self_s[group] += (end - start) - _covered(children.get(index, []), start, end)
        total_s[group] += end - start
        calls[group] += 1
    return self_s, total_s, calls


def root_seconds(spans: list[list]) -> float:
    return sum(end - start for _g, start, end, parent in spans if parent < 0)


class LayerTotals:
    """Per-group sums over the invocations of a traced run."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans = 0
        self.root_s = 0.0

    def add(self, spans: list[list]) -> None:
        self_s, total_s, calls = fold_spans(spans)
        for group in calls:
            self.self_s[group] += self_s[group]
            self.total_s[group] += total_s[group]
            self.calls[group] += calls[group]
        self.spans += len(spans)
        self.root_s += root_seconds(spans)


def _check_id(fn, index: int) -> str:
    m = re.search(r"_c(\d+)$", getattr(fn, "__name__", ""))
    return f"C{int(m.group(1)) if m else index + 1:02d}"


def instrument(tracer: Tracer) -> list[str]:
    """Wrap phaselab's public functions, builders, operator arithmetic and
    check registry in every loaded ``phaselab`` module. Returns the check
    ids found in the registry (empty if it is gone)."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "phaselab" or name.startswith("phaselab.")]
    wrappers: dict[int, object] = {}

    def wrapped(fn, group=None):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.wrap(fn, group or group_of(fn.__module__, fn.__name__))
        return wrappers[id(fn)]

    # counters go innermost, so the span wrappers below wrap the counted
    # functions by identity like any other
    operators = sys.modules.get("phaselab.operators")
    _count_dense_work(tracer, operators, modules)
    for module in modules:
        for name, obj in list(vars(module).items()):
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__.startswith("phaselab")):
                setattr(module, name, wrapped(obj))

    builders = getattr(operators, "OPERATOR_BUILDERS", {})
    for key, fn in list(builders.items()):
        builders[key] = wrapped(fn, "operators.build")

    for module_name, group in (("phaselab.operators", "operators.arith"),
                               ("phaselab.baselines", "baselines")):
        module = sys.modules.get(module_name)
        for cls in vars(module).values() if module else ():
            if isinstance(cls, type) and cls.__module__ == module_name:
                for method in ARITH_METHODS:
                    fn = cls.__dict__.get(method)
                    if isinstance(fn, types.FunctionType):
                        setattr(cls, method, wrapped(fn, group))

    verify = sys.modules.get("phaselab.verify")
    registry = getattr(verify, "_REGISTRY", None)
    if registry is None:
        return []
    check_ids = [_check_id(fn, i) for i, fn in enumerate(registry)]
    verify._REGISTRY = tuple(
        wrapped(fn, f"verify.{cid}") for fn, cid in zip(registry, check_ids))
    return check_ids


def _count_dense_work(tracer: Tracer, operators, modules: list) -> None:
    """Count OperatorMatrix constructions and dense products (8 D^3 real
    flops each, one per ``@`` and two per commutator).

    Only products of OperatorMatrix objects are seen. A product of two raw
    ndarrays (five per ``check``: three in C08, two in C11) cannot be
    wrapped from outside the program and is left out of
    ``operators.matmul.calls`` and ``operators.matmul_flops``."""
    counters = tracer.counters
    matrix_cls = getattr(operators, "OperatorMatrix", None)
    if matrix_cls is None:
        return
    post_init = matrix_cls.__dict__.get("__post_init__")
    if post_init is not None:
        def counted_post_init(self):
            post_init(self)
            counters["operators.matrices"] += 1
            counters["operators.dense_bytes"] += 16 * self.window.dimension ** 2
        matrix_cls.__post_init__ = counted_post_init

    def counting(fn, products):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            counters["operators.matmul.calls"] += products
            counters["operators.matmul_flops"] += products * 8 * a.window.dimension ** 3
            return fn(a, *args, **kwargs)
        return counted

    if "__matmul__" in matrix_cls.__dict__:
        matrix_cls.__matmul__ = counting(matrix_cls.__dict__["__matmul__"], 1)
    commutator = getattr(operators, "commutator", None)
    if isinstance(commutator, types.FunctionType):
        counted = counting(commutator, 2)
        for module in modules:
            if getattr(module, "commutator", None) is commutator:
                module.commutator = counted


def calibrate(clock=time.perf_counter, calls: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    probe = Tracer(clock)
    traced = probe.wrap(noop, "probe")
    best_bare = best_traced = float("inf")
    for _ in range(3):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        probe.drain()
        best_bare = min(best_bare, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(best_traced - best_bare, 0.0) / calls
