"""Outside-in tracing of ``dtqm``: spans around public functions, counts on evaluators.

The tracer changes no file of the program. While installed it rebinds each
traced function in every ``dtqm`` module that imported it (so
``dtqm.cli.build_kernel`` and ``dtqm.correspondence.build_kernel`` both
record), puts counter-only wrappers on the action evaluators, and routes
``numpy.linalg.eigvals`` as seen from ``dtqm.cli`` through a span.
``uninstall`` restores every binding.

Spans are kept in memory on thread-local stacks. A span opened on a thread
whose stack is empty (a ``hbar_sweep`` worker) takes as parent the span
open on the thread that installed the tracer. Self time is a span's
duration minus the union of its children's intervals, so overlapping
children in worker threads are not subtracted twice.
"""

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy

# (layer name, module, attribute): public functions wrapped in spans.
SPAN_TARGETS = [
    ("cli.main", "dtqm.cli", "main"),
    ("config.load_config", "dtqm.config", "load_config"),
    ("criterion.check_criterion", "dtqm.criterion", "check_criterion"),
    ("correspondence.hbar_sweep", "dtqm.correspondence", "hbar_sweep"),
    ("correspondence.ehrenfest_run", "dtqm.correspondence", "ehrenfest_run"),
    ("grid.make_gaussian", "dtqm.grid", "make_gaussian"),
    ("propagator.build_kernel", "dtqm.propagator", "build_kernel"),
    ("propagator.unitarity_defect", "dtqm.propagator", "unitarity_defect"),
    ("propagator.evolve", "dtqm.propagator", "evolve"),
    ("classical.invert_momentum", "dtqm.classical", "invert_momentum"),
    ("classical.integrate", "dtqm.classical", "integrate"),
    ("classical.eom_step", "dtqm.classical", "eom_step"),
    ("rootfind.bracketed_newton", "dtqm.rootfind", "bracketed_newton"),
]
EIGVALS = "cli.eigvals"
ACTION_EVALS = "action.evals"
ACTION_METHODS = ("s", "ds_dx", "ds_dy", "d2s_dxdy")


class _Proxy:
    """Attribute-forwarding stand-in for a module, with some names overridden."""

    def __init__(self, target, **overrides):
        self.__dict__["_target"] = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class _ThreadData:
    __slots__ = ("stack", "records", "evals", "in_action")

    def __init__(self):
        self.stack = []
        self.records = []
        self.evals = 0
        self.in_action = False


class _ThreadLocal(threading.local):
    """Gives each thread its own ``_ThreadData`` and registers it for collection."""

    def __init__(self, registry, lock):
        self.data = _ThreadData()
        with lock:
            registry.append(self.data)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._threads = []
        self._local = _ThreadLocal(self._threads, self._lock)
        self._root_stack = self._local.data.stack  # span stack of the installing thread
        self._ids = iter(range(1, 1 << 62))
        self._restore = []
        self.absent = []

    # -- recording -------------------------------------------------------------

    def span(self, name: str, fn):
        local = self._local
        root_stack = self._root_stack
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = local.data
            stack = state.stack
            if stack:
                parent = stack[-1]
            else:
                parent = root_stack[-1] if root_stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                state.records.append((span_id, parent, name, threading.get_ident(), start, end))

        return traced

    def counter(self, fn):
        local = self._local

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            state = local.data
            if state.in_action:  # a subclass evaluator calling super()
                return fn(*args, **kwargs)
            state.in_action = True
            state.evals += 1
            try:
                return fn(*args, **kwargs)
            finally:
                state.in_action = False

        return counted

    # -- installation -------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "dtqm" or modname.startswith("dtqm.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self):
        """Wrap every target that exists; record the ones that do not as absent."""
        for name, modname, attr in SPAN_TARGETS:
            module = sys.modules.get(modname)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            self._rebind(original, self.span(name, original))

        cli = sys.modules.get("dtqm.cli")
        if cli is not None and getattr(cli, "np", None) is numpy:
            eig = self.span(EIGVALS, numpy.linalg.eigvals)
            cli.np = _Proxy(numpy, linalg=_Proxy(numpy.linalg, eigvals=eig))
            self._restore.append((cli, "np", numpy))
        else:
            self.absent.append(EIGVALS)

        action = sys.modules.get("dtqm.action")
        base = getattr(action, "ActionModel", None)
        wrapped = 0
        if isinstance(base, type):
            for cls in vars(action).values():
                if isinstance(cls, type) and issubclass(cls, base) and cls is not base:
                    for meth in ACTION_METHODS:
                        if meth in vars(cls):
                            original = vars(cls)[meth]
                            setattr(cls, meth, self.counter(original))
                            self._restore.append((cls, meth, original))
                            wrapped += 1
        if not wrapped:
            self.absent.append(ACTION_EVALS)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------------

    def records(self):
        with self._lock:
            return sorted(r for state in self._threads for r in state.records)

    def action_evals(self) -> int:
        with self._lock:
            return sum(state.evals for state in self._threads)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(records):
    """Per-name calls, inclusive and self time, plus tree totals.

    Returns ``(layers, totals)``. ``layers[name]`` has ``calls``, ``total_s``,
    ``self_s`` and ``child_s`` (summed duration of direct children).
    ``totals`` has ``root_s`` (summed duration of spans without a parent),
    ``self_s`` (summed self time) and ``parallel_s`` (child time that
    overlapped a sibling), with ``self_s == root_s + parallel_s``.
    """
    children = defaultdict(list)
    for span_id, parent, _name, _tid, start, end in records:
        if parent:
            children[parent].append((start, end))
    layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "child_s": 0.0})
    totals = {"root_s": 0.0, "self_s": 0.0, "parallel_s": 0.0}
    for span_id, parent, name, _tid, start, end in records:
        duration = end - start
        kids = [(max(a, start), min(b, end)) for a, b in children.get(span_id, ()) if b > start and a < end]
        covered = _union_length(kids)
        child_sum = sum(b - a for a, b in kids)
        layer = layers[name]
        layer["calls"] += 1
        layer["total_s"] += duration
        layer["self_s"] += duration - covered
        layer["child_s"] += child_sum
        totals["self_s"] += duration - covered
        totals["parallel_s"] += child_sum - covered
        if not parent:
            totals["root_s"] += duration
    return dict(layers), totals


def write_spans(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,thread,start_s,end_s\n")
        for span_id, parent, name, tid, start, end in records:
            fh.write(f"{span_id},{parent},{name},{tid},{start!r},{end!r}\n")
