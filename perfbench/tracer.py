"""Spans around the public functions of the vdwplate modules, recorded from
outside the package.

Each public function of a layer module is replaced, at every module that
binds it by name, with a wrapper that records a span: name, process, parent
span, start and end on CLOCK_MONOTONIC (one clock for every process on the
machine), and a few counts taken from the arguments and the result.  Spans
stay in memory in the benchmark process.  Pool workers forked while a span is
open write each finished span as a JSON line to a file of their own, because
a worker ends without running exit handlers.

The analysis half (interval unions, self time, per-name totals) works on
plain span records, so it can be tested on synthetic spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "asymptotics", "eigensolver", "multipole", "spectra",
          "potential", "model")

# functions whose output (or input) size counts as serialized bytes
SERIALIZERS = ("asymptotics.sweep_to_csv", "asymptotics.sweep_from_csv",
               "asymptotics.table_to_json", "asymptotics.fit_to_csv",
               "asymptotics.fit_to_dict")


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class Span:
    name: str
    pid: int
    seq: int
    parent: tuple | None      # (pid, seq) of the span that caused this one
    start: int                # ns, CLOCK_MONOTONIC
    end: int
    attrs: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple:
        return (self.pid, self.seq)

    @property
    def dur(self) -> int:
        return self.end - self.start


# ---------------------------------------------------------------------------
# Counts taken at the span boundary
# ---------------------------------------------------------------------------

def _annotate(name, args, kwargs, result) -> dict:
    if name == "eigensolver.lowest_eigenpair":
        op = args[0] if args else kwargs["op"]
        return {"dim": int(op.dim), "nnz": int(op.matrix.nnz),
                "iterations": int(result.iterations),
                "residual": float(result.residual)}
    if name == "asymptotics.sweep_interaction_energy":
        jobs = kwargs.get("jobs", args[6] if len(args) > 6 else 1)
        return {"jobs": int(jobs), "rows": len(result.rows),
                "gaps": sum(row.w is None for row in result.rows)}
    if name in SERIALIZERS:
        if isinstance(result, str):
            return {"bytes": len(result.encode())}
        if name == "asymptotics.sweep_from_csv":
            text = args[0] if args else kwargs["text"]
            return {"bytes": len(text.encode())}
    return {}


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

class Tracer:
    """Installs span-recording wrappers; install() and uninstall() pair up."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.spans: list = []
        self._pid = os.getpid()
        self._stack: list = []
        self._seq = 0
        self._inherited_parent = None
        self._sink = None
        self._patches: list = []   # (module, attribute, original)

    # worker processes --------------------------------------------------------

    def _enter_process(self):
        """First span in a forked worker: keep the fork-time parent, start empty."""
        self._pid = os.getpid()
        self._inherited_parent = self._stack[-1] if self._stack else None
        self._stack = []
        self.spans = []
        path = os.path.join(self.spool_dir, f"spans-{self._pid}.jsonl")
        self._sink = open(path, "a", encoding="utf-8")

    def _record(self, span: Span):
        if self._sink is None:
            self.spans.append(span)
            return
        self._sink.write(json.dumps([span.name, span.pid, span.seq, span.parent,
                                     span.start, span.end, span.attrs]) + "\n")
        self._sink.flush()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                tracer._enter_process()
            tracer._seq += 1
            key = (tracer._pid, tracer._seq)
            parent = tracer._stack[-1] if tracer._stack else tracer._inherited_parent
            tracer._stack.append(key)
            attrs = {}
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                attrs["failed"] = 1
                raise
            else:
                attrs.update(_annotate(name, args, kwargs, result))
                return result
            finally:
                end = now_ns()
                tracer._stack.pop()
                tracer._record(Span(name, key[0], key[1], parent, start, end, attrs))

        return traced

    def install(self):
        """Wrap every public function of each layer at every module that binds it."""
        modules = [importlib.import_module(f"vdwplate.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def collect(self) -> list:
        """Spans of the benchmark process and of every worker since the last call."""
        spans = self.spans
        self.spans = []
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("spans-"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    name, pid, seq, parent, start, end, attrs = json.loads(line)
                    spans.append(Span(name, pid, seq,
                                      tuple(parent) if parent else None,
                                      start, end, attrs))
            os.remove(path)
        return spans


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def union_length(intervals) -> int:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span key -> duration minus the part of it covered by its child spans.

    Children running in parallel (pool workers) are counted once where they
    overlap, and clipped to the parent's interval.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.key, ())]
        covered = union_length([(a, b) for a, b in kids if b > a])
        out[s.key] = s.dur - covered
    return out


@dataclass
class NameStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    attrs: dict = field(default_factory=dict)   # summed counts
    maxima: dict = field(default_factory=dict)  # largest value seen


def per_name(spans) -> dict:
    selfs = self_times(spans)
    stats: dict = {}
    for s in spans:
        st = stats.setdefault(s.name, NameStats())
        st.calls += 1
        st.busy_ns += s.dur
        st.self_ns += selfs[s.key]
        for k, v in s.attrs.items():
            st.attrs[k] = st.attrs.get(k, 0) + v
            st.maxima[k] = max(st.maxima.get(k, v), v)
    return stats


def layer_busy_ns(spans, prefix: str) -> int:
    """Time covered by any span of one layer, summed over processes."""
    by_pid: dict = {}
    for s in spans:
        if s.name.startswith(prefix):
            by_pid.setdefault(s.pid, []).append((s.start, s.end))
    return sum(union_length(iv) for iv in by_pid.values())


def pool_usage(spans) -> tuple:
    """(worker-slot utilisation, idle worker-seconds) over the sweep calls.

    The slots of a sweep are its `jobs`; the work is the time covered by
    eigensolver spans under it, per process (the benchmark process itself
    when jobs is 1).
    """
    by_key = {s.key: s for s in spans}

    def sweep_of(s):
        p = s.parent
        while p is not None and p in by_key:
            if by_key[p].name == "asymptotics.sweep_interaction_energy":
                return p
            p = by_key[p].parent
        return None

    work: dict = {}
    for s in spans:
        if s.name.startswith("eigensolver."):
            sweep = sweep_of(s)
            if sweep is not None:
                work.setdefault((sweep, s.pid), []).append((s.start, s.end))
    slot_ns = sum(s.attrs.get("jobs", 1) * s.dur for s in spans
                  if s.name == "asymptotics.sweep_interaction_energy")
    busy_ns = sum(union_length(iv) for iv in work.values())
    if slot_ns == 0:
        return 0.0, 0.0
    return busy_ns / slot_ns, (slot_ns - busy_ns) / 1e9
