"""In-memory tracing of flowsift's layers, applied from outside the package.

While a ``Tracer.recording(run_id)`` block is open, public functions and
methods of flowsift are replaced by wrappers; on exit the originals come
back, so untimed and untraced code runs the unmodified program.

Three wrapper kinds, by how often the wrapped call happens:

* span: calls made once per chunk or once per run. Each call records a
  span (name, start, end, parent, run id, optional size).
* timed aggregate: calls made once per packet. Only a call count and the
  summed time are kept; the time is charged to the enclosing span as
  covered child time.
* count: scalar hashing and ``TopTable.absorb``. Only a call count.

A span's self time is its duration minus the time its child spans and
timed aggregates cover. Detector, cache, gate and table instances built
inside a block are kept, so their counters can be read at the end.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "run_id", "start", "end", "size", "child_s")

    def __init__(self, span_id: int, name: str, parent: int, run_id: str,
                 start: float, size: int = 0):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run_id = run_id
        self.start = start
        self.end = start
        self.size = size
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "run_id": self.run_id, "start": self.start, "end": self.end,
                "size": self.size, "self_s": self.self_s}


def _rows(folds, *_args, **_kw) -> int:
    return len(folds)


def _first_arg_rows(_self, folds, *_args, **_kw) -> int:
    return len(folds)


class Tracer:
    """Spans, counters and captured instances, grouped by run id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.instances: dict[tuple[str, str], list] = defaultdict(list)
        self._stack: list[Span] = []
        self._timed_depth = 0

    # -- recording -----------------------------------------------------------

    @contextmanager
    def recording(self, run_id: str):
        """Trace every call into flowsift made inside the block."""
        root = self._open(run_id, run_id, 0)
        restore = _install(self, run_id)
        try:
            yield
        finally:
            for undo in reversed(restore):
                undo()
            self._close(root)

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, inside a recording."""
        span = self._open(name, self._stack[-1].run_id, 0)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str, run_id: str, size: int) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), name, parent, run_id, perf_counter(), size)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, fn, name: str, run_id: str, size_of=None):
        def wrapper(*args, **kwargs):
            span = self._open(name, run_id, size_of(*args, **kwargs) if size_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def _timed(self, fn, name: str, run_id: str, on_result=None):
        calls, seconds, key = self.calls, self.seconds, (run_id, name)

        def wrapper(*args, **kwargs):
            self._timed_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._timed_depth -= 1
                calls[key] += 1
                seconds[key] += dt
                if self._timed_depth == 0:
                    self._stack[-1].child_s += dt
            if on_result is not None:
                on_result(result, run_id)
            return result
        return wrapper

    def _counted(self, fn, name: str, run_id: str):
        calls, key = self.calls, (run_id, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _capturing(self, init, name: str, run_id: str):
        found = self.instances[(run_id, name)]

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            found.append(obj)
        return wrapper

    def _admit(self, fn, run_id: str):
        """RetransmitDetector._admit: count admissions and the capacity
        evictions they force (an admission that leaves the size unchanged)."""
        calls = self.calls

        def wrapper(det, key, estimate, ts):
            before = len(det.tracked)
            was_tracked = key in det.tracked
            fn(det, key, estimate, ts)
            if not was_tracked and key in det.tracked:
                calls[(run_id, "retransmit.admissions")] += 1
                if len(det.tracked) == before:
                    calls[(run_id, "retransmit.evictions")] += 1
        return wrapper

    # -- reading ---------------------------------------------------------------

    def of(self, run_id: str, name: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id and s.name == name]

    def span_s(self, run_id: str, name: str) -> float:
        return sum(s.duration for s in self.of(run_id, name))

    def self_s(self, run_id: str, name: str) -> float:
        return sum(s.self_s for s in self.of(run_id, name))

    def size(self, run_id: str, name: str) -> int:
        return sum(s.size for s in self.of(run_id, name))

    def found(self, run_id: str, name: str) -> list:
        return self.instances[(run_id, name)]

    def dump(self) -> dict:
        return {
            "spans": [s.as_dict() for s in self.spans],
            "calls": {f"{r}/{n}": v for (r, n), v in sorted(self.calls.items())},
            "seconds": {f"{r}/{n}": v for (r, n), v in sorted(self.seconds.items())},
        }


def _install(tracer: Tracer, run_id: str) -> list:
    """Replace flowsift's functions and methods with tracing wrappers;
    returns the undo actions."""
    from flowsift import (cli, countsketch, framework, harness, hashing, inject, latency,
                          loss, ooo, reporter, retransmit, synth, traceio)

    undo: list = []
    T = tracer

    def method(cls, attr: str, make) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, make(orig))
        undo.append(lambda: setattr(cls, attr, orig))

    def function(module, attr: str, make) -> None:
        orig = getattr(module, attr)
        _rebind(orig, make(orig), undo)

    def gate_suppressed(result, rid):
        if result is False:
            T.calls[(rid, "reporter.gate_suppressed")] += 1

    # setup stages
    function(synth, "synthesize", lambda f: T._spanned(f, "synth", run_id))
    for name in ("inject_latency", "inject_loss", "inject_reorder", "inject_duplicate"):
        function(inject, name, lambda f: T._spanned(f, "inject", run_id))
    function(traceio, "write_trace", lambda f: T._spanned(f, "traceio.write", run_id))
    function(traceio, "load_trace", lambda f: T._spanned(f, "traceio.load", run_id))
    function(harness, "compute_relevant", lambda f: T._spanned(f, "oracle", run_id))

    # per run and per chunk
    function(harness, "run_experiment", lambda f: T._spanned(f, "harness.run", run_id))
    method(traceio.Trace, "key_matrix",
           lambda f: T._spanned(f, "traceio.key_matrix", run_id))
    method(traceio.Trace, "canonical_matrix",
           lambda f: T._spanned(f, "traceio.canonical_matrix", run_id))
    function(hashing, "fold64_matrix",
             lambda f: T._spanned(f, "hashing.fold64_matrix", run_id, _rows))
    function(hashing, "bucket_batch", lambda f: T._spanned(f, "hashing.bucket_batch", run_id))
    function(hashing, "sign_batch", lambda f: T._spanned(f, "hashing.sign_batch", run_id))
    table = countsketch.CountSketchTable
    method(table, "update_batch",
           lambda f: T._spanned(f, "countsketch.update_batch", run_id, _first_arg_rows))
    method(table, "estimate_batch",
           lambda f: T._spanned(f, "countsketch.estimate_batch", run_id, _first_arg_rows))
    method(table, "signed_magnitudes",
           lambda f: T._spanned(f, "countsketch.signed_magnitudes", run_id))
    function(reporter, "controller_topk",
             lambda f: T._spanned(f, "reporter.controller_topk", run_id))
    for cls, prefix, attrs in (
            (latency.LatencyDetector, "latency", ("observe_batch", "topk")),
            (loss.LossDetector, "loss", ("observe_batch", "topk")),
            (ooo.OooDetector, "ooo", ("observe_trace", "topk")),
            (retransmit.RetransmitDetector, "retransmit", ("observe_trace", "report"))):
        for attr in attrs:
            method(cls, attr, lambda f, n=f"{prefix}.{attr}": T._spanned(f, n, run_id))
    method(framework.FrameworkSketch, "recover_detailed",
           lambda f: T._spanned(f, "framework.recover", run_id))
    function(cli, "main", lambda f: T._spanned(f, "cli.main", run_id))

    # per packet
    function(reporter, "maybe_report",
             lambda f: T._timed(f, "reporter.maybe_report", run_id, gate_suppressed))
    method(table, "estimate", lambda f: T._timed(f, "countsketch.estimate", run_id))
    method(framework.FrameworkSketch, "update",
           lambda f: T._timed(f, "framework.update", run_id))
    function(hashing, "fold64", lambda f: T._counted(f, "hashing.fold64", run_id))
    function(hashing, "bucket_of_fold",
             lambda f: T._counted(f, "hashing.bucket_of_fold", run_id))
    function(framework, "flow_id32", lambda f: T._counted(f, "framework.flow_id32", run_id))
    method(ooo.TopTable, "absorb", lambda f: T._counted(f, "ooo.absorb", run_id))
    method(retransmit.TrackedFlow, "add_batch",
           lambda f: T._counted(f, "retransmit.distinct_add_batch", run_id))
    method(retransmit.RetransmitDetector, "_admit", lambda f: T._admit(f, run_id))

    # instances whose counters are read after the run
    for cls in (latency.LatencyDetector, ooo.OooDetector, ooo.RecencyCache,
                retransmit.RetransmitDetector, reporter.BloomGate, reporter.CandidateLog,
                table):
        method(cls, "__init__", lambda f, n=cls.__name__: T._capturing(f, n, run_id))
    return undo


def _rebind(orig, wrapper, undo: list) -> None:
    """Point every flowsift module-level name, and every module-level dict
    entry, that holds ``orig`` at ``wrapper`` (modules import by name)."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "flowsift" and not mod_name.startswith("flowsift."):
            continue
        space = vars(module)
        for attr, value in list(space.items()):
            if value is orig:
                space[attr] = wrapper
                undo.append(lambda s=space, a=attr: s.__setitem__(a, orig))
            elif isinstance(value, dict) and not attr.startswith("__"):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapper
                        undo.append(lambda d=value, k=k: d.__setitem__(k, orig))
