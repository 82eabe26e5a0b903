"""Measurement plumbing owned by the benchmark: timed operations, spans
with self time, the engine proxy, counter probes and sample statistics.

Nothing here reaches into the program: spans wrap calls the benchmark
makes (or bound methods of objects the benchmark created), the proxy
stands between the store and its engine, and counts come from the
public ``store.metrics()`` snapshot.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

clock = time.perf_counter_ns

#: Engine contract operations the proxy counts and times — the same set
#: the program's ``TimedEngine`` observes, so the two can be compared.
ENGINE_OPS = ("read", "contains", "fetch_many", "oids", "roots", "apply",
              "apply_many", "apply_async", "flush", "sync", "compact")
#: The ones that carry a write batch.
_APPLY_OPS = ("apply", "apply_many", "apply_async")


def tail(samples: list[float]) -> Optional[tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; ``None`` below twenty samples."""
    ordered = sorted(samples)
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0):
        beyond = int(len(ordered) * (100.0 - percentile) / 100.0)
        if beyond >= 10 and percentile > 50.0:
            return percentile, ordered[len(ordered) - beyond - 1]
    return None


class _Span:
    """Context manager for one span of an enabled tracer."""

    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        parent = tracer.open[-1] if tracer.open else -1
        self.index = len(tracer.spans)
        # [name, parent, start, duration, time covered by children]
        tracer.spans.append([self.name, parent, clock(), 0, 0])
        tracer.open.append(self.index)
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self.tracer
        span = tracer.spans[self.index]
        span[3] = clock() - span[2]
        tracer.open.pop()
        if span[1] >= 0:
            tracer.spans[span[1]][4] += span[3]


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NO_SPAN = _NoSpan()


class Op:
    """One timed operation of a phase (a stabilise, a session, a cold
    open ...).  Its duration is always measured; on a traced run it is
    also the root of a span tree and carries counter deltas."""

    __slots__ = ("tracer", "phase", "probe", "start", "ns", "span",
                 "before", "counters", "layers", "count")

    def __init__(self, tracer: "Tracer", phase: str,
                 probe: Optional[Callable[[], dict]]):
        self.tracer = tracer
        self.phase = phase
        self.probe = probe if tracer.enabled else None
        self.ns = 0
        #: Units of work the operation did (records, lookups), set by
        #: the workload; rates are ``count / seconds``.
        self.count = 0
        self.span: Optional[_Span] = None
        self.counters: dict[str, float] = {}
        #: span name -> summed self time (ns), filled by ``Tracer.finish``.
        self.layers: dict[str, int] = {}

    def __enter__(self) -> "Op":
        if self.probe is not None:
            self.before = self.probe()
        if self.tracer.enabled:
            self.span = _Span(self.tracer, "op." + self.phase)
            self.span.__enter__()
        self.start = clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.ns = clock() - self.start
        if self.span is not None:
            self.span.__exit__()
        if self.probe is not None:
            after = self.probe()
            self.counters = {key: after[key] - self.before.get(key, 0)
                             for key in after}
        self.tracer.ops.setdefault(self.phase, []).append(self)

    @property
    def ms(self) -> float:
        return self.ns / 1e6

    @property
    def rate(self) -> float:
        return self.count / (self.ns / 1e9)


class Tracer:
    """Collects timed operations per phase and, when ``enabled``, the
    spans beneath them.  Spans stay in memory until the run ends."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.open: list[int] = []
        self.ops: dict[str, list[Op]] = {}

    def op(self, phase: str,
           probe: Optional[Callable[[], dict]] = None) -> Op:
        return Op(self, phase, probe)

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def wrap(self, obj: Any, method: str, name: str) -> None:
        """Put a span around a bound method of an object the benchmark
        created (instance attribute only; the class is untouched)."""
        if not self.enabled:
            return
        bound = getattr(obj, method)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with _Span(self, name):
                return bound(*args, **kwargs)

        setattr(obj, method, traced)

    def durations_ms(self, phase: str) -> list[float]:
        return [op.ms for op in self.ops.get(phase, [])]

    def rates(self, phase: str) -> list[float]:
        return [op.rate for op in self.ops.get(phase, [])]

    def finish(self) -> None:
        """Attribute every span's self time to each operation that
        encloses it."""
        roots = {op.span.index: op for ops in self.ops.values()
                 for op in ops if op.span is not None}
        for index, (name, parent, _start, duration, covered) in \
                enumerate(self.spans):
            self_ns = duration - covered
            ancestor = index
            while ancestor >= 0:
                op = roots.get(ancestor)
                if op is not None:
                    op.layers[name] = op.layers.get(name, 0) + self_ns
                ancestor = self.spans[ancestor][1]

    def layer_ms(self, phase: str, *names: str) -> list[float]:
        """Per operation of ``phase``: self time summed over the spans
        called ``names``."""
        return [sum(op.layers.get(name, 0) for name in names) / 1e6
                for op in self.ops.get(phase, [])]

    def counter(self, phase: str, key: str) -> list[float]:
        return [op.counters.get(key, 0) for op in self.ops.get(phase, [])]


class EngineProxy:
    """Delegating stand-in for a storage engine: counts and times every
    contract operation, and sums the records and bytes of write batches.
    Handed to ``ObjectStore(engine=...)`` on traced runs only."""

    def __init__(self, engine: Any, tracer: Tracer):
        self._engine = engine
        self._tracer = tracer
        self.calls = dict.fromkeys(ENGINE_OPS, 0)
        self.ns = dict.fromkeys(ENGINE_OPS, 0)
        self.records_written = 0
        self.bytes_written = 0
        for op in ENGINE_OPS:
            setattr(self, op, self._timed(op))

    def _timed(self, op: str) -> Callable:
        target = getattr(self._engine, op)
        name = "engine." + op

        def call(*args: Any) -> Any:
            if op in _APPLY_OPS:
                batches = list(args[0]) if op == "apply_many" else [args[0]]
                if op == "apply_many":
                    args = (batches,)
                for batch in batches:
                    self.records_written += len(batch.writes)
                    self.bytes_written += sum(len(raw)
                                              for _oid, raw in batch.writes)
            self.calls[op] += 1
            start = clock()
            with self._tracer.span(name):
                try:
                    return target(*args)
                finally:
                    self.ns[op] += clock() - start

        return call

    def __getattr__(self, item: str) -> Any:
        return getattr(self._engine, item)

    def totals(self) -> dict[str, int]:
        out: dict[str, int] = {"px.records_written": self.records_written,
                               "px.bytes_written": self.bytes_written}
        for op in ENGINE_OPS:
            out[f"px.calls.{op}"] = self.calls[op]
            out[f"px.ns.{op}"] = self.ns[op]
        return out


def store_counters(snapshot: dict) -> dict[str, float]:
    """The store's phase counters and serving gauges."""
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    return {
        "walk_ns": counters.get("store_walk_ns_total", 0),
        "encode_ns": counters.get("store_encode_ns_total", 0),
        "commit_ns": counters.get("store_commit_ns_total", 0),
        "fault_plans": gauges.get("store_fault_plans_total", 0),
        "fault_waves": gauges.get("store_fault_waves_total", 0),
        "fastpath_hits": gauges.get("store_fastpath_hits_total", 0),
    }


def file_engine_gauges(snapshot: dict) -> dict[str, float]:
    """The file engine's native counts (0 over another engine)."""
    gauges = snapshot["gauges"]
    return {key: gauges.get(f"{name}{{engine=file}}", 0)
            for key, name in (("wal_fsyncs", "wal_fsyncs_total"),
                              ("manifest_fsyncs", "manifest_fsyncs_total"),
                              ("checkpoints", "checkpoints_total"),
                              ("page_hits", "heap_page_hits_total"),
                              ("page_misses", "heap_page_misses_total"))}


def engine_op_totals(snapshot: dict, engine_name: str) -> dict[str, float]:
    """Calls and time per engine operation as the program's own
    ``engine_op_ns`` histograms have them."""
    out = {}
    for op in ENGINE_OPS:
        hist = snapshot["histograms"].get(
            f"engine_op_ns{{engine={engine_name},op={op}}}", {})
        out[f"prog.calls.{op}"] = hist.get("count", 0)
        out[f"prog.ns.{op}"] = hist.get("sum", 0)
    return out
