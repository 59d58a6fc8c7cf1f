"""Outside-in layer tracing: spans recorded around the program's public calls.

Nothing here edits the program.  :func:`install` replaces a fixed list of
functions and methods with wrappers that time each call and count the
work it was handed, and :meth:`Installation.undo` puts the originals
back.  The
untraced benchmark run never calls :func:`install`.

A span carries a name, start and end (``time.perf_counter``, which is
system-wide monotonic, so worker and parent clocks agree), its parent
span, the process id and the run id.  Self time — a span's duration
minus the part its same-process child spans cover — is accumulated
online, so hot kernels called hundreds of thousands of times cost one
stack push and pop each and are kept as totals rather than stored one by
one.  Stored spans stay in memory and are written once, at the end.

Engine workers are forked from the traced parent, so they inherit the
wrappers.  The wrapped worker entry point resets the inherited tracer
state on first use and returns each cell's spans and totals beside its
result; the wrapped ``Executor.run_observed`` strips them off again in
the parent, so the engine above sees the payload it expects.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_SHIPPED = "_perfbench_trace"
#: Upper bound on individually stored spans per process (totals are exact).
MAX_STORED_SPANS = 200_000


class Tracer:
    """Per-process span stack, self-time totals and counters."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.active = False
        self.home_pid = os.getpid()
        self.reset(os.getpid(), None)

    def reset(self, pid: int, root_parent: Optional[int]) -> None:
        if pid != getattr(self, "pid", None):
            # Span ids stay unique across resets within one process.
            self._next_id = (pid << 32) | 1
        self.pid = pid
        self.root_parent = root_parent
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.dropped = 0
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_time = 0.0

    # ------------------------------------------------------------------
    def open(self, name: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        frame = [name, span_id, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame: list, store: bool) -> None:
        end = time.perf_counter()
        name, span_id, start, child = frame
        self.stack.pop()
        duration = end - start
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            parent_id = parent[1]
        else:
            self.root_time += duration
            parent_id = self.root_parent
        if store:
            if len(self.spans) < MAX_STORED_SPANS:
                self.spans.append((span_id, parent_id, name, start, end, self.pid))
            else:
                self.dropped += 1

    # ------------------------------------------------------------------
    def export_totals(self) -> dict:
        return {
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": list(self.spans),
            "dropped": self.dropped,
        }

    def absorb(self, shipped: dict) -> None:
        """Merge totals and spans a worker process sent back."""
        for name, value in shipped["inclusive"].items():
            self.inclusive[name] += value
        for name, value in shipped["self"].items():
            self.self_time[name] += value
        self.calls.update(shipped["calls"])
        self.counts.update(shipped["counts"])
        room = MAX_STORED_SPANS - len(self.spans)
        self.spans.extend(shipped["spans"][:room])
        self.dropped += shipped["dropped"] + max(0, len(shipped["spans"]) - room)

    def write(self, path: str) -> None:
        """Write every stored span as one JSON line each."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, name, start, end, pid in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "parent": parent_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "pid": pid,
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _span(tracer: Tracer, name: str, func: Callable, store: bool = True,
          before: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
    """Wrap *func* in a span; *before*/*after* take counts at the boundary."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return func(*args, **kwargs)
        token = before(args, kwargs) if before is not None else None
        frame = tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(frame, store)
        if after is not None:
            after(tracer, args, kwargs, result, token)
        return result

    return wrapper


def _counter(tracer: Tracer, count: Callable, func: Callable) -> Callable:
    """Wrap *func* with a counter only (for calls too hot to time)."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if tracer.active:
            count(tracer.counts, args, kwargs)
        return func(*args, **kwargs)

    return wrapper


class _TimedCandidates:
    """Times each ``next()`` of a replication-candidate generator."""

    __slots__ = ("_tracer", "_source")

    def __init__(self, tracer: Tracer, source) -> None:
        self._tracer = tracer
        self._source = source

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        frame = tracer.open("core.rapid.replication_candidates")
        try:
            item = next(self._source)
        finally:
            tracer.close(frame, False)
        tracer.counts["candidates_offered"] += 1
        return item


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Installation:
    """The patches in force: ``(owner, attribute, original)`` triples."""

    def __init__(self) -> None:
        self.patches: List[Tuple[object, str, object]] = []
        #: Boundaries the program no longer has; their metrics read zero.
        self.missing: List[str] = []

    def replace(self, owner, attribute: str, make: Callable[[Callable], object]) -> None:
        """Swap ``owner.attribute`` (looked up in its own namespace) for a wrapper."""
        original = vars(owner).get(attribute)
        if original is None:
            self.missing.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{attribute}")
            return
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attribute, replacement)
        self.patches.append((owner, attribute, original))

    def undo(self) -> None:
        for owner, attribute, original in reversed(self.patches):
            setattr(owner, attribute, original)
        self.patches.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every traced layer boundary; return the installation to undo."""
    from repro.core import control, metadata, rapid
    from repro.dtn import buffer, results, simulator
    from repro.engine import aggregator, cache, executor, spec, worker
    from repro.mobility import exponential, powerlaw
    from repro.routing import base
    from repro.traces import dieselnet
    from repro.workloads import base as workload_base

    inst = Installation()
    span = functools.partial(_span, tracer)

    # -- simulator -----------------------------------------------------
    inst.replace(simulator.Simulator, "__init__", lambda f: span("dtn.simulator.init", f))
    inst.replace(simulator.Simulator, "run", lambda f: span("dtn.simulator.run", f))

    # -- eviction cascade ------------------------------------------------
    def buffer_len(args, kwargs):
        return len(args[0].buffer)

    def count_evictions(tr, args, kwargs, result, before_len):
        tr.counts["evictions"] += before_len - len(args[0].buffer)

    inst.replace(base.RoutingProtocol, "make_room",
                 lambda f: span("routing.base.make_room", f,
                                before=buffer_len, after=count_evictions))

    def count_victim(tr, args, kwargs, result, token):
        if result is not None:
            tr.counts["rapid_victims"] += 1

    inst.replace(rapid.RapidProtocol, "choose_eviction_victim",
                 lambda f: span("core.rapid.choose_eviction_victim", f, after=count_victim))

    def count_scored(counts, args, kwargs):
        counts["rapid_scored"] += len(_arg(args, kwargs, 1, "missing"))

    inst.replace(rapid.RapidProtocol, "_fill_eviction_scores",
                 lambda f: _counter(tracer, count_scored, f))

    # -- bytes_ahead kernel ----------------------------------------------
    def batch_len(tr, args, kwargs, result, token):
        tr.counts["bytes_ahead_len"] += len(_arg(args, kwargs, 2, "rows"))

    inst.replace(buffer.NodeBuffer, "bytes_ahead_batch",
                 lambda f: span("dtn.buffer.bytes_ahead_batch", f, store=False, after=batch_len))

    def count_queue(counts, args, kwargs):
        counts["queue_batch_calls"] += 1
        counts["queue_batch_len"] += len(_arg(args, kwargs, 2, "packet_ids"))

    inst.replace(buffer._DestinationQueue, "bytes_before_batch",
                 lambda f: _counter(tracer, count_queue, f))

    # -- candidate scoring -----------------------------------------------
    def timed_candidates(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            source = func(*args, **kwargs)
            return _TimedCandidates(tracer, source) if tracer.active else source

        return wrapper

    inst.replace(rapid.RapidProtocol, "replication_candidates", timed_candidates)

    def count_accepted(counts, args, kwargs):
        counts["replicas_accepted"] += 1

    inst.replace(rapid.RapidProtocol, "on_replica_sent",
                 lambda f: _counter(tracer, count_accepted, f))

    # -- control exchange and metadata fold --------------------------------
    for channel in (control.InBandControlChannel, control.GlobalControlChannel):
        inst.replace(channel, "exchange", lambda f: span("core.control.exchange", f))

    # The fold runs per record, hundreds of thousands of times a cell, so
    # its wrappers are written out rather than built from _span/_counter.
    def merge_span(records_of):
        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return func(*args, **kwargs)
                frame = tracer.open("core.metadata.merge")
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer.close(frame, False)
                    tracer.counts["records_merged"] += records_of(args, kwargs)

            return wrapper

        return make

    inst.replace(metadata.MetadataStore, "merge_replica_record", merge_span(lambda a, k: 1))
    inst.replace(metadata.MetadataStore, "merge_entry",
                 merge_span(lambda a, k: len(_arg(a, k, 1, "entry").replicas)))

    def count_update(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts["update_replica_calls"] += 1
            return func(*args, **kwargs)

        return wrapper

    inst.replace(metadata.MetadataStore, "update_replica", count_update)

    # -- result serialization ----------------------------------------------
    inst.replace(results.SimulationResult, "to_dict", lambda f: span("dtn.results.to_dict", f))
    inst.replace(results.SimulationResult, "from_dict", lambda f: span("dtn.results.from_dict", f))

    # -- input generation --------------------------------------------------
    for model in (exponential.ExponentialMobility, powerlaw.PowerLawMobility):
        inst.replace(model, "generate", lambda f: span("mobility.generate", f))
    inst.replace(workload_base.TrafficModel, "generate", lambda f: span("workloads.generate", f))
    inst.replace(dieselnet.DieselNetTraceGenerator, "generate_days",
                 lambda f: span("traces.generate_days", f))

    # -- engine --------------------------------------------------------------
    inst.replace(spec.ScenarioSpec, "cache_key", lambda f: span("engine.spec.cache_key", f))

    def entry_bytes(tr, args, kwargs, path, token):
        tr.counts["cache_put_bytes"] += os.path.getsize(path)

    inst.replace(cache.ResultCache, "put", lambda f: span("engine.cache.put", f, after=entry_bytes))

    def count_get(tr, args, kwargs, result, token):
        tr.counts["cache_gets"] += 1
        if result is not None:
            tr.counts["cache_hits"] += 1

    inst.replace(cache.ResultCache, "get", lambda f: span("engine.cache.get", f, after=count_get))
    inst.replace(aggregator.Aggregator, "series", lambda f: span("engine.aggregator.series", f))

    def strip_shipped(tr, args, kwargs, payloads, token):
        for payload in payloads:
            shipped = payload.pop(_SHIPPED, None) if payload is not None else None
            if shipped is not None:
                tr.absorb(shipped)

    # Traced sweeps carry SweepTelemetry, which routes every executed cell
    # through the observed path.
    inst.replace(executor.Executor, "run_observed",
                 lambda f: span("engine.executor.run", f, after=strip_shipped))

    def ship_from_worker(func):
        @functools.wraps(func)
        def wrapper(payload):
            if not tracer.active or os.getpid() == tracer.home_pid:
                return func(payload)
            if tracer.pid != os.getpid():
                # First cell in a forked worker: drop the parent's state,
                # parenting this process's root spans to the executor span
                # that was open when the pool forked.
                inherited = tracer.stack[-1][1] if tracer.stack else None
                tracer.reset(os.getpid(), inherited)
            result = func(payload)
            result[_SHIPPED] = tracer.export_totals()
            tracer.reset(tracer.pid, tracer.root_parent)
            return result

        return wrapper

    # Pickle finds the pool's task function by module and name, so one
    # wrapper object must replace the name both in the worker module
    # (where pickle looks) and in the executor module (which hands it to
    # the pool).
    original = vars(worker).get("execute_cell_observed")
    if original is not None:
        shipped = ship_from_worker(original)
        inst.replace(worker, "execute_cell_observed", lambda f: shipped)
        inst.replace(executor, "execute_cell_observed", lambda f: shipped)
    return inst
