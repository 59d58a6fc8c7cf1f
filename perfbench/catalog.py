"""The benchmark's metric catalogue: names, units, direction and intent.

``BENCHMARK.json`` at the repository root lists the same names and units
(its schema has no room for the intent columns); ``selftest.py`` checks
that the two agree.  Every per-layer entry records which end-to-end
metric it should move, on which workloads, and where it should stay
flat, so a later change can state its prediction by metric name before
it is measured.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

WORKLOADS: Tuple[str, ...] = ("sparse_evict", "dense_control", "trace_sweep")

#: The seed the pinned result digests belong to.
DEFAULT_SEED = 1
#: A seed no tuning used: later changes confirm their claims on it.
HELD_OUT_SEED = 7919


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    on: str
    flat_on: str


# What each metric measures is described in README.md.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower"),
    EndToEnd("wall_s", "s", "lower"),
    EndToEnd("events_per_s", "1/s", "higher"),
    EndToEnd("peak_rss_mb", "MB", "lower"),
    EndToEnd("cells_per_s", "1/s", "higher"),
]

_EVICT = "wall_s, events_per_s"
_ALL = "sparse_evict, dense_control, trace_sweep"

LAYERS: List[Layer] = [
    Layer("dtn.simulator.init_s", "s", "lower", "setup_s, peak_rss_mb", "sparse_evict", "-"),
    Layer("dtn.simulator.run.self_s", "s", "lower", "wall_s", _ALL, "-"),
    Layer("routing.base.make_room.self_s", "s", "lower", _EVICT, "sparse_evict", "trace_sweep"),
    Layer("routing.base.make_room.calls", "count", "lower", _EVICT, "sparse_evict", "trace_sweep"),
    Layer("routing.base.evictions", "count", "lower", _EVICT, "sparse_evict", "trace_sweep"),
    Layer("core.rapid.choose_eviction_victim.self_s", "s", "lower", _EVICT, "sparse_evict", "trace_sweep"),
    Layer("core.rapid.choose_eviction_victim.calls", "count", "lower", _EVICT, "sparse_evict", "trace_sweep"),
    Layer("core.rapid.eviction_yield", "ratio", "higher", _EVICT, "sparse_evict", "trace_sweep"),
    Layer("dtn.buffer.bytes_ahead_batch.self_s", "s", "lower", _EVICT, "sparse_evict", "-"),
    Layer("dtn.buffer.bytes_ahead_batch.calls", "count", "lower", _EVICT, "sparse_evict", "-"),
    Layer("dtn.buffer.bytes_ahead_batch.mean_len", "count", "higher", _EVICT, "sparse_evict", "-"),
    Layer("dtn.buffer.queue_batch.calls", "count", "lower", _EVICT, "sparse_evict", "-"),
    Layer("dtn.buffer.queue_batch.mean_len", "count", "higher", _EVICT, "sparse_evict", "-"),
    Layer("core.rapid.replication_candidates.s", "s", "lower", "wall_s", "dense_control, trace_sweep", "-"),
    Layer("core.rapid.replication_candidates.offered", "count", "lower", "wall_s", "dense_control, trace_sweep", "-"),
    Layer("core.rapid.replication_yield", "ratio", "higher", "wall_s", "dense_control, trace_sweep", "-"),
    Layer("core.control.exchange.self_s", "s", "lower", "wall_s", "dense_control", "sparse_evict"),
    Layer("core.control.exchange.calls", "count", "lower", "wall_s", "dense_control", "sparse_evict"),
    Layer("core.metadata.merge.self_s", "s", "lower", "wall_s", "dense_control", "sparse_evict"),
    Layer("core.metadata.records_merged", "count", "lower", "wall_s", "dense_control", "sparse_evict"),
    Layer("core.metadata.update_replica.calls", "count", "lower", "wall_s", "dense_control", "sparse_evict"),
    Layer("dtn.results.to_dict_s", "s", "lower", "wall_s, cells_per_s", "trace_sweep", "-"),
    Layer("dtn.results.from_dict_s", "s", "lower", "wall_s, cells_per_s, warm_wall_s", "trace_sweep", "-"),
    Layer("dtn.results.payload_bytes", "bytes", "lower", "wall_s, cells_per_s, warm_wall_s", "trace_sweep", "-"),
    Layer("engine.worker.cell_s.p50", "s", "lower", "wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.worker.cell_s.p90", "s", "lower", "wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.worker.cell_s.max", "s", "lower", "wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.worker.busy_s", "s", "lower", "wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.executor.busy_frac", "ratio", "higher", "wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.executor.wait_s", "s", "lower", "wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.spec.cache_key.s", "s", "lower", "wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.spec.cache_key.calls", "count", "lower", "wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.cache.put.s", "s", "lower", "wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.cache.put.bytes", "bytes", "lower", "wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.cache.get.s", "s", "lower", "warm_wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.cache.hit_ratio", "ratio", "higher", "warm_wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("engine.aggregator.series_s", "s", "lower", "wall_s, warm_wall_s", "trace_sweep", "sparse_evict, dense_control"),
    Layer("mobility.generate_s", "s", "lower", "setup_s", "dense_control", "sparse_evict"),
    Layer("workloads.generate_s", "s", "lower", "setup_s (wall_s where the sweep's cells generate inputs)", "dense_control, trace_sweep", "sparse_evict"),
    Layer("traces.generate_days_s", "s", "lower", "wall_s (the sweep's cells generate the day traces)", "trace_sweep", "sparse_evict, dense_control"),
    # Re-serving results from storage is memory-bound and drifts with the
    # host more than any other timing (run-to-run spread 16-35% against
    # 9-15% for wall_s), beyond the largest bound an end-to-end metric may
    # have, so it is reported here, from the untraced half of the run.
    Layer("warm_wall_s", "s", "lower", "- (median warm re-serve: the warm sweep over the "
          "cold pass's cache; reading and decoding the stored result JSON for a single cell)",
          "trace_sweep", "-"),
    Layer("trace.coverage", "ratio", "higher", "- (share of wall_s inside named spans)", _ALL, "-"),
    Layer("trace.overhead_s", "s", "lower", "- (traced minus untraced wall_s)", _ALL, "-"),
    # The untraced half's timings as measured, before the end-to-end
    # timings are scaled to reference seconds, and how fast the host ran.
    Layer("measured_wall_s", "s", "lower", "- (wall_s as measured, not scaled)", _ALL, "-"),
    Layer("host.kernel_s", "s", "lower", "- (mean hostspeed kernel pass; the program does "
          "not run in it)", "-", _ALL),
]

