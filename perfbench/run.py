"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sparse_evict --seed 1 --seconds 30 --trace 0

``--workload`` is ``sparse_evict``, ``dense_control`` or ``trace_sweep``
(see ``workloads.py``).  The run sets up the workload several times and
then repeats it, one repetition at a time, until ``--seconds`` have
passed; every repetition's simulated cells are checked.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics of ``catalog.END_TO_END``
  (medians over the repetitions, timings in reference seconds: see
  ``hostspeed.py``), with no tracing installed;
* ``--trace 1`` spends the first half of the time untraced and the second
  half traced, reports the per-layer metrics of ``catalog.LAYERS`` (per
  repetition), and writes the stored spans to
  ``perfbench_out/spans-<workload>-seed<seed>.jsonl``.

Seed ``catalog.DEFAULT_SEED`` is checked against pinned result digests
(``digests.json``); seed ``catalog.HELD_OUT_SEED`` is kept for confirming
claims on inputs no tuning used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from catalog import END_TO_END, LAYERS, WORKLOADS, DEFAULT_SEED  # noqa: E402


def _import_program() -> None:
    """Import the program from this checkout's ``src``, never from elsewhere."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import repro

    if source not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, not from {source}")


def measure(workload, seconds: float, tracer=None) -> List:
    """Repeat *workload* for about *seconds* (at least once).

    A repetition starts only if, at the pace so far, it would be half done
    within the budget, so a run ends within half a repetition of it.
    """
    from workloads import Rep

    reps = []
    started = time.perf_counter()
    while True:
        try:
            reps.append(workload.rep(tracer))
        except Exception:  # a failed cell is counted, not fatal
            print(f"[{workload.name}] repetition raised:", flush=True)
            traceback.print_exc(file=sys.stdout)
            reps.append(Rep((), 0.0, (), workload.cells, workload.cells, 0))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(reps) / 2 > seconds:
            return reps


def _median(values) -> float:
    values = [v for v in values if v > 0]
    return statistics.median(values) if values else 0.0


def _to_reference(rep) -> float:
    """The repetition's factor from measured to reference seconds (0 if it failed)."""
    return hostspeed.REFERENCE_S / rep.kernel_s if rep.kernel_s > 0 else 0.0


def end_to_end(workload, reps: List, rss_mb: float) -> Dict[str, float]:
    """Medians over *reps*, every timing in reference seconds (``hostspeed``)."""
    wall = _median(r.wall_s * _to_reference(r) for r in reps)
    return {
        "setup_s": _median(s * _to_reference(r) for r in reps for s in r.setups),
        "wall_s": wall,
        "events_per_s": workload.events / wall if wall else 0.0,
        "peak_rss_mb": rss_mb,
        "cells_per_s": workload.cells / wall if wall else 0.0,
    }


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(tracer, traced: List, untraced: List) -> Dict[str, float]:
    """Per-repetition layer figures from the tracer's totals over *traced*."""
    n = max(1, len(traced))
    incl, own, calls, counts = tracer.inclusive, tracer.self_time, tracer.calls, tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cell_walls = [w for r in traced for w in r.cell_walls]
    busy = sum(cell_walls) / n
    cold_wall = _median(r.wall_s for r in traced)
    from workloads import SWEEP_WORKERS

    workers = SWEEP_WORKERS if cell_walls else 1
    return {
        "dtn.simulator.init_s": incl["dtn.simulator.init"] / n,
        "dtn.simulator.run.self_s": own["dtn.simulator.run"] / n,
        "routing.base.make_room.self_s": own["routing.base.make_room"] / n,
        "routing.base.make_room.calls": calls["routing.base.make_room"] / n,
        "routing.base.evictions": counts["evictions"] / n,
        "core.rapid.choose_eviction_victim.self_s": own["core.rapid.choose_eviction_victim"] / n,
        "core.rapid.choose_eviction_victim.calls": calls["core.rapid.choose_eviction_victim"] / n,
        "core.rapid.eviction_yield": ratio(counts["rapid_victims"], counts["rapid_scored"]),
        "dtn.buffer.bytes_ahead_batch.self_s": own["dtn.buffer.bytes_ahead_batch"] / n,
        "dtn.buffer.bytes_ahead_batch.calls": calls["dtn.buffer.bytes_ahead_batch"] / n,
        "dtn.buffer.bytes_ahead_batch.mean_len": ratio(
            counts["bytes_ahead_len"], calls["dtn.buffer.bytes_ahead_batch"]),
        "dtn.buffer.queue_batch.calls": counts["queue_batch_calls"] / n,
        "dtn.buffer.queue_batch.mean_len": ratio(
            counts["queue_batch_len"], counts["queue_batch_calls"]),
        "core.rapid.replication_candidates.s": incl["core.rapid.replication_candidates"] / n,
        "core.rapid.replication_candidates.offered": counts["candidates_offered"] / n,
        "core.rapid.replication_yield": ratio(
            counts["replicas_accepted"], counts["candidates_offered"]),
        "core.control.exchange.self_s": own["core.control.exchange"] / n,
        "core.control.exchange.calls": calls["core.control.exchange"] / n,
        "core.metadata.merge.self_s": own["core.metadata.merge"] / n,
        "core.metadata.records_merged": counts["records_merged"] / n,
        "core.metadata.update_replica.calls": counts["update_replica_calls"] / n,
        "dtn.results.to_dict_s": incl["dtn.results.to_dict"] / n,
        "dtn.results.from_dict_s": incl["dtn.results.from_dict"] / n,
        "dtn.results.payload_bytes": _median(r.payload_bytes for r in traced),
        "engine.worker.cell_s.p50": _quantile(cell_walls, 0.5),
        "engine.worker.cell_s.p90": _quantile(cell_walls, 0.9),
        "engine.worker.cell_s.max": max(cell_walls, default=0.0),
        "engine.worker.busy_s": busy,
        "engine.executor.busy_frac": ratio(busy, workers * cold_wall) if cell_walls else 0.0,
        "engine.executor.wait_s": own["engine.executor.run"] / n,
        "engine.spec.cache_key.s": incl["engine.spec.cache_key"] / n,
        "engine.spec.cache_key.calls": calls["engine.spec.cache_key"] / n,
        "engine.cache.put.s": incl["engine.cache.put"] / n,
        "engine.cache.put.bytes": counts["cache_put_bytes"] / n,
        "engine.cache.get.s": incl["engine.cache.get"] / n,
        # The warm pass's ratio; the cold pass into a fresh cache only misses.
        "engine.cache.hit_ratio": ratio(counts["warm_cache_hits"], counts["warm_cache_gets"]),
        "engine.aggregator.series_s": incl["engine.aggregator.series"] / n,
        "mobility.generate_s": own["mobility.generate"] / n,
        "workloads.generate_s": own["workloads.generate"] / n,
        "traces.generate_days_s": own["traces.generate_days"] / n,
        "warm_wall_s": _median(s for r in untraced for s in r.warms),
        "trace.coverage": ratio(sum(r.covered_s for r in traced), sum(r.wall_s for r in traced)),
        "trace.overhead_s": cold_wall - _median(r.wall_s for r in untraced),
        "host.kernel_s": _median(r.kernel_s for r in untraced),
        "measured_wall_s": _median(r.wall_s for r in untraced),
    }


def run(name: str, seed: int, seconds: float, trace: int, pins: dict):
    """Run one workload; return ``(result object, tracer or None, repetitions)``."""
    import tracing
    from workloads import build, peak_rss_mb

    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    try:
        workload = build(name, seed, pins, workdir)
        if trace == 0:
            reps = measure(workload, seconds)
            metrics = end_to_end(workload, reps, peak_rss_mb())
            table = {m.name: m.unit for m in END_TO_END}
        else:
            untraced = measure(workload, seconds / 2)
            tracer = tracing.Tracer(f"{name}-seed{seed}-{os.getpid()}")
            installation = tracing.install(tracer)
            for boundary in installation.missing:
                print(f"[{name}] not traced, the program has no {boundary}", flush=True)
            try:
                traced = measure(workload, seconds / 2, tracer)
            finally:
                installation.undo()
            reps = untraced + traced
            metrics = per_layer(tracer, traced, untraced)
            table = {layer.name: layer.unit for layer in LAYERS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(r.failed for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table.items()},
    }
    return result, tracer, len(reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import load_pins

    result, tracer, repetitions = run(
        args.workload, args.seed, args.seconds, args.trace, load_pins(HERE / "digests.json"))
    if tracer is not None:
        out = ROOT / "perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(path))
        print(f"{args.workload:14s} wrote {len(tracer.spans)} spans to {path} "
              f"({tracer.dropped} more past the cap were timed but not stored)")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:14s} {name:45s} {metric['value']:16.6f} {metric['unit']}")
    print(f"{args.workload:14s} repetitions {repetitions}  cells attempted "
          f"{result['attempted']}  failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
