"""The three benchmark workloads: inputs from a seed, one timed repetition, checks.

Each workload is a closed loop with one client, this process: a
repetition starts only when the previous one has finished and been
checked.  A repetition returns a :class:`Rep` with its timings and the
number of simulated cells it attempted and failed.

* ``sparse_evict`` — one RAPID cell with hundreds of nodes, uniform
  random contacts and endpoints, 30 KB buffers of 1 KB packets and no
  control channel: nearly every replica lands in a full buffer, so the
  eviction cascade and its ``bytes_ahead`` kernel, looping over many
  distinct destinations, dominate.
* ``dense_control`` — the deep-buffer 8-node exponential-mobility RAPID
  cell of ``benchmarks/bench_rapid_hotpath.py`` at an eighth of its
  duration, buffers scaled with it: the in-band control exchange and the
  metadata fold dominate, and few destinations batch the eviction kernel.
* ``trace_sweep`` — the DieselNet ``ci_scale`` grid (4 protocols x 3
  loads x 1 day x 2 contact models) through a serial ``ExperimentEngine``
  into a fresh result cache, then re-served warm from that cache.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import shutil
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.dtn.packet import Packet
from repro.dtn.results import SimulationResult
from repro.dtn.simulator import Simulator
from repro.engine import ExperimentEngine, ResultCache, ScenarioGrid, SweepTelemetry
from repro.engine import worker as engine_worker
from repro.experiments.config import TraceExperimentConfig, standard_protocols
from repro.mobility.exponential import ExponentialMobility
from repro.mobility.schedule import Meeting, MeetingSchedule
from repro.routing.registry import create_factory
from repro.workloads import UniformCBR

import hostspeed

# sparse_evict: 200 nodes, 3000 packets created in the first 5% of an
# hour, 150 uniform random contacts of 40 KB, 30 KB buffers.  Creating
# the packets early puts every buffer under pressure for most contacts,
# which keeps the eviction work steady from seed to seed.
SPARSE_NODES = 200
SPARSE_PACKETS = 3000
SPARSE_CONTACTS = 150
SPARSE_DURATION = 3600.0
SPARSE_CREATION_WINDOW = 0.05
SPARSE_CONTACT_BYTES = 40 * units.KB
SPARSE_BUFFER = 30 * units.KB

# dense_control: the bench_rapid_hotpath full cell (8 nodes, 1500
# packets/hour per pair, 1.5 MB buffers over 1200 s) cut to 150 s with
# the buffers cut by the same factor, and contacts three times as often
# at a third of the size (same mean bandwidth per pair) so the cell still
# sees over a hundred contacts.  At 300 s a run held 6-7 repetitions and
# its median spread by 19% over ten seeds; at 150 s it holds 12-14.
DENSE_NODES = 8
DENSE_DURATION = 150.0
DENSE_RATE_PER_HOUR = 1500.0
DENSE_INTER_MEETING = 30.0
DENSE_CONTACT_BYTES = 33 * units.KB
DENSE_BUFFER = 187.5 * units.KB

# trace_sweep: the DieselNet CI dataset.  The day traces are a fixed
# dataset, like the measured traces they stand for; the seed shuffles
# the order of every grid axis, which changes the order cells run in but
# not the work.  The cells run one at a time in this process (the
# engine's serial backend), so the pass runs where the host-speed kernel
# runs: with a worker pool the kernel, timed in the parent, did not
# follow the workers' speed, and the cold pass of the 2-worker grid
# spread by 19-23% (interquartile range over median, five seeds).  One
# day keeps a cold pass short enough for several repetitions per run.
SWEEP_DAYS = 1
SWEEP_LOADS = (2.0, 6.0, 12.0)
SWEEP_CONTACT_MODELS = ("instantaneous", "durational")
SWEEP_WORKERS = 1
SWEEP_METRIC = "average_delay"


#: The host's speed drifts by tens of percent within seconds, so every
#: repetition times several set-ups and warm passes and the run reports
#: the median over all of them, spread across the whole run.
SETUPS_PER_REP = 6
WARM_PASSES = 3
#: The sweep's set-up takes well under a millisecond and its repetitions
#: are few, so it samples its set-up more often and warms up less.
SWEEP_SETUPS_PER_REP = 100
SWEEP_WARM_PASSES = 2
#: Reference-kernel passes (``hostspeed``) timed right before and right
#: after each repetition's timed window, about a tenth of the repetition.
CALIBRATION_PASSES = 10


class Rep(NamedTuple):
    """One timed repetition of a workload."""

    setups: Tuple[float, ...]
    wall_s: float
    warms: Tuple[float, ...]
    attempted: int
    failed: int
    #: Bytes of canonical result JSON the repetition produced.
    payload_bytes: int
    #: Time inside traced root spans during ``wall_s`` (traced runs).
    covered_s: float = 0.0
    #: Worker seconds per executed cell, from SweepTelemetry (traced runs).
    cell_walls: Tuple[float, ...] = ()
    #: Mean reference-kernel pass around the timed window (``hostspeed``).
    kernel_s: float = 0.0


def canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_records(result: SimulationResult, packet_ids: Sequence[int]) -> Optional[str]:
    """The checks any seed allows; return why *result* is wrong, or None."""
    records = result.records
    if len(records) != len(packet_ids) or set(records) != set(packet_ids):
        return "records do not match the created packets one to one"
    delivered = [record for record in records.values() if record.delivered]
    if result.deliveries != len(delivered):
        return "delivery count disagrees with the records"
    for record in delivered:
        if record.delivery_time is None or record.delivery_time < record.packet.creation_time:
            return f"packet {record.packet_id} has a negative delay"
    return None


class _Tracing:
    """A timed window: collects garbage first, turns the tracer on if any."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def __enter__(self):
        # Garbage left by the previous repetition's checks is collected
        # now rather than at a random point inside the timed window.
        gc.collect()
        if self.tracer is not None:
            self.tracer.active = True
        return self

    def __exit__(self, *exc_info) -> None:
        if self.tracer is not None:
            self.tracer.active = False

    def root_time(self) -> float:
        return self.tracer.root_time if self.tracer is not None else 0.0


# ----------------------------------------------------------------------
# Single-cell workloads
# ----------------------------------------------------------------------
def sparse_inputs(seed: int) -> Tuple[MeetingSchedule, List[Packet]]:
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, SPARSE_DURATION, size=SPARSE_CONTACTS))
    pairs = rng.integers(0, SPARSE_NODES, size=(SPARSE_CONTACTS, 2))
    same = pairs[:, 0] == pairs[:, 1]
    pairs[same, 1] = (pairs[same, 0] + 1) % SPARSE_NODES
    meetings = [
        Meeting(
            time=float(times[i]),
            node_a=int(pairs[i, 0]),
            node_b=int(pairs[i, 1]),
            capacity=SPARSE_CONTACT_BYTES,
        )
        for i in range(SPARSE_CONTACTS)
    ]
    schedule = MeetingSchedule(meetings, nodes=range(SPARSE_NODES), duration=SPARSE_DURATION)
    creation = np.sort(
        rng.uniform(0.0, SPARSE_DURATION * SPARSE_CREATION_WINDOW, size=SPARSE_PACKETS)
    )
    endpoints = rng.integers(0, SPARSE_NODES, size=(SPARSE_PACKETS, 2))
    same = endpoints[:, 0] == endpoints[:, 1]
    endpoints[same, 1] = (endpoints[same, 0] + 1) % SPARSE_NODES
    packets = [
        Packet(
            packet_id=i,
            source=int(endpoints[i, 0]),
            destination=int(endpoints[i, 1]),
            size=units.KB,
            creation_time=float(creation[i]),
        )
        for i in range(SPARSE_PACKETS)
    ]
    return schedule, packets


def sparse_simulator(seed: int) -> Tuple[Simulator, int, List[int]]:
    schedule, packets = sparse_inputs(seed)
    simulator = Simulator(
        schedule,
        packets,
        create_factory("rapid", control_channel="none"),
        buffer_capacity=SPARSE_BUFFER,
        seed=seed,
    )
    return simulator, len(packets) + len(schedule), [p.packet_id for p in packets]


def dense_simulator(seed: int) -> Tuple[Simulator, int, List[int]]:
    schedule = ExponentialMobility(
        num_nodes=DENSE_NODES,
        mean_inter_meeting=DENSE_INTER_MEETING,
        transfer_opportunity=DENSE_CONTACT_BYTES,
        seed=2 * seed + 1,
    ).generate(DENSE_DURATION)
    packets = UniformCBR(packets_per_hour=DENSE_RATE_PER_HOUR, seed=2 * seed + 2).generate(
        list(range(DENSE_NODES)), DENSE_DURATION
    )
    simulator = Simulator(
        schedule, packets, create_factory("rapid"), buffer_capacity=DENSE_BUFFER, seed=seed
    )
    return simulator, len(packets) + len(schedule), [p.packet_id for p in packets]


class SingleCell:
    """A workload of one simulated cell, rebuilt and re-run each repetition."""

    cells = 1

    def __init__(self, name: str, build, seed: int, pins: Dict[str, str],
                 pinned: bool, workdir: Path) -> None:
        self.name = name
        self.build = build
        self.seed = seed
        self.expected = pins.get(name) if pinned else None
        self.pinned = pinned
        self.workdir = workdir
        self.events = 0
        self.first_digest: Optional[str] = None

    def setup_once(self) -> float:
        started = time.perf_counter()
        self.build(self.seed)
        return time.perf_counter() - started

    def rep(self, tracer=None) -> Rep:
        setups = [self.setup_once() for _ in range(SETUPS_PER_REP - 1)]
        kernel = hostspeed.sample(CALIBRATION_PASSES)
        with _Tracing(tracer) as tracing:
            started = time.perf_counter()
            simulator, self.events, packet_ids = self.build(self.seed)
            ready = time.perf_counter()
            covered = tracing.root_time()
            result = simulator.run()
            finished = time.perf_counter()
            covered = tracing.root_time() - covered
        kernel += hostspeed.sample(CALIBRATION_PASSES)
        payload = result.to_dict()
        text = canonical(payload)
        stored = self.workdir / f"{self.name}-result.json"
        with open(stored, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        warms = []
        for _ in range(WARM_PASSES):
            with _Tracing(tracer):
                warm_started = time.perf_counter()
                with open(stored, "r", encoding="utf-8") as handle:
                    served = SimulationResult.from_dict(json.load(handle))
                warms.append(time.perf_counter() - warm_started)
        error = self.check(result, text, served, packet_ids)
        if error is not None:
            print(f"[{self.name}] seed {self.seed}: {error}", flush=True)
        return Rep(
            setups=tuple(setups) + (ready - started,),
            wall_s=finished - ready,
            warms=tuple(warms),
            attempted=1,
            failed=0 if error is None else 1,
            payload_bytes=len(text),
            covered_s=covered,
            kernel_s=hostspeed.mean_pass(kernel),
        )

    def check(self, result, text: str, served, packet_ids) -> Optional[str]:
        error = check_records(result, packet_ids)
        if error is not None:
            return error
        if canonical(served.to_dict()) != text:
            return "the result re-served from storage differs from the computed one"
        value = digest(text)
        if self.pinned:
            if value != self.expected:
                return f"result digest {value[:12]} differs from the pinned digest"
        elif self.first_digest is None:
            self.first_digest = value
        elif value != self.first_digest:
            return "result digest differs between repetitions of one seed"
        return None


# ----------------------------------------------------------------------
# trace_sweep
# ----------------------------------------------------------------------
def sweep_config() -> TraceExperimentConfig:
    return TraceExperimentConfig.ci_scale(num_days=SWEEP_DAYS)


def sweep_grid(config: TraceExperimentConfig, seed: int) -> ScenarioGrid:
    rng = random.Random(seed)
    protocols = standard_protocols(SWEEP_METRIC)
    loads = list(SWEEP_LOADS)
    days = list(range(SWEEP_DAYS))
    contact_models = list(SWEEP_CONTACT_MODELS)
    for axis in (protocols, loads, days, contact_models):
        rng.shuffle(axis)
    return ScenarioGrid(
        config=config,
        protocols=protocols,
        loads=tuple(loads),
        run_indices=days,
        contact_models=contact_models,
    )


def _cache_lookups(tracer) -> Tuple[int, int]:
    if tracer is None:
        return 0, 0
    return tracer.counts["cache_gets"], tracer.counts["cache_hits"]


class TraceSweep:
    """The ci_scale DieselNet grid, cold into a fresh cache and then warm."""

    def __init__(self, seed: int, pins: Dict[str, str], workdir: Path) -> None:
        self.name = "trace_sweep"
        self.seed = seed
        self.pins = pins
        self.workdir = workdir
        self._reps = 0
        self._inputs: Optional[Dict[Tuple[int, float], List[int]]] = None
        self._contacts: Dict[int, int] = {}
        self.cells = len(sweep_grid(sweep_config(), seed).cells())
        self.events = 0

    def _fresh_cache(self) -> Path:
        """A new, empty cache directory.

        It is made here, outside the timed set-up, so that set-up times the
        engine's own construction rather than the file system's mkdir.
        """
        self._reps += 1
        path = self.workdir / f"cache-{self._reps}"
        path.mkdir()
        return path

    def setup_once(self) -> float:
        path = self._fresh_cache()
        started = time.perf_counter()
        engine = ExperimentEngine(workers=SWEEP_WORKERS, cache_dir=path)
        sweep_grid(sweep_config(), self.seed)
        elapsed = time.perf_counter() - started
        engine.close()
        shutil.rmtree(path, ignore_errors=True)
        return elapsed

    def rep(self, tracer=None) -> Rep:
        setups = [self.setup_once() for _ in range(SWEEP_SETUPS_PER_REP - 1)]
        path = self._fresh_cache()
        telemetry = SweepTelemetry(workers=SWEEP_WORKERS) if tracer is not None else None
        # The serial engine memoizes day traces and workloads in this
        # process; every cold pass generates them afresh, as a new sweep does.
        engine_worker.clear_input_caches()
        kernel = hostspeed.sample(CALIBRATION_PASSES)
        with _Tracing(tracer) as tracing:
            started = time.perf_counter()
            config = sweep_config()
            grid = sweep_grid(config, self.seed)
            engine = ExperimentEngine(workers=SWEEP_WORKERS, cache_dir=path)
            engine.telemetry = telemetry
            ready = time.perf_counter()
            covered = tracing.root_time()
            try:
                cold = engine.sweep_series(grid, SWEEP_METRIC)
                finished = time.perf_counter()
            finally:
                engine.close()
            covered = tracing.root_time() - covered
            kernel += hostspeed.sample(CALIBRATION_PASSES)
            gets = _cache_lookups(tracer)
            warms, warm_ok = [], True
            for _ in range(SWEEP_WARM_PASSES):
                gc.collect()
                with ExperimentEngine(workers=SWEEP_WORKERS, cache_dir=path) as warm_engine:
                    warm_started = time.perf_counter()
                    warm = warm_engine.sweep_series(grid, SWEEP_METRIC)
                    warms.append(time.perf_counter() - warm_started)
                    warm_ok &= (
                        canonical(cold) == canonical(warm)
                        and warm_engine.stats.cache_hits == self.cells
                        and warm_engine.stats.cells_executed == 0
                    )
            if tracer is not None:
                after = _cache_lookups(tracer)
                tracer.counts["warm_cache_gets"] += after[0] - gets[0]
                tracer.counts["warm_cache_hits"] += after[1] - gets[1]
        failed, payload_bytes = self.check(grid, path, warm_ok)
        shutil.rmtree(path, ignore_errors=True)
        walls = tuple(cell.wall_s for cell in telemetry.executed) if telemetry else ()
        return Rep(
            setups=tuple(setups) + (ready - started,),
            wall_s=finished - ready,
            warms=tuple(warms),
            attempted=self.cells,
            failed=failed,
            payload_bytes=payload_bytes,
            covered_s=covered,
            cell_walls=walls,
            kernel_s=hostspeed.mean_pass(kernel),
        )

    def _generated_inputs(self, config) -> Dict[Tuple[int, float], List[int]]:
        """Packet ids of every (day, load) workload, generated in this process.

        Called after the timed passes, once per run.
        """
        if self._inputs is None:
            inputs = {}
            for day in range(SWEEP_DAYS):
                self._contacts[day] = len(engine_worker.day_traces(config)[day].schedule)
                for load in SWEEP_LOADS:
                    packets = engine_worker.trace_workload(config, day, load)
                    inputs[(day, load)] = [p.packet_id for p in packets]
            self._inputs = inputs
        return self._inputs

    def check(self, grid, path: Path, warm_ok: bool) -> Tuple[int, int]:
        """Check every cell; return (failed cells, canonical payload bytes)."""
        cells = grid.cells()
        inputs = self._generated_inputs(grid.config)
        self.events = sum(
            len(inputs[(spec.run_index, spec.load)]) + self._contacts[spec.run_index]
            for spec in cells
        )
        if not warm_ok:
            print(f"[trace_sweep] seed {self.seed}: warm pass differs from the cold pass",
                  flush=True)
        reader = ResultCache(path)
        failed = 0
        payload_bytes = 0
        for spec in cells:
            result = reader.get(spec)
            if result is None:
                error = "no cached result"
            else:
                text = canonical(result.to_dict())
                payload_bytes += len(text)
                error = check_records(result, inputs[(spec.run_index, spec.load)])
                key = spec.cache_key()
                if error is None and digest(text) != self.pins.get(key):
                    error = "result digest differs from the pinned digest"
            if error is not None or not warm_ok:
                failed += 1
            if error is not None:
                print(f"[trace_sweep] {spec.label} load {spec.load:g} day {spec.run_index} "
                      f"{spec.resolved_contact_model()}: {error}", flush=True)
        return failed, payload_bytes


def load_pins(path: Path) -> Dict[str, Dict[str, str]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def build(name: str, seed: int, pins: Dict[str, Dict[str, str]], workdir: Path):
    """The workload *name* at *seed*, checking against *pins*."""
    from catalog import DEFAULT_SEED

    if name == "sparse_evict":
        return SingleCell(name, sparse_simulator, seed, pins["cells"], seed == DEFAULT_SEED, workdir)
    if name == "dense_control":
        return SingleCell(name, dense_simulator, seed, pins["cells"], seed == DEFAULT_SEED, workdir)
    if name == "trace_sweep":
        return TraceSweep(seed, pins["trace_sweep"], workdir)
    raise ValueError(f"unknown workload {name!r}")
