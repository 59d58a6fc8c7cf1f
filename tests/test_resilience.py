"""Tests for the failure-resilient sweep engine.

Covers the self-healing worker pool (crash isolation, per-cell
timeouts, bounded deterministic backoff, partial results), the sweep
manifest behind ``repro-dtn sweep --resume``, the fail-fast validation
of trace/telemetry output paths, and the headline robustness claims:

* a sweep with one worker **SIGKILLed mid-cell** completes via retry
  with results byte-identical to an undisturbed run;
* a sweep interrupted and **resumed** replays completed cells from the
  result cache and prints byte-identical output;
* ``KeyboardInterrupt`` tears the pool down without orphaning workers.
"""

import json
import os
import re
import signal
import time

import pytest

from repro import units
from repro.engine import (
    CellFailure,
    ExperimentEngine,
    Executor,
    ResultCache,
    ScenarioGrid,
    SweepManifest,
    SweepTelemetry,
)
from repro.engine import executor as executor_module
from repro.engine.resilient import ResilientPool
from repro.engine.worker import execute_cell_observed
from repro.exceptions import CellFailedError, ConfigurationError
from repro.experiments.config import ProtocolSpec, SyntheticExperimentConfig
from repro.observability import JsonlSink, ObservabilityOptions, validate_writable
from repro.observability.telemetry import SWEEP_REPORT_VERSION


# ----------------------------------------------------------------------
# Top-level payload functions (workers fork/spawn these, so they must be
# importable — no closures).
# ----------------------------------------------------------------------
def _square(payload):
    return payload * payload


def _boom(payload):
    raise RuntimeError(f"cell {payload} exploded")


def _flaky(payload):
    """Fail (or self-SIGKILL) the first time, succeed on retry.

    ``payload`` is ``(value, marker_path, mode)``; the marker file is the
    cross-process memory that makes the first attempt misbehave and every
    later attempt succeed.
    """
    value, marker, mode = payload
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("attempted\n")
        if mode == "raise":
            raise RuntimeError("first attempt fails")
        if mode == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        if mode == "hang":
            time.sleep(60.0)
    return value * value


def _simulate_payload(payload):
    """Run one real simulation cell, optionally self-SIGKILLing first.

    Returns the canonical serialized result so byte-identity across the
    disturbed and undisturbed runs is checked on the wire format itself.
    """
    seed, marker = payload
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("attempted\n")
        os.kill(os.getpid(), signal.SIGKILL)
    from repro.dtn.simulator import run_simulation
    from repro.dtn.workload import PoissonWorkload
    from repro.mobility.exponential import ExponentialMobility
    from repro.routing.registry import create_factory

    mobility = ExponentialMobility(
        num_nodes=5, mean_inter_meeting=40.0, transfer_opportunity=50 * units.KB, seed=seed
    )
    schedule = mobility.generate(240.0)
    packets = PoissonWorkload(packets_per_hour=240.0, seed=seed + 1).generate(
        list(range(5)), 240.0
    )
    result = run_simulation(
        schedule, packets, create_factory("rapid"), buffer_capacity=20 * units.KB, seed=7
    )
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def _sleep(payload):
    time.sleep(payload)
    return payload


def _interrupting_progress(done, total, index):
    raise KeyboardInterrupt


def _observed_rapid_last(payload):
    """The observed worker entry, holding back every ``rapid`` cell."""
    if payload["spec"]["protocol"]["label"] == "rapid":
        time.sleep(0.5)
    return execute_cell_observed(payload)


def _observed_random_run1_killed(payload):
    """The observed worker entry, SIGKILLing the worker on one cell."""
    spec = payload["spec"]
    if spec["protocol"]["label"] == "random" and spec["run_index"] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_cell_observed(payload)


def _observed_with_pid(payload):
    """The observed worker entry, tagging the payload with the worker pid."""
    observed = execute_cell_observed(payload)
    observed["pid"] = os.getpid()
    return observed


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class TestResilientPool:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            ResilientPool(_square, workers=0)
        with pytest.raises(ConfigurationError):
            ResilientPool(_square, retries=-1)
        with pytest.raises(ConfigurationError):
            ResilientPool(_square, cell_timeout=0.0)
        with pytest.raises(ConfigurationError):
            ResilientPool(_square, backoff_base=-1.0)

    def test_results_keep_submission_order(self):
        pool = ResilientPool(_square, workers=3)
        results, failures = pool.run(list(range(7)))
        assert results == [n * n for n in range(7)]
        assert failures == []

    def test_empty_batch(self):
        assert ResilientPool(_square).run([]) == ([], [])

    def test_exhausted_retries_become_failures(self):
        pool = ResilientPool(_boom, workers=2, retries=1, backoff_base=0.0)
        results, failures = pool.run([10, 20], labels=["a", "b"])
        assert results == [None, None]
        assert [f.index for f in failures] == [0, 1]
        assert all(f.attempts == 2 for f in failures)
        assert all("exploded" in f.error for f in failures)
        assert failures[0].label == "a"
        assert failures[0].to_dict()["error"] == failures[0].error

    def test_exception_retried_until_success(self, tmp_path):
        marker = str(tmp_path / "raise.marker")
        pool = ResilientPool(_flaky, workers=1, retries=2, backoff_base=0.0)
        results, failures = pool.run([(6, marker, "raise"), (3, None, "raise")])
        assert results == [36, 9]
        assert failures == []

    def test_sigkilled_worker_is_replaced_and_cell_retried(self, tmp_path):
        marker = str(tmp_path / "kill.marker")
        pool = ResilientPool(_flaky, workers=2, retries=2, backoff_base=0.0)
        results, failures = pool.run(
            [(2, None, "ok"), (5, marker, "sigkill"), (4, None, "ok")]
        )
        assert results == [4, 25, 16]
        assert failures == []

    def test_sigkill_without_retries_fails_that_cell_only(self, tmp_path):
        marker = str(tmp_path / "kill-once.marker")
        pool = ResilientPool(_flaky, workers=2, retries=0, backoff_base=0.0)
        results, failures = pool.run(
            [(2, None, "ok"), (5, marker, "sigkill"), (4, None, "ok")]
        )
        assert results == [4, None, 16]
        assert [f.index for f in failures] == [1]
        assert "died" in failures[0].error

    def test_timeout_kills_and_retries(self, tmp_path):
        marker = str(tmp_path / "hang.marker")
        pool = ResilientPool(
            _flaky, workers=1, retries=1, cell_timeout=1.0, backoff_base=0.0
        )
        results, failures = pool.run([(9, marker, "hang")])
        assert results == [81]
        assert failures == []

    def test_timeout_without_retries_reports_failure(self, tmp_path):
        marker = str(tmp_path / "hang-once.marker")
        pool = ResilientPool(_flaky, workers=1, retries=0, cell_timeout=0.5)
        results, failures = pool.run([(9, marker, "hang")])
        assert results == [None]
        assert len(failures) == 1
        assert "timed out" in failures[0].error

    def test_backoff_is_deterministic(self):
        pool = ResilientPool(_square, backoff_base=0.5)
        assert [pool._backoff(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]
        assert ResilientPool(_square, backoff_base=0.0)._backoff(3) == 0.0

    def test_progress_counts_every_settled_cell(self, tmp_path):
        calls = []
        pool = ResilientPool(_boom, workers=1, retries=0, backoff_base=0.0)
        pool.run([1, 2], progress=lambda *call: calls.append(call))
        assert calls == [(1, 2, 0), (2, 2, 1)]

    def test_progress_names_the_task_that_settled(self):
        calls = []
        pool = ResilientPool(_sleep, workers=2)
        pool.run([0.5, 0.0], progress=lambda *call: calls.append(call))
        assert calls == [(1, 2, 1), (2, 2, 0)]

    def test_unclosed_pool_is_reaped_on_collection(self):
        pool = ResilientPool(_square, workers=2)
        pool.run([1, 2])
        processes = [slot.process for slot in pool._slots]
        assert all(process.is_alive() for process in processes)
        del pool
        assert not any(process.is_alive() for process in processes)

    def test_worker_dead_between_runs_is_replaced(self):
        pool = ResilientPool(_square, workers=1)
        pool.run([1])
        os.kill(pool._slots[0].process.pid, signal.SIGKILL)
        pool._slots[0].process.join(timeout=5.0)
        assert pool.run([3]) == ([9], [])
        pool.close()

    def test_parent_blocks_while_every_worker_is_busy(self):
        # Queued tasks are eligible at once; with no idle worker to take
        # them the parent must block on the pipes, not poll them.
        pool = ResilientPool(_sleep, workers=2)
        started = time.process_time()
        results, failures = pool.run([0.25] * 8)
        assert results == [0.25] * 8 and failures == []
        assert time.process_time() - started < 0.2

    def test_keyboard_interrupt_reaps_workers(self):
        pool = ResilientPool(_square, workers=2)
        with pytest.raises(KeyboardInterrupt):
            pool.run(list(range(4)), progress=_interrupting_progress)
        # The pool must not leave orphaned children behind.
        import multiprocessing

        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_sigkilled_simulation_is_byte_identical(self, tmp_path):
        """The headline chaos claim: SIGKILL one worker mid-cell, and the
        completed sweep's serialized results match an undisturbed run."""
        marker = str(tmp_path / "chaos.marker")
        undisturbed = [_simulate_payload((seed, None)) for seed in (1, 2, 3)]
        pool = ResilientPool(_simulate_payload, workers=2, retries=2, backoff_base=0.0)
        disturbed, failures = pool.run([(1, None), (2, marker), (3, None)])
        assert failures == []
        assert os.path.exists(marker)  # the kill really happened
        assert disturbed == undisturbed


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------
class TestResilientExecutor:
    def _cells(self, num_runs=2):
        config = SyntheticExperimentConfig(
            num_nodes=6,
            mean_inter_meeting=40.0,
            transfer_opportunity=50 * units.KB,
            duration=3 * units.MINUTE,
            buffer_capacity=20 * units.KB,
            deadline=30.0,
            packet_interval=50.0,
            mobility="exponential",
            num_runs=num_runs,
            seed=5,
        )
        grid = ScenarioGrid(
            config=config,
            protocols=[ProtocolSpec("rapid", "rapid"), ProtocolSpec("random", "random")],
            loads=(3.0,),
        )
        return grid.cells()

    def test_resilient_property(self):
        assert Executor(workers=2).resilient is False
        assert Executor(workers=2, retries=1).resilient is True
        assert Executor(workers=2, cell_timeout=30.0).resilient is True

    def test_executor_validates_resilience_knobs(self):
        with pytest.raises(ConfigurationError):
            Executor(retries=-1)
        with pytest.raises(ConfigurationError):
            Executor(cell_timeout=0.0)

    def test_progress_reports_the_cell_that_finished(self, monkeypatch):
        monkeypatch.setattr(executor_module, "execute_cell_observed", _observed_rapid_last)
        cells = self._cells()
        rapid, random_ = cells[0], cells[2]
        seen = []
        with Executor(workers=2) as executor:
            executor.run_observed(
                [rapid, random_],
                ObservabilityOptions(),
                progress=lambda done, total, spec: seen.append((done, total, spec)),
            )
        assert seen == [(1, 2, random_), (2, 2, rapid)]

    def test_failed_cell_fails_a_plain_multiprocess_run(self, monkeypatch):
        monkeypatch.setattr(
            executor_module, "execute_cell_observed", _observed_random_run1_killed
        )
        cells = self._cells()
        engine = ExperimentEngine(executor=Executor(workers=2))
        with pytest.raises(
            CellFailedError, match=re.escape("cell 'random' failed: worker died")
        ):
            engine.run_cells(cells)
        engine.close()

    def test_batches_share_one_pool_until_close(self, monkeypatch):
        monkeypatch.setattr(executor_module, "execute_cell_observed", _observed_with_pid)
        cells = self._cells()
        executor = Executor(workers=2)
        options = ObservabilityOptions()
        first = {payload["pid"] for payload in executor.run_observed(cells[:2], options)}
        second = {payload["pid"] for payload in executor.run_observed(cells[2:], options)}
        assert second <= first and len(first) == 2
        processes = [slot.process for slot in executor._pool._slots]
        executor.close()
        assert not any(process.is_alive() for process in processes)

    def test_resilient_backend_matches_plain(self):
        cells = self._cells()
        plain = ExperimentEngine(workers=1).run_cells(cells)
        resilient = ExperimentEngine(
            executor=Executor(workers=2, retries=2, cell_timeout=120.0)
        )
        healed = resilient.run_cells(cells)
        assert [r.to_dict() for r in healed] == [r.to_dict() for r in plain]
        assert resilient.last_failures == []
        assert resilient.stats.cells_failed == 0

    def test_telemetry_report_carries_failed_cells(self):
        telemetry = SweepTelemetry()
        telemetry.record_failure(index=3, label="rapid/load=2", attempts=3, error="boom")
        report = telemetry.report()
        assert report["version"] == SWEEP_REPORT_VERSION
        assert report["cells_failed"] == 1
        assert report["failed_cells"][0]["label"] == "rapid/load=2"


# ----------------------------------------------------------------------
# The sweep manifest
# ----------------------------------------------------------------------
class TestSweepManifest:
    def _cells(self):
        return TestResilientExecutor()._cells()

    def test_sweep_key_tracks_cell_identity(self):
        cells = self._cells()
        assert SweepManifest.sweep_key_for(cells) == SweepManifest.sweep_key_for(cells)
        assert SweepManifest.sweep_key_for(cells) != SweepManifest.sweep_key_for(cells[:-1])
        assert SweepManifest.sweep_key_for(cells) != SweepManifest.sweep_key_for(
            list(reversed(cells))
        )

    def test_roundtrip(self, tmp_path):
        cells = self._cells()
        path = tmp_path / "sweep.manifest.json"
        manifest = SweepManifest.for_cells(path, cells)
        manifest.mark_completed(cells[0].cache_key())
        manifest.mark_failed(cells[1].cache_key(), "worker died mid-cell")
        manifest.write()
        loaded = SweepManifest.load(path)
        assert loaded.matches(cells)
        assert loaded.completed_count == 1
        assert loaded.failed == {cells[1].cache_key(): "worker died mid-cell"}
        assert loaded.to_dict() == manifest.to_dict()

    def test_completion_clears_failure(self, tmp_path):
        cells = self._cells()
        manifest = SweepManifest.for_cells(tmp_path / "m.json", cells)
        key = cells[0].cache_key()
        manifest.mark_failed(key, "boom")
        manifest.mark_completed(key)
        assert manifest.failed == {}
        # A later failure report must not demote a completed cell.
        manifest.mark_failed(key, "boom again")
        assert manifest.failed == {}
        assert manifest.completed_count == 1

    def test_matches_rejects_other_grids(self, tmp_path):
        cells = self._cells()
        manifest = SweepManifest.for_cells(tmp_path / "m.json", cells)
        assert manifest.matches(cells)
        assert not manifest.matches(cells[:-1])

    def test_load_missing_manifest_is_a_clean_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="nothing to resume"):
            SweepManifest.load(tmp_path / "absent.manifest.json")

    def test_load_corrupt_manifest_is_a_clean_error(self, tmp_path):
        path = tmp_path / "corrupt.manifest.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            SweepManifest.load(path)

    def test_load_rejects_future_versions(self, tmp_path):
        cells = self._cells()
        path = tmp_path / "future.manifest.json"
        manifest = SweepManifest.for_cells(path, cells)
        payload = manifest.to_dict()
        payload["version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            SweepManifest.load(path)


# ----------------------------------------------------------------------
# Resume via the CLI
# ----------------------------------------------------------------------
class TestResumeCli:
    SWEEP = [
        "sweep",
        "--family",
        "synthetic",
        "--protocols",
        "rapid,random",
        "--loads",
        "2",
        "--metric",
        "delivery_rate",
    ]

    def test_resume_is_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        assert main(self.SWEEP + ["--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert main(self.SWEEP + ["--cache-dir", cache, "--resume"]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == first
        assert "[resume]" in resumed.err

    def test_resume_requires_cache_dir(self, capsys):
        from repro.cli import main

        assert main(self.SWEEP + ["--resume"]) != 0
        assert "--cache-dir" in capsys.readouterr().err

    def test_resume_without_manifest_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "empty-cache")
        assert main(self.SWEEP + ["--cache-dir", cache, "--resume"]) != 0
        assert "nothing to resume" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Fail-fast output validation
# ----------------------------------------------------------------------
class TestOutputValidation:
    @staticmethod
    def _blocked(tmp_path):
        """A path whose parent is a file — mkdir on it must fail."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n", encoding="utf-8")
        return blocker / "trace.jsonl"

    def test_validate_writable_creates_missing_parents(self, tmp_path):
        target = tmp_path / "new" / "dir" / "trace.jsonl"
        validate_writable(target)
        assert target.parent.is_dir()

    def test_validate_writable_rejects_file_as_parent(self, tmp_path):
        with pytest.raises(ConfigurationError):
            validate_writable(self._blocked(tmp_path))

    def test_validate_writable_rejects_directory_path(self, tmp_path):
        with pytest.raises(ConfigurationError):
            validate_writable(tmp_path)

    def test_jsonl_sink_fails_fast(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JsonlSink(self._blocked(tmp_path))

    def test_cli_rejects_unwritable_trace_out_before_running(self, tmp_path, capsys):
        from repro.cli import main

        target = str(self._blocked(tmp_path))
        code = main(
            [
                "sweep",
                "--family",
                "synthetic",
                "--protocols",
                "rapid",
                "--loads",
                "2",
                "--trace-out",
                target,
            ]
        )
        assert code != 0
        assert "trace" in capsys.readouterr().err.lower()
