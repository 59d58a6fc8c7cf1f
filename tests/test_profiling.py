"""Tests for the profiling subsystem and its result-serialization contract."""

from __future__ import annotations

import os

from repro.dtn.results import SimulationResult
from repro.dtn.simulator import run_simulation
from repro.dtn.workload import PoissonWorkload
from repro.mobility.exponential import ExponentialMobility
from repro.profiling import ENV_PROFILE, Profiler, profiling_requested, slow_reference_mode
from repro.routing.registry import create_factory


def _small_inputs():
    mobility = ExponentialMobility(num_nodes=5, mean_inter_meeting=30.0, seed=1)
    schedule = mobility.generate(300.0)
    workload = PoissonWorkload(packets_per_hour=60.0, seed=2)
    packets = workload.generate(list(range(5)), 300.0)
    return schedule, packets


class TestProfiler:
    def test_phases_accumulate_and_count(self):
        profiler = Profiler()
        for _ in range(3):
            with profiler.phase("work"):
                pass
        profiler.count("items", 5)
        flat = profiler.timings()
        assert flat["calls_work"] == 3.0
        assert flat["calls_items"] == 5.0
        assert flat["phase_work_s"] >= 0.0
        assert "work" in profiler.report()

    def test_same_name_phases_nest_correctly(self):
        import time as time_module

        profiler = Profiler()
        with profiler.phase("outer"):
            with profiler.phase("outer"):
                time_module.sleep(0.01)
        flat = profiler.timings()
        assert flat["calls_outer"] == 2.0
        # The outer span covers the inner one; with a shared timer object
        # the outer charge would have started at the inner __enter__.
        assert flat["phase_outer_s"] >= 0.02

    def test_timed_charges_each_call_to_one_phase(self):
        profiler = Profiler()
        double = profiler.timed("double", lambda x: 2 * x)
        assert [double(1), double(2)] == [2, 4]
        flat = profiler.timings()
        assert flat["calls_double"] == 2.0
        assert flat["phase_double_s"] >= 0.0

    def test_env_switches(self, monkeypatch):
        monkeypatch.delenv(ENV_PROFILE, raising=False)
        assert not profiling_requested()
        assert profiling_requested({"profile": True})
        monkeypatch.setenv(ENV_PROFILE, "1")
        assert profiling_requested()
        monkeypatch.setenv(ENV_PROFILE, "0")
        assert not profiling_requested()
        monkeypatch.delenv("REPRO_SLOW_ESTIMATES", raising=False)
        assert not slow_reference_mode()


class TestSimulationTimings:
    def test_profile_option_records_phase_timings(self):
        schedule, packets = _small_inputs()
        result = run_simulation(
            schedule, packets, create_factory("rapid"), seed=3, options={"profile": True}
        )
        assert result.timings, "profiling should record phase timings"
        assert "phase_total_s" in result.timings
        assert "phase_control_exchange_s" in result.timings
        payload = result.to_dict()
        assert payload["timings"] == result.timings
        rebuilt = SimulationResult.from_dict(payload)
        assert rebuilt.timings == result.timings

    def test_every_contact_model_reports_the_contact_phases(self):
        # One contact pipeline serves every model, so durational runs
        # report the same phases as instantaneous ones, and profiling
        # leaves the simulated output untouched in both.
        schedule, packets = _small_inputs()
        for model in ("instantaneous", "durational"):
            profiled = run_simulation(
                schedule,
                packets,
                create_factory("rapid"),
                seed=3,
                options={"profile": True, "contact_model": model},
            )
            for phase in (
                "total",
                "packet_creation",
                "contact_session",
                "control_exchange",
                "direct_delivery",
                "replication",
            ):
                assert f"phase_{phase}_s" in profiled.timings, (model, phase)
            plain = run_simulation(
                schedule, packets, create_factory("rapid"), seed=3, options={"contact_model": model}
            )
            payload = profiled.to_dict()
            payload.pop("timings")
            assert payload == plain.to_dict()

    def test_unprofiled_results_serialize_without_timings(self):
        schedule, packets = _small_inputs()
        result = run_simulation(schedule, packets, create_factory("rapid"), seed=3)
        assert result.timings == {}
        payload = result.to_dict()
        assert "timings" not in payload, (
            "unprofiled payloads must stay byte-identical to the schema as "
            "written before timings existed"
        )
        rebuilt = SimulationResult.from_dict(payload)
        assert rebuilt.timings == {}

    def test_profiling_does_not_change_simulation_output(self):
        schedule, packets = _small_inputs()
        plain = run_simulation(schedule, packets, create_factory("rapid"), seed=3)
        profiled = run_simulation(
            schedule, packets, create_factory("rapid"), seed=3, options={"profile": True}
        )
        payload = profiled.to_dict()
        payload.pop("timings", None)
        assert payload == plain.to_dict()

    def test_env_var_enables_profiling(self, monkeypatch):
        monkeypatch.setenv(ENV_PROFILE, "1")
        schedule, packets = _small_inputs()
        result = run_simulation(schedule, packets, create_factory("maxprop"), seed=3)
        assert "phase_total_s" in result.timings

    def test_result_cache_strips_timings(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.spec import ScenarioSpec
        from repro.experiments.config import ProtocolSpec, SyntheticExperimentConfig

        schedule, packets = _small_inputs()
        result = run_simulation(
            schedule, packets, create_factory("rapid"), seed=3, options={"profile": True}
        )
        assert result.timings
        spec = ScenarioSpec.for_cell(
            config=SyntheticExperimentConfig(num_runs=1, seed=3),
            protocol=ProtocolSpec(label="rapid", registry_name="rapid"),
            load=4.0,
            run_index=0,
        )
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        cached = cache.get(spec)
        # Timings describe one run on one machine, not the cell: a warm
        # cache must serve the same bytes whether or not the run that
        # filled it was profiled.
        assert cached is not None and cached.timings == {}
        assert "timings" not in cached.to_dict()
