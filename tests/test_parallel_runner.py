"""Tests for the parallel trial runner and the content-addressed trial cache.

The heart of this file is the bit-identity golden test: for every registered
experiment, records produced with ``jobs=4`` must equal records produced with
``jobs=1`` field-for-field, and a cache-warm re-run must return identical
records without recomputing anything (asserted through the runner's execution
counters).
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.experiments import ExperimentSettings, run_experiment
from repro.experiments.cache import CACHE_VERSION, TrialCache, stable_token, trial_key
from repro.experiments.faults import FaultPolicy, QuarantineError, TrialFailure
from repro.experiments.registry import experiment_ids
import repro.experiments.runner as runner_module
from repro.experiments.runner import TrialSpec, run_point, run_sweep, track_stats
from repro.simulation.errors import ConfigurationError

# Registry-wide settings for the golden tests: small enough that running all
# twelve experiments twice stays in benchmark-smoke territory, large enough
# that every sweep keeps all of its scenarios meaningful.
GOLDEN = dict(n=96, trials=2, quick=True, seed=3)


@pytest.fixture(autouse=True)
def _no_runner_env(monkeypatch):
    """Keep the runner's env knobs from leaking into (or out of) these tests."""

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_TRIAL_TIMEOUT_S", raising=False)
    monkeypatch.delenv("REPRO_TRIAL_RETRIES", raising=False)
    monkeypatch.delenv("REPRO_STRICT_FAULTS", raising=False)


def _toy_trial(seed: int, scale: float = 1.0) -> dict:
    """A picklable trial function: derived deterministically from its inputs."""

    return {"seed": float(seed), "value": scale * (seed % 97)}


def _exploding_trial(seed: int, boom: bool = False) -> dict:
    if boom:
        raise RuntimeError("simulated mid-sweep interruption")
    return {"seed": float(seed)}


class TestSettingsKnobs:
    def test_jobs_default_is_serial(self):
        assert ExperimentSettings().resolved_jobs == 1

    def test_explicit_jobs_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert ExperimentSettings(jobs=2).resolved_jobs == 2

    def test_env_jobs_used_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert ExperimentSettings().resolved_jobs == 3

    @pytest.mark.parametrize("value", ["zero", "-1", "0", "1.5"])
    def test_bad_env_jobs_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
            ExperimentSettings().resolved_jobs

    @pytest.mark.parametrize("jobs", [0, -2, 1.5, "4"])
    def test_bad_explicit_jobs_rejected_at_construction(self, jobs):
        with pytest.raises(ConfigurationError, match="ExperimentSettings.jobs"):
            ExperimentSettings(jobs=jobs)

    def test_cache_dir_resolution(self, monkeypatch, tmp_path):
        assert ExperimentSettings().resolved_cache_dir is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert ExperimentSettings().resolved_cache_dir == str(tmp_path)
        # Explicit settings win over the environment; "" explicitly disables.
        assert ExperimentSettings(cache_dir=str(tmp_path / "x")).resolved_cache_dir == str(
            tmp_path / "x"
        )
        assert ExperimentSettings(cache_dir="").resolved_cache_dir is None

    def test_bad_cache_dir_rejected(self):
        with pytest.raises(ConfigurationError, match="ExperimentSettings.cache_dir"):
            ExperimentSettings(cache_dir=123)


class TestStableToken:
    def test_plain_values_round_trip(self):
        assert stable_token(1) == stable_token(1)
        assert stable_token(1) != stable_token(True)  # bool is not the int 1 here
        assert stable_token((1, "a", 2.5, None)) == stable_token([1, "a", 2.5, None])
        assert stable_token({"b": 2, "a": 1}) == stable_token({"a": 1, "b": 2})

    def test_unsupported_types_raise(self):
        with pytest.raises(TypeError, match="stable cache token"):
            stable_token(object())

    def test_trial_key_sensitivity(self):
        base = trial_key(_toy_trial, ("E1", 1.0), 42, {"scale": 2.0})
        assert base == trial_key(_toy_trial, ("E1", 1.0), 42, {"scale": 2.0})
        assert base != trial_key(_toy_trial, ("E1", 1.0), 43, {"scale": 2.0})
        assert base != trial_key(_toy_trial, ("E1", 2.0), 42, {"scale": 2.0})
        assert base != trial_key(_toy_trial, ("E1", 1.0), 42, {"scale": 3.0})

    def test_bumping_cache_version_invalidates_keys(self, monkeypatch):
        import repro.experiments.cache as cache_module

        key = trial_key(_toy_trial, (), 0, {})
        monkeypatch.setattr(cache_module, "CACHE_VERSION", CACHE_VERSION + 1)
        assert trial_key(_toy_trial, (), 0, {}) != key

    def test_numpy_feature_version_is_part_of_the_key(self, monkeypatch):
        # numpy may change Generator streams between feature releases, so a
        # store filled under one must not serve records under the next.
        import numpy

        key = trial_key(_toy_trial, (), 0, {})
        major, minor = numpy.__version__.split(".")[:2]
        monkeypatch.setattr(numpy, "__version__", f"{major}.{minor}.999")
        assert trial_key(_toy_trial, (), 0, {}) == key  # patch releases share keys
        monkeypatch.setattr(numpy, "__version__", f"{major}.{int(minor) + 1}.0")
        assert trial_key(_toy_trial, (), 0, {}) != key


class TestTrialCache:
    def test_round_trip(self, tmp_path):
        cache = TrialCache(tmp_path)
        key = trial_key(_toy_trial, ("p",), 7, {})
        assert cache.get(key) is None
        cache.put(key, {"a": 1.0})
        assert cache.get(key) == {"a": 1.0}
        assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        key = trial_key(_toy_trial, ("p",), 7, {})
        cache.put(key, {"a": 1.0})
        cache.path_for(key).write_bytes(b"\x80corrupt")
        assert cache.get(key) is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = TrialCache(tmp_path)
        cache.put(trial_key(_toy_trial, (), 1, {}), {"x": 1.0})
        assert not list(tmp_path.glob("**/*.tmp"))


class TestRunSweep:
    def test_matches_serial_run_trials_seed_derivation(self):
        settings = ExperimentSettings(n=16, trials=4, seed=11, cache_dir="")
        records = run_point(_toy_trial, settings, "E0", 3.5, scale=1.0)
        expected = [
            _toy_trial(settings.trial_seed("E0", 3.5, t)) for t in range(settings.trials)
        ]
        assert records == expected

    def test_parallel_equals_serial_on_toy_sweep(self):
        specs = [
            TrialSpec.point(_toy_trial, "point", idx, scale=float(idx)) for idx in range(5)
        ]
        serial = run_sweep(specs, ExperimentSettings(n=16, trials=3, seed=2, jobs=1, cache_dir=""))
        parallel = run_sweep(specs, ExperimentSettings(n=16, trials=3, seed=2, jobs=4, cache_dir=""))
        assert serial == parallel

    def test_cache_round_trip_and_probe(self, tmp_path):
        settings = ExperimentSettings(n=16, trials=3, seed=2, jobs=1, cache_dir=str(tmp_path))
        with track_stats() as after_cold:
            cold = run_point(_toy_trial, settings, "probe", scale=2.0)
        assert after_cold.executed == settings.trials
        assert after_cold.cache_misses == settings.trials

        with track_stats() as after_warm:
            warm = run_point(_toy_trial, settings, "probe", scale=2.0)
        assert warm == cold
        assert after_warm.executed == 0
        assert after_warm.cache_hits == settings.trials

    def test_failing_sweep_quarantines_and_keeps_completed_trials(self, tmp_path):
        # Records are written to the store as they complete, and a trial that
        # keeps failing is quarantined into a TrialFailure sentinel instead of
        # killing the sweep — the finished trials stay cached either way, so a
        # re-run resumes without recomputing the healthy part.
        settings = ExperimentSettings(n=16, trials=1, seed=2, jobs=1, cache_dir=str(tmp_path))
        policy = FaultPolicy(max_retries=1, backoff_base_s=0.0)
        specs = [
            TrialSpec.point(_exploding_trial, "a", boom=False),
            TrialSpec.point(_exploding_trial, "b", boom=False),
            TrialSpec.point(_exploding_trial, "c", boom=True),
        ]
        results = run_sweep(specs, settings, policy=policy)
        (failure,) = results[2]
        assert isinstance(failure, TrialFailure)
        assert failure.error_type == "RuntimeError"
        assert "interruption" in failure.error_message
        assert failure.attempts == policy.max_retries + 1

        # Strict mode turns the same quarantine into a raised error.
        strict = FaultPolicy(max_retries=0, backoff_base_s=0.0, strict=True)
        with pytest.raises(QuarantineError, match="interruption"):
            run_sweep(specs, settings, policy=strict)

        with track_stats() as delta:
            resumed = run_sweep(specs[:2], settings)
        assert delta.executed == 0
        assert delta.cache_hits == 2
        assert [r["seed"] for (r,) in resumed] == [
            float(settings.trial_seed("a", 0)),
            float(settings.trial_seed("b", 0)),
        ]

    def test_trial_functions_must_be_picklable_for_parallel_runs(self, monkeypatch):
        # A closure cannot cross the process boundary: the runner must refuse
        # it in the caller, naming the spec, before any worker process starts.
        pools = []

        def no_pool(*args, **kwargs):
            pools.append(args)
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", no_pool)
        local = lambda seed: {"seed": seed}  # noqa: E731
        settings = ExperimentSettings(n=16, trials=2, seed=2, jobs=2, cache_dir="")
        with pytest.raises(TypeError, match=r"spec \('x',\).*picklable"):
            run_sweep([TrialSpec.point(local, "x")], settings)
        assert pools == []


class TestRegistryGolden:
    """The acceptance tests of the parallel runner against every experiment."""

    @pytest.fixture(scope="class")
    def serial_results(self):
        settings = ExperimentSettings(**GOLDEN, jobs=1, cache_dir="")
        return {eid: run_experiment(eid, settings) for eid in experiment_ids()}

    def test_jobs4_bit_identical_to_jobs1(self, serial_results):
        settings = ExperimentSettings(**GOLDEN, jobs=4, cache_dir="")
        for eid in experiment_ids():
            parallel = run_experiment(eid, settings)
            serial = serial_results[eid]
            assert parallel.rows == serial.rows, f"{eid}: parallel rows diverge"
            assert parallel.summaries == serial.summaries, f"{eid}: summaries diverge"
            assert parallel.notes == serial.notes, f"{eid}: notes diverge"

    def test_warm_cache_returns_identical_records_without_recomputing(
        self, serial_results, tmp_path_factory
    ):
        cache_dir = str(tmp_path_factory.mktemp("trial-cache"))
        settings = ExperimentSettings(**GOLDEN, jobs=1, cache_dir=cache_dir)
        cold = {eid: run_experiment(eid, settings) for eid in experiment_ids()}

        with track_stats() as delta:
            warm = {eid: run_experiment(eid, settings) for eid in experiment_ids()}

        assert delta.executed == 0, "warm re-run recomputed trials"
        assert delta.cache_hits > 0
        for eid in experiment_ids():
            assert warm[eid].rows == cold[eid].rows, f"{eid}: warm rows diverge"
            assert warm[eid].rows == serial_results[eid].rows, f"{eid}: cached rows diverge"
            assert warm[eid].summaries == cold[eid].summaries


class TestColumnIndex:
    def test_column_values_reflect_added_rows(self):
        from repro.experiments import ExperimentResult

        result = ExperimentResult("EX", "t", "c", columns=["a"])
        result.add_row(a=1.0, b="text")
        assert result.column_values("a") == [1.0]
        assert result.column_values("b") == []
        # The index must invalidate when new rows arrive, including rows
        # appended directly to the public list.
        result.add_row(a=2.0)
        assert result.column_values("a") == [1.0, 2.0]
        result.rows.append({"a": 3.0})
        assert result.column_values("a") == [1.0, 2.0, 3.0]

    def test_returned_lists_are_copies(self):
        from repro.experiments import ExperimentResult

        result = ExperimentResult("EX", "t", "c", columns=["a"])
        result.add_row(a=1.0)
        values = result.column_values("a")
        values.append(99.0)
        assert result.column_values("a") == [1.0]


class TestRoundPhaseMemo:
    def test_round_phases_built_once_per_round(self):
        from repro.core.broadcast import EpsilonBroadcast
        from repro.simulation.config import SimulationConfig

        protocol = EpsilonBroadcast(SimulationConfig(n=32, seed=5))
        calls = []
        original = protocol._build_round_phases

        def counting(round_index):
            calls.append(round_index)
            return original(round_index)

        protocol._build_round_phases = counting
        first = protocol._round_phases(3)
        second = protocol._round_phases(3)
        assert first is second
        assert calls == [3]

    def test_size_estimate_variant_inherits_memoisation(self):
        from repro.core.estimation import SizeEstimateBroadcast
        from repro.simulation.config import SimulationConfig

        protocol = SizeEstimateBroadcast(SimulationConfig(n=32, seed=5), size_estimate=64)
        first = protocol._round_phases(2)
        assert protocol._round_phases(2) is first
        # The sweep structure is preserved through the cache.
        assert any("@g=" in plan.name for plan in first)
