"""Tests for fault-tolerant sweep execution.

Covers the whole fault layer: :class:`FaultPolicy` validation and its
settings default, quarantine semantics (sentinel vs strict, serial and pooled),
the chaos :class:`FaultInjector` (worker crashes, hung chunks, cache
corruption) recovering **bit-identically** to a fault-free serial run,
pool degradation, trial-cache self-disable and corruption-shape handling,
the prune-vs-touch concurrency races, and KeyboardInterrupt teardown.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from repro.analysis.stats import aggregate_records
from repro.experiments import ExperimentSettings
from repro.experiments.cache import TrialCache, trial_key
from repro.experiments.faults import (
    DEFAULT_FAULT_POLICY,
    FaultInjector,
    FaultPolicy,
    QuarantineError,
    TrialFailure,
    quarantine_note,
)
from repro.experiments.runner import TrialSpec, run_sweep, track_stats
from repro.observability.report import fault_rows, summarise_trace
from repro.observability.trace import TraceCollector, observe
from repro.simulation.errors import ConfigurationError


@pytest.fixture(autouse=True)
def _no_runner_env(monkeypatch):
    """Keep the runner's env knobs from leaking into (or out of) these tests."""

    for name in ("REPRO_JOBS", "REPRO_CACHE_DIR"):
        monkeypatch.delenv(name, raising=False)


def _toy_trial(seed: int, scale: float = 1.0) -> dict:
    """A picklable trial function: derived deterministically from its inputs."""

    return {"seed": float(seed), "value": scale * (seed % 97)}


def _failing_trial(seed: int) -> dict:
    raise ValueError(f"poisoned configuration (seed={seed})")


def _flaky_trial(seed: int, marker: str = "") -> dict:
    """Fails on its first attempt, succeeds on every retry (marker-file state)."""

    path = Path(marker) / f"attempted-{seed}"
    if not path.exists():
        path.write_text("x")
        raise OSError("transient failure")
    return {"seed": float(seed)}


def _interrupting_trial(seed: int, boom: bool = False) -> dict:
    if boom:
        raise KeyboardInterrupt
    return {"seed": float(seed)}


def _settings(**overrides) -> ExperimentSettings:
    base = dict(n=16, trials=1, seed=2, jobs=1, cache_dir="")
    base.update(overrides)
    return ExperimentSettings(**base)


class TestFaultPolicy:
    def test_defaults_are_lenient(self):
        policy = FaultPolicy()
        assert policy == DEFAULT_FAULT_POLICY
        assert policy.timeout_s is None
        assert policy.max_retries == 2
        assert policy.strict is False

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(timeout_s=0.0), "timeout_s"),
            (dict(timeout_s=-1.0), "timeout_s"),
            (dict(timeout_s=True), "timeout_s"),
            (dict(timeout_s="soon"), "timeout_s"),
            (dict(max_retries=-1), "max_retries"),
            (dict(max_retries=1.5), "max_retries"),
            (dict(max_retries=True), "max_retries"),
            (dict(max_pool_respawns=-1), "max_pool_respawns"),
            (dict(max_pool_respawns=False), "max_pool_respawns"),
            (dict(strict="yes"), "strict"),
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs, field):
        with pytest.raises(ConfigurationError, match=field):
            FaultPolicy(**kwargs)

    def test_settings_default_to_the_default_policy(self):
        assert ExperimentSettings().fault_policy is DEFAULT_FAULT_POLICY

    def test_settings_reject_wrong_types(self):
        with pytest.raises(ConfigurationError, match="fault_policy"):
            ExperimentSettings(fault_policy=None)
        with pytest.raises(ConfigurationError, match="fault_policy"):
            ExperimentSettings(fault_policy=123)
        with pytest.raises(ConfigurationError, match="fault_injector"):
            ExperimentSettings(fault_injector="chaos")


class TestFaultInjector:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="hang_s"):
            FaultInjector(hang_s=0.0)

    def test_prefix_and_string_coordinates(self):
        injector = FaultInjector(crashes=[("E2", 0)], hangs=[((("E3"), 128), 1)])
        # A bare string is a one-element prefix: matches every E2 sweep point.
        assert injector.plans_crash(("E2", "split 2% of n"), 0, 0)
        assert injector.plans_crash(("E2",), 0, 0)
        assert not injector.plans_crash(("E1",), 0, 0)
        assert not injector.plans_crash(("E2", "x"), 1, 0)  # trial mismatch
        assert injector.plans_hang(("E3", 128, "extra"), 1, 0)
        assert not injector.plans_hang(("E3", 256), 1, 0)

    def test_faults_fire_only_on_the_first_dispatch(self):
        injector = FaultInjector(crashes=[(("p",), 0)])
        assert injector.plans_crash(("p",), 0, 0)
        assert not injector.plans_crash(("p",), 0, 1)  # the retry must succeed

    def test_inert_in_the_coordinating_process(self):
        # apply_in_worker refuses to fire outside a worker: the serial and
        # degraded paths always make forward progress under any injector.
        injector = FaultInjector(crashes=[(("p",), 0)], hangs=[(("p",), 0)], hang_s=3600.0)
        injector.apply_in_worker(("p",), 0, 0)  # would crash or stall a worker


class TestQuarantine:
    """Each sweep has at least two pending units, so ``jobs=2`` reaches the pool
    and the failing trial raises inside a worker."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sentinel_fills_the_slot_and_the_sweep_completes(self, jobs):
        specs = [
            TrialSpec.point(_toy_trial, "ok"),
            TrialSpec.point(_failing_trial, "bad"),
        ]
        settings = _settings(jobs=jobs, fault_policy=FaultPolicy(max_retries=2))
        with track_stats() as stats, observe(TraceCollector()) as trace:
            results = run_sweep(specs, settings)

        assert results[0][0]["seed"] == float(_settings().trial_seed("ok", 0))
        (failure,) = results[1]
        assert isinstance(failure, TrialFailure)
        assert failure.labels == ("bad",)
        assert failure.kind == "error"
        assert failure.error_type == "ValueError"
        assert failure.attempts == 3  # max_retries + 1
        assert "quarantined after 3 attempt(s)" in failure.describe()

        assert stats.retries == 2
        assert stats.quarantined == 1
        assert [e.data["fault"] for e in trace.of_kind("fault")] == ["retry", "retry", "quarantine"]
        note = quarantine_note(trace.events)
        assert note is not None and "1 trial(s) quarantined" in note
        assert "('bad',)" in note

    def test_aggregation_skips_sentinels(self):
        records = [
            {"value": 1.0},
            TrialFailure(("bad",), 0, 7, "error", "ValueError", "boom", 3),
            {"value": 3.0},
        ]
        summary = aggregate_records(records)
        assert summary["value"].mean == 2.0
        assert summary["value"].count == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_mode_raises_with_the_failure_attached(self, jobs):
        specs = [
            TrialSpec.point(_toy_trial, "ok"),
            TrialSpec.point(_failing_trial, "bad"),
        ]
        settings = _settings(jobs=jobs, fault_policy=FaultPolicy(max_retries=0, strict=True))
        with pytest.raises(QuarantineError, match="poisoned") as excinfo:
            run_sweep(specs, settings)
        assert excinfo.value.failure.labels == ("bad",)
        assert excinfo.value.failure.attempts == 1

    def test_quarantine_note_is_none_when_clean(self):
        with observe(TraceCollector()) as trace:
            run_sweep([TrialSpec.point(_toy_trial, "ok")], _settings())
        assert trace.of_kind("fault") == []
        assert quarantine_note(trace.events) is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failure_retries_to_an_identical_record(self, tmp_path, jobs):
        settings = _settings(trials=2, seed=5, jobs=jobs, fault_policy=FaultPolicy(max_retries=2))
        specs = [TrialSpec.point(_flaky_trial, "flaky", marker=str(tmp_path))]
        with track_stats() as stats:
            results = run_sweep(specs, settings)
        assert stats.retries == 2  # one transient failure per trial
        assert stats.quarantined == 0
        assert results[0] == [
            {"seed": float(settings.trial_seed("flaky", t))} for t in range(2)
        ]

    def test_fault_events_reach_a_trace_recorder(self):
        settings = _settings(fault_policy=FaultPolicy(max_retries=1))
        with observe(TraceCollector()) as collector:
            run_sweep([TrialSpec.point(_failing_trial, "bad")], settings)
        faults = collector.of_kind("fault")
        assert [e.data["fault"] for e in faults] == ["retry", "quarantine"]
        rows = fault_rows(collector.events)
        assert rows[0]["fault"] == "retry" and rows[0]["labels"] == "('bad',)"
        report = summarise_trace(collector.events)
        assert "runner faults:" in report
        assert "quarantine=1" in report


class TestChaosRecovery:
    """Injected crashes/hangs/corruption must recover bit-identically."""

    def _specs(self, count: int = 4):
        return [TrialSpec.point(_toy_trial, "p", i, scale=float(i)) for i in range(count)]

    def test_worker_crash_recovers_bit_identically(self):
        serial = run_sweep(self._specs(), _settings(trials=2))
        injector = FaultInjector(crashes=[(("p", 0), 0)])
        policy = FaultPolicy(max_retries=3)
        with track_stats() as stats, observe(TraceCollector()) as trace:
            chaos = run_sweep(
                self._specs(),
                _settings(trials=2, jobs=2, fault_policy=policy, fault_injector=injector),
            )
        assert chaos == serial
        assert stats.worker_deaths >= 1
        assert stats.quarantined == 0
        assert "worker-death" in {e.data["fault"] for e in trace.of_kind("fault")}

    def test_hung_chunk_is_killed_and_redispatched(self):
        serial = run_sweep(self._specs(), _settings())
        injector = FaultInjector(hangs=[(("p", 1), 0)], hang_s=600.0)
        policy = FaultPolicy(timeout_s=1.0, max_retries=3)
        with track_stats() as stats, observe(TraceCollector()) as trace:
            chaos = run_sweep(
                self._specs(), _settings(jobs=2, fault_policy=policy, fault_injector=injector)
            )
        assert chaos == serial
        assert stats.timeouts >= 1
        assert stats.quarantined == 0
        assert "timeout" in {e.data["fault"] for e in trace.of_kind("fault")}

    def test_repeated_breakage_degrades_to_serial(self):
        serial = run_sweep(self._specs(), _settings())
        injector = FaultInjector(crashes=[(("p", 0), 0)])
        policy = FaultPolicy(max_retries=3, max_pool_respawns=0)
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            with observe(TraceCollector()) as trace:
                chaos = run_sweep(
                    self._specs(),
                    _settings(jobs=2, fault_policy=policy, fault_injector=injector),
                )
        assert chaos == serial
        assert "pool-degraded" in {e.data["fault"] for e in trace.of_kind("fault")}

    def test_injected_corruption_forces_a_warm_recompute(self, tmp_path):
        settings = _settings(cache_dir=str(tmp_path))
        injector = FaultInjector(seed=7, corruptions=[(("p", 2), 0)])
        cold = run_sweep(self._specs(), settings.with_(fault_injector=injector))

        with track_stats() as delta:
            warm = run_sweep(self._specs(), settings)
        assert warm == cold
        assert delta.executed == 1  # exactly the torn entry
        assert delta.cache_hits == 3


class TestCacheResilience:
    def _key(self, label: str = "k") -> str:
        return trial_key(_toy_trial, (label,), 7, {})

    def test_unwritable_root_disables_with_one_warning(self, tmp_path):
        squatter = tmp_path / "squatter"
        squatter.write_text("not a directory")
        with pytest.warns(RuntimeWarning, match="trial cache disabled"):
            cache = TrialCache(squatter / "store")
        assert cache.disabled
        # Disabled stores are inert, and never warn twice.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.put(self._key(), {"a": 1.0})
            assert cache.get(self._key()) is None
            cache.touch(self._key())

    def test_write_failure_disables_for_the_rest_of_the_run(self, tmp_path, monkeypatch):
        cache = TrialCache(tmp_path)

        def refuse(key, record):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "_write", refuse)
        with pytest.warns(RuntimeWarning, match="No space left"):
            cache.put(self._key(), {"a": 1.0})
        assert cache.disabled
        monkeypatch.undo()
        # Still off after the filesystem "recovers": disable is for the run.
        cache.put(self._key(), {"a": 1.0})
        assert cache.get(self._key()) is None

    def test_sweep_survives_a_disabled_cache(self, tmp_path):
        squatter = tmp_path / "squatter"
        squatter.write_text("not a directory")
        settings = _settings(cache_dir=str(squatter / "store"))
        specs = [TrialSpec.point(_toy_trial, "p", i) for i in range(3)]
        with pytest.warns(RuntimeWarning, match="trial cache disabled"):
            with track_stats() as stats, observe(TraceCollector()) as trace:
                results = run_sweep(specs, settings)
        assert results == run_sweep(specs, _settings())
        assert stats.cache_disabled == 1
        assert [e.data["fault"] for e in trace.of_kind("fault")] == ["cache-disabled"]

    @pytest.mark.parametrize("shape", ["truncated", "zero-byte", "directory"])
    def test_corruption_shapes_read_as_miss_and_are_rewritten(self, tmp_path, shape):
        cache = TrialCache(tmp_path)
        key = self._key()
        cache.put(key, {"a": 1.0})
        path = cache.path_for(key)
        if shape == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        elif shape == "zero-byte":
            path.write_bytes(b"")
        else:
            path.unlink()
            path.mkdir()
        assert cache.get(key) is None

        # The runner treats the miss as ordinary work: recompute and rewrite.
        settings = _settings(cache_dir=str(tmp_path))
        with track_stats() as delta:
            results = run_sweep([TrialSpec.point(_toy_trial, "rewrite")], settings)
        assert delta.executed == 1
        rewrite_key = trial_key(
            _toy_trial, ("rewrite",), settings.trial_seed("rewrite", 0), {}
        )
        assert cache.get(rewrite_key) == results[0][0]
        assert not cache.disabled

        # A directory squatting on the entry's own path is local damage: put
        # clears it and retries instead of disabling the store.
        cache.put(key, {"a": 2.0})
        assert cache.get(key) == {"a": 2.0}
        assert not cache.disabled


class TestPruneRaces:
    def _filled(self, tmp_path, count: int = 4):
        cache = TrialCache(tmp_path)
        keys = [trial_key(_toy_trial, ("p", i), i, {}) for i in range(count)]
        for i, key in enumerate(keys):
            cache.put(key, {"value": float(i)})
        return cache, keys

    def test_entry_vanishing_during_scan_is_skipped(self, tmp_path, monkeypatch):
        cache, keys = self._filled(tmp_path)
        victim = cache.path_for(keys[0])
        real_stat = Path.stat

        def racy_stat(self, **kwargs):
            if self == victim:
                raise FileNotFoundError(str(victim))
            return real_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", racy_stat)
        stats = cache.prune(max_bytes=0)
        assert stats.scanned == len(keys) - 1
        assert stats.removed == len(keys) - 1
        monkeypatch.undo()
        assert victim.exists()  # the racing writer's entry was left alone

    def test_entry_vanishing_during_eviction_is_skipped(self, tmp_path, monkeypatch):
        cache, keys = self._filled(tmp_path)
        victim = cache.path_for(keys[1])
        real_unlink = Path.unlink

        def racy_unlink(self, *args, **kwargs):
            if self == victim:
                raise FileNotFoundError(str(victim))
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racy_unlink)
        stats = cache.prune(max_bytes=0)
        assert stats.scanned == len(keys)
        assert stats.removed == len(keys) - 1  # the raced entry is not counted

    def test_touch_after_prune_is_a_silent_noop(self, tmp_path):
        cache, keys = self._filled(tmp_path, count=2)
        cache.prune(max_bytes=0)
        assert cache.get(keys[0]) is None
        cache.touch(keys[0])  # a hit served moments before the prune landed


class TestKeyboardInterrupt:
    def test_interrupt_flushes_completed_trials_and_summarises(self, tmp_path, capsys):
        settings = _settings(cache_dir=str(tmp_path))
        specs = [
            TrialSpec.point(_interrupting_trial, "a"),
            TrialSpec.point(_interrupting_trial, "b"),
            TrialSpec.point(_interrupting_trial, "c", boom=True),
        ]
        with pytest.raises(KeyboardInterrupt):
            run_sweep(specs, settings)
        err = capsys.readouterr().err
        assert "run_sweep interrupted: 2/3 trials finished" in err
        assert "flushed to the trial cache" in err

        # A re-run resumes warm from the flushed records.
        with track_stats() as delta:
            resumed = run_sweep(specs[:2], settings)
        assert delta.executed == 0
        assert delta.cache_hits == 2
        assert [r["seed"] for (r,) in resumed] == [
            float(settings.trial_seed("a", 0)),
            float(settings.trial_seed("b", 0)),
        ]


class TestNoFaultNeutrality:
    def test_policy_knobs_do_not_perturb_results(self):
        # A sweep with a watchdog and a retry budget configured — but no
        # faults occurring — must be bit-identical to the default run: the
        # fault machinery consumes no RNG and rewrites no records.
        specs = [TrialSpec.point(_toy_trial, "p", i, scale=float(i)) for i in range(4)]
        plain = run_sweep(specs, _settings(trials=2))
        armed = run_sweep(
            specs,
            _settings(trials=2, jobs=2, fault_policy=FaultPolicy(timeout_s=60.0, max_retries=5)),
        )
        assert armed == plain
