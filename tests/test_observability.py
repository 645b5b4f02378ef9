"""The observability layer: trace neutrality, progress completeness, tooling.

The telemetry contract has two hard halves, both pinned here:

* **Trace neutrality** — attaching a recorder must not move a single random
  draw or schedule decision.  Traced runs are asserted *bit-identical* to the
  untraced golden snapshots of ``test_regression_singlehop.py`` on the
  single-hop engines (ε-Broadcast and the epoch baselines), and to fresh
  untraced runs on the sparse multi-hop and pipelined-truncation paths (where
  quiet-expiry and truncation events fire).
* **Progress completeness** — with a sink open, :func:`run_sweep` emits
  exactly one ``"progress"`` event per work unit (cache hit or computed;
  serial or in the process pool) and the instrumented sweep's results equal
  the plain sweep's; with no sink open it never reads the clock.

Plus the supporting machinery: the one sink scope and its kind filter, JSONL
round-trips (including non-finite floats), monitor aggregation across
back-to-back sweeps, runner stage spans, and the positional phase diff that
``tools/trace_report.py`` renders.
"""

from __future__ import annotations

import io
import time

import pytest

from test_regression_singlehop import (
    ADVERSARIES,
    BASELINE_GOLDEN,
    GOLDEN,
    golden_phase_records,
    run_baseline,
)

from repro.core.broadcast import EpsilonBroadcast, MultiHopBroadcast
from repro.experiments import ExperimentSettings
from repro.experiments.cache import TrialCache
from repro.experiments.runner import TrialSpec, run_sweep, timed_span
from repro.observability import (
    CliProgressRenderer,
    NullRecorder,
    ProgressMonitor,
    TraceCollector,
    TraceEvent,
    diff_phase_events,
    diff_traces,
    observe,
    read_jsonl,
    round_rows,
    summarise_trace,
    write_jsonl,
)
from repro.observability.trace import observers
from repro.simulation import SimulationConfig, TopologySpec

# --------------------------------------------------------------------------- #
# Trace neutrality: recording must not move a single draw                     #
# --------------------------------------------------------------------------- #

# A cross-section of the single-hop golden grid: every adversary, both
# engines, without duplicating the full 16-cell regression matrix.
NEUTRALITY_CELLS = [
    ("none", "fast", 3),
    ("none", "slot", 11),
    ("blocker", "fast", 11),
    ("blocker", "slot", 3),
    ("random", "fast", 3),
    ("random", "slot", 11),
    ("splitter", "fast", 3),
    ("splitter", "slot", 11),
]

# The E11 sub-threshold profile of test_pipelined_truncation.py: fragments
# into Alice-less components, so quiet-rule expiries AND cap-aware truncation
# both fire — the multi-hop-only emission sites are all on this path.
SPARSE_MULTIHOP = dict(n=96, seed=11, radius=0.09)


def traced_snapshot(adversary_name, engine, seed):
    recorder = TraceCollector()
    protocol = EpsilonBroadcast(
        SimulationConfig(n=40, seed=seed),
        adversary=ADVERSARIES[adversary_name](),
        engine=engine,
        recorder=recorder,
    )
    outcome = protocol.run()
    snapshot = protocol.network.cost_snapshot()
    snapshot["informed"] = outcome.delivery.informed
    snapshot["slots"] = outcome.delivery.slots_elapsed
    return snapshot, recorder


def multihop_snapshot(recorder=None, *, pipeline=True, engine="fast"):
    spec = TopologySpec.gilbert(radius=SPARSE_MULTIHOP["radius"])
    config = SimulationConfig(
        n=SPARSE_MULTIHOP["n"], seed=SPARSE_MULTIHOP["seed"], topology=spec
    )
    kwargs = {"recorder": recorder} if recorder is not None else {}
    protocol = MultiHopBroadcast(config, engine=engine, pipeline=pipeline, **kwargs)
    outcome = protocol.run()
    snapshot = protocol.network.cost_snapshot()
    snapshot["informed"] = outcome.delivery.informed
    snapshot["slots"] = outcome.delivery.slots_elapsed
    snapshot["rounds"] = outcome.delivery.rounds_executed
    snapshot["terminated_uninformed"] = outcome.delivery.terminated_uninformed
    snapshot["capped"] = outcome.terminated_by_cap
    return snapshot


class TestTraceNeutrality:
    @pytest.mark.parametrize("adversary_name,engine,seed", NEUTRALITY_CELLS)
    def test_traced_single_hop_matches_untraced_golden(self, adversary_name, engine, seed):
        """A recording run must reproduce the *pre-telemetry* golden numbers
        bit for bit — the strongest form of "recording reads, never writes"."""

        snapshot, recorder = traced_snapshot(adversary_name, engine, seed)
        assert snapshot == GOLDEN[(adversary_name, engine, seed)]
        # And the trace is substantive, not vacuously empty.
        kinds = {event.kind for event in recorder.events}
        assert {"run-start", "phase", "engine", "run-end"} <= kinds

    @pytest.mark.parametrize("adversary_name,engine,seed", [("blocker", "fast", 3)])
    def test_null_recorder_matches_untraced_golden(self, adversary_name, engine, seed):
        """An explicitly passed NullRecorder is the untraced path."""

        protocol = EpsilonBroadcast(
            SimulationConfig(n=40, seed=seed),
            adversary=ADVERSARIES[adversary_name](),
            engine=engine,
            recorder=NullRecorder(),
        )
        outcome = protocol.run()
        snapshot = protocol.network.cost_snapshot()
        snapshot["informed"] = outcome.delivery.informed
        snapshot["slots"] = outcome.delivery.slots_elapsed
        assert snapshot == GOLDEN[(adversary_name, engine, seed)]

    @pytest.mark.parametrize("fast_engine", [True, False])
    def test_traced_sparse_multihop_is_bit_identical(self, fast_engine):
        """Sub-threshold multi-hop: quiet expiries and truncation fire, and
        their emission must not perturb the run on either engine."""

        engine = "fast" if fast_engine else "slot"
        untraced = multihop_snapshot(engine=engine)
        recorder = TraceCollector()
        traced = multihop_snapshot(recorder, engine=engine)
        assert traced == untraced
        kinds = {event.kind for event in recorder.events}
        assert "quiet-expire" in kinds
        assert "truncate" in kinds
        path = "multihop-sparse" if fast_engine else "slot"
        assert {e.data["path"] for e in recorder.of_kind("engine")} == {path}

    def test_traced_sequential_schedule_is_bit_identical(self):
        """The pipelined-truncation regression profile, sequential variant."""

        untraced = multihop_snapshot(pipeline=False)
        traced = multihop_snapshot(TraceCollector(), pipeline=False)
        assert traced == untraced

    def test_trace_records_the_truncation_decision(self):
        recorder = TraceCollector()
        snapshot = multihop_snapshot(recorder)
        truncated = sum(
            int(e.data["count"]) for e in recorder.of_kind("truncate")
        ) + sum(int(e.data["count"]) for e in recorder.of_kind("quiet-expire"))
        # Every stalled retirement the run reports is visible in the trace.
        assert truncated >= snapshot["terminated_uninformed"] - snapshot["informed"]
        (run_end,) = recorder.of_kind("run-end")
        assert run_end.data["informed"] == snapshot["informed"]
        assert run_end.data["slots_elapsed"] == snapshot["slots"]
        assert run_end.data["terminated_by_cap"] is False


# Baseline cells: every baseline, multi-epoch (blocker) and single-epoch runs,
# both engines.
BASELINE_TRACE_CELLS = [
    ("naive", "blocker", "fast", 3),
    ("naive", "none", "slot", 11),
    ("ksy", "blocker", "slot", 11),
    ("ksy", "random", "fast", 11),
    ("backoff", "blocker", "fast", 11),
    ("backoff", "random", "slot", 3),
]


class TestBaselineTraces:
    @pytest.mark.parametrize("cell", BASELINE_TRACE_CELLS)
    def test_traced_baseline_matches_untraced_golden(self, cell):
        recorder = TraceCollector()
        snapshot, phases, _ = run_baseline(*cell, recorder=recorder)
        assert snapshot == BASELINE_GOLDEN[cell][0]
        assert phases == golden_phase_records(cell)

    @pytest.mark.parametrize("cell", BASELINE_TRACE_CELLS)
    def test_baseline_trace_has_one_phase_event_per_epoch(self, cell):
        recorder = TraceCollector()
        snapshot, phases, outcome = run_baseline(*cell, recorder=recorder)
        run_kinds = [event.kind for event in recorder.events if event.kind != "engine"]
        assert run_kinds == ["run-start"] + ["phase"] * len(phases) + ["run-end"]
        assert len(recorder.of_kind("engine")) == len(phases)

        phase_events = recorder.of_kind("phase")
        assert [e.phase for e in phase_events] == [r.phase_name for r in phases]
        assert [e.round_index for e in phase_events] == [r.round_index for r in phases]
        assert [e.data["nodes_cost"] for e in phase_events] == [r.nodes_cost for r in phases]
        assert [e.data["alice_cost"] for e in phase_events] == [r.alice_cost for r in phases]
        (run_start,) = recorder.of_kind("run-start")
        assert run_start.data["protocol"] == outcome.protocol
        (run_end,) = recorder.of_kind("run-end")
        assert run_end.data["informed"] == snapshot["informed"]
        assert run_end.data["slots_elapsed"] == snapshot["slots"]
        assert run_end.data["terminated_by_cap"] is outcome.terminated_by_cap

    def test_summarise_accepts_a_baseline_trace(self):
        recorder = TraceCollector()
        snapshot, phases, _ = run_baseline("ksy", "blocker", "fast", 3, recorder=recorder)
        text = summarise_trace(recorder.events)
        assert "run-start:" in text and "run-end:" in text and "totals:" in text
        rounds = round_rows(recorder.events)
        assert len(rounds) == len(phases)  # one epoch per round row
        assert sum(int(row["slots"]) for row in rounds) == snapshot["slots"]


# --------------------------------------------------------------------------- #
# Progress completeness: one event per work unit                              #
# --------------------------------------------------------------------------- #


def _probe_trial(seed, scale=1.0):
    """Top-level so the process pool can import it by reference."""

    return {"seed": seed, "value": seed * scale}


def _specs():
    return [
        TrialSpec.point(_probe_trial, "probe", width, scale=float(width))
        for width in (1, 2, 3)
    ]


class TestProgressCompleteness:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_one_event_per_work_unit(self, jobs):
        settings = ExperimentSettings(n=8, trials=4, seed=2012, jobs=jobs, cache_dir="")
        plain = run_sweep(_specs(), settings)
        trace = TraceCollector()
        with observe(trace):
            instrumented = run_sweep(_specs(), settings)
        assert instrumented == plain  # observation changes nothing
        total = len(_specs()) * settings.trials
        events = [e.data for e in trace.of_kind("progress")]
        assert len(events) == total
        assert [e["completed"] for e in events] == list(range(1, total + 1))
        assert all(e["total"] == total for e in events)
        assert all(e["source"] == "run" for e in events)  # cache off: all computed
        assert all(e["elapsed"] >= 0.0 for e in events)
        # Every (labels, trial) unit reported exactly once.
        units = {(e["labels"], e["trial_index"]) for e in events}
        assert len(units) == total

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_cache_hits_are_reported_as_events(self, tmp_path, jobs):
        settings = ExperimentSettings(n=8, trials=3, seed=2012, jobs=jobs, cache_dir="")
        cache = TrialCache(str(tmp_path / "store"))
        total = len(_specs()) * settings.trials

        cold_trace, warm_trace = TraceCollector(), TraceCollector()
        with observe(cold_trace):
            cold = run_sweep(_specs(), settings, cache=cache)
        with observe(warm_trace):
            warm = run_sweep(_specs(), settings, cache=cache)
        cold_events = cold_trace.of_kind("progress")
        warm_events = warm_trace.of_kind("progress")

        assert warm == cold
        assert len(cold_events) == len(warm_events) == total
        assert all(e.data["source"] == "run" for e in cold_events)
        assert all(e.data["cache_miss"] for e in cold_events)
        assert all(e.data["source"] == "cache" for e in warm_events)

    def test_recorder_and_scope_both_receive_events(self):
        settings = ExperimentSettings(n=8, trials=2, seed=2012, jobs=1, cache_dir="")
        scoped, direct = TraceCollector(), TraceCollector()
        with observe(scoped):
            run_sweep(_specs(), settings, recorder=direct)
        assert scoped.events == direct.events
        assert len(direct.of_kind("progress")) == len(_specs()) * settings.trials


class _CountingClock:
    """Stands in for the runner's ``time`` module and counts clock reads."""

    def __init__(self):
        self.reads = 0

    def perf_counter(self):
        self.reads += 1
        return time.perf_counter()

    def monotonic(self):
        self.reads += 1
        return time.monotonic()

    def sleep(self, seconds):
        time.sleep(seconds)


class TestUnobservedSweep:
    """With no sink open and no ``recorder=``, a sweep never reads the clock."""

    @pytest.mark.parametrize("cached", [False, True])
    def test_serial_sweep_reads_no_clock(self, tmp_path, monkeypatch, cached):
        import repro.experiments.runner as runner

        clock = _CountingClock()
        monkeypatch.setattr(runner, "time", clock)
        settings = ExperimentSettings(n=8, trials=2, seed=2012, jobs=1, cache_dir="")
        cache = TrialCache(str(tmp_path / "store")) if cached else None
        cold = run_sweep(_specs(), settings, cache=cache)
        warm = run_sweep(_specs(), settings, cache=cache)
        assert warm == cold
        assert clock.reads == 0

        # The same sweep with a progress sink open does read it.
        with observe(ProgressMonitor()):
            run_sweep(_specs(), settings, cache=cache)
        assert clock.reads > 0


class TestObserveScope:
    def test_declared_kinds_filter_what_a_sink_receives(self):
        settings = ExperimentSettings(n=8, trials=2, seed=2012, jobs=1, cache_dir="")
        everything, monitor = TraceCollector(), ProgressMonitor()
        with observe(everything), observe(monitor):
            assert observers("span") == [everything]
            assert observers("progress") == [everything, monitor]
            run_sweep(_specs(), settings)
        assert {e.kind for e in everything.events} == {"progress", "span"}
        assert monitor.completed == len(everything.of_kind("progress"))
        assert monitor.completed == len(_specs()) * settings.trials

    def test_disabled_and_absent_sinks_are_not_observers(self):
        with observe(NullRecorder()), observe(None) as absent:
            assert absent is None
            assert observers("progress") == []
        assert observers("fault") == []


# --------------------------------------------------------------------------- #
# Monitor aggregation and CLI rendering                                       #
# --------------------------------------------------------------------------- #


def _event(completed, total, *, cache_hit=False, elapsed=0.0):
    return TraceEvent(
        kind="progress",
        data={
            "labels": "('x',)",
            "trial_index": 0,
            "source": "cache" if cache_hit else "run",
            "cache_miss": False,
            "completed": completed,
            "total": total,
            "elapsed": elapsed,
        },
    )


class TestProgressMonitor:
    def test_single_sweep_aggregates(self):
        monitor = ProgressMonitor()
        monitor.record(_event(1, 4, elapsed=1.0))
        monitor.record(_event(2, 4, cache_hit=True, elapsed=2.0))
        assert monitor.completed == 2
        assert monitor.total == 4
        assert monitor.remaining == 2
        assert monitor.cache_hits == 1 and monitor.executed == 1
        assert monitor.cache_hit_rate == pytest.approx(0.5)
        assert monitor.throughput == pytest.approx(1.0)  # 2 units / 2s
        assert monitor.eta_seconds == pytest.approx(2.0)
        assert "2/4 units" in monitor.status_line()

    def test_back_to_back_sweeps_accumulate(self):
        """An experiment is several nested run_sweep calls: the counter
        restarting must bank totals and wall-clock, not reset them."""

        monitor = ProgressMonitor()
        for completed in (1, 2):
            monitor.record(_event(completed, 2, elapsed=float(completed)))
        for completed in (1, 2, 3):
            monitor.record(_event(completed, 3, elapsed=float(completed)))
        assert monitor.total == 5
        assert monitor.completed == 5
        assert monitor.remaining == 0
        assert monitor.elapsed == pytest.approx(5.0)  # 2s banked + 3s current

    def test_fresh_monitor_has_safe_defaults(self):
        monitor = ProgressMonitor()
        assert monitor.throughput == 0.0
        assert monitor.eta_seconds is None
        assert monitor.cache_hit_rate == 0.0


class TestCliProgressRenderer:
    def test_renders_to_stream_and_seals_on_finish(self):
        stream = io.StringIO()
        renderer = CliProgressRenderer(label="E99", stream=stream, min_interval=0.0)
        for completed in (1, 2):
            renderer.record(_event(completed, 2, elapsed=float(completed)))
        renderer.finish()
        output = stream.getvalue()
        assert "E99:" in output
        assert "2/2 units" in output
        assert output.endswith("\n")

    def test_silent_when_it_saw_nothing(self):
        stream = io.StringIO()
        CliProgressRenderer(stream=stream).finish()
        assert stream.getvalue() == ""

    def test_as_run_sweep_sink(self):
        stream = io.StringIO()
        renderer = CliProgressRenderer(label="probe", stream=stream, min_interval=0.0)
        settings = ExperimentSettings(n=8, trials=2, seed=2012, jobs=1, cache_dir="")
        with observe(renderer):
            run_sweep(_specs(), settings)
        renderer.finish()
        assert renderer.monitor.completed == len(_specs()) * settings.trials
        assert "probe:" in stream.getvalue()


# --------------------------------------------------------------------------- #
# Runner stage spans                                                          #
# --------------------------------------------------------------------------- #


class TestRunnerStageSpans:
    def test_sweep_stages_are_attributed(self):
        settings = ExperimentSettings(n=8, trials=2, seed=2012, jobs=1, cache_dir="")
        trace = TraceCollector()
        with observe(trace):
            run_sweep(_specs(), settings)
        spans = trace.of_kind("span")
        assert [span.phase for span in spans] == ["schedule", "fan-out", "reassemble"]
        assert all(span.data["seconds"] >= 0.0 for span in spans)

    def test_no_scope_means_no_measurement(self):
        # Permanently-wrapped code must be free when unobserved; the span
        # list only fills inside a scope.
        trace = TraceCollector()
        with timed_span("orphan"):
            pass
        with observe(trace):
            with timed_span("seen"):
                pass
        assert [span.phase for span in trace.events] == ["seen"]

    def test_spans_are_trace_events(self):
        trace = TraceCollector()
        with observe(trace):
            with timed_span("stage-a"):
                pass
        events = trace.events
        assert [e.phase for e in events] == ["stage-a"]
        assert events[0].kind == "span"
        assert events[0].data["seconds"] >= 0.0


# --------------------------------------------------------------------------- #
# JSONL round-trip and the trace reports                                      #
# --------------------------------------------------------------------------- #


class TestJsonlRoundTrip:
    def test_round_trip_preserves_events(self, tmp_path):
        recorder = TraceCollector()
        multihop_snapshot(recorder)
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(recorder.events, str(path))
        assert count == len(recorder.events)
        assert read_jsonl(str(path)) == list(recorder.events)

    def test_non_finite_floats_survive(self, tmp_path):
        events = [
            TraceEvent(
                kind="phase",
                round_index=0,
                phase="request",
                data={"budget": float("inf"), "slack": float("-inf"), "rho": float("nan")},
            )
        ]
        path = tmp_path / "weird.jsonl"
        write_jsonl(events, str(path))
        (back,) = read_jsonl(str(path))
        assert back.data["budget"] == float("inf")
        assert back.data["slack"] == float("-inf")
        assert back.data["rho"] != back.data["rho"]  # NaN round-trips as NaN


class TestTraceReports:
    def test_summary_covers_rounds_and_header(self):
        recorder = TraceCollector()
        multihop_snapshot(recorder)
        text = summarise_trace(recorder.events)
        assert "run-start:" in text and "run-end:" in text
        assert "totals:" in text
        rounds = round_rows(recorder.events)
        assert rounds, "a full run must aggregate into at least one round"
        assert sum(int(row["slots"]) for row in rounds) > 0

    def test_identical_runs_diff_clean(self):
        a, b = TraceCollector(), TraceCollector()
        multihop_snapshot(a)
        multihop_snapshot(b)
        assert diff_phase_events(a.events, b.events) == []
        assert "traces agree" in diff_traces(a.events, b.events)

    def test_pipeline_toggle_shows_schedule_divergence(self):
        """The headline diff use case: pipelined vs sequential schedules of
        the same seed diverge, and the diff names where."""

        pipelined, sequential = TraceCollector(), TraceCollector()
        multihop_snapshot(pipelined, pipeline=True)
        multihop_snapshot(sequential, pipeline=False)
        divergences = diff_phase_events(pipelined.events, sequential.events)
        assert divergences, "pipelining must reshape the schedule at this profile"
        text = diff_traces(pipelined.events, sequential.events)
        assert "first divergence" in text
        assert any(d.field == "<schedule>" for d in divergences)

    def test_payload_divergence_is_field_precise(self):
        base = TraceEvent(
            kind="phase", round_index=2, phase="inform", data={"num_slots": 8, "frontier": 3}
        )
        changed = TraceEvent(
            kind="phase", round_index=2, phase="inform", data={"num_slots": 8, "frontier": 5}
        )
        (divergence,) = diff_phase_events([base], [changed])
        assert divergence.field == "frontier"
        assert (divergence.left, divergence.right) == (3, 5)
