"""Span tracing installed from outside the program.

The benchmark wraps the public callables at each layer boundary of the
simulator (see :func:`install`).  Every wrapped call records one span: its
name, start, end and parent.  Spans are kept in memory in columnar arrays and
written out when the run ends; a layer's *self time* is its span's duration
minus the time covered by its wrapped children, so self times over a
sub-tree add up to the sub-tree root's duration.

Spans are grouped into *sections* chosen by the caller (``"setup"``,
``"run"``, ``"warm"``), so set-up work and measured work are accounted
separately.  Counters (phases, slots, rows, bytes) are recorded at the same
boundaries as the spans.

Nothing here changes what the program computes: wrappers call the original
callable with the original arguments and return its result unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

MAX_STORED_SPANS = 400_000
"""Spans kept for the JSONL dump; later spans are aggregated but not stored."""


class Tracer:
    """In-memory span recorder with per-section self-time aggregates."""

    def __init__(self) -> None:
        self.section = "run"
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._stack: List[list] = []
        # Columnar span store: name id, section id, depth, start, end.
        self._span_name = array("l")
        self._span_section = array("l")
        self._span_depth = array("l")
        self._span_start = array("d")
        self._span_end = array("d")
        self.dropped_spans = 0
        self.self_time: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.counters: Dict[Tuple[str, str], int] = defaultdict(int)

    def _id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        key = (self.section, name)
        self.self_time[key] += duration - child
        self.calls[key] += 1
        if len(self._span_start) < MAX_STORED_SPANS:
            self._span_name.append(self._id(name))
            self._span_section.append(self._id(self.section))
            self._span_depth.append(len(self._stack))
            self._span_start.append(start)
            self._span_end.append(end)
        else:
            self.dropped_spans += 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[(self.section, name)] += int(amount)

    def totals(self, sections: Tuple[str, ...]) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int]]:
        """Self seconds, call counts and counters summed over ``sections``."""

        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        counters: Dict[str, int] = defaultdict(int)
        for (sec, name), value in self.self_time.items():
            if sec in sections:
                seconds[name] += value
        for (sec, name), value in self.calls.items():
            if sec in sections:
                calls[name] += value
        for (sec, name), value in self.counters.items():
            if sec in sections:
                counters[name] += value
        return seconds, calls, counters

    def write_jsonl(self, path: str) -> None:
        """Dump the stored spans, one JSON object per line, times relative to the first."""

        origin = self._span_start[0] if len(self._span_start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self._span_start)):
                handle.write(
                    json.dumps(
                        {
                            "name": self.names[self._span_name[i]],
                            "section": self.names[self._span_section[i]],
                            "depth": self._span_depth[i],
                            "start_s": round(self._span_start[i] - origin, 9),
                            "end_s": round(self._span_end[i] - origin, 9),
                        }
                    )
                    + "\n"
                )
            if self.dropped_spans:
                handle.write(json.dumps({"dropped_spans": self.dropped_spans}) + "\n")


# ---------------------------------------------------------------------- #
# Wrapping                                                                #
# ---------------------------------------------------------------------- #

NameFn = Callable[[tuple], str]
CountFn = Callable[["Tracer", tuple, dict, object], None]


def _wrap(fn: Callable, tracer: Tracer, name: "str | NameFn", after: Optional[CountFn] = None) -> Callable:
    fixed = name if isinstance(name, str) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(fixed if fixed is not None else name(args))  # type: ignore[operator]
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        finally:
            tracer.exit()

    return wrapper


class Patcher:
    """Replaces attributes and puts every original back on :meth:`restore`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def method(self, base: Optional[type], attr: str, name: "str | NameFn", after: Optional[CountFn] = None) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that defines its own."""

        if base is None:
            self.missing.append(f"<absent class>.{attr}")
            return
        found = False
        for cls in _class_tree(base):
            value = cls.__dict__.get(attr)
            if isinstance(value, types.FunctionType):
                self._set(cls, attr, _wrap(value, self.tracer, name, after))
                found = True
        if not found:
            self.missing.append(f"{base.__name__}.{attr}")

    def function(self, module: object, attr: str, name: str, after: Optional[CountFn] = None) -> None:
        """Wrap a module-level function wherever a loaded module binds it by name."""

        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{getattr(module, '__name__', module)}.{attr}")
            return
        wrapped = _wrap(original, self.tracer, name, after)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def replace(self, owner: object, attr: str, value: object) -> None:
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._set(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _class_tree(base: type) -> List[type]:
    seen: List[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _engine_path(args: tuple) -> str:
    topology = args[0].network.topology
    if topology.is_single_hop:
        return "fastengine.single_hop"
    if getattr(topology, "backend", "sparse") == "dense":
        return "fastengine.dense"
    return "fastengine.sparse"


def _count_phase(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    tracer.count("fastengine.phases")
    tracer.count("fastengine.slots", plan.num_slots)


def _count_rows(counter: str, position: int, keyword: str) -> CountFn:
    """Count the length of the argument at ``position`` (or passed as ``keyword``)."""

    def after(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
        tracer.count(counter, len(args[position] if len(args) > position else kwargs[keyword]))

    return after


def install(tracer: Tracer, built_topologies: Optional[list] = None) -> Patcher:
    """Wrap every layer boundary the benchmark reports; returns the undo handle.

    ``built_topologies`` (optional list) receives each topology
    ``build_topology`` returns, so the caller can count edges after the
    measured work instead of inside it.
    """

    import repro.adversary.base as adversary_base
    import repro.baselines.base as baselines_base
    import repro.core.phases as core_phases
    import repro.core.quietrule as quietrule
    import repro.core.state as core_state
    import repro.core.termination as termination
    import repro.experiments.cache as cache
    import repro.experiments.registry as registry
    import repro.experiments.runner as runner
    import repro.simulation.energy as energy
    import repro.simulation.fastengine as fastengine
    import repro.simulation.jamming as jamming
    import repro.simulation.network as network
    import repro.simulation.topology as topology
    import repro.tournament  # noqa: F401  - loads the roster's adversary classes
    from repro.core.broadcast import EpsilonBroadcast

    patch = Patcher(tracer)

    def keep_topology(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
        if built_topologies is not None:
            built_topologies.append(result)

    patch.function(topology, "build_topology", "topology.build", keep_topology)
    patch.method(network.Network, "__init__", "network.init")
    patch.method(network.Network, "node_costs", "network.node_costs")
    patch.method(EpsilonBroadcast, "__init__", "broadcast.init")
    patch.method(EpsilonBroadcast, "run", "broadcast")
    patch.method(getattr(baselines_base, "EpochBaseline", None), "run", "baselines")
    patch.method(fastengine.PhaseEngine, "run_phase", _engine_path, _count_phase)
    patch.function(jamming, "materialize_jam_slots", "jamming.materialize")
    patch.method(topology.Topology, "any_neighbor_in", "topology.any_neighbor_in",
                 _count_rows("topology.any_neighbor_in_rows", 1, "device_ids"))
    patch.method(topology.Topology, "frontier_reachable", "topology.frontier_reachable")
    patch.method(topology.Topology, "nodes_in_disk", "topology.nodes_in_disk")
    patch.method(energy.LedgerArray, "charge_bulk_many", "energy.charge_bulk_many",
                 _count_rows("energy.charge_rows", 2, "indices"))
    for attr in ("mark_informed", "terminate_informed", "terminate_uninformed", "terminate_alice"):
        patch.method(core_state.ProtocolState, attr, "state.transitions")
    for attr in ("active_uninformed_array", "active_informed_array"):
        patch.method(core_state.ProtocolState, attr, "state.cohort_arrays")
    patch.method(core_state.ProtocolState, "record_unserved_request_phase", "quietrule.streaks")
    patch.method(quietrule.QuietRule, "budgets", "quietrule.budgets")
    patch.function(termination, "apply_request_phase", "termination.request_phase")
    for attr in ("round_phases", "propagation_step"):
        patch.method(core_phases.ScheduleBuilder, attr, "phases.schedule")
    for attr in ("observe_phase", "plan_phase", "observe_result"):
        patch.method(adversary_base.Adversary, attr, "adversary.plan")

    def count_put_bytes(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
        try:
            tracer.count("cache.put_bytes", args[0].path_for(args[1]).stat().st_size)
        except OSError:
            pass

    patch.method(cache.TrialCache, "get", "cache.get")
    patch.method(cache.TrialCache, "put", "cache.put", count_put_bytes)
    patch.function(registry, "run_experiment", "experiments.run")
    patch.function(runner, "run_sweep", "runner.sweep")

    original_timed_span = runner.timed_span

    @contextmanager
    def traced_timed_span(name: str) -> Iterator[None]:
        tracer.enter("runner." + name.replace("-", ""))
        try:
            with original_timed_span(name):
                yield
        finally:
            tracer.exit()

    patch.replace(runner, "timed_span", traced_timed_span)
    return patch
