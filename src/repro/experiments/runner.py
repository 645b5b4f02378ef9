"""Parallel, cache-aware, fault-tolerant execution of experiment trials.

The experiments in this package are Monte-Carlo sweeps: a grid of sweep
points, each repeated for ``settings.trials`` independent seeds, every trial a
pure function of its seed and parameters.  That workload is embarrassingly
parallel, and :func:`run_sweep` exploits it: experiments describe their whole
sweep as a list of :class:`TrialSpec` work units, and the runner fans the
``len(specs) × settings.trials`` trials out across ``settings.resolved_jobs``
worker processes (``jobs=1`` is a plain in-process loop — the serial
fallback), consults the content-addressed :class:`~repro.experiments.cache.TrialCache`
for already-computed trials, and returns records grouped per spec in
deterministic submission order.

Three invariants make parallel runs **bit-identical** to serial ones:

* **Seeds are derived exactly as the serial harness derives them** —
  ``settings.trial_seed(*spec.labels, trial_index)`` — so a record's seed does
  not depend on which worker computed it or in what order.
* **Trial functions are top-level module functions** taking
  ``(seed, **params)`` with picklable params.  They carry no shared state, so
  process boundaries cannot perturb them (and closures, which cannot cross a
  process boundary, are rejected by pickling up front: a pooled sweep
  pickles each spec's function and params before it starts a worker, and
  raises :class:`TypeError` naming the spec's labels).
* **Results are ordered by (spec index, trial index)**, never by completion
  order.

Caching happens in the parent: hits are served before any work is dispatched,
misses are executed (in the pool or inline) and written back afterwards, so
workers never touch the store concurrently.

Fault tolerance
---------------

Failure is an ordinary input to the execution layer, governed by the sweep's
:class:`~repro.experiments.faults.FaultPolicy` (``settings.fault_policy``):

* a **dead worker** (``BrokenProcessPool``) breaks only the chunks that were
  in flight: the pool is respawned and those units are re-dispatched;
* a **hung chunk** that exceeds ``timeout_s`` is killed with its pool and
  re-dispatched the same way;
* a unit that keeps failing is re-dispatched at once, on its own, up to
  ``max_retries`` times, then **quarantined** into an explicit
  :class:`~repro.experiments.faults.TrialFailure` sentinel in the results
  (``strict=True`` raises :class:`~repro.experiments.faults.QuarantineError`
  instead), so one poisoned configuration cannot kill a 10,000-trial grid;
* once pool breakage exceeds ``max_pool_respawns`` the sweep **degrades to
  serial** in-process execution with a single warning.

Retries consume no RNG — a unit's seed is a pure function of
``(labels, trial_index)`` — so a sweep that recovered from faults is
bit-identical to an undisturbed one.  Each handling decision is published as
a ``"fault"`` event (:func:`~repro.experiments.faults.fault_event`).

Observability
-------------

The runner reports through one event stream: the sinks opened with
:func:`repro.observability.trace.observe`.
Events are built in the parent only, after the work they describe, so they
cannot touch the invariants above:

* ``"progress"`` — one per completed work unit: cache hits during the scan,
  computed trials as the streaming collection receives them (payload in
  :mod:`repro.observability.progress`);
* ``"fault"`` — one per fault-handling decision;
* ``"span"`` — :func:`timed_span` attributes wall-clock to the runner's
  stages (``schedule``, ``fan-out``, ``reassemble``);
  ``tools/trace_report.py`` renders them.

:class:`ExecutionStats` is a sink that folds ``"progress"`` and ``"fault"``
events into counters (:func:`track_stats` opens one).  Whether any open sink
wants progress or spans is decided once per sweep and once per stage; with
none, the runner never reads the clock, so instrumented and plain sweeps
produce byte-identical results and documents.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..observability.trace import TraceEvent, observe, observers
from .cache import TrialCache, trial_key
from .faults import FaultInjector, QuarantineError, TrialFailure, fault_event
from .harness import ExperimentSettings

__all__ = [
    "TrialSpec",
    "ExecutionStats",
    "track_stats",
    "timed_span",
    "run_sweep",
]


@dataclass(frozen=True)
class TrialSpec:
    """One sweep point: a trial function plus its seed labels and parameters.

    Attributes
    ----------
    trial_fn:
        A **top-level** function ``fn(seed, **params) -> dict``.  Top-level
        because workers receive it by pickled reference (module + qualname);
        a closure or lambda would fail to cross the process boundary.
    labels:
        The sweep-point labels fed into ``settings.trial_seed``: trial ``i``
        of the point runs with ``settings.trial_seed(*labels, i)``.
    params:
        Keyword arguments forwarded to ``trial_fn``.  Must be picklable plain
        data; they are also hashed into the trial's cache key.
    """

    trial_fn: Callable[..., Dict[str, object]]
    labels: Tuple[object, ...]
    params: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def point(
        cls, trial_fn: Callable[..., Dict[str, object]], *labels: object, **params: object
    ) -> "TrialSpec":
        """Build a spec from positional seed labels and keyword parameters."""

        return cls(trial_fn=trial_fn, labels=tuple(labels), params=params)


_FAULT_COUNTERS = {
    "retry": "retries",
    "timeout": "timeouts",
    "worker-death": "worker_deaths",
    "quarantine": "quarantined",
    "cache-disabled": "cache_disabled",
}


@dataclass
class ExecutionStats:
    """Runner counters folded from ``"progress"`` and ``"fault"`` events.

    A sink for :func:`~repro.observability.trace.observe`.  ``executed``
    counts trials actually computed (serially or in a worker);
    ``cache_hits`` / ``cache_misses`` count the store lookups of completed
    units when a cache is active.  The fault counters record handling
    *incidents*: ``retries`` is unit re-dispatches (whatever the cause),
    ``timeouts`` and ``worker_deaths`` are pool-level kill/respawn incidents,
    ``quarantined`` counts trials given up on, and ``cache_disabled`` counts
    stores that shut themselves off mid-run.
    """

    enabled: ClassVar[bool] = True
    kinds: ClassVar[FrozenSet[str]] = frozenset({"progress", "fault"})

    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    quarantined: int = 0
    cache_disabled: int = 0

    def record(self, event: TraceEvent) -> None:
        data = event.data
        if event.kind == "progress":
            if data["source"] == "cache":
                self.cache_hits += 1
            elif data["source"] == "run":
                self.executed += 1
            if data["cache_miss"]:
                self.cache_misses += 1
        elif event.kind == "fault":
            counter = _FAULT_COUNTERS.get(str(data["fault"]))
            if counter is not None:
                setattr(self, counter, getattr(self, counter) + 1)


@contextmanager
def track_stats() -> Iterator[ExecutionStats]:
    """Scope runner counters: everything run inside accrues to a fresh object.

    ::

        with track_stats() as stats:
            run_experiment("E11", settings)
        print(stats.executed, stats.cache_hits, stats.cache_misses)

    Shorthand for ``observe(ExecutionStats())``; scopes nest — each open
    scope counts every sweep run inside it.
    """

    stats = ExecutionStats()
    with observe(stats):
        yield stats


@contextmanager
def timed_span(name: str) -> Iterator[None]:
    """Attribute the wall-clock of the enclosed block to ``name``.

    A profiling primitive, not a profiler: the block's duration goes to the
    open sinks as one ``"span"`` event (stage name in ``phase``, seconds in
    ``data["seconds"]``).  With no sink wanting spans it yields immediately
    without reading the clock, so permanently-wrapped code (the runner's
    stages) costs one registry scan per span when unobserved.
    """

    sinks = observers("span")
    if not sinks:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        event = TraceEvent(
            kind="span", phase=name, data={"seconds": time.perf_counter() - start}
        )
        for sink in sinks:
            sink.record(event)


@dataclass
class _Unit:
    """One trial's mutable dispatch state inside a single :func:`run_sweep` call."""

    spec_index: int
    trial_index: int
    labels: Tuple[object, ...]
    seed: int
    key: Optional[str]
    trial_fn: Callable[..., Dict[str, object]]
    params: Dict[str, object]
    attempts: int = 0  # dispatches so far; the Nth dispatch carries attempt=N-1


@dataclass
class _Chunk:
    """A batch of units dispatched to one pool task."""

    units: List[_Unit]
    deadline: float = 0.0  # monotonic dispatch deadline (0 = no watchdog)


def _run_chunk(
    items: List[Tuple], injector: Optional[FaultInjector]
) -> List[Tuple[object, ...]]:
    """Execute one batch of work units inside a worker; the pool's task target.

    Returns one outcome per item, aligned by position: ``("ok", record)`` or
    ``("error", type_name, message)``.  Per-unit exceptions are captured here
    (not raised) so one failing trial cannot discard its chunk-mates' finished
    work; ``KeyboardInterrupt`` still propagates so Ctrl-C tears workers down.
    """

    outcomes: List[Tuple] = []
    for labels, trial_index, attempt, trial_fn, seed, params in items:
        if injector is not None:
            injector.apply_in_worker(labels, trial_index, attempt)
        try:
            outcomes.append(("ok", trial_fn(seed, **params)))
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 - converted to data, not swallowed
            outcomes.append(("error", type(exc).__name__, str(exc)))
    return outcomes


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` where available: cheapest start-up, inherits sys.path."""

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _chunksize(pending: int, jobs: int) -> int:
    """Batch units per pool task: ~4 chunks per worker amortises IPC without
    starving the tail (one giant chunk per worker would serialise stragglers)."""

    return max(1, pending // (jobs * 4))


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: cancel queued work, kill workers, reap them.

    ``shutdown(wait=True)`` would block forever behind a hung worker, and
    ``shutdown(wait=False)`` alone would orphan it — so the worker processes
    are terminated explicitly and joined with a bound.
    """

    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-reaped race
            pass
    for process in processes:
        try:
            process.join(timeout=2.0)
        except Exception:  # pragma: no cover - already-reaped race
            pass


def run_sweep(
    specs: Sequence[TrialSpec], settings: ExperimentSettings
) -> List[List[Dict[str, object]]]:
    """Run every spec's trials, parallel and cache-aware; records per spec, in order.

    Parameters
    ----------
    specs:
        The sweep, one :class:`TrialSpec` per point.
    settings:
        The sweep's whole configuration: ``trials`` and the seed derivation,
        plus ``resolved_jobs``, ``resolved_cache_dir`` (no directory means
        caching is off), ``fault_policy`` and ``fault_injector``.  Events go
        to the sinks opened with :func:`~repro.observability.trace.observe`.

    Returns
    -------
    ``results[i][t]`` is the record of trial ``t`` of ``specs[i]``, identical
    field-for-field to what a serial loop would have produced — except that a
    trial quarantined under the fault policy yields a
    :class:`~repro.experiments.faults.TrialFailure` sentinel in its slot.

    Raises
    ------
    QuarantineError
        Only with ``settings.fault_policy.strict``: the first trial to exhaust
        its retry budget aborts the sweep.
    KeyboardInterrupt
        Re-raised after a clean teardown: workers are terminated (never
        orphaned), every trial that finished before the interrupt has been
        written to the cache, and a one-line partial-progress summary is
        printed to stderr — re-running the same sweep resumes warm.
    TypeError
        When the sweep needs worker processes and a spec's trial function or
        params cannot be pickled; raised before any worker starts.
    """

    jobs = settings.resolved_jobs
    policy = settings.fault_policy
    injector = settings.fault_injector
    cache_dir = settings.resolved_cache_dir
    cache = TrialCache(cache_dir) if cache_dir is not None else None

    fault_sinks = observers("fault")
    progress_sinks = observers("progress")

    def publish(event: TraceEvent) -> None:
        for sink in fault_sinks:
            sink.record(event)

    cache_disabled_noted = False

    def note_cache_disabled() -> None:
        # The store warns (once) when it disables itself; the runner's job is
        # to make that visible to stats/trace consumers, also exactly once.
        nonlocal cache_disabled_noted
        if cache is not None and cache.disabled and not cache_disabled_noted:
            cache_disabled_noted = True
            publish(fault_event("cache-disabled", detail=cache.disabled_reason or ""))

    note_cache_disabled()

    total = len(specs) * settings.trials
    completed = 0
    sweep_start = time.perf_counter() if progress_sinks else 0.0

    def progressed(
        labels: Tuple[object, ...], trial_index: int, source: str, cache_miss: bool
    ) -> None:
        """Publish one completed work unit (``source``: cache/run/quarantine)."""

        nonlocal completed
        if not progress_sinks:
            return
        completed += 1
        event = TraceEvent(
            kind="progress",
            data={
                "labels": repr(labels),
                "trial_index": trial_index,
                "source": source,
                "cache_miss": cache_miss,
                "completed": completed,
                "total": total,
                "elapsed": time.perf_counter() - sweep_start,
            },
        )
        for sink in progress_sinks:
            sink.record(event)

    results: List[List[Optional[Dict[str, object]]]] = [
        [None] * settings.trials for _ in specs
    ]

    pending: List[_Unit] = []
    with timed_span("schedule"):
        for spec_index, spec in enumerate(specs):
            for trial_index in range(settings.trials):
                seed = settings.trial_seed(*spec.labels, trial_index)
                key: Optional[str] = None
                if cache is not None:
                    key = trial_key(spec.trial_fn, spec.labels, seed, spec.params)
                    record = cache.get(key)
                    if record is not None:
                        # Refresh the entry's mtime so prune()'s LRU order keeps
                        # recently *served* records, not just recently written ones.
                        cache.touch(key)
                        results[spec_index][trial_index] = record
                        progressed(spec.labels, trial_index, "cache", False)
                        continue
                pending.append(
                    _Unit(
                        spec_index=spec_index,
                        trial_index=trial_index,
                        labels=spec.labels,
                        seed=seed,
                        key=key,
                        trial_fn=spec.trial_fn,
                        params=dict(spec.params),
                    )
                )

    def complete(unit: _Unit, record: Dict[str, object]) -> None:
        """Store, cache (and maybe chaos-corrupt) one computed record."""

        results[unit.spec_index][unit.trial_index] = record
        if cache is not None and unit.key is not None:
            cache.put(unit.key, record)
            if injector is not None and injector.corrupts(unit.labels, unit.trial_index):
                injector.corrupt_entry(cache, unit.key)
            note_cache_disabled()
        progressed(unit.labels, unit.trial_index, "run", unit.key is not None)

    def quarantine(unit: _Unit, kind: str, error_type: str, message: str) -> None:
        """Give up on one unit: sentinel in its slot, or raise under strict."""

        failure = TrialFailure(
            labels=unit.labels,
            trial_index=unit.trial_index,
            seed=unit.seed,
            kind=kind,
            error_type=error_type,
            error_message=message,
            attempts=unit.attempts,
        )
        publish(
            fault_event(
                "quarantine",
                labels=unit.labels,
                trial_index=unit.trial_index,
                attempt=unit.attempts,
                detail=f"[{kind}] {error_type}: {message}",
            )
        )
        progressed(unit.labels, unit.trial_index, "quarantine", unit.key is not None)
        if policy.strict:
            raise QuarantineError(failure)
        results[unit.spec_index][unit.trial_index] = failure

    def retry(unit: _Unit, kind: str, detail: str) -> bool:
        """Burn one failure: ``True`` when the unit may be re-dispatched,
        ``False`` when its budget is exhausted (it has been quarantined)."""

        if unit.attempts <= policy.max_retries:
            publish(
                fault_event(
                    "retry",
                    labels=unit.labels,
                    trial_index=unit.trial_index,
                    attempt=unit.attempts,
                    detail=detail,
                )
            )
            return True
        error_type, _, message = detail.partition(": ")
        quarantine(unit, kind, error_type or kind, message)
        return False

    def run_serially(units: Sequence[_Unit]) -> None:
        """The in-process path: ``jobs=1`` and the degraded-pool fallback.

        Retries and quarantines apply exactly as in the pooled path; injected
        crashes and hangs are inert here by construction
        (:meth:`FaultInjector.apply_in_worker` refuses to fire outside a
        worker process), so degradation always makes forward progress.
        """

        for unit in units:
            while True:
                unit.attempts += 1
                if injector is not None:
                    injector.apply_in_worker(unit.labels, unit.trial_index, unit.attempts - 1)
                try:
                    record = unit.trial_fn(unit.seed, **unit.params)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    if retry(unit, "error", f"{type(exc).__name__}: {exc}"):
                        continue
                    break
                complete(unit, record)
                break

    def run_pooled(units: Sequence[_Unit], workers: int) -> None:
        _assert_picklable(units)
        queue: List[_Chunk] = []
        size = _chunksize(len(units), workers)
        block: List[_Unit] = []
        for unit in units:
            block.append(unit)
            if len(block) == size:
                queue.append(_Chunk(units=block))
                block = []
        if block:
            queue.append(_Chunk(units=block))

        breakages = 0
        degraded = False
        inflight: Dict[object, _Chunk] = {}
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())

        def requeue(chunk_units: Sequence[_Unit], kind: str, detail: str) -> None:
            # Each unit that may retry becomes its own single-unit chunk, so a
            # poisoned unit retries alone and its innocent former chunk-mates
            # cannot be taken down with it again.
            for unit in chunk_units:
                if retry(unit, kind, detail):
                    queue.append(_Chunk(units=[unit]))

        def breakage(kind: str, detail: str, victims: List[_Unit]) -> None:
            nonlocal pool, breakages, degraded
            breakages += 1
            first = victims[0] if victims else None
            publish(
                fault_event(
                    kind,
                    labels=first.labels if first else (),
                    trial_index=first.trial_index if first else -1,
                    attempt=first.attempts if first else 0,
                    detail=detail,
                )
            )
            _terminate_pool(pool)
            for chunk in inflight.values():
                victims.extend(chunk.units)
            inflight.clear()
            requeue(victims, kind, detail)
            if breakages > policy.max_pool_respawns:
                degraded = True
                publish(
                    fault_event(
                        "pool-degraded",
                        detail=f"{breakages} pool breakages exceed "
                        f"max_pool_respawns={policy.max_pool_respawns}",
                    )
                )
                warnings.warn(
                    f"parallel sweep degraded to serial execution after "
                    f"{breakages} worker-pool breakages (last: {detail})",
                    RuntimeWarning,
                    stacklevel=3,
                )
            else:
                pool = ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())

        try:
            while (queue or inflight) and not degraded:
                # Dispatch queued chunks while a worker is free.
                while queue and len(inflight) < workers and not degraded:
                    chunk = queue.pop(0)
                    items = []
                    for unit in chunk.units:
                        items.append(
                            (
                                unit.labels,
                                unit.trial_index,
                                unit.attempts,
                                unit.trial_fn,
                                unit.seed,
                                unit.params,
                            )
                        )
                        unit.attempts += 1
                    if policy.timeout_s is not None:
                        chunk.deadline = time.monotonic() + policy.timeout_s
                    try:
                        future = pool.submit(_run_chunk, items, injector)
                    except BrokenProcessPool as exc:
                        breakage(
                            "worker-death",
                            str(exc) or "pool broken at submit",
                            list(chunk.units),
                        )
                        continue
                    inflight[future] = chunk
                if degraded or not inflight:
                    continue

                timeout: Optional[float] = None
                if policy.timeout_s is not None:
                    wake_at = min(chunk.deadline for chunk in inflight.values())
                    timeout = max(0.0, wake_at - time.monotonic())
                done, _ = wait(set(inflight), timeout=timeout, return_when=FIRST_COMPLETED)

                if not done:
                    now = time.monotonic()
                    expired: List[_Unit] = []
                    for future, chunk in list(inflight.items()):
                        if chunk.deadline and chunk.deadline <= now:
                            expired.extend(chunk.units)
                            del inflight[future]
                    if expired:
                        breakage(
                            "timeout",
                            f"chunk exceeded timeout_s={policy.timeout_s}",
                            expired,
                        )
                    continue

                broken_victims: List[_Unit] = []
                broken_detail = ""
                for future in done:
                    chunk = inflight.pop(future)
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool as exc:
                        broken_victims.extend(chunk.units)
                        broken_detail = str(exc) or type(exc).__name__
                        continue
                    for unit, outcome in zip(chunk.units, outcomes):
                        if outcome[0] == "ok":
                            complete(unit, outcome[1])
                        elif retry(unit, "error", f"{outcome[1]}: {outcome[2]}"):
                            queue.append(_Chunk(units=[unit]))
                if broken_victims:
                    breakage(
                        "worker-death",
                        broken_detail or "worker process died",
                        broken_victims,
                    )
            # Exited the loop: normal completion (empty queue) or degradation.
            remaining = [unit for chunk in queue for unit in chunk.units]
        except BaseException:
            _terminate_pool(pool)
            raise
        if degraded:
            _terminate_pool(pool)
            run_serially(remaining)
        else:
            pool.shutdown(wait=True)

    if pending:
        workers = min(jobs, len(pending))
        try:
            with timed_span("fan-out"):
                if workers <= 1:
                    run_serially(pending)
                else:
                    run_pooled(pending, workers)
        except KeyboardInterrupt:
            finished = sum(
                1 for spec_rows in results for record in spec_rows if record is not None
            )
            flushed = " and flushed to the trial cache" if cache is not None else ""
            print(
                f"run_sweep interrupted: {finished}/{total} trials finished{flushed}; "
                f"re-running the sweep resumes from there",
                file=sys.stderr,
            )
            raise

    with timed_span("reassemble"):
        out: List[List[Dict[str, object]]] = []
        for spec_index, records in enumerate(results):
            if any(record is None for record in records):  # pragma: no cover - invariant
                raise RuntimeError(
                    f"sweep left unfilled trials for spec {spec_index} "
                    f"({specs[spec_index].labels!r})"
                )
            out.append(records)  # type: ignore[arg-type] - checked above
    return out


def _assert_picklable(units: Sequence[_Unit]) -> None:
    """Pickle each distinct spec's ``(trial_fn, params)`` before a pool starts.

    A closure or lambda that reached the pool would kill its feeder thread
    instead of raising here, in the caller.
    """

    checked: Set[int] = set()
    for unit in units:
        if unit.spec_index in checked:
            continue
        checked.add(unit.spec_index)
        try:
            pickle.dumps((unit.trial_fn, unit.params))
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise TypeError(
                f"spec {unit.labels!r}: trial function and params must be "
                f"picklable to run in worker processes ({exc})"
            ) from exc
