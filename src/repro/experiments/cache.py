"""Content-addressed on-disk store for completed experiment trials.

Every trial an experiment runs is a pure function of a small, explicit input
tuple: the (picklable, top-level) trial function, the sweep-point labels the
per-trial seed was derived from, the derived seed itself, and the keyword
parameters the experiment passed.  :func:`trial_key` hashes that tuple — plus
a package-level :data:`CACHE_VERSION` salt and numpy's feature version, since
numpy does not promise identical ``Generator`` streams across feature
releases — into a stable content address, and :class:`TrialCache` maps
addresses to pickled trial records on disk.

Warm re-runs of a sweep (EXPERIMENTS.md regeneration, benchmark repeats,
interrupted sweeps resumed) therefore skip every trial they have already
computed, and a change to the simulation's semantics is published by bumping
:data:`CACHE_VERSION`, which invalidates every existing entry at once.

Two properties the runner relies on:

* **Hits are bit-identical to recomputation.**  Trials are deterministic in
  their inputs, and the key covers every input, so serving the pickled record
  is indistinguishable from re-running the trial.
* **Corruption degrades to a miss.**  A truncated or unreadable entry (e.g. a
  killed writer) is treated as absent and recomputed; writes go through a
  temporary file and an atomic :func:`os.replace` so readers never observe a
  partial entry.
* **Write failure degrades to no-cache.**  A store that cannot accept writes
  (disk full, read-only mount, permission error, a file squatting where a
  shard directory belongs) disables itself for the rest of the run with a
  single :class:`RuntimeWarning` instead of aborting the sweep — the cache is
  an accelerator, never a correctness dependency.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import shutil
import tempfile
import time
import warnings
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CACHE_VERSION", "stable_token", "trial_key", "TrialCache", "PruneStats"]

CACHE_VERSION = 4
"""Salt mixed into every trial key.

Bump this whenever a change alters what any trial computes (engine semantics,
protocol rules, record contents) without necessarily changing the trial
function's signature; existing stores then read as empty instead of serving
stale records.

Version history: 2 — the multi-hop request-phase quiet rule became per-node
and degree-aware by default (E11/E13 trial records changed).  4 — spatial
topologies always run on the CSR adjacency and the event-driven multi-hop
engine path (small-n E11/E13 trial records changed).
"""


def stable_token(value: object) -> str:
    """A canonical, process-independent string encoding of a cache-key input.

    Supports the value shapes experiments actually pass as labels/params —
    ``None``, booleans, numbers, strings, sequences, mappings, sets, and
    (frozen) dataclasses.  Anything else raises ``TypeError`` rather than
    falling back to ``repr``, whose output may embed memory addresses and
    silently produce unstable keys.
    """

    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        # repr of a float is shortest-round-trip and stable across processes.
        return repr(value)
    if isinstance(value, bytes):
        return f"bytes:{value.hex()}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={stable_token(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__module__}.{type(value).__qualname__}({fields})"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(stable_token(item) for item in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(stable_token(item) for item in value)) + "}"
    if isinstance(value, Mapping):
        items = sorted((stable_token(k), stable_token(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    raise TypeError(
        f"cannot build a stable cache token for {type(value).__qualname__!r} "
        f"({value!r}); pass plain data (numbers, strings, sequences, dataclasses) "
        "as trial labels/params"
    )


def trial_key(
    trial_fn: Callable[..., object],
    labels: Sequence[object],
    seed: int,
    params: Mapping[str, object],
) -> str:
    """The content address of one trial: sha-256 over every input that shapes it.

    The inputs include numpy's ``major.minor`` version: a numpy upgrade may
    change the random streams a trial draws, so its records are not reused.
    """

    numpy_feature = ".".join(np.__version__.split(".")[:2])
    payload = "\n".join(
        [
            f"cache-version={CACHE_VERSION}",
            f"numpy={numpy_feature}",
            f"fn={trial_fn.__module__}:{trial_fn.__qualname__}",
            f"labels={stable_token(tuple(labels))}",
            f"seed={int(seed)}",
            f"params={stable_token(dict(params))}",
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TrialCache:
    """A directory of pickled trial records, addressed by :func:`trial_key`.

    Layout is ``<root>/<first two hex chars>/<key>.pkl`` so that very large
    stores do not degrade into one directory with millions of entries.  The
    store is safe to share between concurrent runs: writes are atomic renames
    and a lost race simply overwrites one deterministic record with an
    identical one.

    The store degrades rather than aborts: the first unrecoverable write
    failure (disk full, read-only filesystem, permission denied) flips
    :attr:`disabled` for the rest of the run — reads return misses, writes
    become no-ops — and emits one :class:`RuntimeWarning` naming the cause.
    The sweep itself continues, merely uncached.

    ``torn_write_bytes`` is a chaos knob for tests: when set, every completed
    write is truncated to that many bytes, simulating a writer killed between
    ``write`` and ``fsync`` on a filesystem that tore the page — the next read
    of such an entry must degrade to a miss, never an exception.
    """

    def __init__(
        self, root: os.PathLike | str, *, torn_write_bytes: Optional[int] = None
    ) -> None:
        self.root = Path(root)
        self.torn_write_bytes = torn_write_bytes
        self.disabled = False
        self.disabled_reason: Optional[str] = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            self._disable(f"cannot create cache root {str(self.root)!r}: {exc}")

    def _disable(self, reason: str) -> None:
        """Switch the store off for the rest of the run, warning exactly once."""

        if self.disabled:
            return
        self.disabled = True
        self.disabled_reason = reason
        warnings.warn(
            f"trial cache disabled for the rest of this run: {reason}",
            RuntimeWarning,
            stacklevel=3,
        )

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored record for ``key``, or ``None`` on a miss (or corruption)."""

        if self.disabled:
            return None
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except Exception:
            # Unpickling corrupt bytes can raise nearly anything (ValueError,
            # UnpicklingError, EOFError, ImportError, ...); every failure mode
            # means the same thing here — treat the entry as absent.
            return None

    def put(self, key: str, record: Mapping[str, object]) -> None:
        """Store ``record`` under ``key``, or disable the store if it cannot.

        The write itself is atomic (temp file + :func:`os.replace`), so
        readers never observe a partial entry.  A write that fails with an
        :class:`OSError` (disk full, read-only mount, permission denied)
        disables the cache for the rest of the run instead of raising — with
        one special case: a *directory* squatting on the entry's path (e.g. a
        bad extraction) is removed and the write retried once, because that is
        local damage, not a failing filesystem.
        """

        if self.disabled:
            return
        try:
            self._write(key, record)
        except OSError as exc:
            path = self.path_for(key)
            if path.is_dir():
                try:
                    shutil.rmtree(path)
                    self._write(key, record)
                    return
                except OSError as retry_exc:
                    exc = retry_exc
            self._disable(f"write failed for {str(path)!r}: {exc}")

    def _write(self, key: str, record: Mapping[str, object]) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(dict(record), handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if self.torn_write_bytes is not None:
            # Chaos mode: tear the entry we just published, as a crashed
            # writer on a non-atomic filesystem would have.
            with path.open("r+b") as handle:
                handle.truncate(int(self.torn_write_bytes))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_days: Optional[float] = None,
    ) -> "PruneStats":
        """Evict entries so the store stops growing without bound.

        Two independent criteria, either or both of which may be given:

        * ``max_age_days`` — entries whose mtime is older than this are
          removed outright (a record that has not been touched in weeks
          belongs to a sweep nobody re-runs);
        * ``max_bytes`` — after the age pass, entries are kept newest-mtime
          first until the byte budget is exhausted and the rest are evicted
          (LRU by mtime: :meth:`get` hits refresh an entry's mtime, so
          recently *served* records survive, not just recently written ones).

        Eviction is best-effort and concurrency-safe: an entry that vanishes
        mid-scan (another pruner, a writer's rename) is simply skipped, and
        losing a race deletes at worst one reproducible record.  Empty shard
        directories are removed.  Returns a :class:`PruneStats` summary.
        """

        if max_bytes is None and max_age_days is None:
            raise ValueError("prune needs max_bytes and/or max_age_days")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        if max_age_days is not None and max_age_days < 0:
            raise ValueError(f"max_age_days must be non-negative, got {max_age_days}")

        entries = []
        for path in self.root.glob("*/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        scanned = len(entries)
        scanned_bytes = sum(size for _, size, _ in entries)

        doomed = []
        if max_age_days is not None:
            # repro-lint: disable=R1 -- age-based pruning is wall-clock store policy; it never feeds a trial result or seed
            horizon = time.time() - max_age_days * 86400.0
            doomed = [entry for entry in entries if entry[0] < horizon]
            entries = [entry for entry in entries if entry[0] >= horizon]
        if max_bytes is not None:
            entries.sort(key=lambda entry: entry[0], reverse=True)  # newest first
            kept_bytes = 0
            for index, (mtime, size, path) in enumerate(entries):
                if kept_bytes + size > max_bytes:
                    doomed.extend(entries[index:])
                    entries = entries[:index]
                    break
                kept_bytes += size

        removed = removed_bytes = 0
        for _, size, path in doomed:
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            removed_bytes += size
        for shard in self.root.iterdir():
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when empty
                except OSError:
                    pass
        return PruneStats(
            scanned=scanned,
            scanned_bytes=scanned_bytes,
            removed=removed,
            removed_bytes=removed_bytes,
        )

    def touch(self, key: str) -> None:
        """Refresh an entry's mtime (called by cache hits to keep LRU honest).

        Silent when the entry has vanished (a concurrent :meth:`prune`, or a
        just-pruned key being touched by a hit served moments earlier): the
        record was already served from the bytes read, so there is nothing to
        refresh and nothing to report.
        """

        if self.disabled:
            return
        try:
            os.utime(self.path_for(key))
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrialCache(root={str(self.root)!r})"


@dataclasses.dataclass(frozen=True)
class PruneStats:
    """Summary of one :meth:`TrialCache.prune` pass."""

    scanned: int
    scanned_bytes: int
    removed: int
    removed_bytes: int

    @property
    def kept(self) -> int:
        return self.scanned - self.removed

    @property
    def kept_bytes(self) -> int:
        return self.scanned_bytes - self.removed_bytes

    def describe(self) -> str:
        return (
            f"pruned {self.removed}/{self.scanned} entries "
            f"({self.removed_bytes} of {self.scanned_bytes} bytes); "
            f"{self.kept} entries ({self.kept_bytes} bytes) kept"
        )
