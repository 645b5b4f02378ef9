"""Deterministic random-number management.

All randomness in the simulator flows through a :class:`RandomSource`, which
wraps :class:`numpy.random.Generator` and hands out *named substreams*.  Two
properties matter for a reproduction of a randomized-protocol paper:

* **Reproducibility** — a run is a pure function of its seed.  Every entity
  (Alice, each node, the adversary, the channel) draws from its own substream,
  so adding an entity or reordering draws in one entity never perturbs another.
* **Independence** — the paper's analysis relies on protocol participants
  acting independently per slot; independent substreams make that explicit.

Substreams are derived with :class:`numpy.random.SeedSequence.spawn`, the
recommended mechanism for statistically independent child generators.

:func:`binomial_iid` stands in for ``Generator.binomial(n, p, size=size)``
when a phase draws one cost per node of a large cohort.  Below
:data:`WINDOW_MIN_SIZE` draws, for array counts, ``size=None``, ``p`` of 0
or 1 and invalid input it *is* ``generator.binomial``: the same samples, the
same generator state afterwards and the same errors.  A scalar count drawn
for :data:`WINDOW_MIN_SIZE` or more nodes at a mean ``min(p, 1 - p)·n`` of
at most :data:`WINDOW_MAX_MEAN` comes instead from the *same distribution*
by inversion: one ``generator.random(size)`` call, each uniform looked up in
the binomial's cumulative table over a window around the mean through a
guide table (Chen & Asau 1974; Devroye 1986, §III.2).  numpy runs an
``O(mean)`` loop per draw up to mean 30 and the BTPE rejection sampler
(Kachitvichyanukul & Schmeiser 1988) above it; the table costs one build
and a few array passes at any mean.

Exactness.  The window ``[lo, hi]`` leaves out less than ``2^-64`` of the
binomial's mass (Bernstein's inequality, :func:`_window`), below the
``2^-53`` resolution of the uniforms.  Inside it the table is the binomial
pmf up to floating-point rounding: weights from the mode by the exact ratio
``P(x+1)/P(x) = (n - x)·p / ((x + 1)·(1 - p))``, normalised by their sum.
The lookup returns exactly the first table index whose cumulative value
exceeds the uniform, so a draw is ``lo`` plus that index (``n`` minus it for
``p > 1/2``).  Samples differ from numpy's above the floor, so results there
are reproducible per seed but not numpy's stream; a call consumes exactly
``size`` doubles.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, Optional

import numpy as np

from .errors import ConfigurationError

__all__ = ["RandomSource", "binomial_iid", "derive_seed"]

# The smallest draw that takes the windowed table.  Measured with numpy
# 2.4.6 on a 2-vCPU x86-64 VM (best of nine, sizes 512–4,096, means
# 0.5–5·10^4): the table costs 20–75 µs to build over means 0.5–2·10^4 plus
# about 8 ns per draw; numpy's inversion loop costs up to about 80 ns per
# draw (mean 10) and BTPE about 27 ns (mean 10^4).  A 512-draw by table was
# slower than numpy at every mean but 10; a 1,024-draw was faster at means
# 2–300 (mean 10: 35 against 85 µs) and slower below 1 and above about
# 1,000; a 4,096-draw was faster at every mean up to the cap.
WINDOW_MIN_SIZE = 1_024

# The largest mean ``min(p, 1 - p)·n`` that takes the windowed table: the
# window, and with it the build, grows as the standard deviation.  On the
# same host a 4,096-draw took 89 against numpy's 110 µs at mean 10^4, 103
# against 108 µs at 2·10^4 and 113 against 109 µs at 3·10^4.
WINDOW_MAX_MEAN = 20_000

# ``ln 2^65``: each tail left out of the window holds less than ``2^-65``.
_LOG_TAIL_BOUND = 65.0 * math.log(2.0)


def _stable_label_hash(label: object) -> int:
    """A process-independent 32-bit hash of a stream label.

    The built-in ``hash`` is salted per interpreter process for strings, which
    would make runs reproducible only within a single process; CRC-32 of the
    label's ``repr`` is stable everywhere.
    """

    return zlib.crc32(repr(label).encode("utf-8")) & 0xFFFFFFFF


def derive_seed(seed: int, *labels: object) -> int:
    """Derive a child seed from ``seed`` and a sequence of hashable labels.

    The derivation is deterministic and label-order sensitive, making it easy
    to construct distinct but reproducible seeds for repeated trials, e.g.
    ``derive_seed(base, "E1", trial_index)``.
    """

    entropy = [seed & 0xFFFFFFFF]
    for label in labels:
        entropy.append(_stable_label_hash(label))
    seq = np.random.SeedSequence(entropy)
    return int(seq.generate_state(1, dtype=np.uint32)[0])


class RandomSource:
    """A seeded source of independent random substreams.

    Parameters
    ----------
    seed:
        Non-negative integer seed.  Two :class:`RandomSource` instances built
        from the same seed produce identical streams for identical requests.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise ConfigurationError(f"seed must be an integer, got {type(seed).__name__}")
        if seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)
        self._root = np.random.SeedSequence(self._seed)
        self._streams: Dict[str, np.random.Generator] = {}
        # A private counter used to spawn children deterministically in the
        # order streams are first requested.
        self._spawned: Dict[str, np.random.SeedSequence] = {}

    @property
    def seed(self) -> int:
        """The root seed this source was constructed with."""

        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the substream registered under ``name``, creating it if needed.

        Streams are memoised: requesting the same name twice returns the same
        generator object, preserving its internal state across calls.
        """

        if name not in self._streams:
            child = np.random.SeedSequence(
                [self._seed & 0xFFFFFFFF, _stable_label_hash(name)]
            )
            self._spawned[name] = child
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def generator_for(self, kind: str, identifier: Optional[object] = None) -> np.random.Generator:
        """Convenience wrapper building a stream name from a kind and id.

        ``generator_for("node", 17)`` and ``generator_for("alice")`` give the
        idiomatic naming used throughout the engines.
        """

        name = kind if identifier is None else f"{kind}:{identifier}"
        return self.stream(name)

    def spawn(self, label: object) -> "RandomSource":
        """Create an independent child :class:`RandomSource`.

        Used by the experiment harness to give each trial its own source
        without coupling trial outcomes to each other.
        """

        return RandomSource(derive_seed(self._seed, label))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(seed={self._seed}, streams={sorted(self._streams)})"


def binomial_iid(
    generator: np.random.Generator,
    n: "int | np.ndarray",
    p: float,
    size: "int | tuple | None",
) -> "int | np.ndarray":
    """``size`` independent ``Binomial(n, p)`` draws, cheaply for large cohorts.

    A count of 0 returns ``int64`` zeros without touching the generator
    (numpy consumes no bits for ``n = 0``).  A scalar count ``n > 0`` with
    ``0 < p < 1``, an int ``size`` of at least :data:`WINDOW_MIN_SIZE` and a
    mean ``min(p, 1 - p)·n`` of at most :data:`WINDOW_MAX_MEAN` takes the
    windowed table (module docstring): the same distribution, one uniform
    per draw.  Every other draw is ``generator.binomial`` unchanged, so it
    returns numpy's samples and raises numpy's errors.
    """

    if not isinstance(n, (int, np.integer)) or not isinstance(p, float) or size is None:
        return generator.binomial(n, p, size=size)
    count = int(n)
    if count == 0 and 0.0 <= p <= 1.0:
        return np.zeros(size, dtype=np.int64)
    mirrored = p > 0.5
    r = 1.0 - p if mirrored else p
    if not (
        isinstance(size, (int, np.integer))
        and size >= WINDOW_MIN_SIZE
        and 0 < count < 2**63
        and 0.0 < p < 1.0
        and r * count <= WINDOW_MAX_MEAN
    ):
        return generator.binomial(n, p, size=size)
    drawn = _windowed_inversion(generator, count, r, int(size))
    return count - drawn if mirrored else drawn


def _window(n: int, r: float) -> "tuple[int, int]":
    """The values ``[lo, hi]`` outside which ``Binomial(n, r)`` has mass below ``2^-64``.

    Bernstein's inequality for a sum of ``n`` Bernoulli(r) variables,
    centred, each within 1 of its mean and of variance ``v = n·r·(1 - r)``
    in total: ``P(X - n·r >= t) <= exp(-t^2 / (2·(v + t/3)))``, and the same
    for ``n·r - X``.  Each tail is below ``2^-65`` once
    ``t^2 - (2L/3)·t - 2L·v >= 0`` with ``L = ln 2^65``, i.e. from the root
    ``t = L/3 + sqrt(L^2/9 + 2L·v)``.
    """

    mean = n * r
    t = _LOG_TAIL_BOUND / 3.0 + math.sqrt(
        _LOG_TAIL_BOUND * _LOG_TAIL_BOUND / 9.0 + 2.0 * _LOG_TAIL_BOUND * mean * (1.0 - r)
    )
    return max(0, math.floor(mean - t)), min(n, math.ceil(mean + t))


def _windowed_inversion(
    generator: np.random.Generator, n: int, r: float, size: int
) -> np.ndarray:
    """``size`` ``Binomial(n, r)`` draws for ``0 < r <= 1/2``, one uniform each."""

    lo, hi = _window(n, r)
    # Weights relative to the mode, by the pmf ratio recurrence outwards:
    # ratio[i] = P(lo+i+1)/P(lo+i).
    mode = min(int((n + 1) * r), hi) - lo
    x = np.arange(lo, hi, dtype=float)
    ratio = (n - x) * (r / (1.0 - r)) / (x + 1.0)
    below = np.cumprod(1.0 / ratio[mode - 1 :: -1])[::-1] if mode else ()
    cdf = np.cumsum(np.concatenate((below, [1.0], np.cumprod(ratio[mode:]))))
    cdf /= cdf[-1]
    # A power-of-two bucket count makes ``u·buckets`` and each bucket's lower
    # end ``j/buckets`` exact, so guide[j], the number of entries at or below
    # j/buckets, is the first index a uniform in bucket j can draw.
    buckets = 1 << (cdf.size - 1).bit_length()
    edges = np.ceil(cdf * buckets).astype(np.intp)
    guide = np.cumsum(np.bincount(edges, minlength=buckets + 1)[:buckets])
    uniforms = generator.random(size)
    drawn = guide[(uniforms * buckets).astype(np.intp)]
    # One step resolves a bucket holding at most one edge; the draws from
    # crowded buckets are still at or below their entry and are redone.
    drawn += cdf[drawn] <= uniforms
    crowded = cdf[drawn] <= uniforms
    if crowded.any():
        rows = np.flatnonzero(crowded)
        drawn[rows] = np.searchsorted(cdf, uniforms[rows], side="right")
    return drawn + lo
