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

:func:`binomial_iid` is a drop-in for ``Generator.binomial(n, p, size=size)``
that returns the same array and leaves the generator in the same state.  For
a scalar count in numpy's inversion region (``min(p, 1 - p)·n ≤ 30``) each
of numpy's draws is a fixed function of one uniform double: walk numpy's own
``px`` recurrence until the running sum passes the uniform (Kachitvichyanukul
& Schmeiser 1988).  So a large draw takes ``size`` uniforms and looks each one
up in the cumulative table through a guide table (Chen & Asau 1974; Devroye
1986, §III.2) instead of running numpy's ``O(mean)`` loop per draw.  A
uniform within :data:`EDGE_TOLERANCE` of a table edge, where numpy's
sequential ``U -= px`` and the table's cumulative sum may round to different
sides, or past numpy's ``bound``, where numpy draws again, rewinds the
generator and defers the whole draw to numpy; identity therefore holds by
construction, not in probability.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, Optional

import numpy as np

from .errors import ConfigurationError

__all__ = ["RandomSource", "binomial_iid", "derive_seed"]

# Expected inversion-loop work, ``size·(mean + 1)`` draws plus loop steps,
# above which a draw takes the table path.  Measured with numpy 2.4.6 on a
# 2-vCPU x86-64 VM (best of five, means 0.5–28, sizes 256–8,192):
# ``Generator.binomial`` costs about 1.5 µs + 16 ns per draw + 6.3 ns per
# loop step, the table path 20–37 µs to build (more terms at higher means)
# + 8.5 ns per draw.  Every measured draw above 8,000 was faster by table
# (size 4,096 at mean 1: 61 against 92 µs), and a 256-draw, whose work is at
# most 256·31 = 7,936, always stays with numpy.
TABLE_MIN_WORK = 8_000

# Half-width of the band around each cumulative-table edge in which a uniform
# rewinds to numpy.  numpy decides ``U > C_k`` by ``k`` sequential
# subtractions and the table by ``k`` sequential additions, each rounding by
# at most 2^-53 on values ≤ 1; with at most 87 terms (``bound`` ≤ 30 +
# 10·√31) the two differ by under 2·87·2^-53 ≈ 2e-14, fifty times inside
# this band.  A 4,096-draw, 87-edge lookup rewinds with probability about
# 4,096·87·2e-12 ≈ 7e-7.
EDGE_TOLERANCE = 1e-12

# Guide-table buckets: ``floor(u·256)`` is exact for a power of two and maps
# a uniform to the first table edge at or above its bucket's lower end.
_GUIDE_BUCKETS = 256
_GUIDE_STARTS = np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS


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
    """``generator.binomial(n, p, size=size)``, the same samples for less work.

    Returns exactly what numpy returns, leaves ``generator`` in exactly the
    state numpy leaves it in, and raises what numpy raises.  A count of 0
    returns ``int64`` zeros without touching the generator (numpy consumes
    no bits for ``n = 0``).  A scalar count in numpy's inversion region whose
    expected loop work exceeds :data:`TABLE_MIN_WORK` takes the table path
    (module docstring); every other draw is ``generator.binomial`` unchanged.
    """

    if not isinstance(n, (int, np.integer)) or not isinstance(p, float) or size is None:
        return generator.binomial(n, p, size=size)
    count = int(n)
    if count == 0 and 0.0 <= p <= 1.0:
        return np.zeros(size, dtype=np.int64)
    # numpy returns 0 for p == 0 without a draw, and walks the table of
    # min(p, 1 - p), mirrored for p > 1/2.
    mirrored = p > 0.5
    p_small = 1.0 - p if mirrored else p
    if not (
        isinstance(size, (int, np.integer))
        and 0 < count < 2**63
        and 0.0 < p <= 1.0
        and p_small * count <= 30.0
        and size * (p_small * count + 1.0) > TABLE_MIN_WORK
    ):
        return generator.binomial(n, p, size=size)
    drawn = _inversion_by_table(generator, count, p_small, int(size))
    if drawn is None:
        return generator.binomial(n, p, size=size)
    return count - drawn if mirrored else drawn


def _inversion_by_table(
    generator: np.random.Generator, n: int, p: float, size: int
) -> "np.ndarray | None":
    """numpy's ``random_binomial_inversion`` for ``size`` draws, by table.

    Returns ``None`` with the generator rewound when any uniform lies within
    :data:`EDGE_TOLERANCE` of a table edge or past numpy's ``bound``.
    """

    # numpy's constants and px recurrence, operation for operation.
    q = 1.0 - p
    px = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    total = px
    edges = [-1.0, total]
    for x in range(1, bound + 1):
        px = ((n - x + 1) * p * px) / (x * q)
        total += px
        edges.append(total)
    edges.append(2.0)
    # below[x] is the edge under draw x (C_{x-1}, or -1 for x = 0), above[x]
    # the edge it may not pass (C_x, or the sentinel 2 past the bound).
    below = np.array(edges)
    above = below[1:]
    guide = np.searchsorted(above, _GUIDE_STARTS)

    def off_the_interval(uniforms: np.ndarray, drawn: np.ndarray) -> np.ndarray:
        return (uniforms - below[drawn] < EDGE_TOLERANCE) | (
            above[drawn] - uniforms < EDGE_TOLERANCE
        )

    state = generator.bit_generator.state
    uniforms = generator.random(size)
    if uniforms.max() > total - EDGE_TOLERANCE:
        generator.bit_generator.state = state
        return None
    # A bucket holding at most one edge resolves in one comparison; a draw
    # from a crowded bucket lands above its ``above`` edge and is redone by
    # bisection with the near-edge draws.
    drawn = guide[(uniforms * _GUIDE_BUCKETS).astype(np.intp)]
    drawn += above[drawn] < uniforms
    suspect = off_the_interval(uniforms, drawn)
    if suspect.any():
        rows = np.flatnonzero(suspect)
        redrawn = np.searchsorted(above, uniforms[rows])
        if off_the_interval(uniforms[rows], redrawn).any():
            generator.bit_generator.state = state
            return None
        drawn[rows] = redrawn
    return drawn
