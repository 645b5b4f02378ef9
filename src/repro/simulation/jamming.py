"""Materialising a :class:`~repro.simulation.phaseplan.JamPlan` into concrete slots.

Both engines share this logic so that a given adversary strategy produces the
same *kind* of attack regardless of which engine executes it:

* explicit ``slot_indices`` are used verbatim (clipped to the phase length);
* a ``num_jam_slots`` count is realised as a uniformly random subset of the
  phase's slots — or, for *reactive* plans, as the earliest slots that carry
  correct-side channel activity (the reactive jammer senses the channel within
  the slot and only spends energy when there is something to disrupt).

Budget capping is applied by the caller (the engines), because only they know
how much of Carol's aggregate budget remains at the moment of each attack.
The fast engine's single-hop path needs only how many slots of each kind an
attack hits, so it draws those counts from the same distributions instead.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from .phaseplan import JamPlan
from .setops import unique_sorted

__all__ = ["materialize_jam_slots", "materialize_spoof_slots"]


def materialize_jam_slots(
    plan: JamPlan,
    num_slots: int,
    rng: np.random.Generator,
    activity_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Return the sorted slot offsets (0-based within the phase) to jam.

    Parameters
    ----------
    plan:
        The adversary's committed plan.
    num_slots:
        Length of the phase.
    rng:
        Random generator used for random-subset selection.
    activity_mask:
        For reactive plans, a boolean array of length ``num_slots`` marking
        slots that carry correct-side transmissions.  Required when
        ``plan.reactive`` is set and the plan selects by count.
    """

    if num_slots <= 0:
        return np.empty(0, dtype=np.int64)

    if plan.slot_indices is not None:
        indices = unique_sorted(np.asarray(plan.slot_indices, dtype=np.int64))
        return indices[(indices >= 0) & (indices < num_slots)]

    if plan.reactive:
        if activity_mask is None:
            raise ValueError("reactive jam plans require an activity mask")
        active = np.flatnonzero(np.asarray(activity_mask, dtype=bool))
        return active[: min(plan.num_jam_slots, active.size)]

    count = min(plan.num_jam_slots, num_slots)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    # Draw the subset even when it is the whole phase, so the generator
    # advances identically for every count.  Sorting it is a scatter into a
    # slot mask (O(s), no comparison sort), or nothing for the whole phase.
    chosen = rng.choice(num_slots, size=count, replace=False)
    if count == num_slots:
        return np.arange(num_slots, dtype=np.int64)
    mask = np.zeros(num_slots, dtype=bool)
    mask[chosen] = True
    return np.flatnonzero(mask)


def materialize_spoof_slots(
    count: int,
    num_slots: int,
    rng: np.random.Generator,
    exclude: Union[np.ndarray, Iterable[int]] = (),
) -> np.ndarray:
    """Pick ``count`` distinct slots for Byzantine spoofed transmissions.

    ``exclude`` (an array or any iterable of slot offsets) lists slots that
    should not be chosen (e.g. slots already being jammed — jamming and
    spoofing the same slot would waste energy).  Offsets outside the phase
    are ignored.
    """

    if count <= 0 or num_slots <= 0:
        return np.empty(0, dtype=np.int64)
    if isinstance(exclude, np.ndarray):
        excluded = exclude.astype(np.int64, copy=False).reshape(-1)
    else:
        excluded = np.fromiter((int(x) for x in exclude), dtype=np.int64)
    keep = np.ones(num_slots, dtype=bool)
    keep[excluded[(excluded >= 0) & (excluded < num_slots)]] = False
    candidates = np.flatnonzero(keep)
    if candidates.size == 0:
        return np.empty(0, dtype=np.int64)
    chosen = min(count, candidates.size)
    return np.sort(rng.choice(candidates, size=chosen, replace=False))
