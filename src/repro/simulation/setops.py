"""Sort-based set operations on integer id and key arrays.

numpy's ``np.unique`` without a ``return_*`` flag takes a hash-table path
that is 15–60× slower than sorting for 10³ or more integers, and
``np.isin`` calls it on its second argument.  The engine, topology and
request-phase hot paths therefore do their set work here, on sorted arrays
only.  Both helpers return exactly what the numpy calls they replace return
for integer input, dtype included.

A group of device ids (a phase role cohort, a jammer's victims, a disk of
the deployment area) has one form throughout the simulator: a sorted,
duplicate-free ``int64`` array, Alice (-1) first when present.
:func:`as_sorted_ids` builds that form from whatever a caller holds.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

__all__ = ["unique_sorted", "isin_sorted", "as_sorted_ids"]


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of ``values`` (flattened), as ``np.unique``."""

    ordered = np.sort(np.asarray(values), axis=None)
    if ordered.size <= 1:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def isin_sorted(values: np.ndarray, sorted_unique: np.ndarray) -> np.ndarray:
    """Boolean mask, shaped like ``values``: is each entry in ``sorted_unique``?

    ``sorted_unique`` must be sorted ascending, e.g. a :func:`unique_sorted`
    result; repeated entries give the same answer, so an array sorted in
    place will do.  Membership is one ``searchsorted`` per entry.
    """

    values = np.asarray(values)
    if sorted_unique.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_unique, values), sorted_unique.size - 1)
    return sorted_unique[pos] == values


def as_sorted_ids(ids: Union[Iterable[int], np.ndarray]) -> np.ndarray:
    """Canonicalise a group of device ids into a sorted unique ``int64`` array.

    ``int64`` arrays that are already strictly increasing (the cached views
    served by :class:`~repro.core.state.ProtocolState`, a topology disk
    query) pass through without a copy, so building roles or a targeting
    every phase costs O(n) at worst and one comparison pass on the hot path.
    """

    arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids), dtype=np.int64)
    if arr.size > 1 and np.count_nonzero(arr[1:] <= arr[:-1]):
        return unique_sorted(arr)
    return arr
