"""Property tests (hypothesis): the sort-based set operations match numpy's.

:func:`repro.simulation.setops.unique_sorted` must return exactly what
``np.unique`` returns and ``isin_sorted(a, unique_sorted(b))`` exactly what
``np.isin(a, b)`` returns — values, shape and dtype — for the id and key
arrays the engine and topology feed them: ``int32`` CSR indices and
``int64`` ids and keys, including negative (Byzantine) ids.  The id-group
normaliser :func:`~repro.simulation.setops.as_sorted_ids` must give the same
sorted distinct ``int64`` ids from any container, and hand a canonical
``int64`` array back as the same object.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.setops import as_sorted_ids, isin_sorted, unique_sorted

DTYPES = (np.int32, np.int64)


@st.composite
def int_arrays(draw, max_size=60):
    """Integer arrays over a small or a wide range, optionally pre-sorted."""

    dtype = draw(st.sampled_from(DTYPES))
    bound = draw(st.sampled_from([3, 50, 2**31 - 1]))
    values = draw(st.lists(st.integers(-bound, bound), max_size=max_size))
    array = np.array(values, dtype=dtype)
    if draw(st.booleans()):
        array.sort()
    return array


def assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)


class TestUniqueSorted:
    @given(int_arrays())
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, values):
        assert_identical(unique_sorted(values), np.unique(values))

    def test_edge_cases(self):
        for dtype in DTYPES:
            cases = [
                np.empty(0, dtype=dtype),
                np.array([7], dtype=dtype),
                np.full(9, -2, dtype=dtype),  # all duplicates, a Byzantine id
                np.array([-5, -2, -2, 0, 3, 3, 3, 11], dtype=dtype),  # sorted
                np.array([[4, -1], [4, 2]], dtype=dtype),  # flattened like np.unique
            ]
            for values in cases:
                assert_identical(unique_sorted(values), np.unique(values))


class TestIsinSorted:
    @given(int_arrays(), int_arrays())
    @settings(max_examples=200, deadline=None)
    def test_matches_np_isin(self, values, members):
        assert_identical(isin_sorted(values, unique_sorted(members)), np.isin(values, members))

    def test_edge_cases(self):
        for dtype in DTYPES:
            empty = np.empty(0, dtype=dtype)
            one = np.array([-2], dtype=dtype)
            dupes = np.full(5, 3, dtype=dtype)
            ids = np.array([-9, -2, 0, 3, 3, 8], dtype=dtype)
            for values in (empty, one, dupes, ids):
                for members in (empty, one, dupes, ids):
                    assert_identical(
                        isin_sorted(values, unique_sorted(members)), np.isin(values, members)
                    )


class TestAsSortedIds:
    @given(int_arrays())
    @settings(max_examples=200, deadline=None)
    def test_every_container_gives_the_canonical_array(self, values):
        expected = np.unique(values.astype(np.int64))
        for container in (values, values.tolist(), set(values.tolist()), tuple(values.tolist())):
            assert_identical(as_sorted_ids(container), expected)

    def test_canonical_arrays_pass_through(self):
        for ids in (np.empty(0, dtype=np.int64), np.array([-1, 0, 4, 9], dtype=np.int64)):
            assert as_sorted_ids(ids) is ids
        assert_identical(as_sorted_ids(()), np.empty(0, dtype=np.int64))
        assert_identical(as_sorted_ids(iter([3, -1, 3])), np.array([-1, 3], dtype=np.int64))
