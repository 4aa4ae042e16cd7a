"""Segmented-reduction helpers: exact semantics and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.arrays import segment_boundaries, sliced_cumsum


class TestSegmentBoundaries:
    def test_single_segment(self):
        assert segment_boundaries(np.array([3, 3, 3])).tolist() == [0]

    def test_multiple_segments(self):
        ids = np.array([0, 0, 2, 2, 2, 5])
        assert segment_boundaries(ids).tolist() == [0, 2, 5]

    def test_empty(self):
        assert segment_boundaries(np.array([])).size == 0

    def test_all_distinct(self):
        ids = np.arange(5)
        assert segment_boundaries(ids).tolist() == [0, 1, 2, 3, 4]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            segment_boundaries(np.zeros((2, 2)))


def _sliced(vals, ids):
    """``sliced_cumsum`` with one slice per run of equal ``ids``."""
    bounds = np.append(segment_boundaries(ids), len(vals))
    return sliced_cumsum(vals, bounds)


class TestSegmentedCumsum:
    def test_restarts_each_segment(self):
        ids = np.array([0, 0, 0, 1, 1])
        vals = np.array([1.0, 1.0, 1.0, 5.0, 5.0])
        assert _sliced(vals, ids).tolist() == [1, 2, 3, 5, 10]

    def test_negative_values(self):
        # Log-space transmittance is negative: each slice's running total
        # decreases and still restarts at the boundary.
        ids = np.array([0, 0, 1, 1])
        vals = np.array([-1.0, -2.0, -3.0, -4.0])
        assert _sliced(vals, ids).tolist() == [-1, -3, -3, -7]

    def test_empty(self):
        out = sliced_cumsum(np.array([]), np.zeros(1, dtype=np.int64))
        assert out.size == 0


@st.composite
def segmented_data(draw):
    n_segments = draw(st.integers(1, 5))
    lengths = [draw(st.integers(1, 8)) for _ in range(n_segments)]
    ids = np.repeat(np.arange(n_segments), lengths)
    vals = np.array(draw(st.lists(
        st.floats(0.01, 0.99), min_size=int(ids.size), max_size=int(ids.size))))
    return ids, vals


@settings(max_examples=50, deadline=None)
@given(segmented_data())
def test_cumsum_matches_python_loop(data):
    """A genuine per-slice scan: each element is exactly the sequential
    sum of its own slice's prefix, whatever precedes the slice."""
    ids, vals = data
    out = _sliced(vals, ids)
    for i in range(ids.size):
        total = 0.0
        for j in range(i + 1):
            if ids[j] == ids[i]:
                total += vals[j]
        assert out[i] == total
