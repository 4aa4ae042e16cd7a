"""TGC and TC bin dynamics: the exact flush semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hwmodel.tc import TileCoalescer
from repro.hwmodel.tgc import TileGridCoalescer


class TestTGC:
    def test_full_flush(self):
        tgc = TileGridCoalescer(n_bins=4, bin_capacity=3)
        assert tgc.insert(0, 10) == []
        assert tgc.insert(0, 11) == []
        flushed = tgc.insert(0, 12)
        assert len(flushed) == 1
        grid, prims, reason = flushed[0]
        assert grid == 0 and prims == [10, 11, 12]
        assert reason == TileGridCoalescer.FLUSH_FULL

    def test_eviction_oldest(self):
        tgc = TileGridCoalescer(n_bins=2, bin_capacity=10)
        tgc.insert(0, 1)
        tgc.insert(1, 2)
        flushed = tgc.insert(2, 3)  # no free bin: evict grid 0
        assert flushed[0][0] == 0
        assert flushed[0][2] == TileGridCoalescer.FLUSH_EVICT

    def test_drain_in_age_order(self):
        tgc = TileGridCoalescer()
        tgc.insert(5, 0)
        tgc.insert(3, 1)
        drained = tgc.drain()
        assert [g for g, _, _ in drained] == [5, 3]
        assert tgc.occupancy == 0

    def test_storage_matches_table3(self):
        tgc = TileGridCoalescer(n_bins=128, bin_capacity=16)
        assert tgc.storage_bytes() == 24832  # 24.25 KB

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TileGridCoalescer(n_bins=0)


class TestTC:
    def _rows(self, n):
        return np.arange(n)

    def test_full_flush(self):
        tc = TileCoalescer(n_bins=4, bin_capacity=8)
        assert tc.insert(0, self._rows(7)) == []
        flushed = tc.insert(0, self._rows(1))
        assert len(flushed) == 1
        assert len(flushed[0]) == 8
        assert flushed[0].reason == TileCoalescer.FLUSH_FULL

    def test_overflow_splits(self):
        tc = TileCoalescer(n_bins=4, bin_capacity=8)
        flushed = tc.insert(0, self._rows(20))
        assert [len(b) for b in flushed] == [8, 8]
        assert tc.occupancy == 1  # 4 quads remain binned

    def test_eviction_on_pressure(self):
        tc = TileCoalescer(n_bins=2, bin_capacity=100)
        tc.insert(0, self._rows(3))
        tc.insert(1, self._rows(3))
        flushed = tc.insert(2, self._rows(3))
        assert flushed[0].tile_id == 0
        assert flushed[0].reason == TileCoalescer.FLUSH_EVICT

    def test_round_robin_32_tiles_coalesce(self):
        """The §VII-A probe's good case: N <= bins keeps bins resident."""
        tc = TileCoalescer(n_bins=32, bin_capacity=128)
        flushed = []
        for _round in range(10):
            for tile in range(32):
                flushed += tc.insert(tile, self._rows(1))
        assert flushed == []  # everything still binned
        assert tc.occupancy == 32

    def test_round_robin_33_tiles_thrash(self):
        """N = 33 evicts every round: single-quad flushes."""
        tc = TileCoalescer(n_bins=32, bin_capacity=128)
        flushed = []
        for _round in range(10):
            for tile in range(33):
                flushed += tc.insert(tile, self._rows(1))
        assert len(flushed) > 250
        assert all(len(b) == 1 for b in flushed)

    def test_timeout_flush(self):
        tc = TileCoalescer(n_bins=8, bin_capacity=100, timeout_quads=5)
        tc.insert(0, self._rows(2))
        flushed = tc.insert(1, self._rows(6))
        timeouts = [b for b in flushed if b.reason == TileCoalescer.FLUSH_TIMEOUT]
        assert len(timeouts) == 1 and timeouts[0].tile_id == 0

    def test_drain(self):
        tc = TileCoalescer()
        tc.insert(3, self._rows(2))
        drained = tc.drain()
        assert len(drained) == 1
        assert drained[0].reason == TileCoalescer.FLUSH_FINAL

    def test_batch_order_preserved(self):
        tc = TileCoalescer(n_bins=2, bin_capacity=4)
        tc.insert(0, np.array([5, 6]))
        flushed = tc.insert(0, np.array([7, 8]))
        assert flushed[0].quad_rows.tolist() == [5, 6, 7, 8]

    def test_rejects_2d_rows(self):
        with pytest.raises(ValueError):
            TileCoalescer().insert(0, np.zeros((2, 2)))

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            TileCoalescer(timeout_quads=0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 20)),
                min_size=1, max_size=60),
       st.integers(2, 8), st.integers(2, 16))
def test_tc_conservation_property(inserts, n_bins, capacity):
    """Every inserted quad is flushed exactly once, per-tile order kept."""
    tc = TileCoalescer(n_bins=n_bins, bin_capacity=capacity)
    flushed = []
    next_row = 0
    expected = {}
    for tile, count in inserts:
        rows = np.arange(next_row, next_row + count)
        expected.setdefault(tile, []).extend(rows.tolist())
        next_row += count
        flushed += tc.insert(tile, rows)
    flushed += tc.drain()
    # Conservation: the union of flush batches is exactly the input.
    seen = np.concatenate([b.quad_rows for b in flushed])
    assert sorted(seen.tolist()) == list(range(next_row))
    # Order: concatenating a tile's flushes reproduces insertion order.
    per_tile = {}
    for batch in flushed:
        per_tile.setdefault(batch.tile_id, []).extend(
            batch.quad_rows.tolist())
    assert per_tile == expected
    # Capacity: no flush exceeds the bin size.
    assert all(len(b) <= capacity for b in flushed)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 99)),
                min_size=1, max_size=50),
       st.integers(2, 6), st.integers(2, 8))
def test_tgc_conservation_property(inserts, n_bins, capacity):
    """TGC flushes preserve per-grid primitive order and lose nothing."""
    tgc = TileGridCoalescer(n_bins=n_bins, bin_capacity=capacity)
    flushed = []
    expected = {}
    for grid, prim in inserts:
        expected.setdefault(grid, []).append(prim)
        flushed += tgc.insert(grid, prim)
    flushed += tgc.drain()
    per_grid = {}
    for grid, prims, _reason in flushed:
        per_grid.setdefault(grid, []).extend(prims)
    assert per_grid == expected
    assert all(len(prims) <= capacity for _g, prims, _r in flushed)


def _flush_signature(batch):
    return (batch.tile_id, batch.reason, batch.quad_rows.tolist())


class TestTCBatchInsert:
    """insert_groups must reproduce sequential insert() flush-for-flush."""

    def _random_groups(self, seed, n_groups=120, n_tiles=12):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 40, n_groups)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        tiles = rng.integers(0, n_tiles, n_groups)
        rows = np.arange(ends[-1], dtype=np.int64)
        return tiles, starts, ends, rows

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sequential(self, seed):
        tiles, starts, ends, rows = self._random_groups(seed)
        seq = TileCoalescer(n_bins=4, bin_capacity=16, timeout_quads=50)
        bat = TileCoalescer(n_bins=4, bin_capacity=16, timeout_quads=50)
        expected = []
        for tile, s, e in zip(tiles, starts, ends):
            expected.extend(seq.insert(int(tile), rows[s:e]))
        got = list(bat.insert_groups(tiles, starts, ends, rows))
        expected.extend(seq.drain())
        got.extend(bat.drain())
        assert ([_flush_signature(b) for b in got]
                == [_flush_signature(b) for b in expected])
        assert bat.flush_counts == seq.flush_counts
        assert bat.quads_inserted == seq.quads_inserted

    def test_is_a_generator(self):
        tc = TileCoalescer(n_bins=2, bin_capacity=4)
        gen = tc.insert_groups(np.array([0]), np.array([0]), np.array([2]),
                               np.arange(2))
        assert tc.quads_inserted == 0  # nothing consumed yet
        assert list(gen) == []
        assert tc.quads_inserted == 2


def _range_groups(seed, n_groups=150, n_tiles=10):
    """Random groups, a fifth of them empty, on two tile sequences:
    uniform tiles, and run-heavy tiles (geometric runs of the same tile, as
    TGC grid grouping emits).  An empty group advances no idle clock."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 40, n_groups) * (rng.random(n_groups) >= 0.2)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    uniform = rng.integers(0, n_tiles, n_groups)
    runs = np.resize(np.repeat(rng.integers(0, 8, 60),
                               rng.integers(1, 8, 60)), n_groups)
    return starts, ends, (uniform, runs)


class TestRangePlanner:
    """RangeTileCoalescer.plan_groups must plan TileCoalescer's exact
    flush schedule."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("timeout", [None, 50, 5, 1])
    def test_plan_matches_flushes(self, seed, timeout):
        from repro.hwmodel.tc import RangeTileCoalescer

        starts, ends, tile_sequences = _range_groups(seed)
        rows = np.arange(ends[-1], dtype=np.int64)
        for tiles in tile_sequences:
            for n_bins in (1, 4):
                ref = TileCoalescer(n_bins=n_bins, bin_capacity=16,
                                    timeout_quads=timeout)
                expected = list(ref.insert_groups(tiles, starts, ends, rows))
                expected.extend(ref.drain())

                planner = RangeTileCoalescer(n_bins=n_bins, bin_capacity=16,
                                             timeout_quads=timeout)
                planner.plan_groups(tiles, starts, ends)
                planner.drain()

                assert planner.flush_tile == [b.tile_id for b in expected]
                assert planner.flush_reason == [b.reason for b in expected]
                assert planner.flush_counts == ref.flush_counts
                assert planner.quads_inserted == ref.quads_inserted
                # Expand the planned row segments, flush for flush.
                seg_starts = np.asarray(planner.seg_starts)
                seg_ends = np.asarray(planner.seg_ends)
                bounds = planner.flush_seg_bounds
                for i, batch in enumerate(expected):
                    segs = zip(seg_starts[bounds[i]:bounds[i + 1]],
                               seg_ends[bounds[i]:bounds[i + 1]])
                    planned = [r for s, e in segs for r in range(s, e)]
                    assert planned == batch.quad_rows.tolist()

    def test_rejects_bad_parameters(self):
        from repro.hwmodel.tc import RangeTileCoalescer

        with pytest.raises(ValueError):
            RangeTileCoalescer(n_bins=0)
        with pytest.raises(ValueError):
            RangeTileCoalescer(timeout_quads=0)


class TestSharedTimeoutPath:
    """Scalar and range coalescers share one timeout code path; the
    ``tc_flush_timeout`` accounting must be identical across both (and
    hence across the scalar and batched flush engines)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_timeout_counts_equal(self, seed):
        from repro.hwmodel.tc import RangeTileCoalescer

        rng = np.random.default_rng(seed)
        n_groups = 120
        lengths = rng.integers(1, 12, n_groups)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        tiles = rng.integers(0, 12, n_groups)
        rows = np.arange(ends[-1], dtype=np.int64)

        scalar = TileCoalescer(n_bins=4, bin_capacity=16, timeout_quads=9)
        flushed = list(scalar.insert_groups(tiles, starts, ends, rows))
        flushed.extend(scalar.drain())

        planner = RangeTileCoalescer(n_bins=4, bin_capacity=16,
                                     timeout_quads=9)
        planner.plan_groups(tiles, starts, ends)
        planner.drain()

        assert scalar.flush_counts[TileCoalescer.FLUSH_TIMEOUT] > 0
        assert (planner.flush_counts[TileCoalescer.FLUSH_TIMEOUT]
                == scalar.flush_counts[TileCoalescer.FLUSH_TIMEOUT])
        assert planner.flush_counts == scalar.flush_counts
        assert planner.flush_reason == [b.reason for b in flushed]


class TestTGCBatchInsert:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_sequential(self, seed):
        rng = np.random.default_rng(seed)
        grids = rng.integers(0, 9, 300)
        prims = np.arange(300)
        seq = TileGridCoalescer(n_bins=3, bin_capacity=5)
        bat = TileGridCoalescer(n_bins=3, bin_capacity=5)
        expected = []
        for grid, prim in zip(grids, prims):
            expected.extend(seq.insert(int(grid), int(prim)))
        got = list(bat.insert_pairs(grids, prims))
        expected.extend(seq.drain())
        got.extend(bat.drain())
        assert got == expected
        assert bat.flush_counts == seq.flush_counts
        assert bat.prims_inserted == seq.prims_inserted

    @pytest.mark.parametrize("seed", [0, 7])
    def test_plan_groups_matches_insert_pairs(self, seed):
        """The collapsed planning pass == insert_pairs + drain exactly."""
        rng = np.random.default_rng(seed)
        grids = rng.integers(0, 9, 300)
        prims = np.arange(300)
        seq = TileGridCoalescer(n_bins=3, bin_capacity=5)
        expected = []
        for grid, prim in zip(grids, prims):
            expected.extend(seq.insert(int(grid), int(prim)))
        expected.extend(seq.drain())
        plan = TileGridCoalescer(n_bins=3, bin_capacity=5)
        got = plan.plan_groups(grids, prims)
        assert got == expected
        assert plan.flush_counts == seq.flush_counts
        assert plan.prims_inserted == seq.prims_inserted
