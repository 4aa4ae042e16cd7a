"""FragmentStream invariants: arrival alpha, termination masks, quads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.fragstream import DEFAULT_TERMINATION_ALPHA, FragmentStream


def make_stream(frags, width=8, height=8, n_prims=None):
    """Build a stream from (prim, x, y, alpha) tuples."""
    frags = list(frags)
    prim = np.array([f[0] for f in frags], dtype=np.int32)
    n_prims = n_prims or (int(prim.max()) + 1 if len(frags) else 1)
    return FragmentStream(
        prim_ids=prim,
        x=np.array([f[1] for f in frags], dtype=np.int32),
        y=np.array([f[2] for f in frags], dtype=np.int32),
        alphas=np.array([f[3] for f in frags], dtype=np.float32),
        prim_colors=np.linspace(0.1, 0.9, n_prims * 3).reshape(n_prims, 3),
        width=width, height=height)


class TestArrivalAlpha:
    def test_first_fragment_zero(self):
        s = make_stream([(0, 1, 1, 0.5)])
        assert s.arrival_alpha[0] == 0.0

    def test_sequence(self):
        s = make_stream([(0, 1, 1, 0.5), (1, 1, 1, 0.5), (2, 1, 1, 0.5)])
        assert s.arrival_alpha == pytest.approx([0.0, 0.5, 0.75])

    def test_pruned_fragment_does_not_accumulate(self):
        s = make_stream([(0, 1, 1, 0.5), (1, 1, 1, 0.001), (2, 1, 1, 0.5)])
        assert s.arrival_alpha[2] == pytest.approx(0.5)

    def test_pixels_independent(self):
        s = make_stream([(0, 0, 0, 0.9), (1, 1, 0, 0.9), (2, 0, 0, 0.5)])
        assert s.arrival_alpha[1] == 0.0
        assert s.arrival_alpha[2] == pytest.approx(0.9)

    def test_monotone_per_pixel(self, small_stream):
        a = small_stream.arrival_alpha
        pix = small_stream.pixel_ids
        order = np.lexsort((small_stream.prim_ids, pix))
        sorted_a = a[order]
        sorted_p = pix[order]
        same = sorted_p[1:] == sorted_p[:-1]
        assert (sorted_a[1:][same] >= sorted_a[:-1][same] - 1e-12).all()


class TestTerminationMasks:
    def test_termination_kills_following(self):
        s = make_stream([(0, 1, 1, 0.99), (1, 1, 1, 0.99), (2, 1, 1, 0.5)])
        mask = s.et_survivor_mask()
        # First two blend (0.99, then 0.9999); the third is killed.
        assert mask.tolist() == [True, True, False]

    def test_lag_delays_kill(self):
        frags = [(i, 1, 1, 0.99) for i in range(6)]
        s = make_stream(frags)
        perfect = s.het_blended_mask(lag=0)
        lagged = s.het_blended_mask(lag=2)
        assert perfect.sum() == 2
        assert lagged.sum() == 4  # two extra blends during the window

    def test_lag_superset_of_perfect(self, deep_stream):
        perfect = deep_stream.het_blended_mask(lag=0)
        lagged = deep_stream.het_blended_mask(lag=8)
        assert (lagged | ~perfect).all()  # perfect => lagged

    def test_unterminated_sees_pruned(self):
        s = make_stream([(0, 1, 1, 0.99), (1, 1, 1, 0.99),
                         (2, 1, 1, 0.0001)])
        # The pruned fragment still arrives terminated: ZROP kills it too.
        assert s.unterminated_on_arrival().tolist() == [True, True, False]

    def test_ratio_at_least_one(self, small_stream, deep_stream):
        assert small_stream.termination_ratio() >= 1.0
        assert deep_stream.termination_ratio() > 1.2

    def test_threshold_monotonicity(self, deep_stream):
        low = deep_stream.et_survivor_mask(0.9).sum()
        high = deep_stream.et_survivor_mask(0.999).sum()
        assert low <= high


class TestAccumulatedAlpha:
    def test_bit_identical_to_blend_image(self, deep_stream):
        """The cached alpha map must equal a full blend's, bit for bit —
        DrawWorkload.from_stream derives termination state from it."""
        _, alpha_map = deep_stream.blend_image(early_term=False)
        flat = deep_stream.accumulated_alpha
        assert np.array_equal(flat.view(np.uint64),
                              alpha_map.reshape(-1).view(np.uint64))

    def test_cached_across_calls(self, small_stream):
        assert small_stream.accumulated_alpha is small_stream.accumulated_alpha

    def test_blend_image_does_not_alias_cache(self, small_stream):
        _, alpha_map = small_stream.blend_image(early_term=False)
        alpha_map[:] = -1.0
        assert small_stream.accumulated_alpha.min() >= 0.0

    def test_empty_stream(self):
        stream = make_stream([])
        assert stream.accumulated_alpha.shape == (64,)
        assert stream.accumulated_alpha.sum() == 0.0


class TestBlendImage:
    def test_single_fragment(self):
        s = make_stream([(0, 2, 3, 0.5)])
        image, alpha = s.blend_image()
        assert alpha[3, 2] == pytest.approx(0.5)
        assert alpha.sum() == pytest.approx(0.5)

    def test_matches_manual_fold(self):
        s = make_stream([(0, 1, 1, 0.6), (1, 1, 1, 0.5), (2, 1, 1, 0.4)])
        image, alpha = s.blend_image()
        colors = s.prim_colors
        expected = (0.6 * colors[0] + 0.4 * 0.5 * colors[1]
                    + 0.4 * 0.5 * 0.4 * colors[2])
        assert image[1, 1] == pytest.approx(expected)

    def test_et_error_bounded(self, deep_stream):
        exact, _ = deep_stream.blend_image(early_term=False)
        et, _ = deep_stream.blend_image(early_term=True)
        assert np.abs(exact - et).max() <= 1.0 - DEFAULT_TERMINATION_ALPHA + 1e-9

    def test_fragments_per_pixel_kinds(self, deep_stream):
        all_f = deep_stream.fragments_per_pixel("all")
        unpruned = deep_stream.fragments_per_pixel("unpruned")
        et = deep_stream.fragments_per_pixel("early_term")
        assert (all_f >= unpruned).all()
        assert (unpruned >= et).all()

    def test_bad_kind(self, small_stream):
        with pytest.raises(ValueError):
            small_stream.fragments_per_pixel("bogus")


class TestValidation:
    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            make_stream([(0, 99, 0, 0.5)], width=8, height=8)

    def test_rejects_bad_prim_ref(self):
        with pytest.raises(ValueError, match="out of range"):
            FragmentStream(np.array([5], dtype=np.int32),
                           np.array([0], dtype=np.int32),
                           np.array([0], dtype=np.int32),
                           np.array([0.5], dtype=np.float32),
                           np.zeros((1, 3)), 8, 8)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            FragmentStream(np.zeros(2, np.int32), np.zeros(1, np.int32),
                           np.zeros(2, np.int32), np.zeros(2, np.float32),
                           np.zeros((1, 3)), 8, 8)


class TestQuadTable:
    def test_grouping(self):
        # Four fragments of one prim in one quad -> one row.
        s = make_stream([(0, 0, 0, 0.5), (0, 1, 0, 0.5),
                         (0, 0, 1, 0.5), (0, 1, 1, 0.5)])
        qt = s.quad_table()
        assert len(qt) == 1
        assert qt.n_fragments[0] == 4
        assert qt.mask_unpruned[0] == 0b1111

    def test_partial_coverage_mask(self):
        s = make_stream([(0, 0, 0, 0.5), (0, 1, 1, 0.5)])
        qt = s.quad_table()
        assert qt.n_fragments[0] == 2
        assert qt.mask_unpruned[0] == 0b1001  # bits 0 and 3

    def test_separate_prims_separate_quads(self):
        s = make_stream([(0, 0, 0, 0.5), (1, 0, 0, 0.5)])
        assert len(s.quad_table()) == 2

    def test_tile_and_grid_ids(self):
        s = make_stream([(0, 0, 0, 0.5), (0, 17, 0, 0.5)], width=64,
                        height=64)
        qt = s.quad_table()
        assert set(qt.tile_ids.tolist()) == {0, 1}
        assert set(qt.grid_ids.tolist()) == {0}

    def test_qpos_range(self, small_stream):
        qt = small_stream.quad_table()
        assert qt.qpos.min() >= 0
        assert qt.qpos.max() <= 63

    def test_counts_consistent(self, deep_stream):
        qt = deep_stream.quad_table()
        assert qt.n_unpruned.sum() == deep_stream.unpruned.sum()
        assert qt.n_et_blended.sum() == deep_stream.et_survivor_mask().sum()
        assert (qt.n_et_blended <= qt.n_unterminated).all()
        assert (qt.n_unpruned <= qt.n_fragments).all()
        assert qt.n_et_blended.sum() <= qt.n_unpruned.sum()
        assert (qt.n_et_blended > 0).sum() <= (qt.n_unpruned > 0).sum()

    def test_emission_sorted(self, small_stream):
        qt = small_stream.quad_table()
        key = (qt.prim_ids * 10**9 + qt.tile_ids * 10**3 + qt.qpos)
        assert (np.diff(key) > 0).all()

    def test_empty(self):
        s = make_stream([])
        qt = s.quad_table()
        assert len(qt) == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 7), st.integers(0, 7),
              st.floats(0.0, 0.99)),
    min_size=1, max_size=40))
def test_property_mask_hierarchy(frags):
    """For any stream: ET-blended <= unpruned and <= unterminated."""
    frags = sorted(frags, key=lambda f: f[0])
    s = make_stream(frags, n_prims=5)
    et = s.et_survivor_mask()
    assert (~et | s.unpruned).all()
    assert (~et | s.unterminated_on_arrival()).all()
    # Quad table aggregates agree with fragment masks.
    qt = s.quad_table()
    assert qt.n_et_blended.sum() == et.sum()
    assert qt.n_fragments.sum() == len(s)
