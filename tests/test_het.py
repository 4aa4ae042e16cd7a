"""Hardware early termination: the sequential oracle against the masks."""

import numpy as np
import pytest

from repro.core.het import blend_with_het


class TestOracleEquivalence:
    def test_matches_vectorised_masks(self, deep_stream):
        """The sequential unit-level oracle must agree with the
        vectorised perfect-ET masks used by the pipeline model."""
        image, accum, stats = blend_with_het(deep_stream)
        ref_image, ref_alpha = deep_stream.blend_image(early_term=True)
        np.testing.assert_allclose(image, ref_image, atol=1e-9)
        np.testing.assert_allclose(accum, ref_alpha, atol=1e-9)
        assert stats["blended"] == int(deep_stream.et_survivor_mask().sum())

    def test_termination_updates_once_per_pixel(self, deep_stream):
        _, alpha, stats = blend_with_het(deep_stream)
        assert stats["termination_updates"] == stats["terminated_pixels"]
        assert stats["terminated_pixels"] == int((alpha >= 0.996).sum())

    def test_discard_accounting(self, deep_stream):
        _, _, stats = blend_with_het(deep_stream)
        total = (stats["blended"] + stats["discarded_terminated"]
                 + stats["discarded_pruned"])
        assert total == len(deep_stream)

    def test_type_check(self):
        with pytest.raises(TypeError):
            blend_with_het("stream")
