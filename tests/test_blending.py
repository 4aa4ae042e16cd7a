"""Front-to-back blending: the associativity VR-Pipe's QM depends on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.blending import (
    accumulate_front_to_back,
    front_to_back_blend,
    premultiply,
)


def rgba(r, g, b, a):
    return premultiply(np.array([[r, g, b]]), np.array([a]))[0]


class TestPremultiply:
    def test_basic(self):
        out = premultiply(np.array([[1.0, 0.5, 0.0]]), np.array([0.5]))
        assert out[0] == pytest.approx([0.5, 0.25, 0.0, 0.5])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            premultiply(np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            premultiply(np.zeros((2, 4)), np.zeros(2))


class TestFrontToBack:
    def test_opaque_front_wins(self):
        front = rgba(1, 0, 0, 1.0)
        back = rgba(0, 1, 0, 1.0)
        out = front_to_back_blend(front, back)
        assert out == pytest.approx(front)

    def test_transparent_front_passes(self):
        front = rgba(1, 0, 0, 0.0)
        back = rgba(0, 1, 0, 0.7)
        out = front_to_back_blend(front, back)
        assert out == pytest.approx(back)

    def test_alpha_accumulates(self):
        out = front_to_back_blend(rgba(0, 0, 0, 0.5), rgba(0, 0, 0, 0.5))
        assert out[3] == pytest.approx(0.75)

    def test_not_commutative(self):
        a = rgba(1, 0, 0, 0.6)
        b = rgba(0, 1, 0, 0.6)
        assert not np.allclose(front_to_back_blend(a, b),
                               front_to_back_blend(b, a))

    def test_batch_rows(self):
        front = np.stack([rgba(1, 0, 0, 0.5)] * 3)
        back = np.stack([rgba(0, 1, 0, 0.5)] * 3)
        out = front_to_back_blend(front, back)
        assert out.shape == (3, 4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            front_to_back_blend(np.zeros(4), np.zeros((2, 4)))


class TestAccumulate:
    def test_empty(self):
        assert accumulate_front_to_back(np.empty((0, 4))).tolist() == [0] * 4

    def test_single(self):
        f = rgba(0.2, 0.4, 0.6, 0.5)
        assert accumulate_front_to_back([f]) == pytest.approx(f)

    def test_matches_equation1(self):
        """Fold == the paper's Equation 1 sum-of-weighted-colours form."""
        rng = np.random.default_rng(5)
        colors = rng.uniform(0, 1, size=(6, 3))
        alphas = rng.uniform(0.05, 0.9, size=6)
        folded = accumulate_front_to_back(premultiply(colors, alphas))
        expected = np.zeros(3)
        transmittance = 1.0
        for c, a in zip(colors, alphas):
            expected += transmittance * a * c
            transmittance *= 1.0 - a
        assert folded[:3] == pytest.approx(expected)
        assert folded[3] == pytest.approx(1.0 - transmittance)


rgba_strategy = st.tuples(
    st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 0.99),
).map(lambda t: premultiply(np.array([t[:3]]), np.array([t[3]]))[0])


@settings(max_examples=100, deadline=None)
@given(rgba_strategy, rgba_strategy, rgba_strategy)
def test_associativity(c1, c2, c3):
    """Equation 2: f_fb(f_fb(c1,c2),c3) == f_fb(c1,f_fb(c2,c3))."""
    left = front_to_back_blend(front_to_back_blend(c1, c2), c3)
    right = front_to_back_blend(c1, front_to_back_blend(c2, c3))
    np.testing.assert_allclose(left, right, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(rgba_strategy, min_size=1, max_size=8),
       st.integers(0, 7))
def test_arbitrary_split_point(fragments, split):
    """Partially blending any prefix then the rest equals the full fold."""
    split = min(split, len(fragments) - 1)
    full = accumulate_front_to_back(np.stack(fragments))
    if split == 0:
        prefix = fragments[0]
        rest = fragments[1:]
    else:
        prefix = accumulate_front_to_back(np.stack(fragments[:split + 1]))
        rest = fragments[split + 1:]
    partial = prefix
    for frag in rest:
        partial = front_to_back_blend(partial, frag)
    np.testing.assert_allclose(partial, full, atol=1e-12)
