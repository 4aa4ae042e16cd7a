"""Front-to-back alpha blending primitives (Equation 1/2 of the paper).

The key algebraic fact VR-Pipe's quad merging exploits is that the
front-to-back operator over premultiplied RGBA

    f_fb(c1, c2) = c1 + (1 - a1) * c2

is *associative* (but not commutative), so fragments may be partially blended
in shader cores before the ROP finishes the pixel, without changing the
result.  These helpers are the single implementation of that operator used
everywhere in the library.
"""

from __future__ import annotations

import numpy as np


def premultiply(colors, alphas):
    """Pack RGB + alpha into premultiplied RGBA: ``(a*r, a*g, a*b, a)``.

    ``colors`` is ``(n, 3)`` and ``alphas`` ``(n,)``; returns ``(n, 4)``.
    """
    colors = np.asarray(colors, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    if colors.ndim != 2 or colors.shape[1] != 3:
        raise ValueError(f"colors must be (n, 3), got {colors.shape}")
    if alphas.shape != (colors.shape[0],):
        raise ValueError(
            f"alphas must be ({colors.shape[0]},), got {alphas.shape}")
    out = np.empty((colors.shape[0], 4), dtype=np.float64)
    out[:, :3] = colors * alphas[:, None]
    out[:, 3] = alphas
    return out


def front_to_back_blend(front, back):
    """``f_fb(front, back) = front + (1 - front.a) * back``.

    Both operands are premultiplied RGBA, either ``(4,)`` or ``(n, 4)``
    (blended row-wise).  The result's alpha is the accumulated coverage.
    """
    front = np.asarray(front, dtype=np.float64)
    back = np.asarray(back, dtype=np.float64)
    if front.shape != back.shape:
        raise ValueError(f"operand shapes differ: {front.shape} vs {back.shape}")
    if front.shape[-1] != 4:
        raise ValueError(f"operands must be RGBA (last axis 4), got {front.shape}")
    alpha_front = front[..., 3:4]
    return front + (1.0 - alpha_front) * back


def accumulate_front_to_back(rgba_sequence):
    """Left fold of :func:`front_to_back_blend` over ``(n, 4)`` fragments.

    This is the scalar reference used in tests; the vectorised per-pixel
    equivalent lives in :mod:`repro.render.fragstream`.  An empty sequence
    yields transparent black.
    """
    rgba_sequence = np.asarray(rgba_sequence, dtype=np.float64)
    if rgba_sequence.size == 0:
        return np.zeros(4)
    if rgba_sequence.ndim != 2 or rgba_sequence.shape[1] != 4:
        raise ValueError(f"expected (n, 4) fragments, got {rgba_sequence.shape}")
    acc = rgba_sequence[0].copy()
    for rgba in rgba_sequence[1:]:
        acc = front_to_back_blend(acc, rgba)
    return acc
