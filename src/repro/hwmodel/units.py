"""Small shared helpers for the hardware-unit models."""

from __future__ import annotations

import numpy as np

from repro.render.fragstream import QUAD_SIZE, WARP_SIZE
from repro.utils.arrays import popcount4

__all__ = ["QUAD_THREADS", "QUADS_PER_WARP", "ceil_div",
           "warps_for_quads", "as_index_array", "popcount4"]

#: Fragments per quad (2x2).
QUAD_THREADS = QUAD_SIZE * QUAD_SIZE

#: Quads that fit in one warp.
QUADS_PER_WARP = WARP_SIZE // QUAD_THREADS


def ceil_div(a, b):
    """Integer ceiling division for non-negative operands."""
    if a < 0 or b <= 0:
        raise ValueError(f"ceil_div requires a >= 0 and b > 0, got {a}, {b}")
    return -(-int(a) // int(b))


def warps_for_quads(n_quads):
    """Warps needed to shade ``n_quads`` (8 quads of 4 threads per warp)."""
    return ceil_div(n_quads, QUADS_PER_WARP)


def as_index_array(values, dtype=np.int64):
    """Normalise an iterable of indices/tags to a 1-D integer array.

    Accepts arrays, lists, tuples and one-shot generators alike; the ROP
    units use it so documented ``Iterable`` parameters never hit
    ``len()``/``np.asarray`` pitfalls (a generator reaches ``np.asarray``
    as a 0-d object scalar and ``len()`` raises).
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValueError(
                f"expected a 1-D index array, got shape {values.shape}")
        return values
    if not hasattr(values, "__len__"):
        values = list(values)
    return np.asarray(values, dtype=dtype).reshape(len(values))
