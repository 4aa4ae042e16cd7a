"""Hardware early termination (HET): the sequential spec of Figure 13.

The paper's insight: early termination and the stencil test share a purpose
(kill fragments that cannot affect the output before shading/blending), and
the stencil buffer has spare bits.  Repurposing the stencil value's MSB as a
per-pixel "terminated" flag lets three small units implement early
termination with negligible hardware:

1. **Alpha test unit** (in the CROP) — after blending, check
   ``new_alpha >= threshold and old_alpha < threshold``; the double-sided
   test fires exactly once per pixel, avoiding redundant update traffic.
2. **Termination update unit** (in the ZROP) — set the pixel's flag.
3. **Termination test unit** — when a TC bin flushes, discard fragments
   whose pixel's flag is set; a quad dies only when all four pixels are
   terminated.

The timing model applies this rule through vectorised masks
(``FragmentStream.het_blended_mask``).  This module keeps only
``blend_with_het``, the fragment-by-fragment spec that the tests compare
those masks against; nothing in the model calls it.
"""

from __future__ import annotations

import numpy as np

from repro.render.fragstream import DEFAULT_TERMINATION_ALPHA, FragmentStream


def blend_with_het(stream, threshold=DEFAULT_TERMINATION_ALPHA):
    """Sequential oracle: blend a stream through the HET units.

    Processes fragments in emission order, maintaining the accumulated
    alpha and the per-pixel termination flag exactly as the hardware would
    for a single in-order draw call.  Returns ``(image, alpha_map, stats)``
    where ``stats`` reports fragments blended/discarded and update signals.

    This is O(fragments) Python — use it on test-sized streams; the
    pipeline model reproduces its counts via vectorised masks.
    """
    if not isinstance(stream, FragmentStream):
        raise TypeError(
            f"stream must be a FragmentStream, got {type(stream).__name__}")
    threshold = float(threshold)
    terminated = np.zeros((stream.height, stream.width), dtype=bool)
    accum = np.zeros((stream.height, stream.width), dtype=np.float64)
    image = np.zeros((stream.height, stream.width, 3), dtype=np.float64)
    blended = 0
    discarded_terminated = 0
    discarded_pruned = 0
    termination_updates = 0

    colors = stream.prim_colors[stream.prim_ids]
    unpruned = stream.unpruned
    for i in range(len(stream)):
        x = int(stream.x[i])
        y = int(stream.y[i])
        if terminated[y, x]:
            discarded_terminated += 1
            continue
        if not unpruned[i]:
            discarded_pruned += 1
            continue
        alpha = float(stream.alphas[i])
        old = accum[y, x]
        transmittance = 1.0 - old
        image[y, x] += transmittance * alpha * colors[i]
        new = old + transmittance * alpha
        accum[y, x] = new
        blended += 1
        if new >= threshold and old < threshold:
            terminated[y, x] = True
            termination_updates += 1

    stats = {
        "blended": blended,
        "discarded_terminated": discarded_terminated,
        "discarded_pruned": discarded_pruned,
        "termination_updates": termination_updates,
        "terminated_pixels": int(terminated.sum()),
    }
    return image, accum, stats
