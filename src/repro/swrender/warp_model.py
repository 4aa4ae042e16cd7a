"""Lockstep warp execution of the CUDA tile renderer.

One thread block (256 threads = 8 warps) renders each 16x16 tile; each
thread owns one pixel, and all threads iterate the tile's depth-sorted
Gaussian list together.  A warp may stop early only when *all 32* of its
pixels have terminated, so "even if only one thread (pixel) in a warp is not
terminated, all other threads in the warp still ineffectively consume shader
cores" (Section III-B).  This module computes, from the shared fragment
stream:

* per-warp executed rounds, with and without early termination
  (the CUDA rasterise-time driver, Figure 8);
* the fraction of executed thread-slots that perform blending
  (Figure 9's "threads performing blending in a warp").

Two engines, selected by the ``swmodel`` knob (``"auto"`` or
``"legacy"``; the caller chooses, there is no process-wide default).
The knob reaches only this model: the multi-pass model
(:mod:`repro.swopt.multipass`) picks its engine from the stream alone.

* ``_simulate_tile_warps_ir`` (``"auto"`` on a stream carrying a
  FrameIR) reads the (prim, tile) round structure straight off the
  stream's :class:`~repro.render.frameir.FrameIR` group ranges — the
  chunklet pass already enumerated the unique (prim, tile) pairs in
  emission order, so no fragment-level ``np.unique`` sort exists on this
  path — and resolves each pixel's exit round from digestion's per-pixel
  exit primitives (:meth:`~repro.render.fragstream.FragmentStream.
  exit_prims`), which a coherence full hit serves without any
  fragment-level array;
* ``_simulate_tile_warps_legacy`` (``"legacy"``, or a bare stream) is the
  retained fragment-sort oracle (the original ``np.unique`` over (tile,
  prim) keys), kept bit-exact for the equivalence tests; its per-pixel
  reductions run over the same cached chain via ``reduceat`` instead of
  the old ``np.minimum.at`` / ``np.maximum.at`` scatters.
"""

from __future__ import annotations

import numpy as np

from repro.render.fragstream import (
    DEFAULT_TERMINATION_ALPHA,
    WARP_SIZE,
    FragmentStream,
)
from repro.swrender.tiling import TILE_SIZE

WARP_ROWS = WARP_SIZE // TILE_SIZE  # a warp covers a 16x2-pixel strip
WARPS_PER_TILE = TILE_SIZE // WARP_ROWS

#: Valid values of the ``swmodel`` knob: the FrameIR-backed engine, or
#: the retained fragment-sort oracle.
SWMODEL_MODES = ("auto", "legacy")


def resolve_swmodel(swmodel="auto"):
    """Validate a ``swmodel`` knob value."""
    if swmodel not in SWMODEL_MODES:
        raise ValueError(
            f"unknown swmodel mode {swmodel!r}; choose from {SWMODEL_MODES}")
    return swmodel


class WarpExecution:
    """Aggregate lockstep-execution statistics for one draw.

    Attributes
    ----------
    rounds_no_et:
        Total warp-rounds executed without early termination.
    rounds_et:
        Total warp-rounds with early termination (warp exits once all its
        pixels are done).
    blend_ops_no_et / blend_ops_et:
        Thread-slots that performed a blend in each mode.
    """

    def __init__(self, rounds_no_et, rounds_et, blend_ops_no_et, blend_ops_et):
        self.rounds_no_et = int(rounds_no_et)
        self.rounds_et = int(rounds_et)
        self.blend_ops_no_et = int(blend_ops_no_et)
        self.blend_ops_et = int(blend_ops_et)

    def et_speedup(self):
        """Rasterise-time speedup from early termination (Figure 8)."""
        if self.rounds_et == 0:
            return 1.0
        return self.rounds_no_et / self.rounds_et

    def blending_thread_fraction(self, early_term=True):
        """Fraction of executed thread-slots doing useful blending (Fig. 9)."""
        rounds = self.rounds_et if early_term else self.rounds_no_et
        ops = self.blend_ops_et if early_term else self.blend_ops_no_et
        slots = rounds * WARP_SIZE
        if slots == 0:
            return 0.0
        return ops / slots


def _warp_round_totals(done_pixels, done_rounds, rounds_per_tile,
                       width, height, tiles_x, tiles_y):
    """Per-mode round totals from the pixel exit structure.

    ``done_pixels`` / ``done_rounds`` name the pixels that terminate and
    the round each one exits after; every other pixel runs its tile's
    full Gaussian list.  The ET total is the per-warp max over each
    16x2-pixel strip, taken as a blocked reshape of the padded screen —
    the pad rows/columns hold 0, below any real round, so warps that
    straddle the image edge reduce over their real pixels exactly as the
    old ``np.maximum.at`` scatter (zero-initialised accumulator) did.
    """
    rounds_no_et = WARPS_PER_TILE * int(rounds_per_tile.sum())
    done2d = np.zeros((tiles_y * TILE_SIZE, tiles_x * TILE_SIZE),
                      dtype=np.int64)
    full = np.repeat(np.repeat(rounds_per_tile.reshape(tiles_y, tiles_x),
                               TILE_SIZE, axis=0), TILE_SIZE, axis=1)
    done2d[:height, :width] = full[:height, :width]
    done2d[done_pixels // width, done_pixels % width] = done_rounds
    warp_max = done2d.reshape(tiles_y, WARPS_PER_TILE, WARP_ROWS,
                              tiles_x, TILE_SIZE).max(axis=(2, 4))
    return rounds_no_et, int(warp_max.sum())


def _simulate_tile_warps_ir(stream, threshold):
    """Round totals off the FrameIR group ranges (no fragment sort).

    The IR's (prim, tile) groups *are* the legacy model's unique
    (tile, prim) pairs — every group holds at least one fragment and
    every fragment belongs to one — listed in (prim, tile) order, so the
    per-tile round structure is a bincount plus one tiny stable sort of
    the group list (never the fragments).  A pixel's exit round is the
    round of its first already-terminated fragment; within a pixel the
    fragments share one tile and arrive prim-ascending, so rounds are
    strictly increasing and the per-pixel exit primitive from digestion
    names that fragment's round directly — one lookup per terminated
    pixel instead of a full-stream ``minimum.at``.
    """
    width, height = stream.width, stream.height
    tiles_x = -(-width // TILE_SIZE)
    tiles_y = -(-height // TILE_SIZE)
    n_tiles = tiles_x * tiles_y

    groups = stream.frameir.quads().groups
    g_tile = groups.tile
    n_groups = len(groups)
    rounds_per_tile = np.bincount(g_tile, minlength=n_tiles)

    # Round of each group within its tile: groups arrive (prim, tile)-
    # sorted, so a stable sort by tile keeps each tile's groups in
    # ascending-prim order — the tile's depth-ordered Gaussian list.
    t_order = np.argsort(g_tile, kind="stable")
    tile_starts = np.zeros(n_tiles + 1, dtype=np.int64)
    np.cumsum(rounds_per_tile, out=tile_starts[1:])
    round_of_group = np.empty(n_groups, dtype=np.int64)
    round_of_group[t_order] = (np.arange(n_groups, dtype=np.int64)
                               - tile_starts[g_tile[t_order]])

    exit_prim = stream.exit_prims(threshold)
    done_pixels = np.flatnonzero(exit_prim >= 0)
    prim = exit_prim[done_pixels].astype(np.int64)
    tile = (((done_pixels // width) // TILE_SIZE) * tiles_x
            + (done_pixels % width) // TILE_SIZE)
    # g_key is strictly increasing (groups are (prim, tile)-sorted), and
    # every (prim, tile) seen by a fragment has a group, so the lookup is
    # an exact searchsorted hit.
    g_key = groups.prim.astype(np.int64) * n_tiles + g_tile
    g_idx = np.searchsorted(g_key, prim * n_tiles + tile)
    done_rounds = round_of_group[g_idx]
    return _warp_round_totals(done_pixels, done_rounds, rounds_per_tile,
                              width, height, tiles_x, tiles_y)


def _simulate_tile_warps_legacy(stream, threshold):
    """The retained fragment-sort oracle: round structure via a full
    ``np.unique`` over (tile, prim) fragment keys.

    The per-pixel exit reduction runs over digestion's cached
    pixel-sorted chain with one ``reduceat`` (identical minima to the
    old ``np.minimum.at`` scatter, far faster), and the per-warp max
    shares :func:`_warp_round_totals` with the IR engine.
    """
    width, height = stream.width, stream.height
    tiles_x = -(-width // TILE_SIZE)
    tiles_y = -(-height // TILE_SIZE)
    n_tiles = tiles_x * tiles_y

    tile_of_frag = ((stream.y // TILE_SIZE).astype(np.int64) * tiles_x
                    + stream.x // TILE_SIZE)

    # Round index of each fragment: rank of its primitive within its tile's
    # depth-ordered Gaussian list == rank of the (tile, prim) pair among the
    # tile's unique pairs.
    n_prims = stream.prim_colors.shape[0]
    pair_key = tile_of_frag * n_prims + stream.prim_ids
    unique_pairs, frag_pair_idx = np.unique(pair_key, return_inverse=True)
    pair_tile = unique_pairs // n_prims
    tile_pair_starts = np.zeros(n_tiles + 1, dtype=np.int64)
    counts = np.bincount(pair_tile, minlength=n_tiles)
    np.cumsum(counts, out=tile_pair_starts[1:])
    frag_round = frag_pair_idx - tile_pair_starts[pair_tile[frag_pair_idx]]
    rounds_per_tile = counts  # Gaussians assigned to each tile

    # Pixel "done" round: the round of the first fragment arriving already
    # terminated, as a segment minimum over the pixel-sorted domain.
    stream._ensure_arrival_sorted()
    order = stream._pixel_order
    pix_sorted = stream._cache["pix_sorted"]
    starts = stream._cache["pixel_starts"]
    sentinel = np.iinfo(np.int64).max
    term_sorted = stream._cache["arrival_sorted"] >= threshold
    masked = np.where(term_sorted, frag_round[order], sentinel)
    seg_min = np.minimum.reduceat(masked, starts)
    has_done = seg_min != sentinel
    done_pixels = pix_sorted[starts][has_done]
    done_rounds = seg_min[has_done]
    return _warp_round_totals(done_pixels, done_rounds, rounds_per_tile,
                              width, height, tiles_x, tiles_y)


def simulate_tile_warps(stream, threshold=DEFAULT_TERMINATION_ALPHA,
                        swmodel="auto"):
    """Run the lockstep model over a fragment stream.

    The stream's primitive order is the global depth order, which is also
    each tile's processing order (the CUDA renderer sorts by (tile | depth)
    keys, yielding per-tile depth-sorted lists).  ``swmodel`` selects the
    engine: ``"auto"`` reads the FrameIR whenever the stream carries one,
    ``"legacy"`` forces the fragment-sort oracle.  Both engines are
    bit-exact.
    """
    if not isinstance(stream, FragmentStream):
        raise TypeError(
            f"stream must be a FragmentStream, got {type(stream).__name__}")
    swmodel = resolve_swmodel(swmodel)
    if len(stream) == 0:
        return WarpExecution(0, 0, 0, 0)

    if swmodel != "legacy" and stream.frameir is not None:
        rounds_no_et, rounds_et = _simulate_tile_warps_ir(stream, threshold)
    else:
        rounds_no_et, rounds_et = _simulate_tile_warps_legacy(
            stream, threshold)

    blend_no_et = stream.n_unpruned()
    blend_et = stream.n_et_survivors(threshold)
    return WarpExecution(rounds_no_et, rounds_et, blend_no_et, blend_et)
