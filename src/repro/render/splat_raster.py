"""Batched rasterisation of depth-sorted 2D splats into a fragment stream.

This models the fixed-function rasteriser's *coverage* decision: a pixel is
covered when its centre lies inside the splat's tight oriented bounding box
(the two triangles of Figure 4).  Per-fragment alpha is evaluated from the
Gaussian conic exactly as the fragment shader would; fragments whose alpha
falls below ``1/255`` remain in the stream flagged as *pruned* (they are
shaded but never blended), matching the paper's "alpha pruning".

Two implementations produce **bit-identical** streams (enforced by the
golden tests in ``tests/test_golden_raster.py``):

:func:`rasterize_splats`
    The batched production path.  Each splat's bounding box is clipped to
    the framebuffer in one vectorised pass, coverage is resolved per
    scanline row as an exact pixel interval (the OBB is convex, so each
    row's covered set is contiguous — see :func:`_row_intervals`), and
    conic alpha is evaluated for all fragments with broadcasting in
    cache-sized blocks.  No Python loop over splats.

:func:`rasterize_splats_scalar`
    The original per-splat reference loop, kept as the golden baseline for
    the equivalence tests.

Bit-identity holds because both paths evaluate the same IEEE-754 double
expressions per pixel in the same operand order; the batched path only
changes *which* pixels are visited, never the arithmetic.  Fragments are
emitted primitive-major, row-major per splat, exactly like the loop.
"""

from __future__ import annotations

import numpy as np

from repro.gaussians.projection import ALPHA_MAX, Splat2D
from repro.render.fragstream import FragmentStream
from repro.render.frameir import FrameIR, resolve_ir, row_fragments
from repro.utils.validation import check_positive

_EPS = float(np.finfo(np.float64).eps)

#: Fragment block size for the batched alpha evaluation.  Blocks of ~64k
#: doubles keep every intermediate in L2, which is ~3x faster per pass than
#: streaming whole-frame arrays through DRAM.
_FRAGMENT_BLOCK = 65536


def _ragged_arange(counts):
    """``(owner, local)`` indices of the ragged range family ``counts``.

    For segment lengths ``[2, 3]`` returns owners ``[0, 0, 1, 1, 1]`` and
    local indices ``[0, 1, 0, 1, 2]`` — the flattening every batched stage
    here uses (rows per splat, pixels per row).
    """
    counts = np.asarray(counts)
    total = int(counts.sum())
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return owner, local


def _empty_stream(splats, width, height, ir="auto"):
    empty = np.empty(0, dtype=np.int64)
    frameir = None
    if ir != "legacy":
        frameir = FrameIR(empty, empty, empty, empty, empty,
                          n_fragments=0, width=width, height=height)
    return FragmentStream(
        prim_ids=np.empty(0, dtype=np.int32),
        x=np.empty(0, dtype=np.int32),
        y=np.empty(0, dtype=np.int32),
        alphas=np.empty(0, dtype=np.float32),
        prim_colors=splats.colors,
        width=width,
        height=height,
        frameir=frameir,
    )


def _clipped_bounds(splats, width, height):
    """Kept splat ids + clipped integer pixel bounds, matching the scalar
    loop's ``max(int(floor), 0)`` / ``min(int(ceil), edge)`` exactly."""
    bboxes = splats.bounding_boxes()
    positive = (splats.radii > 0.0).all(axis=1)
    safe = np.where(positive[:, None], bboxes, 0.0)
    x0 = np.maximum(np.floor(safe[:, 0]), 0.0).astype(np.int64)
    y0 = np.maximum(np.floor(safe[:, 1]), 0.0).astype(np.int64)
    x1 = np.minimum(np.ceil(safe[:, 2]), width - 1.0).astype(np.int64)
    y1 = np.minimum(np.ceil(safe[:, 3]), height - 1.0).astype(np.int64)
    keep = positive & (x1 >= x0) & (y1 >= y0)
    sid = np.flatnonzero(keep)
    return sid, x0[sid], y0[sid], x1[sid], y1[sid]


def rasterize_splats(splats, width, height, max_fragments=200_000_000,
                     ir="auto"):
    """Rasterise sorted splats into a :class:`FragmentStream` (batched).

    Parameters
    ----------
    splats:
        :class:`Splat2D` already sorted front-to-back (draw order ==
        blending order).
    width, height:
        Framebuffer size in pixels.
    max_fragments:
        Safety valve: raise rather than exhaust memory if the workload
        explodes (e.g. a degenerate scene with screen-sized splats).  The
        batched path counts fragments *before* materialising them, so the
        guard fires without allocating the stream.
    ir:
        Digestion path of the stream, chosen here and nowhere else (see
        :mod:`repro.render.frameir`): ``"auto"`` attaches a
        :class:`~repro.render.frameir.FrameIR` carrying the raster's
        row-interval structure for downstream digestion; ``"legacy"``
        emits a bare stream so every consumer takes the original
        sort-based paths.  The fragment arrays are bit-identical in
        both modes.

    Returns
    -------
    :class:`FragmentStream` with fragments in primitive-major emission
    order, bit-identical to :func:`rasterize_splats_scalar`.
    """
    if not isinstance(splats, Splat2D):
        raise TypeError(f"splats must be a Splat2D, got {type(splats).__name__}")
    width = int(check_positive("width", width))
    height = int(check_positive("height", height))
    ir = resolve_ir(ir)

    sid, x0, y0, x1, y1 = _clipped_bounds(splats, width, height)
    if sid.size == 0:
        return _empty_stream(splats, width, height, ir=ir)

    rows = _row_intervals(splats, sid, x0, y0, x1, y1)
    (rs, yrow, dy, xlo, xhi, lengths) = rows
    total = int(lengths.sum())
    if total > max_fragments:
        raise MemoryError(
            f"fragment stream exceeds max_fragments={max_fragments}; "
            "reduce scene size or resolution")
    if total == 0:
        return _empty_stream(splats, width, height, ir=ir)

    live = np.flatnonzero(lengths > 0)
    fstarts = np.concatenate(([0], np.cumsum(lengths[live])))
    # One covered pixel interval per live scanline, as contiguous
    # fragment runs: the coordinates expand from these rows, and the IR
    # carries them as the source every IR-derived grouping is built from.
    row_prim, row_y = sid[rs[live]], yrow[live]
    row_xlo, row_fstart = xlo[live], fstarts[:-1]
    prim_ids, x, y = row_fragments(row_prim, row_y, row_xlo, row_fstart,
                                   total)
    alphas = _fill_alphas(splats, sid, rs[live], dy[live], x, fstarts)
    frameir = None
    if ir != "legacy":
        frameir = FrameIR(
            row_prim=row_prim, row_y=row_y, row_xlo=row_xlo,
            row_xhi=xhi[live], row_fstart=row_fstart, n_fragments=total,
            width=width, height=height)
    # Coordinates come from bounds clipped to the framebuffer and prim ids
    # from splat rows, so the stream skips the range re-validation.
    return FragmentStream(
        prim_ids=prim_ids, x=x, y=y, alphas=alphas,
        prim_colors=splats.colors, width=width, height=height,
        validate=False, frameir=frameir)


def _row_intervals(splats, sid, x0, y0, x1, y1):
    """Per-scanline covered pixel intervals, exact w.r.t. the scalar test.

    For every bounding-box row of every kept splat, the set of covered
    pixels (``|u| <= r0 and |v| <= r1`` with ``u``/``v`` the float64 OBB
    projections) is contiguous: ``u(x)`` and ``v(x)`` are monotone in ``x``
    even under IEEE rounding (``x + 0.5`` is exact and multiplication /
    addition are monotone), so each slab constraint admits an interval of
    pixels and their intersection is an interval.

    The interval endpoints are first *estimated* by solving the two slab
    inequalities in floating point, then *snapped* with the exact per-pixel
    test: the estimate carries a computable error bound (``err`` below);
    rows where it is below a quarter pixel need at most one snap step per
    endpoint, and the rare rows where the bound is loose (near-degenerate
    axis projections) fall back to an exact scan of the whole row.
    """
    cx = splats.centers[sid, 0]
    p0 = splats.axes[sid, 0, 0]
    q0 = splats.axes[sid, 0, 1]
    p1 = splats.axes[sid, 1, 0]
    q1 = splats.axes[sid, 1, 1]
    r0 = splats.radii[sid, 0]
    r1 = splats.radii[sid, 1]

    h = y1 - y0 + 1
    n_rows = int(h.sum())
    rs, local = _ragged_arange(h)
    yrow = y0[rs] + local
    cxr = cx[rs]
    dy = (yrow + 0.5) - splats.centers[sid, 1][rs]

    p0r, q0r, r0r = p0[rs], q0[rs], r0[rs]
    p1r, q1r, r1r = p1[rs], q1[rs], r1[rs]
    t0 = dy * q0r
    t1 = dy * q1r
    x0r, x1r = x0[rs], x1[rs]

    lo = np.full(n_rows, -np.inf)
    hi = np.full(n_rows, np.inf)
    trusted = np.ones(n_rows, dtype=bool)
    row_empty = np.zeros(n_rows, dtype=bool)
    shift = cxr - 0.5
    for p, t, r in ((p0r, t0, r0r), (p1r, t1, r1r)):
        nz = p != 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            e1 = (-r - t) / p
            e2 = (r - t) / p
            err = 16.0 * _EPS * ((r + np.abs(t)) / np.abs(p) + np.abs(cxr) + 1.0)
        lo = np.where(nz, np.maximum(lo, np.minimum(e1, e2) + shift), lo)
        hi = np.where(nz, np.minimum(hi, np.maximum(e1, e2) + shift), hi)
        # A zero x-projection makes the constraint row-wide constant; the
        # per-pixel test reduces to |t| <= r exactly (dx * 0 + t == t).
        row_empty |= ~nz & ~(np.abs(t) <= r)
        trusted &= np.where(nz, err < 0.25, True)

    xlo = np.clip(np.ceil(lo), x0r, x1r).astype(np.int64)
    xhi = np.clip(np.floor(hi), x0r, x1r).astype(np.int64)

    def cov(xi):
        """The exact scalar-path coverage test at pixel column ``xi``."""
        dx = (xi + 0.5) - cxr
        return ((np.abs(dx * p0r + t0) <= r0r)
                & (np.abs(dx * p1r + t1) <= r1r))

    # One snap step per endpoint corrects the <= 1 px estimate error.
    step_out = cov(xlo - 1) & (xlo - 1 >= x0r)
    xlo = np.where(step_out, xlo - 1, np.where(cov(xlo), xlo, xlo + 1))
    step_out = cov(xhi + 1) & (xhi + 1 <= x1r)
    xhi = np.where(step_out, xhi + 1, np.where(cov(xhi), xhi, xhi - 1))
    valid = ~row_empty & (xlo <= xhi) & cov(xlo) & cov(xhi)

    fallback = np.flatnonzero(~trusted & ~row_empty)
    if fallback.size:
        first, last = _scan_rows_exact(
            fallback, x0r, x1r, cxr, p0r, t0, r0r, p1r, t1, r1r)
        xlo[fallback] = first
        xhi[fallback] = last
        valid[fallback] = last >= first

    lengths = np.where(valid, xhi - xlo + 1, 0)
    return rs, yrow, dy, xlo, xhi, lengths


def _scan_rows_exact(rows, x0r, x1r, cxr, p0r, t0, r0r, p1r, t1, r1r):
    """Exact per-pixel scan of ``rows`` (the no-estimate fallback path)."""
    widths = x1r[rows] - x0r[rows] + 1
    starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
    owner, local = _ragged_arange(widths)
    xs = x0r[rows][owner] + local
    sel = rows[owner]
    dx = (xs + 0.5) - cxr[sel]
    covered = ((np.abs(dx * p0r[sel] + t0[sel]) <= r0r[sel])
               & (np.abs(dx * p1r[sel] + t1[sel]) <= r1r[sel]))
    sentinel = int(x1r.max()) + 2
    first = np.minimum.reduceat(np.where(covered, xs, sentinel), starts)
    last = np.maximum.reduceat(np.where(covered, xs, -1), starts)
    return first, last


def _fill_alphas(splats, sid, rsl, row_dy, x, fstarts):
    """Conic alpha of every fragment of the live rows.

    ``rsl`` maps each live row to its kept-splat slot, ``row_dy`` is its
    scanline's ``y + 0.5 - cy``, ``x`` the fragments' pixel columns and
    ``fstarts`` the rows' fragment offsets (plus the total).  Every
    arithmetic step mirrors the scalar loop's expression order operation
    for operation (see module docstring), evaluated in blocks of ~64k
    fragments so all intermediates stay cache-resident.
    """
    counts = np.diff(fstarts)
    row_cx = splats.centers[sid, 0][rsl]
    row_a = splats.conics[sid, 0][rsl]
    row_b = splats.conics[sid, 1][rsl]
    row_op = splats.opacities[sid][rsl]
    # c * cdy * cdy is row-constant; precompute it with the scalar path's
    # exact association: (c * cdy) * cdy.
    row_cyy = (splats.conics[sid, 2][rsl] * row_dy) * row_dy
    alphas = np.empty(x.shape[0], dtype=np.float32)

    # Block boundaries (in live-row space) are fixed by the fragment
    # budget alone.
    n_rows = counts.size
    blocks = []
    r0b = 0
    while r0b < n_rows:
        r1b = int(np.searchsorted(fstarts, fstarts[r0b] + _FRAGMENT_BLOCK,
                                  side="left"))
        r1b = min(max(r1b, r0b + 1), n_rows)
        blocks.append((r0b, r1b))
        r0b = r1b

    def fill_block(block):
        r0, r1 = block
        f0 = int(fstarts[r0])
        f1 = int(fstarts[r1])
        reps = counts[r0:r1]

        def spread(row_values):
            # Row-constant values broadcast to fragments: same elements as
            # ``row_values[fr]`` with ``fr = repeat(arange(r0, r1), reps)``,
            # but np.repeat streams instead of gathering.
            return np.repeat(row_values[r0:r1], reps)

        # alpha = min(op * exp(-max(0.5*((a*dx)*dx + (c*dy)*dy)
        #                           + (b*dx)*dy, 0)), ALPHA_MAX)
        dx = x[f0:f1].astype(np.float64)
        dx += 0.5
        dx -= spread(row_cx)
        power = spread(row_a)
        power *= dx
        power *= dx
        power += spread(row_cyy)
        power *= 0.5
        cross = spread(row_b)
        cross *= dx
        cross *= spread(row_dy)
        power += cross
        np.maximum(power, 0.0, out=power)
        np.negative(power, out=power)
        np.exp(power, out=power)
        power *= spread(row_op)
        np.minimum(power, ALPHA_MAX, out=power)
        alphas[f0:f1] = power

    for block in blocks:
        fill_block(block)
    return alphas


def rasterize_splats_scalar(splats, width, height, max_fragments=200_000_000):
    """The original per-splat rasterisation loop (golden baseline).

    Semantically and bit-wise identical to :func:`rasterize_splats`; kept
    as the reference the golden tests compare against.  Uses open-grid
    broadcasting (``xs[None, :]`` / ``ys[:, None]``) instead of
    materialised ``np.meshgrid`` planes, which cuts peak memory per splat
    roughly 3x without changing any emitted value (the per-element IEEE
    operations are unchanged).
    """
    if not isinstance(splats, Splat2D):
        raise TypeError(f"splats must be a Splat2D, got {type(splats).__name__}")
    width = int(check_positive("width", width))
    height = int(check_positive("height", height))

    prim_chunks = []
    x_chunks = []
    y_chunks = []
    alpha_chunks = []
    total = 0

    bboxes = splats.bounding_boxes()
    for i in range(len(splats)):
        r0, r1 = splats.radii[i]
        if r0 <= 0.0 or r1 <= 0.0:
            continue
        xmin = max(int(np.floor(bboxes[i, 0])), 0)
        ymin = max(int(np.floor(bboxes[i, 1])), 0)
        xmax = min(int(np.ceil(bboxes[i, 2])), width - 1)
        ymax = min(int(np.ceil(bboxes[i, 3])), height - 1)
        if xmax < xmin or ymax < ymin:
            continue
        xs = np.arange(xmin, xmax + 1, dtype=np.int32)
        ys = np.arange(ymin, ymax + 1, dtype=np.int32)
        dx = xs[None, :] + 0.5 - splats.centers[i, 0]
        dy = ys[:, None] + 0.5 - splats.centers[i, 1]
        # OBB coverage: |d . axis_k| <= radius_k for both axes.
        ax0, ax1 = splats.axes[i]
        u = dx * ax0[0] + dy * ax0[1]
        v = dx * ax1[0] + dy * ax1[1]
        covered = (np.abs(u) <= r0) & (np.abs(v) <= r1)
        iy, ix = np.nonzero(covered)
        if ix.size == 0:
            continue
        cdx = dx[0, ix]
        cdy = dy[iy, 0]
        a, b, c = splats.conics[i]
        power = 0.5 * (a * cdx * cdx + c * cdy * cdy) + b * cdx * cdy
        alpha = splats.opacities[i] * np.exp(-np.maximum(power, 0.0))
        alpha = np.minimum(alpha, ALPHA_MAX)

        count = ix.size
        total += count
        if total > max_fragments:
            raise MemoryError(
                f"fragment stream exceeds max_fragments={max_fragments}; "
                "reduce scene size or resolution")
        prim_chunks.append(np.full(count, i, dtype=np.int32))
        x_chunks.append(xs[ix])
        y_chunks.append(ys[iy])
        alpha_chunks.append(alpha.astype(np.float32))

    if total == 0:
        # The scalar loop never carries a FrameIR (it is the golden
        # oracle); keep that true for empty scenes as well.
        return _empty_stream(splats, width, height, ir="legacy")
    return FragmentStream(
        prim_ids=np.concatenate(prim_chunks),
        x=np.concatenate(x_chunks),
        y=np.concatenate(y_chunks),
        alphas=np.concatenate(alpha_chunks),
        prim_colors=splats.colors,
        width=width,
        height=height,
    )
