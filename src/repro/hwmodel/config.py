"""GPU configuration (Table I) and device presets.

Two kinds of numbers live here:

* **Paper-given facts** — everything in Table I of the paper (SIMT core
  count, frequencies, bin counts/sizes, ROP throughput, cache sizes) plus
  the §VII microbenchmark findings (quad-granularity ROPs, 16 KB CROP cache,
  32 TC bins, format-dependent pixels/cycle).
* **Calibrations** — per-op cycle/energy constants that the paper does not
  publish (shader instruction counts, interlock overhead, kernel-time
  coefficients).  Each is documented at its definition; changing them moves
  absolute numbers but not the qualitative results, which derive from unit
  workload *counts*.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class EnergyTable:
    """Per-operation energy costs in picojoules (calibrated, 8 nm-class).

    Values follow the usual architecture rules of thumb (DRAM access is
    ~100x an on-chip SRAM access; an FP16 MAC is ~1 pJ) and are only used
    for *relative* efficiency (Figure 19).
    """

    frag_shade_pj: float = 18.0        # fragment-shader invocation (alpha eval)
    vert_shade_pj: float = 10.0        # vertex-shader invocation
    blend_pj: float = 4.0              # one CROP blend (RGBA16F MAC + round)
    zrop_test_pj: float = 1.0          # stencil/termination test
    term_update_pj: float = 2.0        # termination-bit RMW in the z-cache
    warp_shuffle_pj: float = 1.5       # per-lane shuffle for quad merging
    cache_access_pj: float = 6.0       # CROP/Z cache line access
    l2_access_pj: float = 18.0         # L2 line access
    dram_byte_pj: float = 10.0         # LPDDR access per byte
    static_w: float = 4.0              # static + uncore power in watts
    # Fixed per-frame energy (microjoules): CPU submission, display
    # composition, DRAM refresh over the frame interval — identical across
    # variants, which is why measured efficiency (Figure 19, 1.65x avg)
    # trails the cycle speedup (Figure 16, 2.07x avg).
    frame_fixed_uj: float = 800.0


@dataclass
class GPUConfig:
    """Full configuration of the modelled GPU (defaults == Table I).

    Feature flags ``enable_het`` / ``enable_qm`` switch on the VR-Pipe
    hardware extensions; the baseline has both off.
    """

    name: str = "jetson-agx-orin-like"

    # ----- Table I facts -------------------------------------------------
    n_gpc: int = 1
    n_sm: int = 16                      # SIMT cores (1024 CUDA cores)
    sm_freq_mhz: float = 612.0
    lanes_per_sm: int = 64
    warp_schedulers_per_sm: int = 4
    l2_kb: int = 4096
    crop_cache_kb: int = 16
    zcache_kb: int = 16                 # symmetric with the CROP cache
    cache_line_bytes: int = 128
    raster_tile_px: int = 8             # 8x8-pixel raster tiles
    screen_tile_px: int = 16            # 16x16-pixel screen tiles
    tile_grid_tiles: int = 4            # 4x4 screen tiles per tile grid
    n_tgc_bins: int = 128
    tgc_bin_prims: int = 16
    n_tc_bins: int = 32
    tc_bin_quads: int = 128
    rop_quads_per_cycle: float = 2.0    # RGBA16F; doubles for RGBA8 (§VII)
    dram_bytes_per_cycle: float = 334.0  # ~204 GB/s at 612 MHz (Orin 30 W)

    # ----- Pixel format ---------------------------------------------------
    color_format: str = "rgba16f"       # or "rgba8"

    # ----- Calibrated unit throughputs/costs ------------------------------
    # Vertex processing & operations: one splat = 4 vertices, 2 triangles.
    vpo_prims_per_cycle: float = 0.5
    vert_shader_cycles_per_warp: float = 16.0
    # Rasteriser step throughputs.
    setup_cycles_per_prim: float = 2.0      # two triangles per splat
    coarse_raster_tiles_per_cycle: float = 1.0
    fine_raster_quads_per_cycle: float = 8.0
    # Tile coalescing insert throughput (never the bottleneck in practice).
    tc_quads_per_cycle: float = 8.0
    # TC idle-flush rule: a bin untouched while this many quads (for other
    # tiles) stream past is flushed with cause "timeout".  ``None``
    # disables the rule (capacity/eviction dominate splatting workloads);
    # the §VII microbenchmark probes enable it to mimic idle-flush
    # behaviour, and the flushes it causes are reported separately in
    # ``PipelineStats.tc_flush_timeout``.
    tc_timeout_quads: int | None = None
    # PROP handles ordering on the way into the SMs and into the CROP; a
    # quad passes it twice, and its items count both directions.  4/cycle
    # keeps the CROP the limiter for opaque RGBA8 microbenchmarks while the
    # two ROP stages run near-lockstep on splatting workloads (Figure 6).
    # Dispatch toward the SMs costs less than the ordered merge back into
    # the CROP stream (no ordering bookkeeping on the way out).
    prop_quads_per_cycle: float = 4.0
    prop_dispatch_weight: float = 0.5
    # ZROP stencil/termination test throughput and per-update RMW cost.
    # Tests read one stencil byte per pixel versus 8 B/pixel RGBA16F blends
    # in the CROP, so the same cache bandwidth sustains 8x the quads; the
    # termination check itself is a single-bit compare against cached lines.
    zrop_quads_per_cycle: float = 16.0
    term_update_cycles: float = 1.0
    # Fragment shader for Gaussian splatting: normalise pixel coords, dot
    # product with the conic, exp, pruning test (~26 issue slots per warp).
    frag_shader_cycles_per_warp: float = 26.0
    # Extra issue slots in merge warps: shuffle 4 values + ffb blend.
    quad_merge_extra_cycles: float = 8.0
    # CROP cache miss: residual occupancy per miss after the ROP's latency
    # hiding (most of the fill overlaps with blending of other quads; the
    # bandwidth cost is charged to DRAM separately).
    crop_miss_stall_cycles: float = 0.25
    # Pipeline fill/drain adder on the streaming-bottleneck total.
    pipeline_fill_cycles: float = 2000.0

    # ----- VR-Pipe features ----------------------------------------------
    enable_het: bool = False
    enable_qm: bool = False
    # Ablation switch: quad merging without the TGC unit (the QRU still
    # pairs within TC flushes, but primitives reach the rasteriser in raw
    # draw order, so bins flush prematurely and fewer overlaps coalesce).
    qm_use_tgc: bool = True
    termination_alpha: float = 0.996
    stencil_bits: int = 8               # MSB repurposed as termination flag
    # In-flight HET window: fragments per pixel that still pass the ZROP
    # test between the threshold-crossing blend and the stencil update
    # becoming visible (TC-bin residency + ROP pipeline depth).  0 would be
    # the perfect fragment-granular bound; the default is calibrated so the
    # realised HET speedup sits ~30% below the fragment-reduction potential,
    # matching the paper's Figure 16-vs-18 relation.
    het_inflight_lag: int = 16

    # ----- Energy ----------------------------------------------------------
    energy: EnergyTable = field(default_factory=EnergyTable)

    # ------------------------------------------------------------------

    def __post_init__(self):
        if self.color_format not in ("rgba16f", "rgba8"):
            raise ValueError(f"unknown color format {self.color_format!r}")
        if self.screen_tile_px % self.raster_tile_px:
            raise ValueError("screen tile must be a multiple of the raster tile")
        for name in ("n_sm", "n_tc_bins", "tc_bin_quads", "n_tgc_bins",
                     "tgc_bin_prims", "stencil_bits"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.tc_timeout_quads is not None and self.tc_timeout_quads <= 0:
            raise ValueError("tc_timeout_quads must be positive or None")
        if not 0.0 < self.termination_alpha < 1.0:
            raise ValueError("termination_alpha must be in (0, 1)")
        if self.het_inflight_lag < 0:
            # A negative window would kill fragments before the threshold
            # crossing itself.
            raise ValueError("het_inflight_lag must be non-negative")

    @property
    def bytes_per_pixel(self):
        """Colour-buffer footprint per pixel for the active format."""
        return 8 if self.color_format == "rgba16f" else 4

    @property
    def crop_quads_per_cycle(self):
        """Effective CROP blend throughput for the active format.

        §VII-A: a GPC processes 16 px/cycle in RGBA8 but 8 px/cycle in
        RGBA16F — i.e. the 64 B/cycle CROP-cache read bandwidth is the
        limit, so halving bytes/pixel doubles quads/cycle.
        """
        scale = 2.0 if self.color_format == "rgba8" else 1.0
        return self.rop_quads_per_cycle * scale

    @property
    def sm_issue_slots_per_cycle(self):
        """Aggregate warp-instruction issue slots per cycle across the GPC."""
        return self.n_sm * self.warp_schedulers_per_sm

    def variant(self, **overrides):
        """Return a copy with fields replaced (e.g. ``enable_het=True``)."""
        return replace(self, **overrides)

    def frequency_hz(self):
        return self.sm_freq_mhz * 1e6


def jetson_agx_orin(**overrides):
    """The paper's simulated configuration (Table I; Orin @ 30 W)."""
    return GPUConfig(name="jetson-agx-orin-like").variant(**overrides)


def rtx_3090(**overrides):
    """A desktop-class configuration for the Figure 5(b) comparison.

    The RTX 3090 has 82 SMs, 7 GPCs and 112 ROPs at ~1.7 GHz with ~936 GB/s
    GDDR6X.  We keep the single-GPC pipeline structure and scale aggregate
    throughputs, which is what the end-to-end comparison needs.
    """
    cfg = GPUConfig(
        name="rtx-3090-like",
        n_gpc=7,
        n_sm=82,
        sm_freq_mhz=1695.0,
        rop_quads_per_cycle=2.0 * 7,     # 7 GPCs' worth of ROP partitions
        prop_quads_per_cycle=2.2 * 7,
        zrop_quads_per_cycle=2.0 * 7,
        fine_raster_quads_per_cycle=4.0 * 7,
        coarse_raster_tiles_per_cycle=1.0 * 7,
        vpo_prims_per_cycle=0.5 * 7,
        tc_quads_per_cycle=8.0 * 7,
        dram_bytes_per_cycle=552.0,      # ~936 GB/s at 1.7 GHz
        crop_cache_kb=16 * 7,
        n_tc_bins=32 * 7,
    )
    return cfg.variant(**overrides)
