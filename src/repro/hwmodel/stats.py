"""Per-unit counters and the utilisation report (Figure 6's quantity).

The pipeline is modelled as a stream flowing through units; each unit
accumulates *items processed* and *busy cycles*.  Total draw time is the
streaming-bottleneck maximum over units plus a fill/drain adder, and
utilisation is ``busy / total`` — exactly the
``Measured Throughput / Max Throughput`` ratio in the paper's Figure 6.
"""

from __future__ import annotations

import copy

import numpy as np


class UnitStats:
    """Counters for one hardware unit."""

    def __init__(self, name):
        self.name = name
        self.items = 0
        self.busy_cycles = 0.0

    def add(self, items, cycles):
        """Record ``items`` processed costing ``cycles`` busy cycles."""
        if items < 0 or cycles < 0:
            raise ValueError(f"negative work recorded on {self.name}")
        self.items += int(items)
        self.busy_cycles += float(cycles)

    def add_sequence(self, items, cycles_seq):
        """Record a whole sequence of events in one call.

        ``cycles_seq`` holds one busy-cycle value per event (a NumPy array
        or any iterable); the values are accumulated with *sequential*
        left-to-right float additions, so the result is bit-identical to
        calling :meth:`add` once per event — the property the batched
        flush engine relies on for cycle-exactness against the scalar
        per-flush path.  The accumulation runs as one ``np.add.accumulate``
        seeded with the current total, which performs exactly that
        left-to-right addition order (unlike ``np.sum``'s pairwise tree)
        at vector speed.  ``items`` is the (order-insensitive) total.
        """
        if not isinstance(cycles_seq, np.ndarray):
            cycles_seq = list(cycles_seq)
        values = np.asarray(cycles_seq, dtype=np.float64).reshape(-1)
        if items < 0 or (values.size and float(values.min()) < 0):
            raise ValueError(f"negative work recorded on {self.name}")
        self.items += int(items)
        if values.size:
            seeded = np.concatenate(([self.busy_cycles], values))
            self.busy_cycles = float(np.add.accumulate(seeded)[-1])

    def __repr__(self):
        return (f"UnitStats({self.name!r}, items={self.items}, "
                f"busy={self.busy_cycles:.0f})")


#: Canonical unit names reported by the pipeline.
UNIT_NAMES = (
    "vpo", "tgc", "raster", "tc", "prop", "zrop", "sm", "crop", "dram",
)


class PipelineStats:
    """All counters of a simulated draw call.

    Attributes beyond per-unit stats capture the event counts the paper's
    figures are built from: fragments/quads blended (Figure 18), warps
    launched (§VII tile-binning probe), TC/TGC flush causes, merge counts,
    cache hits/misses, and termination updates.
    """

    def __init__(self):
        self.units = {name: UnitStats(name) for name in UNIT_NAMES}
        self.total_cycles = 0.0

        # Workload counters.
        self.n_prims = 0
        self.n_vertices = 0
        self.quads_rasterized = 0
        self.quads_to_sm = 0
        self.quads_discarded_zrop = 0
        self.quads_merged_pairs = 0
        self.quads_to_crop = 0
        self.fragments_shaded = 0
        self.fragments_blended = 0
        self.warps_launched = 0
        self.merge_warps = 0

        # Bin dynamics.
        self.tc_flush_full = 0
        self.tc_flush_evict = 0
        self.tc_flush_timeout = 0
        self.tc_flush_final = 0
        self.tgc_flush_full = 0
        self.tgc_flush_evict = 0
        self.tgc_flush_final = 0

        # ROP memory system.
        self.crop_cache_hits = 0
        self.crop_cache_misses = 0
        self.zrop_tests = 0
        self.termination_updates = 0
        self.dram_bytes = 0.0

    def copy(self):
        """An independent copy: its unit counters are copies too."""
        other = copy.copy(self)
        other.units = {name: copy.copy(unit)
                       for name, unit in self.units.items()}
        return other

    # ------------------------------------------------------------------

    def finalize(self, fill_cycles):
        """Set ``total_cycles`` from the streaming-bottleneck model."""
        peak = max(unit.busy_cycles for unit in self.units.values())
        self.total_cycles = peak + float(fill_cycles)
        return self.total_cycles

    def utilization(self):
        """Per-unit ``busy / total`` ratios (Figure 6)."""
        if self.total_cycles <= 0:
            raise RuntimeError("finalize() must run before utilization()")
        return {name: unit.busy_cycles / self.total_cycles
                for name, unit in self.units.items()}

    def bottleneck(self):
        """Name of the unit with the highest busy-cycle count."""
        return max(self.units.values(), key=lambda u: u.busy_cycles).name

    def tc_flushes(self):
        return (self.tc_flush_full + self.tc_flush_evict
                + self.tc_flush_timeout + self.tc_flush_final)

    def summary(self):
        """Human-readable multi-line report."""
        lines = [f"total cycles: {self.total_cycles:,.0f} "
                 f"(bottleneck: {self.bottleneck()})"]
        util = self.utilization()
        for name in UNIT_NAMES:
            unit = self.units[name]
            lines.append(f"  {name:>6}: items={unit.items:>10,} "
                         f"busy={unit.busy_cycles:>12,.0f} "
                         f"util={util[name]:6.1%}")
        lines.append(
            f"  quads: raster={self.quads_rasterized:,} sm={self.quads_to_sm:,} "
            f"crop={self.quads_to_crop:,} merged_pairs={self.quads_merged_pairs:,}")
        lines.append(
            f"  frags: shaded={self.fragments_shaded:,} "
            f"blended={self.fragments_blended:,}")
        lines.append(
            f"  tc flushes: full={self.tc_flush_full:,} "
            f"evict={self.tc_flush_evict:,} "
            f"timeout={self.tc_flush_timeout:,} "
            f"final={self.tc_flush_final:,}; "
            f"warps={self.warps_launched:,}")
        lines.append(
            f"  crop cache: hits={self.crop_cache_hits:,} "
            f"misses={self.crop_cache_misses:,}; dram={self.dram_bytes:,.0f} B")
        return "\n".join(lines)
