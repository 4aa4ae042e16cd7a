"""Draw-call tracing: per-flush event records for bin-dynamics analysis.

The TGC/TC bin dynamics are where VR-Pipe's quad merging lives, so being
able to *see* every flush — its tile, size, cause, and how many pairs the
QRU found — matters for debugging and for reproducing the paper's binning
analysis.  Pass a :class:`DrawTrace` to
:meth:`~repro.hwmodel.pipeline.GraphicsPipeline.draw` and summarise the
events in-process.
"""

from __future__ import annotations


class FlushEvent:
    """One TC-bin flush as seen by the PROP."""

    __slots__ = ("index", "tile_id", "reason", "n_quads", "n_survivors",
                 "n_pairs", "n_crop_quads")

    def __init__(self, index, tile_id, reason, n_quads, n_survivors,
                 n_pairs, n_crop_quads):
        self.index = index
        self.tile_id = tile_id
        self.reason = reason
        self.n_quads = n_quads
        self.n_survivors = n_survivors
        self.n_pairs = n_pairs
        self.n_crop_quads = n_crop_quads

    def as_row(self):
        return [self.index, self.tile_id, self.reason, self.n_quads,
                self.n_survivors, self.n_pairs, self.n_crop_quads]


class DrawTrace:
    """Collects :class:`FlushEvent` records during one simulated draw."""

    def __init__(self):
        self.events = []

    def record_flush(self, tile_id, reason, n_quads, n_survivors, n_pairs,
                     n_crop_quads):
        self.events.append(FlushEvent(
            len(self.events), int(tile_id), str(reason), int(n_quads),
            int(n_survivors), int(n_pairs), int(n_crop_quads)))

    def record_flushes(self, tile_ids, reasons, n_quads, n_survivors,
                       n_pairs, n_crop_quads):
        """Append one event per flush from parallel arrays.

        Used by the batched flush engine to emit a whole draw's events in
        one call; the resulting event list is identical to per-flush
        :meth:`record_flush` calls in the same order.
        """
        def as_list(values):
            return values.tolist() if hasattr(values, "tolist") else list(values)

        append = self.events.append
        base = len(self.events)
        rows = zip(as_list(tile_ids), as_list(reasons), as_list(n_quads),
                   as_list(n_survivors), as_list(n_pairs),
                   as_list(n_crop_quads))
        for offset, (tile, reason, nq, ns, npairs, ncrop) in enumerate(rows):
            append(FlushEvent(base + offset, int(tile), str(reason), int(nq),
                              int(ns), int(npairs), int(ncrop)))

    def __len__(self):
        return len(self.events)

    # ------------------------------------------------------------------

    def merge_rate(self):
        """Fraction of surviving quads that merged into pairs."""
        survivors = sum(e.n_survivors for e in self.events)
        merged = sum(2 * e.n_pairs for e in self.events)
        return merged / survivors if survivors else 0.0

    def reasons(self):
        """Flush counts per cause (full / evict / timeout / final)."""
        out = {}
        for event in self.events:
            out[event.reason] = out.get(event.reason, 0) + 1
        return out

    def summary(self):
        sizes = [e.n_quads for e in self.events]
        if not sizes:
            return "DrawTrace(empty)"
        return (f"DrawTrace({len(self.events)} flushes, "
                f"mean size {sum(sizes) / len(sizes):.1f}, "
                f"merge rate {self.merge_rate():.1%}, "
                f"reasons {self.reasons()})")
