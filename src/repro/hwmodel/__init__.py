"""Cycle-approximate model of a tile-based hardware graphics pipeline.

This subpackage is the reproduction's stand-in for the (heavily modified)
Emerald simulator the paper uses: it models the pipeline stages of a
contemporary NVIDIA-like GPU — VPO, tile-grid coalescing, rasteriser, tile
coalescing, PROP with quad reordering, ZROP, shader cores, CROP with its
16 KB cache — at quad/flush granularity, with exact bin dynamics and a
streaming-bottleneck cycle model.  See DESIGN.md §5.2 for the modelling
rationale and fidelity discussion.
"""

from repro.hwmodel.config import (
    GPUConfig,
    EnergyTable,
    jetson_agx_orin,
    rtx_3090,
)
from repro.hwmodel.stats import PipelineStats, UnitStats
from repro.hwmodel.caches import LRUCache
from repro.hwmodel.flushplan import (
    FlushDigest,
    FlushPlan,
    build_flush_plan,
    digest_flushes,
    replay_flushes,
)
from repro.hwmodel.pipeline import DrawResult, GraphicsPipeline
from repro.hwmodel.energy import draw_energy
from repro.hwmodel.report import compare_variants, draw_report
from repro.hwmodel.trace import DrawTrace

__all__ = [
    "compare_variants",
    "draw_report",
    "DrawTrace",
    "FlushDigest",
    "FlushPlan",
    "GPUConfig",
    "EnergyTable",
    "jetson_agx_orin",
    "rtx_3090",
    "PipelineStats",
    "UnitStats",
    "LRUCache",
    "DrawResult",
    "GraphicsPipeline",
    "build_flush_plan",
    "digest_flushes",
    "draw_energy",
    "replay_flushes",
]
