"""VR-Pipe: the paper's contribution as a public API.

* :mod:`repro.core.het` — hardware early termination (Figure 13) as a
  sequential spec, ``blend_with_het``, that the tests compare the timing
  model's vectorised HET masks against.
* :mod:`repro.core.quad_merge` — quad merging via warp shuffle and partial
  front-to-back blending (Figures 14/15), the colour spec of QM.
* :mod:`repro.core.vrpipe` — variant configs (Baseline / QM / HET / HET+QM),
  the end-to-end hardware renderer, and the Table III cost accounting.
"""

from repro.core.het import blend_with_het
from repro.core.quad_merge import (
    merge_quad_pair,
    merge_flush_batch,
)
from repro.core.vrpipe import (
    VARIANTS,
    HardwareRenderer,
    hardware_cost_bytes,
    run_all_variants,
    run_variant,
    speedups_over_baseline,
    variant_config,
)

__all__ = [
    "blend_with_het",
    "merge_quad_pair",
    "merge_flush_batch",
    "VARIANTS",
    "HardwareRenderer",
    "hardware_cost_bytes",
    "run_all_variants",
    "run_variant",
    "speedups_over_baseline",
    "variant_config",
]
