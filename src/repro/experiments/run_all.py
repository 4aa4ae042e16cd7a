"""Run every experiment and print every table/figure in paper order.

Usage::

    python -m repro.experiments.run_all

Draws are memoised per (scene, variant) in :mod:`repro.engine.cache`;
fragment streams are rebuilt per figure, since only the most recent one is
kept.  Expect a few minutes for the complete set.
"""

from __future__ import annotations

from repro.experiments import (
    ablations,
    fig01_unit_counts,
    fig05_sw_vs_hw,
    fig06_utilization,
    fig07_frags_per_pixel,
    fig08_cuda_early_term,
    fig09_warp_occupancy,
    fig10_inshader,
    fig11_multipass,
    fig16_speedup,
    fig17_end_to_end,
    fig18_reduction,
    fig19_energy,
    fig20_microbench,
    fig21_et_ratio,
    fig22_gscore,
    fig23_large_scale,
    tables,
)

#: (label, module) in paper order; each module prints its own artefact.
EXPERIMENT_SEQUENCE = (
    ("Figure 1", fig01_unit_counts),
    ("Figure 5", fig05_sw_vs_hw),
    ("Figure 6", fig06_utilization),
    ("Figure 7", fig07_frags_per_pixel),
    ("Figure 8", fig08_cuda_early_term),
    ("Figure 9", fig09_warp_occupancy),
    ("Figure 10", fig10_inshader),
    ("Figure 11", fig11_multipass),
    ("Tables I-III", tables),
    ("Figure 16", fig16_speedup),
    ("Figure 17", fig17_end_to_end),
    ("Figure 18", fig18_reduction),
    ("Figure 19", fig19_energy),
    ("Figure 20 + binning probe", fig20_microbench),
    ("Figure 21", fig21_et_ratio),
    ("Figure 22", fig22_gscore),
    ("Figure 23", fig23_large_scale),
    ("Ablations", ablations),
)


def main():
    for label, module in EXPERIMENT_SEQUENCE:
        print("=" * 72)
        print(label)
        print("=" * 72)
        module.main()
        print()


if __name__ == "__main__":
    main()
