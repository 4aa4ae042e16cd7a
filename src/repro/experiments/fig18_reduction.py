"""Figure 18: reduction in quads and fragments blended by the ROP.

Per scene and variant, the ratio ``baseline_count / variant_count`` for
both quads and fragments — the mechanism behind Figure 16's speedups.
Paper shape: HET reduces fragments ~2.5x and quads ~1.9x (quads drop less
because a quad survives unless *all* its fragments terminate); QM stacks a
further ~1.3x on both by pairing overlapping quads.
"""

from __future__ import annotations

from repro.core.vrpipe import VARIANTS
from repro.engine import get_draw
from repro.experiments.runner import format_table
from repro.workloads.catalog import scene_names


def run(scenes=None, device_name="orin"):
    """``{scene: {variant: {"quad_reduction", "fragment_reduction"}}}``."""
    scenes = list(scenes) if scenes is not None else scene_names()
    out = {}
    for name in scenes:
        base = get_draw(name, "baseline", device_name)
        base_quads = base.stats.quads_to_crop
        base_frags = base.stats.fragments_blended
        out[name] = {}
        for variant in VARIANTS:
            res = get_draw(name, variant, device_name)
            out[name][variant] = {
                "quad_reduction": base_quads / max(res.stats.quads_to_crop, 1),
                "fragment_reduction": (base_frags
                                       / max(res.stats.fragments_blended, 1)),
            }
    return out


def main(data=None):
    data = run() if data is None else data
    rows = []
    for name, per_variant in data.items():
        for variant, d in per_variant.items():
            rows.append([name, variant.upper(), d["fragment_reduction"],
                         d["quad_reduction"]])
    print(format_table(
        ["Scene", "Variant", "Fragment reduction", "Quad reduction"], rows,
        title="Figure 18: ROP workload reduction ratios"))


if __name__ == "__main__":
    main()
