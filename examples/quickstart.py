"""Quickstart: build a scene, render it, and measure VR-Pipe's speedup.

Walks the library's main path end to end:

1. compose a synthetic 3D Gaussian scene;
2. render the ground-truth image with the reference renderer;
3. simulate the draw call on all four hardware variants
   (Baseline / QM / HET / HET+QM) and report speedups and image fidelity.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import run_all_variants, speedups_over_baseline
from repro.gaussians import Camera, synthetic
from repro.hwmodel.energy import efficiency_ratio
from repro.render import render_reference
from repro.render.image_io import write_ppm


def build_demo_scene(seed=0):
    """A small object in front of a layered backdrop (deep enough for HET)."""
    rng = np.random.default_rng(seed)
    backdrop = synthetic.make_layered_surfaces(
        rng, 1500, center=(0, 0, 0.8), extent=(1.4, 0.9), n_layers=8,
        layer_spacing=0.25, scale_mean=0.06, opacity_low=0.7)
    subject = synthetic.make_blob(
        rng, 500, center=(0, 0, -0.5), radius=0.4, scale_mean=0.05,
        base_color=(0.7, 0.45, 0.3))
    ground = synthetic.make_plane(
        rng, 300, center=(0, -0.6, 0.2), normal=(0, 1, 0), extent=2.0,
        base_color=(0.35, 0.4, 0.3))
    return synthetic.compose(subject, backdrop, ground)


def main():
    scene = build_demo_scene()
    camera = Camera.look_at(eye=(0.0, 0.3, -2.6), target=(0, 0, 0),
                            width=224, height=224)
    print(f"scene: {scene}")

    reference = render_reference(scene, camera)
    stream = reference.stream
    print(f"visible splats: {reference.pre.n_visible:,}   "
          f"fragments: {len(stream):,}   "
          f"early-termination ratio: {stream.termination_ratio():.2f}")

    results = run_all_variants(stream)
    speedups = speedups_over_baseline(results)
    print(f"\n{'variant':>9} {'cycles':>12} {'speedup':>8} "
          f"{'frags blended':>14} {'bottleneck':>11}")
    for name, res in results.items():
        print(f"{name:>9} {res.cycles:>12,.0f} {speedups[name]:>8.2f} "
              f"{res.stats.fragments_blended:>14,} "
              f"{res.stats.bottleneck():>11}")

    eff = efficiency_ratio(results["baseline"], results["het+qm"])
    print(f"\nenergy efficiency of HET+QM over baseline: {eff:.2f}x")

    # Fidelity: HET perturbs the image by at most the residual
    # transmittance (1 - 0.996); QM is bit-exact.
    et_image, _ = stream.blend_image(early_term=True)
    err = np.abs(reference.image - et_image).max()
    print(f"max image error from early termination: {err:.4f} "
          f"(bound: 0.004)")

    out = write_ppm("quickstart_render.ppm", reference.image)
    print(f"rendered frame written to {out}")


if __name__ == "__main__":
    main()
