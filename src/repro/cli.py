"""Command-line interface: render scenes, simulate variants, run experiments.

Usage::

    python -m repro render  --scene train --out train.ppm
    python -m repro simulate --scene truck [--variant het+qm] [--all]
    python -m repro trajectory --scene train --backend hw:het+qm --views 24
    python -m repro experiment fig16
    python -m repro list-scenes
    python -m repro lint [paths ...]

The CLI wraps the library's main entry points so the reproduction can be
driven without writing Python.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from repro.core.vrpipe import VARIANTS, run_all_variants, run_variant
from repro.engine.backends import available_backends
from repro.engine.cache import ResultCache
from repro.engine.session import RenderSession
from repro.experiments.runner import format_table
from repro.gaussians.preprocess import preprocess
from repro.hwmodel.report import compare_variants, draw_report
from repro.knobs import COHERENCE_MODES, IR_MODES, SWMODEL_MODES
from repro.render.image_io import write_ppm
from repro.render.splat_raster import rasterize_splats
from repro.workloads.catalog import ALL_SCENES, build_scene, get_profile

_EXPERIMENT_MODULES = {
    "fig01": "fig01_unit_counts", "fig05": "fig05_sw_vs_hw",
    "fig06": "fig06_utilization", "fig07": "fig07_frags_per_pixel",
    "fig08": "fig08_cuda_early_term", "fig09": "fig09_warp_occupancy",
    "fig10": "fig10_inshader", "fig11": "fig11_multipass",
    "fig16": "fig16_speedup", "fig17": "fig17_end_to_end",
    "fig18": "fig18_reduction", "fig19": "fig19_energy",
    "fig20": "fig20_microbench", "fig21": "fig21_et_ratio",
    "fig22": "fig22_gscore", "fig23": "fig23_large_scale",
    "tables": "tables", "ablations": "ablations", "all": "run_all",
}


def _build_stream(scene_name, seed, ir="auto"):
    profile = get_profile(scene_name)
    cloud = build_scene(profile, seed=seed)
    camera = profile.camera()
    pre = preprocess(cloud, camera)
    stream = rasterize_splats(pre.splats, camera.width, camera.height, ir=ir)
    return profile, stream


def cmd_list_scenes(_args):
    print(f"{'scene':>9} {'type':>10} {'dataset':>15} {'repro size':>12} "
          f"{'#gaussians':>11}")
    for name, p in ALL_SCENES.items():
        print(f"{name:>9} {p.scene_type:>10} {p.dataset:>15} "
              f"{p.width}x{p.height:<7} {p.n_gaussians:>11,}")
    return 0


def cmd_render(args):
    profile, stream = _build_stream(args.scene, args.seed)
    image, alpha = stream.blend_image(early_term=args.early_term)
    out = args.out or f"{profile.name}.ppm"
    write_ppm(out, image)
    print(f"rendered {profile.name} ({profile.width}x{profile.height}, "
          f"{len(stream):,} fragments) -> {out}")
    print(f"early-termination ratio: {stream.termination_ratio():.2f}")
    return 0


def cmd_simulate(args):
    _profile, stream = _build_stream(args.scene, args.seed, ir=args.ir)
    if args.all:
        results = run_all_variants(stream)
        print(compare_variants(results))
        return 0
    result = run_variant(stream, args.variant)
    print(draw_report(result, title=f"{args.scene} / {args.variant}"))
    return 0


def cmd_trajectory(args):
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    baseline = None if args.baseline == "none" else args.baseline
    session = RenderSession(
        args.scene, backend=args.backend, baseline=baseline,
        device=args.device, seed=args.seed,
        warm_crop_cache=args.warm_crop_cache, result_cache=cache,
        ir=args.ir, coherence=args.coherence, swmodel=args.swmodel)
    trajectory = session.run(n_views=args.views, jobs=args.jobs)

    if args.json:
        payload = {
            "scene": trajectory.scene,
            "backend": trajectory.backend,
            "baseline": trajectory.baseline,
            "device": trajectory.device,
            "views": trajectory.n_frames,
            "from_cache": trajectory.from_cache,
            "aggregates": trajectory.aggregates(),
        }
        if cache is not None:
            payload["cache"] = cache.stats()
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    rows = []
    for rec in trajectory.records:
        rows.append([
            rec.index,
            rec.ms if rec.ms is not None else "-",
            rec.fps if rec.fps is not None else "-",
            rec.et_ratio if rec.et_ratio is not None else "-",
            rec.speedup if rec.speedup is not None else "-",
        ])
    source = " (from disk cache)" if trajectory.from_cache else ""
    print(format_table(
        ["Frame", "ms", "FPS", "ET ratio", "Speedup"], rows,
        title=(f"Trajectory: {trajectory.scene} / {trajectory.backend} "
               f"on {trajectory.device}, {trajectory.n_frames} views"
               f"{source}")))
    print()
    agg = trajectory.aggregates()
    print(format_table(
        ["Aggregate", "Value"],
        [[key, agg[key]] for key in sorted(agg)],
        title="Aggregates"))
    if cache is not None:
        stats = cache.stats()
        print()
        print(format_table(
            ["Cache", "Value"],
            [[key, stats[key]] for key in sorted(stats)],
            title=f"Result cache: {args.cache_dir}"))
    return 0


def cmd_experiment(args):
    module_name = _EXPERIMENT_MODULES[args.name]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    module.main()
    return 0


def cmd_lint(args):
    # Deferred import: the analysis engine is only needed by this
    # subcommand and pulls in the whole-tree scanner.
    from repro.analysis import counts, format_text, run_lint

    findings = run_lint(paths=args.paths or None)
    print(format_text(findings))
    return 1 if counts(findings)["active"] else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VR-Pipe reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenes", help="list evaluation workloads")

    render = sub.add_parser("render", help="render a scene to a PPM image")
    render.add_argument("--scene", required=True,
                        choices=sorted(ALL_SCENES))
    render.add_argument("--out", default=None, help="output .ppm path")
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("--early-term", action="store_true",
                        help="apply early termination while blending")

    simulate = sub.add_parser(
        "simulate", help="simulate a draw call on the hardware model")
    simulate.add_argument("--scene", required=True,
                          choices=sorted(ALL_SCENES))
    simulate.add_argument("--variant", default="het+qm",
                          choices=sorted(VARIANTS))
    simulate.add_argument("--all", action="store_true",
                          help="run and compare all four variants")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--ir", default="auto",
                          choices=IR_MODES,
                          help="digestion engine: FrameIR-backed (auto) or "
                               "the legacy sort-based oracle "
                               "(bit-identical; default auto)")

    trajectory = sub.add_parser(
        "trajectory",
        help="simulate a multi-frame orbit trajectory through one backend")
    trajectory.add_argument("--scene", required=True,
                            choices=sorted(ALL_SCENES))
    trajectory.add_argument("--backend", default="hw:het+qm",
                            choices=available_backends())
    trajectory.add_argument("--views", type=int, default=8,
                            help="number of orbit viewpoints (default 8)")
    trajectory.add_argument("--jobs", type=int, default=1,
                            help="parallel frame workers (default serial)")
    trajectory.add_argument("--seed", type=int, default=0)
    trajectory.add_argument("--device", default="orin",
                            choices=("orin", "rtx3090"))
    trajectory.add_argument(
        "--baseline", default="auto",
        choices=("auto", "none") + tuple(available_backends()),
        help="backend compared against for per-frame speedups")
    trajectory.add_argument("--warm-crop-cache", action="store_true",
                            help="persist the CROP cache across frames "
                                 "(serial only)")
    trajectory.add_argument("--cache-dir", default=None,
                            help="on-disk trajectory result cache directory")
    trajectory.add_argument("--ir", default="auto",
                            choices=IR_MODES,
                            help="digestion engine: FrameIR-backed (auto) "
                                 "or the legacy sort-based oracle "
                                 "(bit-identical; default auto)")
    trajectory.add_argument("--coherence", default="auto",
                            choices=COHERENCE_MODES,
                            help="cross-frame digestion reuse of revisited "
                                 "frames (auto; serial runs only) or off "
                                 "(bit-identical; default auto)")
    trajectory.add_argument("--swmodel", default="auto",
                            choices=SWMODEL_MODES,
                            help="warp-model engine of the cuda backends: "
                                 "FrameIR-native (auto) or the "
                                 "legacy fragment-sort oracle "
                                 "(bit-identical; default auto)")
    trajectory.add_argument("--json", action="store_true",
                            help="emit aggregates and cache stats as JSON "
                                 "instead of tables")

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=_EXPERIMENT_MODULES)

    lint = sub.add_parser(
        "lint", help="run the repo's static invariant checker (rules "
                     "R1-R6; see README 'Static analysis')")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to scan, repo-relative "
                           "(default: src)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list-scenes": cmd_list_scenes,
        "render": cmd_render,
        "simulate": cmd_simulate,
        "trajectory": cmd_trajectory,
        "experiment": cmd_experiment,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
