"""The evaluation scenes (Table II + the Figure 23 large-scale scenes).

Each profile records the paper's published facts (dataset, full resolution,
trained Gaussian count) alongside the scaled-down procedural realisation
used here.  Layout recipes per scene type:

* **indoor** (Kitchen, Bonsai) — a central object cluster inside an
  enclosing room shell, with mid-depth furniture planes; moderate
  early-termination ratio, concentrated at the object (the paper's Bonsai
  observation).
* **outdoor** (Train, Truck) — a dominant foreground object against deep
  stacked background structure and ground; many Gaussians "beyond the
  surface", hence the highest early-termination ratios.
* **synthetic** (Lego, Palace) — a single dense object on a transparent
  background; small images, no environment.
* **city** (Building, Rubble) — block grids of layered facades at large
  scale (Mega-NeRF / CityGaussian captures).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians import synthetic


@dataclass(frozen=True)
class SceneProfile:
    """One evaluation workload.

    Paper-fact fields carry Table II's published values; the ``width``,
    ``height`` and ``n_gaussians`` fields are this reproduction's scaled
    realisation (~1/5.5 linear, so per-pixel depth statistics survive).
    """

    name: str
    dataset: str
    scene_type: str                  # indoor | outdoor | synthetic | city
    paper_resolution: tuple
    paper_gaussians: int
    width: int
    height: int
    n_gaussians: int
    camera_eye: tuple
    camera_target: tuple = (0.0, 0.0, 0.0)
    fov_x_deg: float = 60.0
    orbit_radius: float = 3.0
    orbit_height: float = 0.4
    layout_params: dict = field(default_factory=dict)

    def camera(self, eye=None):
        """The profile's default (or overridden-eye) camera."""
        return Camera.look_at(
            eye=self.camera_eye if eye is None else eye,
            target=self.camera_target,
            fov_x_deg=self.fov_x_deg,
            width=self.width,
            height=self.height,
        )


def _indoor_scene(profile, rng):
    p = profile.layout_params
    n = profile.n_gaussians
    n_object = int(n * p.get("object_frac", 0.35))
    n_shell = int(n * p.get("shell_frac", 0.25))
    n_mid = n - n_object - n_shell
    obj = synthetic.make_blob(
        rng, n_object, center=(0, 0, 0), radius=p.get("object_radius", 0.45),
        scale_mean=p.get("object_scale", 0.045),
        opacity_low=p.get("object_opacity_low", 0.55),
        opacity_high=0.97, base_color=(0.55, 0.45, 0.35))
    shell = synthetic.make_shell(
        rng, n_shell, center=(0, 0, 0), radius=p.get("room_radius", 3.2),
        scale_mean=p.get("shell_scale", 0.12), opacity_low=0.5,
        opacity_high=0.95, base_color=(0.5, 0.5, 0.55))
    mid = synthetic.make_layered_surfaces(
        rng, n_mid, center=(0, -0.1, 0.6), extent=(1.4, 0.9),
        n_layers=p.get("mid_layers", 4), layer_spacing=0.35,
        axis=(0, 0, 1), scale_mean=0.06,
        opacity_low=p.get("mid_opacity_low", 0.6), opacity_high=0.97,
        base_color=(0.6, 0.55, 0.45))
    return synthetic.compose(obj, shell, mid)


def _outdoor_scene(profile, rng):
    p = profile.layout_params
    n = profile.n_gaussians
    n_object = int(n * p.get("object_frac", 0.3))
    n_stack = int(n * p.get("stack_frac", 0.45))
    n_ground = int(n * p.get("ground_frac", 0.15))
    n_far = n - n_object - n_stack - n_ground
    obj = synthetic.make_blob(
        rng, n_object, center=(0, 0, -0.2), radius=0.55,
        scale_mean=p.get("object_scale", 0.05), opacity_low=0.6,
        opacity_high=0.98, base_color=(0.45, 0.4, 0.35))
    stack = synthetic.make_layered_surfaces(
        rng, n_stack, center=(0, 0.1, 1.2), extent=(2.2, 1.2),
        n_layers=p.get("stack_layers", 9),
        layer_spacing=p.get("stack_spacing", 0.28), axis=(0, 0, 1),
        scale_mean=p.get("stack_scale", 0.07),
        opacity_low=p.get("stack_opacity_low", 0.7), opacity_high=0.98,
        base_color=(0.5, 0.5, 0.45))
    ground = synthetic.make_plane(
        rng, n_ground, center=(0, -0.7, 0.5), normal=(0, 1, 0),
        extent=(2.5, 2.5), scale_mean=0.08, opacity_low=0.6,
        opacity_high=0.95, base_color=(0.4, 0.42, 0.35))
    far = synthetic.make_shell(
        rng, n_far, center=(0, 0.3, 0.8), radius=4.5, scale_mean=0.2,
        opacity_low=0.4, opacity_high=0.85, base_color=(0.55, 0.6, 0.7))
    return synthetic.compose(obj, stack, ground, far)


def _synthetic_scene(profile, rng):
    p = profile.layout_params
    n = profile.n_gaussians
    n_core = int(n * p.get("core_frac", 0.6))
    n_detail = n - n_core
    core = synthetic.make_blob(
        rng, n_core, center=(0, 0, 0), radius=p.get("core_radius", 0.4),
        scale_mean=p.get("core_scale", 0.04),
        opacity_low=p.get("core_opacity_low", 0.6), opacity_high=0.98,
        base_color=p.get("base_color", (0.7, 0.6, 0.3)))
    detail = synthetic.make_layered_surfaces(
        rng, n_detail, center=(0, 0, 0), extent=(0.55, 0.55),
        n_layers=p.get("detail_layers", 5), layer_spacing=0.18,
        axis=(0, 0, 1), scale_mean=0.035, opacity_low=0.65,
        opacity_high=0.98, base_color=p.get("base_color", (0.7, 0.6, 0.3)))
    return synthetic.compose(core, detail)


def _city_scene(profile, rng):
    p = profile.layout_params
    n = profile.n_gaussians
    n_blocks = p.get("n_blocks", 6)
    per_block = n // (n_blocks + 1)
    parts = []
    block_rng = np.random.default_rng(rng.integers(1 << 31))
    for b in range(n_blocks):
        angle = 2 * np.pi * b / n_blocks
        cx = 2.1 * np.cos(angle)
        cz = 0.9 + 1.6 * np.sin(angle)
        parts.append(synthetic.make_layered_surfaces(
            block_rng, per_block, center=(cx, 0.2, cz), extent=(0.8, 0.7),
            n_layers=p.get("layers_per_block", 7), layer_spacing=0.22,
            axis=(np.sin(angle) * 0.3, 0, 1), scale_mean=0.06,
            opacity_low=0.5, opacity_high=0.9,
            base_color=(0.5 + 0.05 * (b % 3), 0.5, 0.45)))
    parts.append(synthetic.make_plane(
        block_rng, n - n_blocks * per_block, center=(0, -0.6, 0.8),
        normal=(0, 1, 0), extent=(3.0, 3.0), scale_mean=0.09,
        opacity_low=0.6, opacity_high=0.95, base_color=(0.42, 0.42, 0.38)))
    return GaussianCloud.concatenate(parts)


def _bench_scene(profile, rng):
    """Dense field of *small* splats for the golden raster test.

    The Table II realisations are scaled ~1/5.5 linearly but keep their
    Gaussian counts in the thousands, so each splat covers ~1000 px — two
    orders of magnitude above production 3DGS captures (millions of
    Gaussians covering tens of pixels each).  The batched rasteriser's
    bit-identity with the scalar loop must also hold in the realistic
    regime, so this layout packs many small-scale Gaussians: a dominant
    foreground cloud plus a thin background shell.
    """
    p = profile.layout_params
    n = profile.n_gaussians
    n_fg = int(n * p.get("fg_frac", 0.8))
    fg = synthetic.make_blob(
        rng, n_fg, center=(0, 0, 0), radius=p.get("radius", 0.85),
        scale_mean=p.get("fg_scale", 0.009), opacity_low=0.5,
        opacity_high=0.95, base_color=(0.6, 0.55, 0.45))
    bg = synthetic.make_shell(
        rng, n - n_fg, center=(0, 0, 0.4), radius=p.get("bg_radius", 3.4),
        scale_mean=p.get("bg_scale", 0.02), opacity_low=0.4,
        opacity_high=0.9, base_color=(0.5, 0.55, 0.65))
    return synthetic.compose(fg, bg)


def _aerial_scene(profile, rng):
    """Sparse high-altitude overview (drone / flyover capture).

    A wide ground sheet, scattered low structure clusters and a thin
    haze shell: seen from a high orbit, most pixels are covered by a few
    ground fragments only, so depth complexity — and with it the
    early-termination ratio — stays near the workload's floor.  The
    opposite end of the fragment-load spectrum from ``garden``.
    """
    p = profile.layout_params
    n = profile.n_gaussians
    n_ground = int(n * p.get("ground_frac", 0.45))
    n_struct = int(n * p.get("struct_frac", 0.38))
    n_haze = n - n_ground - n_struct
    n_clusters = p.get("n_clusters", 9)
    parts = [synthetic.make_plane(
        rng, n_ground, center=(0, -0.55, 0.6), normal=(0, 1, 0),
        extent=(4.4, 4.4), scale_mean=p.get("ground_scale", 0.045),
        opacity_low=0.55, opacity_high=0.95, base_color=(0.42, 0.46, 0.36))]
    per_cluster = np.full(n_clusters, n_struct // n_clusters, dtype=int)
    per_cluster[: n_struct % n_clusters] += 1
    for b, count in enumerate(per_cluster):
        if count == 0:
            continue
        angle = 2 * np.pi * b / n_clusters
        radius = 0.7 + 2.2 * rng.random()
        cx = radius * np.cos(angle)
        cz = 0.6 + radius * np.sin(angle) * 0.8
        parts.append(synthetic.make_blob(
            rng, int(count), center=(cx, -0.35, cz),
            radius=p.get("cluster_radius", 0.28),
            scale_mean=p.get("cluster_scale", 0.035), opacity_low=0.5,
            opacity_high=0.95,
            base_color=(0.5 + 0.04 * (b % 3), 0.47, 0.4)))
    parts.append(synthetic.make_shell(
        rng, n_haze, center=(0, 0.4, 0.6), radius=5.2, scale_mean=0.09,
        opacity_low=0.25, opacity_high=0.6, base_color=(0.6, 0.65, 0.72)))
    return synthetic.compose(*parts)


def _garden_scene(profile, rng):
    """Dense foliage (garden / vegetation capture).

    Stacked near-horizontal canopy sheets over a thicket of bush blobs
    and a ground sheet: many translucent surfaces along every ray, the
    highest depth complexity in the catalogue — the regime where early
    termination and quad merging pay the most.
    """
    p = profile.layout_params
    n = profile.n_gaussians
    n_canopy = int(n * p.get("canopy_frac", 0.42))
    n_bushes = int(n * p.get("bush_frac", 0.38))
    n_ground = n - n_canopy - n_bushes
    n_bush_clusters = p.get("n_bushes", 7)
    canopy = synthetic.make_layered_surfaces(
        rng, n_canopy, center=(0, 0.45, 0.6), extent=(1.9, 1.5),
        n_layers=p.get("canopy_layers", 6),
        layer_spacing=p.get("canopy_spacing", 0.16), axis=(0, 1, 0.35),
        scale_mean=p.get("canopy_scale", 0.035),
        opacity_low=p.get("canopy_opacity_low", 0.5), opacity_high=0.92,
        base_color=(0.32, 0.48, 0.28))
    parts = [canopy]
    per_bush = np.full(n_bush_clusters, n_bushes // n_bush_clusters,
                       dtype=int)
    per_bush[: n_bushes % n_bush_clusters] += 1
    for b, count in enumerate(per_bush):
        if count == 0:
            continue
        angle = 2 * np.pi * b / n_bush_clusters
        radius = 0.35 + 0.9 * rng.random()
        parts.append(synthetic.make_blob(
            rng, int(count),
            center=(radius * np.cos(angle), -0.25,
                    0.5 + radius * np.sin(angle) * 0.7),
            radius=p.get("bush_radius", 0.3),
            scale_mean=p.get("bush_scale", 0.032), opacity_low=0.45,
            opacity_high=0.9, base_color=(0.3, 0.44, 0.26)))
    parts.append(synthetic.make_plane(
        rng, n_ground, center=(0, -0.55, 0.6), normal=(0, 1, 0),
        extent=(2.4, 2.4), scale_mean=0.05, opacity_low=0.6,
        opacity_high=0.95, base_color=(0.35, 0.4, 0.3)))
    return synthetic.compose(*parts)


_BUILDERS = {
    "indoor": _indoor_scene,
    "outdoor": _outdoor_scene,
    "synthetic": _synthetic_scene,
    "city": _city_scene,
    "bench": _bench_scene,
    "aerial": _aerial_scene,
    "garden": _garden_scene,
}


#: Table II scenes.
SCENES = {
    "kitchen": SceneProfile(
        name="kitchen", dataset="Mip-NeRF 360", scene_type="indoor",
        paper_resolution=(1552, 1040), paper_gaussians=1_850_000,
        width=288, height=192, n_gaussians=4600,
        camera_eye=(0.0, 0.35, -2.6), orbit_radius=2.6, orbit_height=0.5,
        layout_params={"mid_layers": 3, "mid_opacity_low": 0.45,
                       "object_opacity_low": 0.45, "shell_frac": 0.32},
    ),
    "bonsai": SceneProfile(
        name="bonsai", dataset="Mip-NeRF 360", scene_type="indoor",
        paper_resolution=(1552, 1040), paper_gaussians=1_240_000,
        width=288, height=192, n_gaussians=3800,
        camera_eye=(0.0, 0.4, -2.4), orbit_radius=2.4, orbit_height=0.6,
        layout_params={"object_frac": 0.55, "shell_frac": 0.3,
                       "mid_layers": 1, "object_opacity_low": 0.25,
                       "mid_opacity_low": 0.4, "object_radius": 0.5},
    ),
    "train": SceneProfile(
        name="train", dataset="Tanks&Temples", scene_type="outdoor",
        paper_resolution=(980, 545), paper_gaussians=1_030_000,
        width=256, height=144, n_gaussians=4600,
        camera_eye=(0.2, 0.25, -2.8), orbit_radius=2.8, orbit_height=0.4,
        layout_params={"stack_layers": 13, "stack_opacity_low": 0.85,
                       "stack_frac": 0.62, "object_frac": 0.18,
                       "stack_spacing": 0.22, "stack_scale": 0.085},
    ),
    "truck": SceneProfile(
        name="truck", dataset="Tanks&Temples", scene_type="outdoor",
        paper_resolution=(979, 546), paper_gaussians=2_540_000,
        width=256, height=144, n_gaussians=6400,
        camera_eye=(-0.3, 0.3, -2.9), orbit_radius=2.9, orbit_height=0.45,
        layout_params={"stack_layers": 8, "stack_opacity_low": 0.7,
                       "stack_frac": 0.48},
    ),
    "lego": SceneProfile(
        name="lego", dataset="Synthetic-NeRF", scene_type="synthetic",
        paper_resolution=(800, 800), paper_gaussians=358_000,
        width=160, height=160, n_gaussians=2200,
        camera_eye=(0.0, 0.45, -1.7), orbit_radius=1.7, orbit_height=0.5,
        layout_params={"detail_layers": 3, "core_opacity_low": 0.5,
                       "base_color": (0.75, 0.6, 0.2)},
    ),
    "palace": SceneProfile(
        name="palace", dataset="Synthetic-NSVF", scene_type="synthetic",
        paper_resolution=(800, 800), paper_gaussians=327_000,
        width=160, height=160, n_gaussians=2000,
        camera_eye=(0.3, 0.35, -1.8), orbit_radius=1.8, orbit_height=0.4,
        layout_params={"detail_layers": 4, "core_radius": 0.45,
                       "core_opacity_low": 0.45,
                       "base_color": (0.6, 0.55, 0.5)},
    ),
}

#: Figure 23 large-scale scenes (Mega-NeRF / CityGaussian).
LARGE_SCALE_SCENES = {
    "building": SceneProfile(
        name="building", dataset="Mega-NeRF", scene_type="city",
        paper_resolution=(1152, 864), paper_gaussians=9_060_000,
        width=280, height=168, n_gaussians=8500,
        camera_eye=(0.0, 0.9, -3.2), orbit_radius=3.2, orbit_height=1.0,
        layout_params={"n_blocks": 7, "layers_per_block": 3},
    ),
    "rubble": SceneProfile(
        name="rubble", dataset="Mega-NeRF", scene_type="city",
        paper_resolution=(1152, 864), paper_gaussians=5_210_000,
        width=280, height=168, n_gaussians=6600,
        camera_eye=(0.2, 0.8, -3.0), orbit_radius=3.0, orbit_height=0.9,
        layout_params={"n_blocks": 6, "layers_per_block": 3},
    ),
}

#: Realistic-footprint scenes (~tens of pixels per splat) covered by
#: ``tests/test_golden_raster.py`` (not part of the paper's figure
#: sweeps, so deliberately kept out of :func:`scene_names`).
SMALL_SPLAT_SCENES = {
    "bench": SceneProfile(
        name="bench", dataset="procedural", scene_type="bench",
        paper_resolution=(1280, 720), paper_gaussians=1_000_000,
        width=480, height=270, n_gaussians=30000,
        layout_params={"fg_scale": 0.0075, "bg_scale": 0.016},
        camera_eye=(0.0, 0.3, -2.6), orbit_radius=2.6, orbit_height=0.4,
    ),
}

#: Scenario profiles beyond the paper's figure sweeps: extra coverage
#: regimes for the trajectory engine and its benchmarks (kept out of
#: :func:`scene_names` so the figure tables stay the paper's).
SCENARIO_SCENES = {
    "aerial": SceneProfile(
        name="aerial", dataset="procedural", scene_type="aerial",
        paper_resolution=(1280, 720), paper_gaussians=1_500_000,
        width=320, height=180, n_gaussians=5200,
        camera_eye=(0.0, 3.4, -1.8), camera_target=(0.0, -0.3, 0.5),
        orbit_radius=3.6, orbit_height=3.1,
        layout_params={"n_clusters": 9},
    ),
    "garden": SceneProfile(
        name="garden", dataset="procedural", scene_type="garden",
        paper_resolution=(1280, 720), paper_gaussians=2_500_000,
        width=224, height=144, n_gaussians=6000,
        camera_eye=(0.0, 0.3, -2.2), camera_target=(0.0, -0.05, 0.4),
        orbit_radius=2.3, orbit_height=0.4,
        layout_params={"canopy_layers": 6, "n_bushes": 7},
    ),
}

_ALL = {**SCENES, **LARGE_SCALE_SCENES, **SMALL_SPLAT_SCENES,
        **SCENARIO_SCENES}


def scene_names(include_large=False):
    """Evaluation scene names in the paper's figure order."""
    names = list(SCENES)
    if include_large:
        names += list(LARGE_SCALE_SCENES)
    return names


def get_profile(name):
    """Look up a profile by name (Table II or large-scale)."""
    try:
        return _ALL[name]
    except KeyError:
        raise KeyError(
            f"unknown scene {name!r}; available: {sorted(_ALL)}") from None


def build_scene(name_or_profile, seed=0):
    """Construct the Gaussian cloud for a scene profile.

    The result always holds exactly ``profile.n_gaussians`` Gaussians:
    builders round block sizes, so the cloud is trimmed or topped up
    deterministically (top-up repeats existing Gaussians in order, which
    preserves the scene's spatial statistics).
    """
    profile = (name_or_profile if isinstance(name_or_profile, SceneProfile)
               else get_profile(name_or_profile))
    # Deterministic across processes: hash() varies with PYTHONHASHSEED.
    rng = np.random.default_rng(
        zlib.crc32(profile.name.encode("ascii")) + seed)
    builder = _BUILDERS[profile.scene_type]
    cloud = builder(profile, rng)
    if len(cloud) > profile.n_gaussians:
        cloud = cloud.subset(np.arange(profile.n_gaussians))
    elif len(cloud) < profile.n_gaussians:
        if len(cloud) == 0:
            raise ValueError(
                f"builder for {profile.scene_type!r} produced an empty "
                f"cloud; cannot reach n_gaussians={profile.n_gaussians}")
        deficit = profile.n_gaussians - len(cloud)
        filler = np.arange(deficit) % len(cloud)
        cloud = GaussianCloud.concatenate([cloud, cloud.subset(filler)])
    return cloud
