"""Workload catalog: profiles, builders, viewpoints."""

import dataclasses

import numpy as np
import pytest

from repro.workloads.catalog import (
    ALL_SCENES,
    LARGE_SCALE_SCENES,
    SCENARIO_SCENES,
    SCENES,
    SMALL_SPLAT_SCENES,
    build_scene,
    get_profile,
    scene_names,
)
from repro.workloads.viewpoints import scene_viewpoints


class TestCatalog:
    def test_table2_scene_set(self):
        assert set(SCENES) == {"kitchen", "bonsai", "train", "truck",
                               "lego", "palace"}
        assert set(LARGE_SCALE_SCENES) == {"building", "rubble"}

    def test_scene_names_order(self):
        names = scene_names()
        assert names == ["kitchen", "bonsai", "train", "truck", "lego",
                         "palace"]
        assert len(scene_names(include_large=True)) == 8

    def test_scenario_scene_set(self):
        # Extra coverage regimes beyond the paper's figure sweeps; kept
        # out of scene_names() so the figure tables stay the paper's.
        assert set(SCENARIO_SCENES) == {"aerial", "garden"}
        assert "aerial" not in scene_names(include_large=True)
        assert get_profile("aerial").scene_type == "aerial"
        assert get_profile("garden").scene_type == "garden"

    def test_bench_scene_registered(self):
        assert set(SMALL_SPLAT_SCENES) == {"bench"}
        assert get_profile("bench").scene_type == "bench"
        # Deliberately excluded from the paper's figure sweeps.
        assert "bench" not in scene_names(include_large=True)

    def test_bench_scene_builds_deterministically(self):
        a = build_scene("bench", seed=0)
        b = build_scene("bench", seed=0)
        assert len(a) == len(b) == 30000
        np.testing.assert_array_equal(a.positions, b.positions)

    @pytest.mark.parametrize("scene_type", sorted(
        {p.scene_type for p in ALL_SCENES.values()}))
    def test_every_builder_is_deterministic(self, scene_type):
        """One seed gives one cloud on every builder, including those of
        the scenes a quick pass skips (shrunk here to 3,000 Gaussians)."""
        profile = next(p for p in ALL_SCENES.values()
                       if p.scene_type == scene_type)
        small = dataclasses.replace(profile, n_gaussians=3000)
        a, b = build_scene(small, seed=3), build_scene(small, seed=3)
        for name, value in vars(a).items():
            np.testing.assert_array_equal(value, getattr(b, name), name)

    def test_paper_facts(self):
        kitchen = get_profile("kitchen")
        assert kitchen.paper_resolution == (1552, 1040)
        assert kitchen.paper_gaussians == 1_850_000
        assert get_profile("truck").paper_gaussians == 2_540_000
        assert get_profile("building").paper_gaussians == 9_060_000

    def test_unknown_scene(self):
        with pytest.raises(KeyError, match="unknown scene"):
            get_profile("atrium")

    def test_build_scene_counts(self):
        for name in ("lego", "palace", "aerial", "garden"):
            profile = get_profile(name)
            cloud = build_scene(name)
            assert len(cloud) == profile.n_gaussians

    def test_under_producing_builder_topped_up(self, monkeypatch):
        """A builder that rounds low must be topped up to the profile count."""
        from repro.workloads import catalog

        profile = get_profile("lego")
        original = catalog._BUILDERS["synthetic"]

        def shorting_builder(prof, rng):
            cloud = original(prof, rng)
            return cloud.subset(np.arange(len(cloud) - 25))

        monkeypatch.setitem(catalog._BUILDERS, "synthetic", shorting_builder)
        a = build_scene("lego")
        b = build_scene("lego")
        assert len(a) == profile.n_gaussians
        assert (a.positions == b.positions).all()  # top-up is deterministic

    @pytest.mark.parametrize("name", ("aerial", "garden"))
    def test_scenario_builders_topped_up(self, name, monkeypatch):
        """The scenario builders round block sizes too: shorting them must
        trigger the same deterministic top-up as the Table II builders."""
        from repro.workloads import catalog

        profile = get_profile(name)
        original = catalog._BUILDERS[profile.scene_type]

        def shorting_builder(prof, rng):
            cloud = original(prof, rng)
            return cloud.subset(np.arange(len(cloud) - 17))

        monkeypatch.setitem(catalog._BUILDERS, profile.scene_type,
                            shorting_builder)
        a = build_scene(name)
        b = build_scene(name)
        assert len(a) == profile.n_gaussians
        assert (a.positions == b.positions).all()

    def test_scenario_builds_deterministic(self):
        for name in ("aerial", "garden"):
            a = build_scene(name, seed=0)
            b = build_scene(name, seed=0)
            assert (a.positions == b.positions).all()
            assert not (a.positions
                        == build_scene(name, seed=1).positions).all()

    def test_empty_builder_raises(self, monkeypatch):
        from repro.gaussians.gaussian import GaussianCloud
        from repro.workloads import catalog

        monkeypatch.setitem(
            catalog._BUILDERS, "synthetic",
            lambda prof, rng: GaussianCloud.empty(sh_degree=0))
        with pytest.raises(ValueError, match="empty"):
            build_scene("lego")

    def test_build_deterministic(self):
        a = build_scene("lego", seed=0)
        b = build_scene("lego", seed=0)
        assert (a.positions == b.positions).all()

    def test_seeds_differ(self):
        a = build_scene("lego", seed=0)
        b = build_scene("lego", seed=1)
        assert not (a.positions == b.positions).all()

    def test_default_camera_matches_profile(self):
        profile = get_profile("train")
        cam = profile.camera()
        assert cam.width == profile.width
        assert cam.height == profile.height


class TestViewpoints:
    def test_count(self):
        assert len(scene_viewpoints("lego", 5)) == 5

    def test_resolution_matches(self):
        cams = scene_viewpoints("kitchen", 3)
        profile = get_profile("kitchen")
        assert all(c.width == profile.width for c in cams)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            scene_viewpoints("lego", 0)


class TestSceneStatistics:
    """The calibrated qualitative properties the experiments rely on."""

    @pytest.fixture(scope="class")
    def ratios(self):
        from repro.gaussians.preprocess import preprocess
        from repro.render.splat_raster import rasterize_splats
        out = {}
        for name in ("bonsai", "train", "lego", "aerial", "garden"):
            profile = get_profile(name)
            cloud = build_scene(name)
            cam = profile.camera()
            pre = preprocess(cloud, cam)
            stream = rasterize_splats(pre.splats, cam.width, cam.height)
            out[name] = stream.termination_ratio()
        return out

    def test_all_above_threshold(self, ratios):
        """Paper: every Table II scene's ratio exceeds 1.5."""
        for name in ("bonsai", "train", "lego"):
            assert ratios[name] > 1.5, name

    def test_outdoor_exceeds_indoor(self, ratios):
        assert ratios["train"] > ratios["bonsai"]

    def test_scenario_scenes_bracket_the_catalog(self, ratios):
        """The scenario profiles sit at the load extremes: the sparse
        aerial flyover barely terminates, the dense garden terminates
        more than it."""
        assert ratios["aerial"] < 1.15
        assert ratios["garden"] > ratios["aerial"] + 0.2
