"""Experiment modules: structure and qualitative claims on small scenes.

Experiments run on the two synthetic (smallest) Table II scenes to stay
fast; the benchmark suite covers the full set.
"""

import pytest

from repro.experiments import (
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
    fig21_et_ratio,
    fig22_gscore,
    tables,
)
from repro.engine import geomean, get_scenario
from repro.experiments.runner import format_table

SMALL = ["lego", "palace"]


class TestRunnerHelpers:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, -1.0])

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5]], title="T")
        assert "T" in text and "2.50" in text

    def test_scenario_cached(self):
        a = get_scenario("lego")
        b = get_scenario("lego")
        assert a is b


class TestFig01:
    def test_static_data(self):
        data = fig01_unit_counts.run()
        rows = data["rows"]
        assert len(rows) == 4
        assert rows[0]["shading_units"] == 3584
        assert rows[-1]["rops"] == 176
        # The figure's message: shader growth outpaces ROP growth.
        assert rows[-1]["shading_norm"] > 2 * rows[-1]["rop_norm"]


class TestFig05:
    def test_breakdowns(self):
        data = fig05_sw_vs_hw.run(scenes=SMALL, devices=("orin",))
        for scene, d in data["orin"].items():
            assert d["cuda_total"] > 0 and d["opengl_total"] > 0
            # Hardware preprocessing avoids duplication: cheaper.
            assert (d["opengl"]["preprocess"] < d["cuda"]["preprocess"])
            assert d["opengl"]["sort"] < d["cuda"]["sort"]

    def test_rtx3090_faster_than_orin(self):
        data = fig05_sw_vs_hw.run(scenes=["lego"])
        assert (data["rtx3090"]["lego"]["opengl_total"]
                < data["orin"]["lego"]["opengl_total"])


class TestFig06:
    def test_rop_bound(self):
        data = fig06_utilization.run(scenes=SMALL)
        for scene, util in data.items():
            assert util["bottleneck"] in ("crop", "prop")
            assert util["crop"] > util["sm"]
            assert util["crop"] > util["raster"]
            assert util["prop"] > 0.5


class TestFig07:
    def test_reduction(self):
        data = fig07_frags_per_pixel.run(scene="lego")
        s = data["stats"]
        assert s["mean_with"] < s["mean_without"]
        assert s["reduction"] > 1.0
        assert data["without_et"].shape == data["with_et"].shape

    def test_heatmap_renders(self):
        data = fig07_frags_per_pixel.run(scene="lego")
        art = fig07_frags_per_pixel.ascii_heatmap(data["without_et"])
        assert len(art.splitlines()) > 3


class TestFig08And09:
    def test_speedup_below_reduction(self):
        data = fig08_cuda_early_term.run(scenes=SMALL)
        for scene, d in data.items():
            assert 1.0 <= d["speedup"] <= d["frag_reduction"] + 1e-9

    def test_blend_fraction_under_40pct(self):
        """Paper: < 40% of threads blend across all scenes."""
        data = fig09_warp_occupancy.run(scenes=SMALL)
        for scene, frac in data.items():
            assert 0.0 < frac < 0.40


class TestFig10:
    def test_interlock_penalty(self):
        data = fig10_inshader.run(scenes=SMALL)
        for scene, d in data.items():
            assert d["interlock"] > 1.5
            assert d["no_interlock"] < d["interlock"]


class TestFig11:
    def test_sweep_shape(self):
        data = fig11_multipass.run(scenes=["lego"], pass_counts=(1, 2, 5, 20))
        sweep = data["lego"]
        assert sweep[1] == pytest.approx(1.0)
        # Overhead dominates small scenes at very high pass counts.
        assert sweep[20] < sweep[2] + 0.5


class TestFig16To19:
    def test_variant_ordering(self):
        data = fig16_speedup.run(scenes=SMALL)
        for scene in SMALL:
            d = data[scene]
            assert d["baseline"] == pytest.approx(1.0)
            assert d["het+qm"] > d["het"] > 1.0
            assert d["het+qm"] > d["qm"] > 1.0
        assert data["geomean"]["het+qm"] > 1.5

    def test_end_to_end(self):
        data = fig17_end_to_end.run(scenes=SMALL)
        for scene in SMALL:
            assert data[scene]["speedup_vs_hw"] > 1.0
            assert data[scene]["fps"] > 0

    def test_reduction_hierarchy(self):
        data = fig18_reduction.run(scenes=SMALL)
        for scene in SMALL:
            d = data[scene]
            assert d["baseline"]["fragment_reduction"] == pytest.approx(1.0)
            assert (d["het+qm"]["fragment_reduction"]
                    > d["het"]["fragment_reduction"] > 1.0)

    def test_energy(self):
        data = fig19_energy.run(scenes=SMALL)
        for scene in SMALL:
            assert data["per_scene"][scene] > 1.0
        assert data["geomean"] > 1.0


class TestFig21And22:
    def test_et_ratio_viewpoints(self):
        data = fig21_et_ratio.run(scenes=["lego"], n_views=4)
        d = data["lego"]
        assert len(d["ratios"]) == 4
        assert d["min"] <= d["mean"] <= d["max"]
        assert d["mean"] > 1.0

    def test_gscore_wins(self):
        data = fig22_gscore.run(scenes=SMALL)
        for scene in SMALL:
            assert data["per_scene"][scene] > 1.0


class TestTables:
    def test_table1(self):
        t = tables.table1()
        assert t["# SIMT Cores"] == 16
        assert t["ROP Throughput (quads/cycle, RGBA16F)"] == 2.0

    def test_table2(self):
        rows = tables.table2()
        assert len(rows) == 8
        names = {r["scene"] for r in rows}
        assert "kitchen" in names and "building" in names

    def test_table3(self):
        t = tables.table3()
        assert t["Total (KB)"] == pytest.approx(24.92, abs=0.01)
