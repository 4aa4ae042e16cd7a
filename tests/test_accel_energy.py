"""GSCore comparator and the energy model."""

import pytest

from repro.accel.gscore import GSCoreConfig, GSCoreModel
from repro.core.vrpipe import VARIANTS, run_variant
from repro.hwmodel.energy import draw_energy, efficiency_ratio


class TestGSCore:
    def test_accelerator_faster_than_vrpipe(self, deep_stream):
        vrp = run_variant(deep_stream, "het+qm")
        slowdown = GSCoreModel().slowdown_of(vrp, deep_stream)
        assert slowdown > 1.0

    def test_cycles_positive(self, small_stream):
        assert GSCoreModel().render_cycles(small_stream) > 0

    def test_faster_config_wins(self, deep_stream):
        slow = GSCoreModel(GSCoreConfig(vru_fragments_per_cycle=1.0))
        fast = GSCoreModel(GSCoreConfig(vru_fragments_per_cycle=64.0))
        assert (slow.render_cycles(deep_stream)
                > fast.render_cycles(deep_stream))

    def test_type_check(self):
        with pytest.raises(TypeError):
            GSCoreModel().render_cycles("stream")


class TestEnergy:
    def test_breakdown_positive(self, deep_stream):
        res = run_variant(deep_stream, "baseline")
        breakdown = draw_energy(res)
        assert breakdown.total_j > 0
        assert set(breakdown.components) >= {
            "fragment_shading", "blending", "dram", "static"}
        assert all(v >= 0 for v in breakdown.components.values())

    def test_vrpipe_more_efficient(self, deep_stream):
        base = run_variant(deep_stream, "baseline")
        vrp = run_variant(deep_stream, "het+qm")
        assert efficiency_ratio(base, vrp) > 1.0

    def test_het_saves_shading_energy(self, deep_stream):
        base = draw_energy(run_variant(deep_stream, "baseline"))
        het = draw_energy(run_variant(deep_stream, "het"))
        assert (het.components["fragment_shading"]
                < base.components["fragment_shading"])
        assert het.components["blending"] < base.components["blending"]

    def test_repr(self, small_stream):
        res = run_variant(small_stream, "baseline")
        assert "total" in repr(draw_energy(res))

    def test_framebuffer_term(self, deep_stream):
        res = run_variant(deep_stream, "het+qm")
        cfg = res.config
        assert (draw_energy(res).components["framebuffer"]
                == deep_stream.width * deep_stream.height
                * cfg.bytes_per_pixel * 2 * cfg.energy.dram_byte_pj * 1e-12)

    #: ``draw_energy(...).total_j`` per variant on ``deep_stream``.  Only
    #: a deliberate change to the energy model or the draw moves these.
    TOTALS_J = {
        "baseline": 0.0010795265162091504,
        "qm": 0.0010095606824183007,
        "het": 0.001058329268261438,
        "het+qm": 0.0009948827417385622,
    }

    def test_totals_pinned(self, deep_stream):
        assert set(self.TOTALS_J) == set(VARIANTS)
        for variant, total in self.TOTALS_J.items():
            res = run_variant(deep_stream, variant)
            assert draw_energy(res).total_j == pytest.approx(total,
                                                             rel=1e-12)
