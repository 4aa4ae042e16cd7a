"""Ablation benches: TGC contribution, HET lag, ROP-width alternative.

The five ablations run once per session, through ``ablations.run()``;
each test asserts on its own ablation's data.
"""

import pytest

from repro.experiments import ablations


@pytest.fixture(scope="module")
def data():
    return ablations.run()


def test_tgc_ablation(data, check_digest):
    check_digest("ablation_tgc", data["tgc"])
    for scene, d in data["tgc"].items():
        # The TGC unit exists to create merge opportunities: removing it
        # must strictly reduce merged pairs and the QM speedup.
        assert d["pairs_with_tgc"] > d["pairs_without_tgc"], scene
        assert d["speedup_with_tgc"] >= d["speedup_without_tgc"], scene


def test_het_lag_sensitivity(data, check_digest):
    check_digest("ablation_het_lag", data["het_lag"])
    lag = data["het_lag"]
    lags = sorted(lag)
    # Monotone: a longer in-flight window can only reduce the benefit.
    for a, b in zip(lags, lags[1:]):
        assert lag[a] >= lag[b] - 1e-9
    assert lag[lags[0]] > lag[lags[-1]]
    print()
    ablations.main(data)


def test_tc_bin_count_sweep(data, check_digest):
    check_digest("ablation_tc_bins", data["tc_bins"])
    bins = data["tc_bins"]
    counts = sorted(bins)
    # More bins -> (weakly) more merge pairs; the configured 32 bins must
    # realise most of the 128-bin merge rate.
    for a, b in zip(counts, counts[1:]):
        assert bins[a]["pairs"] <= bins[b]["pairs"] * 1.02
    assert bins[32]["pairs"] > 0.7 * bins[128]["pairs"]


def test_format_sensitivity(data, check_digest):
    check_digest("ablation_format", data["format"])
    fmt = data["format"]
    # A faster CROP (RGBA8) leaves less ROP pressure to relieve: the
    # relative VR-Pipe gain must shrink, while absolute time improves.
    assert (fmt["rgba8"]["baseline_cycles"]
            < fmt["rgba16f"]["baseline_cycles"])
    assert fmt["rgba8"]["speedup"] < fmt["rgba16f"]["speedup"] + 0.15
    assert fmt["rgba8"]["speedup"] > 1.0


def test_rop_width_scaling(data, check_digest):
    check_digest("ablation_rop_width", data["rop_width"])
    rop = data["rop_width"]
    widths = rop["widths"]
    assert widths[2.0] == 1.0  # the reference width
    assert widths[4.0] > widths[2.0]
    # Widening ROPs helps, but saturates on other units; VR-Pipe at the
    # stock width beats a 2x-wider ROP array.
    assert rop["het+qm"] > widths[4.0] * 0.8
