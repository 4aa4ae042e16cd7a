"""Figure 20 + tile-binning bench: the fixed-function microbenchmarks."""

import pytest

from repro.experiments import fig20_microbench


def test_fig20(benchmark, check_digest):
    data = benchmark.pedantic(fig20_microbench.run, rounds=1, iterations=1)
    check_digest("fig20", data)

    # (a) Capacity probe: bounded by (and close to) 16 KB for every size.
    for size, cap in data["crop_cache_capacity"].items():
        assert cap <= 16 * 1024, size
        assert cap >= 8 * 1024, size

    # (b) RGBA8 doubles RGBA16F pixels/cycle.
    ppc = data["pixels_per_cycle"]
    assert ppc["rgba8"] / ppc["rgba16f"] == pytest.approx(2.0, rel=0.05)

    # (c) Time tracks quads, not pixels.
    times = data["time_vs_quads_per_pixel"]
    keys = sorted(times)
    assert times[keys[-1]] > 3.5 * times[keys[0]]

    # (d) The 32-bin cliff.
    warps = {n: d["warps"] for n, d in data["tile_binning"].items()}
    assert warps[33] == data["tile_binning"][33]["rects"]
    assert warps[32] < data["tile_binning"][32]["rects"] / 2

    print()
    fig20_microbench.main(data)
