"""Figure 1 bench: shader vs ROP growth across GPU generations."""

from repro.experiments import fig01_unit_counts


def test_fig01(benchmark, check_digest):
    data = benchmark.pedantic(fig01_unit_counts.run, rounds=1, iterations=1)
    check_digest("fig01", data)
    rows = data["rows"]
    assert rows[-1]["shading_norm"] > 4.0   # 16384 / 3584
    assert rows[-1]["rop_norm"] == 2.0      # 176 / 88
    fig01_unit_counts.main(data)
