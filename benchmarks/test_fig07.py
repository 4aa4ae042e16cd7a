"""Figure 7 bench: per-pixel fragment counts +/- early termination."""

from repro.experiments import fig07_frags_per_pixel


def test_fig07(benchmark, check_digest):
    data = benchmark.pedantic(
        fig07_frags_per_pixel.run, kwargs={"scene": "bonsai"},
        rounds=1, iterations=1)
    check_digest("fig07", data)
    stats = data["stats"]
    assert stats["mean_with"] < stats["mean_without"]
    assert stats["max_with"] <= stats["max_without"]
    assert stats["reduction"] > 1.3
    print()
    fig07_frags_per_pixel.main(data)
