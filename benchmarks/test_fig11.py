"""Figure 11 bench: multi-pass software early termination."""

from repro.experiments import fig11_multipass


def test_fig11(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig11_multipass.run, kwargs={"scenes": scenes}, rounds=1,
        iterations=1)
    check_digest("fig11", data, scenes)
    outdoor = [s for s in data if s in ("train", "truck")]
    for scene, sweep in data.items():
        assert sweep[1] == 1.0
        # Speedups stay modest — nowhere near HET's (paper: <= ~1.2).
        assert max(sweep.values()) < 1.6, scene
    for scene in outdoor:
        sweep = data[scene]
        best_n = max(sweep, key=sweep.get)
        # Large outdoor scenes benefit at an intermediate N.
        assert sweep[best_n] > 1.0, scene
        assert 1 < best_n < 30, scene
    print()
    fig11_multipass.main(data)
