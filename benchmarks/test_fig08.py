"""Figure 8 bench: CUDA early-termination speedup vs fragment reduction."""

from repro.experiments import fig08_cuda_early_term


def test_fig08(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig08_cuda_early_term.run, kwargs={"scenes": scenes},
        rounds=1, iterations=1)
    check_digest("fig08", data, scenes)
    for scene, d in data.items():
        assert d["speedup"] > 1.0, scene
        # Lockstep execution: realised speedup trails the fragment
        # reduction (small tolerance: warp rounds also count pruned-only
        # Gaussians, which the fragment ratio does not).
        assert d["speedup"] < d["frag_reduction"] * 1.05, scene
        assert d["frag_reduction"] > 1.5, scene
    print()
    fig08_cuda_early_term.main(data)
