"""Figure 16 bench: the headline result — VR-Pipe speedups over baseline."""

from repro.experiments import fig16_speedup


def test_fig16(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig16_speedup.run, kwargs={"scenes": scenes}, rounds=1, iterations=1)
    check_digest("fig16", data, scenes)
    evaluated = [s for s in data if s != "geomean"]
    for scene in evaluated:
        d = data[scene]
        assert d["baseline"] == 1.0
        assert d["qm"] > 1.0
        assert d["het"] > d["qm"] * 0.9          # HET >= QM in the paper too
        assert d["het+qm"] >= max(d["het"], d["qm"])
    gm = data["geomean"]
    # Paper: QM <= 1.49x, HET 1.80x avg, HET+QM 2.07x avg (<= 2.78x).
    assert 1.0 < gm["qm"] < 1.6
    assert 1.4 < gm["het"] < 2.6
    assert 1.7 < gm["het+qm"] < 3.2
    if {"train", "truck", "bonsai"} <= set(evaluated):
        # Outdoor scenes benefit most from early termination.
        assert data["train"]["het"] > data["bonsai"]["het"]
        assert data["truck"]["het"] > data["bonsai"]["het"]
    print()
    fig16_speedup.main(data)
