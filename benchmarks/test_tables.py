"""Tables I-III bench: configuration, workloads, hardware cost."""

import pytest

from repro.experiments import tables


def test_tables(benchmark, check_digest):
    t1, t2, t3 = benchmark.pedantic(
        lambda: (tables.table1(), tables.table2(), tables.table3()),
        rounds=1, iterations=1)
    check_digest("tables", {"table1": t1, "table2": t2, "table3": t3})
    # Table I facts.
    assert t1["# GPC"] == 1
    assert t1["# SIMT Cores"] == 16
    assert t1["SIMT Core Freq. (MHz)"] == 612.0
    assert t1["CROP Cache (KB)"] == 16
    assert t1["# TGC Bins"] == 128
    assert t1["# TC Bins"] == 32
    assert t1["ROP Throughput (quads/cycle, RGBA16F)"] == 2.0
    # Table II scene facts.
    by_name = {r["scene"]: r for r in t2}
    assert by_name["kitchen"]["paper_gaussians"] == 1_850_000
    assert by_name["lego"]["paper_resolution"] == "800x800"
    # Table III: 24.25 KB + 688 B = 24.92 KB.
    assert t3["Tile Grid Coalescing Unit (B)"] == 24832
    assert t3["Quad Reorder Unit (B)"] == 688
    assert t3["Total (KB)"] == pytest.approx(24.92, abs=0.01)
    print()
    tables.main()
