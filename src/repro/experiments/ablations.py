"""Ablation studies on VR-Pipe's design choices.

The paper motivates several design decisions without dedicated figures;
these ablations quantify them on this model:

* **TGC contribution** — quad merging with and without the tile-grid
  coalescing unit (Section V-C argues TC bins flush prematurely without
  it, wasting merge opportunities).
* **HET in-flight lag** — how the realised speedup decays as the window
  between the threshold-crossing blend and the visible stencil update
  grows (0 = the perfect fragment-granular bound).
* **ROP width scaling** — whether simply adding ROP throughput (the
  brute-force alternative VR-Pipe argues is "costly and challenging")
  would match the extensions.
"""

from __future__ import annotations

from repro.core.vrpipe import variant_config
from repro.engine import get_scenario, make_device
from repro.experiments.runner import format_table
from repro.hwmodel.pipeline import GraphicsPipeline


def tgc_ablation(scenes=("truck", "bonsai"), device_name="orin"):
    """Merged pairs and speedup for QM with vs without the TGC unit."""
    device = make_device(device_name)
    out = {}
    for name in scenes:
        stream = get_scenario(name)[1]
        base = GraphicsPipeline(variant_config("baseline", device)).draw(stream)
        with_tgc = GraphicsPipeline(variant_config("qm", device)).draw(stream)
        without = GraphicsPipeline(
            variant_config("qm", device, qm_use_tgc=False)).draw(stream)
        out[name] = {
            "pairs_with_tgc": with_tgc.stats.quads_merged_pairs,
            "pairs_without_tgc": without.stats.quads_merged_pairs,
            "speedup_with_tgc": base.cycles / with_tgc.cycles,
            "speedup_without_tgc": base.cycles / without.cycles,
        }
    return out


def het_lag_sensitivity(scene="truck", lags=(0, 4, 8, 16, 32, 64),
                        device_name="orin"):
    """HET speedup over baseline as a function of the in-flight window."""
    device = make_device(device_name)
    stream = get_scenario(scene)[1]
    base = GraphicsPipeline(variant_config("baseline", device)).draw(stream)
    out = {}
    for lag in lags:
        cfg = variant_config("het", device, het_inflight_lag=int(lag))
        res = GraphicsPipeline(cfg).draw(stream)
        out[int(lag)] = base.cycles / res.cycles
    return out


def rop_width_scaling(scene="truck", widths=(1.0, 2.0, 4.0, 8.0),
                      device_name="orin"):
    """Baseline speedup from just widening the ROPs vs VR-Pipe.

    Returns per-width baseline speedups plus the HET+QM speedup at the
    paper's width for comparison.
    """
    device = make_device(device_name)
    stream = get_scenario(scene)[1]
    reference = GraphicsPipeline(variant_config("baseline", device)).draw(stream)
    out = {"widths": {}}
    for width in widths:
        cfg = variant_config("baseline", device,
                             rop_quads_per_cycle=float(width))
        res = GraphicsPipeline(cfg).draw(stream)
        out["widths"][float(width)] = reference.cycles / res.cycles
    vrp = GraphicsPipeline(variant_config("het+qm", device)).draw(stream)
    out["het+qm"] = reference.cycles / vrp.cycles
    return out


def tc_bin_count_sweep(scene="truck", bin_counts=(8, 16, 32, 64, 128),
                       device_name="orin"):
    """QM merge pairs and speedup versus the number of TC bins.

    With fewer bins, tiles evict before overlapping quads meet in a flush,
    starving the QRU — quantifying why the §VII-measured 32 bins matter to
    quad merging.
    """
    device = make_device(device_name)
    stream = get_scenario(scene)[1]
    base = GraphicsPipeline(variant_config("baseline", device)).draw(stream)
    out = {}
    for n_bins in bin_counts:
        cfg = variant_config("qm", device, n_tc_bins=int(n_bins))
        res = GraphicsPipeline(cfg).draw(stream)
        out[int(n_bins)] = {
            "pairs": res.stats.quads_merged_pairs,
            "speedup": base.cycles / res.cycles,
        }
    return out


def format_sensitivity(scene="truck", device_name="orin"):
    """Variant speedups under RGBA8 vs RGBA16F colour buffers.

    §VII-A showed RGBA8 doubles CROP throughput; with a faster CROP the
    baseline is less ROP-bound, so VR-Pipe's *relative* gain shrinks —
    quantifying how the contributions depend on the blend-bandwidth wall.
    """
    device = make_device(device_name)
    stream = get_scenario(scene)[1]
    out = {}
    for fmt in ("rgba16f", "rgba8"):
        base = GraphicsPipeline(
            variant_config("baseline", device, color_format=fmt)).draw(stream)
        vrp = GraphicsPipeline(
            variant_config("het+qm", device, color_format=fmt)).draw(stream)
        out[fmt] = {
            "baseline_cycles": base.cycles,
            "hetqm_cycles": vrp.cycles,
            "speedup": base.cycles / vrp.cycles,
        }
    return out


def run():
    """Every ablation's data: ``{"tgc", "het_lag", "rop_width", "tc_bins",
    "format"}``, each as its function returns it."""
    return {
        "tgc": tgc_ablation(),
        "het_lag": het_lag_sensitivity(),
        "rop_width": rop_width_scaling(),
        "tc_bins": tc_bin_count_sweep(),
        "format": format_sensitivity(),
    }


def main(data=None):
    data = run() if data is None else data
    print(format_table(
        ["Scene", "Pairs w/ TGC", "Pairs w/o TGC", "Speedup w/ TGC",
         "Speedup w/o TGC"],
        [[name, d["pairs_with_tgc"], d["pairs_without_tgc"],
          d["speedup_with_tgc"], d["speedup_without_tgc"]]
         for name, d in data["tgc"].items()],
        title="Ablation: TGC unit contribution to quad merging"))
    print()
    print(format_table(
        ["In-flight lag (frags)", "HET speedup"],
        [[k, v] for k, v in data["het_lag"].items()],
        title="Ablation: HET in-flight window sensitivity (truck)"))
    print()
    rop = data["rop_width"]
    rows = [[f"{w:g} quads/cycle", s] for w, s in rop["widths"].items()]
    rows.append(["VR-Pipe HET+QM @ 2 quads/cycle", rop["het+qm"]])
    print(format_table(
        ["Configuration", "Speedup over baseline"],
        rows, title="Ablation: widening ROPs vs VR-Pipe (truck)"))
    print()
    print(format_table(
        ["# TC bins", "Merged pairs", "QM speedup"],
        [[n, d["pairs"], d["speedup"]] for n, d in data["tc_bins"].items()],
        title="Ablation: TC bin count vs quad merging (truck)"))
    print()
    print(format_table(
        ["Format", "Baseline cycles", "HET+QM cycles", "Speedup"],
        [[f.upper(), d["baseline_cycles"], d["hetqm_cycles"], d["speedup"]]
         for f, d in data["format"].items()],
        title="Ablation: colour-format sensitivity (truck)"))


if __name__ == "__main__":
    main()
