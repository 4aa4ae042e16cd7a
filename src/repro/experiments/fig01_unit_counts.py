"""Figure 1: shader cores vs render output units across GPU generations.

Static published specifications (the figure's labels); the point of the
figure is that ROP counts grow far slower than shader counts — 2x vs 4.6x
from Pascal to Ada — which is why volume rendering, which hammers ROPs,
outgrows the hardware.
"""

from __future__ import annotations

from repro.experiments.runner import format_table

#: (GPU, architecture/process, shading units, render output units).
GPU_GENERATIONS = [
    ("GTX 1080 Ti", "Pascal; 16 nm", 3584, 88),
    ("RTX 2080 Ti", "Turing; 12 nm", 4608, 96),
    ("RTX 3090 Ti", "Ampere; 8 nm", 10752, 112),
    ("RTX 4090", "Ada Lovelace; 5 nm", 16384, 176),
]


def run():
    """Returns per-GPU counts and growth normalised to the 1080 Ti."""
    base_su = GPU_GENERATIONS[0][2]
    base_rop = GPU_GENERATIONS[0][3]
    rows = []
    for name, arch, su, rop in GPU_GENERATIONS:
        rows.append({
            "gpu": name,
            "architecture": arch,
            "shading_units": su,
            "rops": rop,
            "shading_norm": su / base_su,
            "rop_norm": rop / base_rop,
        })
    return {"rows": rows}


def main(data=None):
    data = run() if data is None else data
    print(format_table(
        ["GPU", "Architecture", "Shading units", "ROPs",
         "SU (norm)", "ROP (norm)"],
        [[r["gpu"], r["architecture"], r["shading_units"], r["rops"],
          r["shading_norm"], r["rop_norm"]] for r in data["rows"]],
        title="Figure 1: shader vs ROP growth across GPU generations"))


if __name__ == "__main__":
    main()
