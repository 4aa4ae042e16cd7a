"""Figure 7: per-pixel blended-fragment counts with/without early termination.

The paper shows heat maps for Bonsai; we return both maps plus their
summary statistics.  Early termination should slash the counts where the
scene is opaque (the object) and leave transparent background pixels alone.
"""

from __future__ import annotations

import numpy as np

from repro.engine import get_scenario
from repro.experiments.runner import format_table


def run(scene="bonsai"):
    """Maps and stats: ``{"without_et": map, "with_et": map, ...}``."""
    stream = get_scenario(scene)[1]
    without = stream.fragments_per_pixel("unpruned")
    with_et = stream.fragments_per_pixel("early_term")
    return {
        "scene": scene,
        "without_et": without,
        "with_et": with_et,
        "stats": {
            "mean_without": float(without.mean()),
            "mean_with": float(with_et.mean()),
            "max_without": int(without.max()),
            "max_with": int(with_et.max()),
            "reduction": float(without.sum() / max(with_et.sum(), 1)),
        },
    }


def ascii_heatmap(counts, cols=48):
    """Render a fragment-count map as ASCII (for terminal inspection)."""
    counts = np.asarray(counts, dtype=np.float64)
    h, w = counts.shape
    step_x = max(1, w // cols)
    step_y = max(1, 2 * step_x)
    shades = " .:-=+*#%@"
    peak = counts.max() or 1.0
    lines = []
    for y in range(0, h, step_y):
        row = ""
        for x in range(0, w, step_x):
            block = counts[y:y + step_y, x:x + step_x]
            level = int(block.mean() / peak * (len(shades) - 1))
            row += shades[level]
        lines.append(row)
    return "\n".join(lines)


def main(data=None):
    data = run() if data is None else data
    s = data["stats"]
    print(format_table(
        ["Metric", "w/o early term", "w/ early term"],
        [["mean frags/pixel", s["mean_without"], s["mean_with"]],
         ["max frags/pixel", s["max_without"], s["max_with"]],
         ["total reduction", 1.0, s["reduction"]]],
        title=f"Figure 7 ({data['scene']}): fragments per pixel"))
    print("\nWithout early termination:")
    print(ascii_heatmap(data["without_et"]))
    print("\nWith early termination:")
    print(ascii_heatmap(data["with_et"]))


if __name__ == "__main__":
    main()
