"""Figure 21: early-termination ratio across viewpoints.

For each scene, a :class:`~repro.engine.session.RenderSession` sweeps the
orbit trajectory and reports the ratio of fragments blended without early
termination to those blended with it.  Paper claims to reproduce: outdoor
scenes average higher than indoor/synthetic, and every scene's average
exceeds 1.5 (>= 33% of fragments eliminable).

Routing through the session means each viewpoint is rendered (one
vectorised reference blend) rather than only ratio-counted — the price
of sharing the engine's trajectory machinery, parallelism (``jobs``),
and disk cache with every other consumer.
"""

from __future__ import annotations

from repro.engine.session import RenderSession
from repro.experiments.runner import format_table
from repro.workloads.catalog import scene_names


def run(scenes=None, n_views=8, jobs=1):
    """``{scene: {"ratios": [...], "mean": m, "min": lo, "max": hi}}``."""
    scenes = list(scenes) if scenes is not None else scene_names()
    out = {}
    for name in scenes:
        session = RenderSession(name, backend="reference", baseline=None)
        trajectory = session.run(n_views=n_views, jobs=jobs)
        agg = trajectory.aggregates()
        out[name] = {
            "ratios": [r.et_ratio for r in trajectory.records],
            "mean": agg["et_ratio_mean"],
            "min": agg["et_ratio_min"],
            "max": agg["et_ratio_max"],
        }
    return out


def main(data=None):
    data = run() if data is None else data
    rows = [[name, d["mean"], d["min"], d["max"]] for name, d in data.items()]
    print(format_table(
        ["Scene", "Mean ratio", "Min", "Max"], rows,
        title="Figure 21: early-termination ratio across viewpoints"))


if __name__ == "__main__":
    main()
