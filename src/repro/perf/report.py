"""BENCH_<suite>.json reports and baseline comparison.

A report is a flat, diff-friendly JSON document: suite metadata, one row
per benchmark (median + raw repeats + derived metrics), and — when a
baseline report is supplied — per-benchmark speedups against it, so a
checked-in ``BENCH_rasterize.json`` doubles as the regression reference
for later runs (``repro bench --baseline BENCH_rasterize.json``).
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

#: Bumped whenever the report layout changes incompatibly.
SCHEMA_VERSION = 1


def suite_report(run, baseline=None):
    """Serialise a :class:`~repro.perf.suite.SuiteRun` to a report dict.

    ``baseline`` is a previously loaded report dict; matching benchmark
    names gain a ``speedup_vs_baseline`` entry (>1 means this run is
    faster).
    """
    rows = []
    for result in run:
        rows.append({
            "name": result.name,
            "scene": result.scene,
            "median_ms": result.timing.median_ms,
            "times_ms": [t * 1e3 for t in result.timing.times_s],
            "warmup": result.timing.warmup,
            "cv": result.timing.cv,
            **result.metrics,
        })
    report = {
        "schema": SCHEMA_VERSION,
        "suite": run.suite,
        "quick": run.quick,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        # Environment fingerprint: trajectories of BENCH files are only
        # comparable when these match (medians from a 4-core laptop and a
        # 1-core CI runner are different experiments).
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "benchmarks": rows,
    }
    if baseline is not None:
        report["baseline_suite"] = baseline.get("suite")
        report["speedup_vs_baseline"] = compare_to_baseline(report, baseline)
        report["noise_vs_baseline"] = classify_noise(report, baseline)
    return report


def row_cv(row):
    """Coefficient of variation of one report row's repeats.

    Prefers the stored ``cv`` field; reports written before CV tracking
    are reconstructed from their raw ``times_ms``.  Rows with a single
    repeat have no measurable spread and return 0.0 — callers must treat
    them as noise-blind, not noise-free.
    """
    cv = row.get("cv")
    if cv is not None:
        return float(cv)
    times = row.get("times_ms") or []
    if len(times) < 2:
        return 0.0
    mean = sum(times) / len(times)
    if mean <= 0.0:
        return 0.0
    var = sum((t - mean) ** 2 for t in times) / (len(times) - 1)
    return var ** 0.5 / mean


def classify_noise(report, baseline, sigma=2.0):
    """Per-benchmark noise verdict on the baseline comparison.

    For every row shared with ``baseline``, compares the relative delta
    ``|speedup - 1|`` against a noise floor built from *both* runs'
    repeat spread: ``sigma * (cv_current + cv_baseline)``.  Returns
    ``{name: {"speedup", "delta", "noise_floor", "within_noise"}}``.

    A 0.95x row whose two sides each wobble by 3% between repeats is a 5%
    delta against a ~12% floor — reported as ``within_noise: true`` so a
    reader doesn't chase a regression that is scheduling jitter.  Deltas
    that clear the floor are genuine changes at roughly the ``sigma``
    confidence of the (small-sample) spread estimate.
    """
    base_rows = {row["name"]: row for row in baseline.get("benchmarks", [])}
    verdicts = {}
    for row in report.get("benchmarks", []):
        base = base_rows.get(row["name"])
        if base is None or not row["median_ms"] or not base.get("median_ms"):
            continue
        speedup = base["median_ms"] / row["median_ms"]
        delta = abs(speedup - 1.0)
        floor = sigma * (row_cv(row) + row_cv(base))
        verdicts[row["name"]] = {
            "speedup": speedup,
            "delta": delta,
            "noise_floor": floor,
            "within_noise": bool(delta <= floor),
        }
    return verdicts


def compare_to_baseline(report, baseline):
    """``{benchmark name: baseline_median / current_median}`` for shared rows."""
    if baseline.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"baseline schema {baseline.get('schema')!r} does not match "
            f"current schema {SCHEMA_VERSION}")
    base_rows = {row["name"]: row for row in baseline.get("benchmarks", [])}
    speedups = {}
    for row in report["benchmarks"]:
        base = base_rows.get(row["name"])
        if base is None or not row["median_ms"]:
            continue
        speedups[row["name"]] = base["median_ms"] / row["median_ms"]
    return speedups


def write_report(report, path):
    """Write ``report`` as indented JSON to ``path`` (returns the path)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def load_report(path):
    """Load a report previously written by :func:`write_report`."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict) or "benchmarks" not in report:
        raise ValueError(f"{path!r} is not a bench report")
    return report
