"""Repository benchmark: simulated frames timed from outside the program.

Run from the root of a checkout::

    python3 framebench/run.py --workload cold-orbit --seed 1 --seconds 20 --trace 0

Every measurement runs ``frames.py`` in a fresh Python process with the
library's ``REPRO_*`` knobs cleared, so ``peak_rss_mb`` is that
workload's own high-water mark and no CI environment loop turns a warm
workload cold.  Workloads run one at a time.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the traced process and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full report goes
to ``framebench/out/``.  See ``framebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

#: Cleared for every child, so the library runs on its defaults.
CLEARED_KNOBS = ("REPRO_COHERENCE", "REPRO_IR", "REPRO_SWMODEL",
                 "REPRO_FAULTS", "REPRO_SCENES")

#: Serial frames: numerical libraries get one thread each.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

#: Set-up-only probe processes run before and again after the measured
#: one; ``setup_s`` is the minimum over the probes and the measured run.
#: Set-up is mostly imports, and the host slows them by up to 60% in
#: spells of 10-30 s that only ever add time.  The spells covered a
#: majority of samples in whole stretches of runs, which moved a median
#: by a third between two sets of runs of the same code; the minimum
#: over samples spread across the run is the set-up cost itself.
SETUP_PROBES = 3

#: Wall-clock budget of one run's child processes, in seconds (a run
#: must end within 180 s).
BUDGET_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def fingerprint():
    import numpy  # the program's own dependency; imported only to report it
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "ram_mb": ram / 2**20}


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_KNOBS}
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(workload, seed, seconds, mode, deadline):
    """Run ``frames.py`` in a fresh process; returns its JSON result."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "frames.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
           "--spawned-at", repr(spawned_at), "--out-dir", str(OUT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process overran the {BUDGET_S}s budget") \
            from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} process exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the sample with exactly ten larger
    positions above it in sorted order, and its rank as a percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"{n} timed frames; the tail needs at least 11")
    k = n - 11
    return ordered[k], 100.0 * k / (n - 1)


def end_to_end(workload, seed, seconds, deadline):
    def probes():
        return [run_child(workload, seed, seconds, "setup",
                          deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    setups = probes()
    main = run_child(workload, seed, seconds, "run", deadline)
    setups += [main["setup_s"]] + probes()
    frame_ms = [ms for ms in main["frame_ms"] if ms is not None]
    tail_ms, tail_pct = tail(frame_ms)
    metrics = {
        "frame_ms_p50": statistics.median(frame_ms),
        "frame_ms_tail": tail_ms,
        "frames_per_s": len(frame_ms) / main["loop_s"],
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": min(setups),
    }
    extra = {"frame_ms_tail_percentile": tail_pct,
             "timed_frames": len(frame_ms), "setup_samples_s": setups,
             "frame_error_rate": main["failed"] / main["attempted"]}
    return main, metrics, extra


def per_layer(workload, seed, seconds, deadline):
    traced = run_child(workload, seed, seconds, "trace", deadline)
    return traced, traced["metrics"], {}


def main(argv=None):
    deadline = time.monotonic() + BUDGET_S
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"framebench: no program sources under {SRC}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        child, metrics, extra = measure(args.workload, args.seed,
                                        args.seconds, deadline)
    except BenchError as exc:
        print(f"framebench: {exc}", file=sys.stderr)
        return 1
    missing = set(units) - set(metrics)
    if missing or not all(math.isfinite(metrics[k]) for k in units):
        print(f"framebench: bad metrics {sorted(missing)}", file=sys.stderr)
        return 1
    correct = (child["failed"] == 0 and child["sim_digest"] is not None)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint(), "knobs": child["knobs"],
              "sim_digest": child["sim_digest"],
              "sim_digest_committed": child["sim_digest_committed"],
              "errors": child["errors"],
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}, **extra}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(report, fh, indent=1)
    for key in ("workload", "seed", "fingerprint", "knobs", "sim_digest",
                "sim_digest_committed"):
        print(f"{key}: {json.dumps(report[key])}")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for key, value in extra.items():
        print(f"{key} = {value}")
    for err in child["errors"]:
        print(f"error: {err}")
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
