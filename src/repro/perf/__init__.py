"""Performance measurement harness: timers, benchmark suites, reports.

The ``repro bench`` CLI subcommand drives this package: a suite (a named
set of benchmarks over one workload layer — rasterisation, full reference
frames, the hardware pipeline's flush engines) runs
each benchmark with warmup + repeats, takes wall-clock medians, and
writes a ``BENCH_<suite>.json`` report that later runs can be compared
against.  End-to-end and per-layer frame timing lives in the repo
benchmark, ``framebench/run.py``.
"""

from repro.perf.report import (
    compare_to_baseline,
    load_report,
    suite_report,
    write_report,
)
from repro.perf.suite import SUITES, SuiteRun, run_suite
from repro.perf.timer import TimingResult, time_callable

__all__ = [
    "SUITES",
    "SuiteRun",
    "TimingResult",
    "compare_to_baseline",
    "load_report",
    "run_suite",
    "suite_report",
    "time_callable",
    "write_report",
]
