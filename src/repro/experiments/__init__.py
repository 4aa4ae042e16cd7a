"""Experiment reproductions: one module per paper table/figure.

Every module exposes ``run(...) -> dict`` returning the figure's data and a
``main()`` that prints it as the paper's rows/series.  The benchmark suite
(``benchmarks/``) wraps these.  Paper-vs-measured values are recorded in
item 1 of ``ROADMAP.md`` (the paper-fidelity ledger) until a generated
``CLAIMS.json`` replaces it.

Shared scene construction and simulation results are cached per process in
:mod:`repro.experiments.runner` so multi-figure runs don't recompute.
"""

from repro.experiments import runner

__all__ = ["runner"]
