"""Experiment reproductions: one module per paper table/figure.

Every module exposes ``run(...) -> dict`` returning the figure's data and a
``main(data=None)`` that prints it (or the ``run()`` data it is given) as
the paper's rows/series.  The benchmark suite (``benchmarks/``) wraps
these.  Paper-vs-measured values are recorded in item 1 of ``ROADMAP.md``
(the paper-fidelity ledger) until a generated ``CLAIMS.json`` replaces it.

Figures get scenes and draws from :mod:`repro.engine`, whose memo keeps
the draws and only the most recent scene's fragment stream.
"""

from repro.experiments import runner

__all__ = ["runner"]
