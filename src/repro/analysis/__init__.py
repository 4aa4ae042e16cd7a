"""``repro.analysis`` — the repo-specific static-analysis engine.

A stdlib-``ast`` invariant checker (no third-party deps) enforcing the
contracts the test suite can only sample: bit-exact reduction dtypes
(R1), determinism of iteration and randomness (R2), pinned columnar
dtypes (R3), environment-knob registry consistency (R4), oracle-pair
coverage (R5), and executor-shared-state hygiene (R6).  Every finding
fails the gate unless an argued ``# repro-lint: ok(RULE): reason``
pragma suppresses it; see ``README.md`` ("Static analysis") for the
rule catalogue.

Entry points: the ``repro lint`` CLI subcommand and :func:`run_lint`.
"""

from repro.analysis.engine import RULES, counts, format_text, run_lint
from repro.analysis.findings import Finding

__all__ = ["Finding", "RULES", "counts", "format_text", "run_lint"]
