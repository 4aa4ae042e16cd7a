"""Placeholder for the retired fault-injection harness.

The model is deterministic, so a failing frame raises and there is
nothing to inject or heal.  Only :data:`ENABLED` is left, because
``framebench/frames.py`` imports this module and records
``faults.ENABLED`` in each run's knob record; ``framebench/`` changes
only together with the benchmark itself, which then drops the import
and this module.
"""

#: Always ``False``: no fault plan exists.
ENABLED = False
