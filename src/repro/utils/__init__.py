"""Shared utilities: argument validation and segmented array reductions."""

from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_shape,
)
from repro.utils.arrays import (
    segment_boundaries,
    segmented_cumsum,
)

__all__ = [
    "check_in_range",
    "check_positive",
    "check_shape",
    "segment_boundaries",
    "segmented_cumsum",
]
