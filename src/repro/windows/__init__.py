"""Windowing of the block stream (paper §II.C fixed, §III.A sliding)."""

from repro.windows.fixed import FIXED_GRANULARITIES, with_fixed_window
from repro.windows.sliding import num_windows, pane_size, with_sliding_window

__all__ = [
    "FIXED_GRANULARITIES",
    "with_fixed_window",
    "with_sliding_window",
    "num_windows",
    "pane_size",
]
