"""Measurement pipeline and experiment harness (tables T1–T8)."""

from repro.core.pipeline import (
    collect_series,
    fixed_series,
    measure_fixed,
    measure_sliding,
    miner_share_series,
    panes,
    producers,
    sliding_series,
)

__all__ = [
    "producers",
    "panes",
    "measure_fixed",
    "measure_sliding",
    "collect_series",
    "fixed_series",
    "sliding_series",
    "miner_share_series",
]
