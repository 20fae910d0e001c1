"""Decentralization metrics (paper §II.B, Eqs. 1–4).

``reference`` holds numpy ground-truth implementations; ``sql`` holds
the one SQL formulation of the per-window metrics, which Spark executes
through ``spark_metrics`` and the DuckDB oracle executes in the tests.
"""

from repro.metrics.reference import NAKAMOTO_THRESHOLD_PCT, gini, nakamoto, shannon_entropy
from repro.metrics.spark_metrics import (
    decentralization_by_window,
    pane_counts,
    per_window_counts,
)

__all__ = [
    "gini",
    "shannon_entropy",
    "nakamoto",
    "pane_counts",
    "per_window_counts",
    "decentralization_by_window",
    "NAKAMOTO_THRESHOLD_PCT",
]
