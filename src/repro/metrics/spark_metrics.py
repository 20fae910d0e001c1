"""Per-window decentralization metrics on Spark.

``pane_counts`` counts the producer-credit relation (one row per
credit) into the pane relation: weighted credits ``block_idx, day_of_year,
month, miner, cnt``. The kernel's input is weighted credits with a
window-id column (added by ``repro.windows``); its output is one row per
window carrying all three metrics plus population counts. Every function
executes the SQL text of ``repro.metrics.sql`` -- the same text the DuckDB
oracle runs in the tests -- with the input DataFrame bound as a relation
by ``SparkSession.sql``. The formulations are documented there.
"""

from __future__ import annotations

from pyspark.sql import DataFrame

from repro.metrics.sql import counts_sql, metrics_sql, panes_sql


def pane_counts(df: DataFrame, pane_size: int) -> DataFrame:
    """Credit counts per (pane of ``pane_size`` blocks, day, month, miner)."""
    credits = df.select("block_idx", "day_of_year", "month", "miner")
    return df.sparkSession.sql(panes_sql("{credits}", pane_size), credits=credits)


def per_window_counts(df: DataFrame, window_col: str) -> DataFrame:
    """Producer credit counts per (window, miner): the NB_{A_i} of Eq. 1.

    ``df`` holds weighted credits: ``window_col``, ``miner`` and ``cnt``.
    """
    # Bind a projection, not ``df`` itself: ``SparkSession.sql`` drops the
    # temporary view it binds, and dropping a view uncaches every cached
    # plan equal to the view's, so binding a persisted ``df`` would
    # unpersist it. (Spark normalizes a no-op projection away, so a
    # persisted ``df`` of exactly these three columns still would be.)
    credits = df.select(window_col, "miner", "cnt")
    return df.sparkSession.sql(counts_sql("{credits}", window_col), credits=credits)


def decentralization_by_window(df: DataFrame, window_col: str) -> DataFrame:
    """All three metrics per window of weighted credits, in one DataFrame.

    Output columns: ``window_col, n_miners, n_credits, gini, entropy,
    nakamoto``.
    """
    counts = per_window_counts(df, window_col)
    return df.sparkSession.sql(metrics_sql("{counts}", window_col), counts=counts)
