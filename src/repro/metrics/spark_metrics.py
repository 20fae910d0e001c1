"""Per-window decentralization metrics on Spark.

Input is the producer-credit relation with a window-id column (added by
``repro.windows``); output is one row per window carrying all three
metrics plus population counts. Both functions execute the SQL text of
``repro.metrics.sql`` -- the same text the DuckDB oracle runs in the
tests -- with the input DataFrame bound as a relation by
``SparkSession.sql``. The formulations are documented there.
"""

from __future__ import annotations

from pyspark.sql import DataFrame

from repro.metrics.sql import counts_sql, metrics_sql


def per_window_counts(df: DataFrame, window_col: str) -> DataFrame:
    """Producer credit counts per (window, miner): the NB_{A_i} of Eq. 1."""
    # Bind a projection, not ``df`` itself: ``SparkSession.sql`` drops the
    # temporary view it binds, and dropping a view uncaches every cached
    # plan equal to the view's, so binding a persisted ``df`` would
    # unpersist it. (Spark normalizes a no-op projection away, so a
    # persisted ``df`` of exactly these two columns still would be.)
    credits = df.select(window_col, "miner")
    return df.sparkSession.sql(counts_sql("{credits}", window_col), credits=credits)


def decentralization_by_window(df: DataFrame, window_col: str) -> DataFrame:
    """All three metrics per window, in one DataFrame.

    Output columns: ``window_col, n_miners, n_credits, gini, entropy,
    nakamoto``.
    """
    counts = per_window_counts(df, window_col)
    return df.sparkSession.sql(metrics_sql("{counts}", window_col), counts=counts)
