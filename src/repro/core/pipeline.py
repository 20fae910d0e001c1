"""End-to-end measurement pipeline: chain → windows → metrics.

``producers`` generates (and caches) the producer-credit DataFrame for a
chain spec; ``measure_fixed`` / ``measure_sliding`` attach a window id
and run the three-metric aggregation; the ``*_series`` helpers collect
the per-window results to pandas sorted by window id (every series the
paper plots is one such call). Collected series are memoized per
(chain spec, seed, windowing) because several tables drill into the same
series. Both caches are keyed on the spec's value (its ``repr``; a
``ChainSpec`` is unhashable), so a modified spec that keeps the name
never reads another spec's data.
"""

from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.chain.generator import block_producers
from repro.chain.params import ChainSpec
from repro.metrics.spark_metrics import decentralization_by_window
from repro.windows.fixed import with_fixed_window
from repro.windows.sliding import with_sliding_window

_PRODUCER_CACHE: dict[tuple[str, int | None], DataFrame] = {}
_SERIES_CACHE: dict[tuple, pd.DataFrame] = {}


def clear_caches() -> None:
    """Drop memoized DataFrames/series (e.g. between Spark sessions)."""
    for df in _PRODUCER_CACHE.values():
        try:
            df.unpersist()
        except Exception:
            pass
    _PRODUCER_CACHE.clear()
    _SERIES_CACHE.clear()


def producers(
    spark: SparkSession, spec: ChainSpec, seed: int | None = None
) -> DataFrame:
    """Cached, persisted producer-credit DataFrame for a chain spec."""
    key = (repr(spec), seed)
    if key not in _PRODUCER_CACHE:
        df = block_producers(spark, spec, seed=seed).persist()
        df.count()  # materialize once so every downstream job reuses it
        _PRODUCER_CACHE[key] = df
    return _PRODUCER_CACHE[key]


def measure_fixed(df: DataFrame, granularity: str) -> DataFrame:
    """Per-window metrics over fixed day/week/month windows."""
    windowed = with_fixed_window(df, granularity)
    return decentralization_by_window(windowed, "window_id")


def measure_sliding(
    df: DataFrame, spec: ChainSpec, granularity: str, step: int | None = None
) -> DataFrame:
    """Per-window metrics over sliding windows of the paper's sizes.

    ``granularity`` selects N from ``spec.sliding_sizes`` (day/week/
    month); ``step`` defaults to N/2 as in the paper.
    """
    window_size = spec.sliding_sizes[granularity]
    windowed = with_sliding_window(
        df, spec.total_blocks, window_size, step=step
    )
    return decentralization_by_window(windowed, "window_id")


def collect_series(measured: DataFrame) -> pd.DataFrame:
    """Collect a per-window metric DataFrame to pandas, sorted by window."""
    pdf = measured.toPandas().sort_values("window_id").reset_index(drop=True)
    return pdf


def fixed_series(
    spark: SparkSession, spec: ChainSpec, granularity: str, seed: int | None = None
) -> pd.DataFrame:
    """Memoized collected series for fixed windows."""
    key = (repr(spec), seed, "fixed", granularity)
    if key not in _SERIES_CACHE:
        _SERIES_CACHE[key] = collect_series(
            measure_fixed(producers(spark, spec, seed), granularity)
        )
    return _SERIES_CACHE[key].copy()


def sliding_series(
    spark: SparkSession, spec: ChainSpec, granularity: str, seed: int | None = None
) -> pd.DataFrame:
    """Memoized collected series for sliding windows (M = N/2)."""
    key = (repr(spec), seed, "sliding", granularity)
    if key not in _SERIES_CACHE:
        _SERIES_CACHE[key] = collect_series(
            measure_sliding(producers(spark, spec, seed), spec, granularity)
        )
    return _SERIES_CACHE[key].copy()


def miner_share_series(window_df: DataFrame, miner: str) -> pd.DataFrame:
    """Per-window credit share of one miner (for surge drill-downs).

    ``window_df`` must be the windowed producer-credit relation (i.e.
    after ``with_fixed_window`` / ``with_sliding_window``).
    """
    shares = (
        window_df.groupBy("window_id")
        .agg(
            (
                F.sum(F.when(F.col("miner") == miner, 1).otherwise(0))
                / F.count("*")
            ).alias("share")
        )
    )
    return shares.toPandas().sort_values("window_id").reset_index(drop=True)
