"""End-to-end measurement pipeline: chain → panes → windows → metrics.

``producers`` generates (and caches) the producer-credit DataFrame for a
chain spec, one row per credit. It is not persisted: the Arrow batches
it was built from already live in the JVM, and only the drill-downs of
T1 and T7 read it. ``panes`` counts it once into the persisted pane
relation, credit counts per (pane, day, month, miner), where a pane is
``pane_size(spec.sliding_sizes)`` consecutive blocks. Every fixed window
is a set of whole days and every sliding window a run of whole panes, so
each series reads the pane relation: ``measure_fixed`` /
``measure_sliding`` attach a window id and run the three-metric
aggregation over the weighted credits; the ``*_series`` helpers collect
the per-window results to pandas sorted by window id (every series the
paper plots is one such call). Collected series are memoized per
(chain spec, seed, windowing) because several tables drill into the same
series. Every cache is keyed on the spec's value (its ``repr``; a
``ChainSpec`` is unhashable), so a modified spec that keeps the name
never reads another spec's data. A DataFrame belongs to the session that
built it, so the relation caches are keyed on the session too: a new
session (after ``spark.stop()``, or ``newSession()``) gets its own
relations.
"""

from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.chain.generator import block_producers
from repro.chain.params import ChainSpec
from repro.metrics.spark_metrics import decentralization_by_window, pane_counts
from repro.windows.fixed import with_fixed_window
from repro.windows.sliding import pane_size, with_sliding_window

_RelationKey = tuple[SparkSession, str, int | None]
_PRODUCER_CACHE: dict[_RelationKey, DataFrame] = {}
_PANE_CACHE: dict[_RelationKey, DataFrame] = {}
_SERIES_CACHE: dict[tuple, pd.DataFrame] = {}


def clear_caches() -> None:
    """Drop memoized DataFrames/series (e.g. between Spark sessions)."""
    for df in _PANE_CACHE.values():
        try:
            df.unpersist()
        except Exception:
            pass
    _PANE_CACHE.clear()
    _PRODUCER_CACHE.clear()
    _SERIES_CACHE.clear()


def producers(
    spark: SparkSession, spec: ChainSpec, seed: int | None = None
) -> DataFrame:
    """Cached producer-credit DataFrame for a chain spec (not persisted)."""
    key = (spark, repr(spec), seed)
    if key not in _PRODUCER_CACHE:
        _PRODUCER_CACHE[key] = block_producers(spark, spec, seed=seed)
    return _PRODUCER_CACHE[key]


def panes(
    spark: SparkSession, spec: ChainSpec, seed: int | None = None
) -> DataFrame:
    """Cached, persisted pane relation for a chain spec.

    Columns ``block_idx`` (the pane's first block), ``day_of_year``,
    ``month``, ``miner`` and ``cnt``, the credits of that miner in that
    pane on that day; one partition per core at most.
    """
    key = (spark, repr(spec), seed)
    if key not in _PANE_CACHE:
        counted = pane_counts(
            producers(spark, spec, seed), pane_size(spec.sliding_sizes.values())
        )
        df = counted.coalesce(spark.sparkContext.defaultParallelism).persist()
        df.count()  # materialize once so every series reuses it
        _PANE_CACHE[key] = df
    return _PANE_CACHE[key]


def measure_fixed(df: DataFrame, granularity: str) -> DataFrame:
    """Per-window metrics over fixed day/week/month windows of the pane
    relation (or any weighted credits with a day and a month column)."""
    windowed = with_fixed_window(df, granularity)
    return decentralization_by_window(windowed, "window_id")


def measure_sliding(df: DataFrame, spec: ChainSpec, granularity: str) -> DataFrame:
    """Per-window metrics over sliding windows of the paper's sizes.

    ``granularity`` selects N from ``spec.sliding_sizes`` (day/week/
    month); the step is N/2 as in the paper. ``df`` is the pane relation
    (or any weighted credits indexed by ``block_idx``).
    """
    window_size = spec.sliding_sizes[granularity]
    windowed = with_sliding_window(df, spec.total_blocks, window_size)
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
            measure_fixed(panes(spark, spec, seed), granularity)
        )
    return _SERIES_CACHE[key].copy()


def sliding_series(
    spark: SparkSession, spec: ChainSpec, granularity: str, seed: int | None = None
) -> pd.DataFrame:
    """Memoized collected series for sliding windows (M = N/2)."""
    key = (repr(spec), seed, "sliding", granularity)
    if key not in _SERIES_CACHE:
        _SERIES_CACHE[key] = collect_series(
            measure_sliding(panes(spark, spec, seed), spec, granularity)
        )
    return _SERIES_CACHE[key].copy()


def miner_share_series(window_df: DataFrame, miner_id: int) -> pd.DataFrame:
    """Per-window credit share of one miner (for surge drill-downs).

    ``window_df`` must be the windowed pane relation (i.e. after
    ``with_fixed_window`` / ``with_sliding_window``); ``miner_id`` is the
    miner's id in it, its index in ``miner_universe(spec)``.
    """
    shares = (
        window_df.groupBy("window_id")
        .agg(
            (
                F.sum(F.when(F.col("miner") == miner_id, F.col("cnt")).otherwise(0))
                / F.sum("cnt")
            ).alias("share")
        )
    )
    return shares.toPandas().sort_values("window_id").reset_index(drop=True)
