"""End-to-end pipeline tests on the tiny chain."""

import dataclasses

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.chain.generator import miner_universe
from repro.core import pipeline
from repro.metrics.reference import gini, nakamoto, shannon_entropy
from repro.windows.fixed import with_fixed_window
from repro.windows.sliding import num_windows, with_sliding_window


def test_producers_cached_identity(spark, tiny_spec, tiny_df):
    assert pipeline.producers(spark, tiny_spec) is tiny_df


def test_producers_distinct_per_seed(spark, tiny_spec, tiny_df):
    other = pipeline.producers(spark, tiny_spec, seed=123)
    assert other is not tiny_df


def test_producer_cache_bound_to_session(spark, tiny_spec, tiny_df):
    """A persisted relation is never handed to another session."""
    session = spark.newSession()
    other = pipeline.producers(session, tiny_spec)
    assert other.sparkSession is session
    assert other is not tiny_df
    assert pipeline.producers(session, tiny_spec) is other
    assert pipeline.producers(spark, tiny_spec) is tiny_df
    other.unpersist()


def test_caches_keyed_on_spec_value(spark, tiny_spec, tiny_df):
    """A modified spec that keeps the name gets its own data and series."""
    reseeded = dataclasses.replace(tiny_spec, seed=100)
    other = pipeline.producers(spark, reseeded)
    assert not other.toPandas().miner.equals(tiny_df.toPandas().miner)
    assert not pipeline.fixed_series(spark, reseeded, "day").equals(
        pipeline.fixed_series(spark, tiny_spec, "day")
    )


@pytest.mark.parametrize("granularity", ["day", "week", "month"])
def test_measure_fixed_shapes(spark, tiny_df, tiny_spec, granularity):
    out = pipeline.measure_fixed(tiny_df, granularity).toPandas()
    expected_windows = {"day": tiny_spec.n_days, "week": 5, "month": 1}[granularity]
    assert len(out) == expected_windows
    assert {"window_id", "gini", "entropy", "nakamoto", "n_miners", "n_credits"} <= set(out.columns)


@pytest.mark.parametrize("granularity", ["day", "week", "month"])
def test_measure_sliding_shapes(spark, tiny_df, tiny_spec, granularity):
    out = pipeline.measure_sliding(tiny_df, tiny_spec, granularity).toPandas()
    n = tiny_spec.sliding_sizes[granularity]
    assert len(out) == num_windows(tiny_spec.total_blocks, n, n // 2)


def test_fixed_series_sorted_and_cached(spark, tiny_spec):
    s1 = pipeline.fixed_series(spark, tiny_spec, "day")
    s2 = pipeline.fixed_series(spark, tiny_spec, "day")
    assert s1.window_id.is_monotonic_increasing
    pd.testing.assert_frame_equal(s1, s2)


def test_series_copy_isolated(spark, tiny_spec):
    """Mutating a returned series must not corrupt the cache."""
    s1 = pipeline.fixed_series(spark, tiny_spec, "day")
    s1["gini"] = -1.0
    s2 = pipeline.fixed_series(spark, tiny_spec, "day")
    assert (s2["gini"] >= 0).all()


def test_fixed_day_series_matches_reference(spark, tiny_spec, tiny_df):
    series = pipeline.fixed_series(spark, tiny_spec, "day").set_index("window_id")
    pdf = tiny_df.toPandas()
    for day in (1, 7, 20, 30):
        c = pdf[pdf.day_of_year == day].miner.value_counts().to_numpy()
        assert series.loc[day, "gini"] == pytest.approx(gini(c), abs=1e-9)
        assert series.loc[day, "entropy"] == pytest.approx(shannon_entropy(c), abs=1e-9)
        assert int(series.loc[day, "nakamoto"]) == nakamoto(c)


def test_sliding_series_matches_reference(spark, tiny_spec, tiny_df):
    series = pipeline.sliding_series(spark, tiny_spec, "day").set_index("window_id")
    n = tiny_spec.sliding_sizes["day"]
    pdf = tiny_df.toPandas()
    for w in (0, 5, len(series) - 1):
        sel = pdf[(pdf.block_idx >= w * (n // 2)) & (pdf.block_idx < w * (n // 2) + n)]
        c = sel.miner.value_counts().to_numpy()
        assert series.loc[w, "gini"] == pytest.approx(gini(c), abs=1e-9)
        assert series.loc[w, "entropy"] == pytest.approx(shannon_entropy(c), abs=1e-9)
        assert int(series.loc[w, "nakamoto"]) == nakamoto(c)


def test_tiny_anomaly_day_visible(spark, tiny_spec):
    """The injected multi-coinbase day must show the paper's signature:
    entropy spike, gini drop, more producers."""
    day = pipeline.fixed_series(spark, tiny_spec, "day").set_index("window_id")
    a_day = tiny_spec.coinbase_anomalies[0].day
    others = day.drop(index=a_day)
    assert day.loc[a_day, "entropy"] > others["entropy"].max()
    assert day.loc[a_day, "n_miners"] > 2 * others["n_miners"].max()


def test_tiny_surge_caught_by_sliding_not_daily(spark, tiny_spec):
    sday = pipeline.sliding_series(spark, tiny_spec, "day")
    fday = pipeline.fixed_series(spark, tiny_spec, "day")
    assert sday["nakamoto"].min() <= fday["nakamoto"].min()


def test_miner_share_series(spark, tiny_df, tiny_spec):
    surge = tiny_spec.surges[0]
    surge_id = miner_universe(tiny_spec)[1][surge.miner]
    shares = pipeline.miner_share_series(
        with_fixed_window(tiny_df, "day"), surge_id
    ).set_index("window_id")
    # surge days split the ~60 % take across the boundary
    assert shares.loc[surge.start_day, "share"] > 0.15
    assert shares.loc[surge.start_day + 1, "share"] > 0.15
    assert shares.loc[5, "share"] == 0.0
    # sliding windows: one window must see a concentrated share
    sl = pipeline.miner_share_series(
        with_sliding_window(tiny_df, tiny_spec.total_blocks, tiny_spec.sliding_sizes["day"]),
        surge_id,
    )
    assert sl["share"].max() > shares["share"].max()


def test_miner_share_sums_to_one_over_all_miners(spark, tiny_df):
    """Over every miner id present in a window, the shares sum to 1."""
    day1 = with_fixed_window(tiny_df, "day").where(F.col("window_id") == 1)
    ids = [r[0] for r in day1.select("miner").distinct().collect()]
    total = sum(
        float(pipeline.miner_share_series(day1, miner_id)["share"].iloc[0])
        for miner_id in ids
    )
    assert len(ids) > 1
    assert total == pytest.approx(1.0, abs=1e-12)
