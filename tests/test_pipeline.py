"""End-to-end pipeline tests on the tiny chain."""

import dataclasses

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.chain.generator import block_producers_pdf, miner_universe
from repro.core import pipeline
from repro.metrics import sql as msql
from repro.metrics.reference import gini, nakamoto, shannon_entropy
from repro.oracle import assert_equivalent
from repro.windows.fixed import with_fixed_window
from repro.windows.sliding import num_windows, pane_size, with_sliding_window

GRANULARITIES = ("day", "week", "month")
#: Sliding sizes whose sizes and steps (7, 21, 30) share no factor: P = 1.
COPRIME_SIZES = {"day": 14, "week": 42, "month": 60}


def test_producers_cached_identity(spark, tiny_spec, tiny_df):
    assert pipeline.producers(spark, tiny_spec) is tiny_df


def test_producers_distinct_per_seed(spark, tiny_spec, tiny_df):
    other = pipeline.producers(spark, tiny_spec, seed=123)
    assert other is not tiny_df


def test_producer_cache_bound_to_session(spark, tiny_spec, tiny_df):
    """A relation is never handed to another session."""
    session = spark.newSession()
    other = pipeline.producers(session, tiny_spec)
    assert other.sparkSession is session
    assert other is not tiny_df
    assert pipeline.producers(session, tiny_spec) is other
    assert pipeline.producers(spark, tiny_spec) is tiny_df


def test_caches_keyed_on_spec_value(spark, tiny_spec, tiny_df):
    """A modified spec that keeps the name gets its own data and series."""
    reseeded = dataclasses.replace(tiny_spec, seed=100)
    other = pipeline.producers(spark, reseeded)
    assert not other.toPandas().miner.equals(tiny_df.toPandas().miner)
    assert not pipeline.fixed_series(spark, reseeded, "day").equals(
        pipeline.fixed_series(spark, tiny_spec, "day")
    )


@pytest.mark.parametrize("granularity", ["day", "week", "month"])
def test_measure_fixed_shapes(spark, tiny_panes, tiny_spec, granularity):
    out = pipeline.measure_fixed(tiny_panes, granularity).toPandas()
    expected_windows = {"day": tiny_spec.n_days, "week": 5, "month": 1}[granularity]
    assert len(out) == expected_windows
    assert {"window_id", "gini", "entropy", "nakamoto", "n_miners", "n_credits"} <= set(out.columns)


@pytest.mark.parametrize("granularity", ["day", "week", "month"])
def test_measure_sliding_shapes(spark, tiny_panes, tiny_spec, granularity):
    out = pipeline.measure_sliding(tiny_panes, tiny_spec, granularity).toPandas()
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


def test_miner_share_series(spark, tiny_panes, tiny_spec):
    surge = tiny_spec.surges[0]
    surge_id = miner_universe(tiny_spec)[1][surge.miner]
    shares = pipeline.miner_share_series(
        with_fixed_window(tiny_panes, "day"), surge_id
    ).set_index("window_id")
    # surge days split the ~60 % take across the boundary
    assert shares.loc[surge.start_day, "share"] > 0.15
    assert shares.loc[surge.start_day + 1, "share"] > 0.15
    assert shares.loc[5, "share"] == 0.0
    # sliding windows: one window must see a concentrated share
    sl = pipeline.miner_share_series(
        with_sliding_window(tiny_panes, tiny_spec.total_blocks, tiny_spec.sliding_sizes["day"]),
        surge_id,
    )
    assert sl["share"].max() > shares["share"].max()


def test_miner_share_sums_to_one_over_all_miners(spark, tiny_panes):
    """Over every miner id present in a window, the shares sum to 1."""
    day1 = with_fixed_window(tiny_panes, "day").where(F.col("window_id") == 1)
    ids = [r[0] for r in day1.select("miner").distinct().collect()]
    total = sum(
        float(pipeline.miner_share_series(day1, miner_id)["share"].iloc[0])
        for miner_id in ids
    )
    assert len(ids) > 1
    assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the pane relation
# ---------------------------------------------------------------------------

def _reference_windows(pdf: pd.DataFrame, spec, windowing: str, g: str) -> dict:
    """{window_id: positions of its credit rows in ``pdf``}, by enumeration."""
    if windowing == "fixed":
        doy = pdf.day_of_year.to_numpy()
        key = {"day": doy, "week": (doy - 1) // 7 + 1, "month": pdf.ts.dt.month.to_numpy()}[g]
        return {int(w): np.flatnonzero(key == w) for w in np.unique(key)}
    n = spec.sliding_sizes[g]
    m = n // 2
    b = pdf.block_idx.to_numpy()
    return {
        i: np.flatnonzero((b >= i * m) & (b < i * m + n))
        for i in range(num_windows(spec.total_blocks, n, m))
    }


@pytest.mark.parametrize("sizes,p", [(None, 25), (COPRIME_SIZES, 1)], ids=["P25", "P1"])
def test_every_series_window_matches_numpy(spark, tiny_spec, sizes, p):
    """All six series, built from panes, equal numpy over the raw credits
    in every window."""
    spec = tiny_spec if sizes is None else dataclasses.replace(tiny_spec, sliding_sizes=sizes)
    assert pane_size(spec.sliding_sizes.values()) == p
    pdf = block_producers_pdf(spec)
    codes = pdf.miner.cat.codes.to_numpy()
    for windowing, series_of in (("fixed", pipeline.fixed_series),
                                 ("sliding", pipeline.sliding_series)):
        for g in GRANULARITIES:
            series = series_of(spark, spec, g)
            windows = _reference_windows(pdf, spec, windowing, g)
            assert list(series.window_id) == sorted(windows)
            for row in series.itertuples():
                c = np.unique(codes[windows[row.window_id]], return_counts=True)[1]
                assert (row.n_miners, row.n_credits, row.nakamoto) == (
                    len(c), c.sum(), nakamoto(c)
                ), (windowing, g, row.window_id)
                assert row.gini == pytest.approx(gini(c), abs=1e-9)
                assert row.entropy == pytest.approx(shannon_entropy(c), abs=1e-9)


@pytest.mark.parametrize("windowing", ["fixed", "sliding"])
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_pane_sql_chain_in_duckdb_equals_spark(spark, tiny_spec, tiny_df, tiny_panes,
                                               windowing, granularity):
    """DuckDB runs the production text end to end -- ``panes_sql`` on the
    raw credits, then ``counts_sql`` and ``metrics_sql`` -- with windows
    assigned by a join, and agrees with Spark."""
    panes = f"({msql.panes_sql('bp', pane_size(tiny_spec.sliding_sizes.values()))})"
    if windowing == "fixed":
        window_id = {"day": "day_of_year", "week": "(day_of_year - 1) // 7 + 1",
                     "month": "month"}[granularity]
        windowed = f"(SELECT *, {window_id} AS window_id FROM {panes} p)"
        got = pipeline.measure_fixed(tiny_panes, granularity)
    else:
        n = tiny_spec.sliding_sizes[granularity]
        m = n // 2
        windowed = (
            f"(SELECT p.*, w.i AS window_id FROM {panes} p "
            f"JOIN range({num_windows(tiny_spec.total_blocks, n, m)}) w(i) "
            f"ON w.i * {m} <= p.block_idx AND p.block_idx < w.i * {m} + {n})"
        )
        got = pipeline.measure_sliding(tiny_panes, tiny_spec, granularity)
    counts = f"({msql.counts_sql(windowed, 'window_id')})"
    assert_equivalent(got, msql.metrics_sql(counts, "window_id"), bp=tiny_df)


def test_series_read_persisted_panes_not_raw_credits(spark, tiny_spec, tiny_df, tiny_panes):
    """Once the series are built, only the small pane relation is in
    Spark's storage, at one partition per core at most."""
    for g in GRANULARITIES:
        pipeline.fixed_series(spark, tiny_spec, g)
        pipeline.sliding_series(spark, tiny_spec, g)
    assert not tiny_df.storageLevel.useMemory and not tiny_df.storageLevel.useDisk
    assert tiny_panes.storageLevel.useMemory
    assert tiny_panes.rdd.getNumPartitions() <= spark.sparkContext.defaultParallelism
    assert pipeline.panes(spark, tiny_spec) is tiny_panes
