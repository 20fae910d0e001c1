"""Tests of the synthetic chain generator (numpy/pandas layer + Spark)."""

import numpy as np
import pandas as pd
import pytest

from repro.chain.anomalies import apply_surges, resolve_coinbase_anomalies
from repro.chain.generator import (
    block_producers_pdf,
    daily_counts,
    day_probabilities,
    miner_universe,
    validate_producers,
)
from repro.chain.params import BITCOIN_2019, ETHEREUM_2019
from tests.conftest import TINY_2019

CHAINS = [BITCOIN_2019, ETHEREUM_2019, TINY_2019]
IDS = [c.name for c in CHAINS]


# ---------------------------------------------------------------------------
# daily_counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_daily_counts_sum_exact(spec):
    c = daily_counts(spec)
    assert len(c) == spec.n_days
    assert int(c.sum()) == spec.total_blocks
    assert (c >= 1).all()


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_daily_counts_deterministic(spec):
    assert np.array_equal(daily_counts(spec), daily_counts(spec))


def test_daily_counts_honour_forced_day():
    c = daily_counts(BITCOIN_2019)
    assert c[13] == 148  # day 14 (paper: "only 148 blocks")


def test_daily_counts_honour_forced_prefix():
    c = daily_counts(BITCOIN_2019)
    assert int(c[:13].sum()) == 1_980


def test_daily_counts_near_mean_rate():
    c = daily_counts(ETHEREUM_2019)
    assert abs(c.mean() - ETHEREUM_2019.blocks_per_day_mean) < 1.0
    # jitter is present but bounded
    assert 0 < c.std() < 4 * ETHEREUM_2019.blocks_per_day_sd


# ---------------------------------------------------------------------------
# miner universe and day probabilities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_miner_universe_labels_unique(spec):
    labels, pool_index, med_off, sp_off = miner_universe(spec)
    assert len(set(labels)) == len(labels)
    assert med_off == len(pool_index)
    assert sp_off - med_off == max(r.medium.population for r in spec.regimes)
    for name, i in pool_index.items():
        assert labels[i] == name


def test_miner_universe_includes_surge_miner():
    labels, pool_index, _, _ = miner_universe(BITCOIN_2019)
    assert "StealthPool" in pool_index


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
@pytest.mark.parametrize("day_frac", [0.0, 0.5, 1.0])
def test_day_probabilities_normalized(spec, day_frac):
    labels, pool_index, med_off, sp_off = miner_universe(spec)
    day = max(1, int(round(day_frac * spec.n_days)))
    p = day_probabilities(spec, day, pool_index, len(labels), med_off, sp_off)
    assert p.shape == (len(labels),)
    assert (p >= 0).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_day_probabilities_respect_regime_population():
    """Days in the mid regime must give zero mass to sparse addresses
    beyond that regime's (smaller) sparse population."""
    labels, pool_index, med_off, sp_off = miner_universe(BITCOIN_2019)
    p = day_probabilities(BITCOIN_2019, 150, pool_index, len(labels), med_off, sp_off)
    mid = BITCOIN_2019.regime_for_day(150)
    assert (p[sp_off + mid.sparse.population :] == 0).all()
    assert (p[sp_off : sp_off + mid.sparse.population] > 0).all()


def test_day_probabilities_tail_share():
    labels, pool_index, med_off, sp_off = miner_universe(ETHEREUM_2019)
    p = day_probabilities(ETHEREUM_2019, 100, pool_index, len(labels), med_off, sp_off)
    r = ETHEREUM_2019.regime_for_day(100)
    assert p[med_off:sp_off].sum() == pytest.approx(r.medium.share, abs=1e-12)
    assert p[sp_off:].sum() == pytest.approx(r.sparse.share, abs=1e-12)
    assert p[:med_off].sum() == pytest.approx(
        1 - r.medium.share - r.sparse.share, abs=1e-12
    )


def test_surge_miner_has_zero_base_probability():
    labels, pool_index, med_off, sp_off = miner_universe(BITCOIN_2019)
    p = day_probabilities(BITCOIN_2019, 59, pool_index, len(labels), med_off, sp_off)
    assert p[pool_index["StealthPool"]] == 0.0


# ---------------------------------------------------------------------------
# anomaly resolution / surge application
# ---------------------------------------------------------------------------

def test_resolve_coinbase_anomalies_day14_blocks():
    counts = daily_counts(BITCOIN_2019)
    resolved = resolve_coinbase_anomalies(BITCOIN_2019, counts)
    d14 = [(g, s) for g, s, day, _ in resolved if day == 14]
    got_numbers = sorted(BITCOIN_2019.start_block + g for g, _ in d14)
    assert got_numbers == [558_473, 558_545]
    assert sorted(s for _, s in d14) == [85, 95]


def test_resolve_coinbase_anomalies_default_positions_spread():
    counts = daily_counts(TINY_2019)
    resolved = resolve_coinbase_anomalies(TINY_2019, counts)
    day_start = int(counts[:6].sum())
    positions = [g - day_start for g, _, day, _ in resolved if day == 7]
    assert positions == sorted(positions)
    assert all(0 <= p < counts[6] for p in positions)


def test_apply_surges_takes_majority():
    spec = TINY_2019
    counts = daily_counts(spec)
    labels, pool_index, _, _ = miner_universe(spec)
    miner_idx = np.zeros(int(counts.sum()), dtype=np.int64)
    rng = np.random.default_rng(0)
    apply_surges(spec, counts, miner_idx, pool_index, rng)
    (s,) = spec.surges
    idx0 = int(counts[: s.start_day].sum()) - s.blocks_before_boundary
    window = miner_idx[idx0 : idx0 + s.length]
    frac = (window == pool_index[s.miner]).mean()
    assert 0.4 < frac < 0.8  # ~0.6 take probability
    outside = np.concatenate([miner_idx[:idx0], miner_idx[idx0 + s.length :]])
    assert (outside != pool_index[s.miner]).all()


# ---------------------------------------------------------------------------
# block_producers_pdf
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_pdf():
    return block_producers_pdf(TINY_2019)


@pytest.fixture(scope="module")
def btc_pdf():
    return block_producers_pdf(BITCOIN_2019)


def test_pdf_block_count_and_range(btc_pdf):
    assert btc_pdf.block_number.nunique() == 54_231
    assert btc_pdf.block_number.min() == 556_459
    assert btc_pdf.block_number.max() == 556_459 + 54_231 - 1


def test_pdf_eth_block_count_and_no_anomalies():
    pdf = block_producers_pdf(ETHEREUM_2019)
    assert len(pdf) == 2_204_650  # exactly one credit per block
    assert pdf.block_number.nunique() == 2_204_650
    assert pdf.block_number.min() == 6_988_615


def test_pdf_block_idx_consistent(btc_pdf):
    assert (btc_pdf.block_number - btc_pdf.block_idx == 556_459).all()


def test_pdf_timestamps_monotone(tiny_pdf):
    per_block = tiny_pdf.drop_duplicates("block_idx").sort_values("block_idx")
    assert per_block.ts.is_monotonic_increasing
    # strictly increasing: no two blocks share a timestamp
    assert per_block.ts.nunique() == len(per_block)


def test_pdf_day_of_year_matches_ts(tiny_pdf):
    doy = pd.to_datetime(tiny_pdf.ts).dt.dayofyear
    assert (doy == tiny_pdf.day_of_year).all()


def test_pdf_day14_anomaly_credits(btc_pdf):
    assert (btc_pdf.block_number == 558_473).sum() == 85
    assert (btc_pdf.block_number == 558_545).sum() == 95
    d14 = btc_pdf[btc_pdf.day_of_year == 14]
    assert d14.block_number.nunique() == 148
    assert len(d14) == 148 - 2 + 85 + 95


def test_pdf_anon_labels_are_one_off(btc_pdf):
    anon = btc_pdf[btc_pdf.miner.str.startswith("bitcoin-anon-")]
    # every anonymous coinbase address appears exactly once in the year
    assert anon.miner.is_unique
    expected = sum(
        sum(a.block_sizes) for a in BITCOIN_2019.coinbase_anomalies
    )
    assert len(anon) == expected


def test_pdf_normal_blocks_single_credit(btc_pdf):
    per_block = btc_pdf.groupby("block_number").size()
    multi = per_block[per_block > 1]
    n_anomalous = sum(len(a.block_sizes) for a in BITCOIN_2019.coinbase_anomalies)
    assert len(multi) == n_anomalous


def test_pdf_deterministic(tiny_pdf):
    again = block_producers_pdf(TINY_2019)
    pd.testing.assert_frame_equal(tiny_pdf, again)


def test_pdf_seed_changes_stream():
    a = block_producers_pdf(TINY_2019, seed=1)
    b = block_producers_pdf(TINY_2019, seed=2)
    assert not a.miner.equals(b.miner)
    # structure (counts, numbering) is seed-dependent but totals exact
    assert a.block_number.nunique() == b.block_number.nunique() == 1_500


def test_pdf_surge_present(btc_pdf):
    counts = daily_counts(BITCOIN_2019)
    (s,) = BITCOIN_2019.surges
    idx0 = int(counts[: s.start_day].sum()) - s.blocks_before_boundary
    window = btc_pdf[
        (btc_pdf.block_idx >= idx0) & (btc_pdf.block_idx < idx0 + s.length)
    ]
    assert 0.45 < (window.miner == s.miner).mean() < 0.65
    # surge straddles the boundary: both day 59 and day 60 contain it
    assert set(window.day_of_year.unique()) == {59, 60}


def test_pdf_pool_share_sanity(btc_pdf):
    mid = btc_pdf[(btc_pdf.day_of_year >= 100) & (btc_pdf.day_of_year <= 260)]
    shares = mid.miner.value_counts(normalize=True)
    assert 0.12 < shares.get("BTC.com", 0) < 0.20
    assert shares.get("Bitcoin.com", 0) < 0.03


# ---------------------------------------------------------------------------
# Spark wrapper
# ---------------------------------------------------------------------------

def test_spark_df_schema(tiny_df):
    assert tiny_df.dtypes == [
        ("block_number", "bigint"),
        ("block_idx", "bigint"),
        ("day_of_year", "int"),
        ("month", "tinyint"),
        ("miner", "int"),
    ]


def test_spark_df_miner_ids_map_to_pdf_labels(tiny_df, tiny_pdf):
    """Row for row, the relation's miner id is the pdf label's category
    code: the index into ``miner_universe``, anomaly addresses above it."""
    got = tiny_df.toPandas()
    assert list(got.block_idx) == list(tiny_pdf.block_idx)
    categories = tiny_pdf.miner.cat.categories
    assert list(categories[got.miner]) == list(tiny_pdf.miner.astype(str))
    labels = miner_universe(TINY_2019)[0]
    assert list(categories[: len(labels)]) == list(labels)
    anon = tiny_pdf.miner.astype(str).str.contains("-anon-").to_numpy()
    assert (got.miner[anon] >= len(labels)).all()
    assert (got.miner[~anon] < len(labels)).all()


def test_spark_df_month_matches_ts(btc_df, btc_pdf):
    """A full year, so every month boundary is crossed."""
    got = btc_df.select("block_idx", "month").toPandas()
    assert list(got.block_idx) == list(btc_pdf.block_idx)
    assert (got.month.to_numpy() == btc_pdf.ts.dt.month.to_numpy()).all()


def test_relation_partitions_at_most_one_per_core(spark, tiny_spec):
    """The ingested relation has one partition per core at most, not
    one per Arrow batch. Spark ingests a frame below the local-relation
    threshold in one piece, so the threshold is lowered here to take the
    batch path a full-size chain takes (10 rows per batch make ~150)."""
    from repro.core import pipeline

    cores = spark.sparkContext.defaultParallelism
    session = spark.newSession()
    session.conf.set("spark.sql.execution.arrow.pyspark.enabled", "true")
    session.conf.set("spark.sql.execution.arrow.localRelationThreshold", "0")
    session.conf.set("spark.sql.execution.arrow.maxRecordsPerBatch", "10")
    assert tiny_spec.total_blocks > 10 * cores
    df = pipeline.producers(session, tiny_spec)
    assert df.rdd.getNumPartitions() <= cores
    assert df.count() == len(block_producers_pdf(tiny_spec))


def test_spark_df_row_count(tiny_df):
    pdf = block_producers_pdf(TINY_2019)
    assert tiny_df.count() == len(pdf)


# ---------------------------------------------------------------------------
# validation at the pipeline boundary
# ---------------------------------------------------------------------------

def test_validate_accepts_generated_frames(tiny_pdf, btc_pdf):
    validate_producers(tiny_pdf, TINY_2019)
    validate_producers(btc_pdf, BITCOIN_2019)


@pytest.mark.parametrize(
    "column,rows,value,match",
    [
        ("block_idx", [0], 1, "run from 0"),
        ("block_idx", [-1], TINY_2019.total_blocks, "run from 0"),
        ("block_idx", [700], 10, "backwards or skips"),
        ("miner", [5], np.nan, "without a miner"),
        ("ts", [900], pd.Timestamp("2019-01-01"), "not monotone"),
    ],
    ids=["starts-at-1", "ends-past-total", "goes-backwards", "null-miner",
         "ts-goes-back"],
)
def test_validate_rejects_broken_frame(tiny_pdf, column, rows, value, match):
    broken = tiny_pdf.copy()
    broken.loc[tiny_pdf.index[rows], column] = value
    with pytest.raises(ValueError, match=match):
        validate_producers(broken, TINY_2019)


def test_validate_rejects_missing_blocks(tiny_pdf):
    with pytest.raises(ValueError, match="backwards or skips"):
        validate_producers(tiny_pdf[tiny_pdf.block_idx != 500], TINY_2019)
    with pytest.raises(ValueError, match="run from 0"):
        validate_producers(tiny_pdf.iloc[:-60], TINY_2019)
    with pytest.raises(ValueError, match="run from 0"):
        validate_producers(tiny_pdf.iloc[:0], TINY_2019)
