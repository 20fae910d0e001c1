"""Spark metric aggregations vs numpy reference and the DuckDB oracle."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import sql as msql
from repro.metrics.reference import NAKAMOTO_THRESHOLD_PCT, gini, nakamoto, shannon_entropy
from repro.metrics.spark_metrics import decentralization_by_window, per_window_counts
from repro.oracle import assert_equivalent


def _credits_pdf(kind: str, seed: int, n_windows: int = 6, n_rows: int = 4_000):
    """Producer-credit rows (window_id, miner, cnt = 1) with zipf or
    uniform miners."""
    g = np.random.default_rng(seed)
    if kind == "zipf":
        ranks = np.arange(1, 81)
        w = 1.0 / ranks**1.3
        w /= w.sum()
        miners = g.choice(ranks, size=n_rows, p=w)
    elif kind == "uniform":
        miners = g.integers(1, 81, n_rows)
    else:  # "concentrated": one dominant miner per window
        miners = np.where(g.random(n_rows) < 0.6, 1, g.integers(2, 20, n_rows))
    return pd.DataFrame(
        {
            "window_id": g.integers(0, n_windows, n_rows).astype(np.int64),
            "miner": np.char.add("m", miners.astype(str)),
            "cnt": np.ones(n_rows, dtype=np.int64),
        }
    )


KINDS = ["zipf", "uniform", "concentrated"]


@pytest.fixture(scope="module")
def credit_frames(spark):
    out = {}
    for kind in KINDS:
        for seed in (0, 1):
            pdf = _credits_pdf(kind, seed)
            out[(kind, seed)] = (pdf, spark.createDataFrame(pdf))
    return out


def _metrics(spark, windows: dict) -> pd.DataFrame:
    """Run the kernel over windows given as {window_id: {miner: count}}."""
    rows = [(w, m, 1) for w, dist in windows.items() for m, c in dist.items() for _ in range(c)]
    sdf = spark.createDataFrame(pd.DataFrame(rows, columns=["window_id", "miner", "cnt"]))
    return decentralization_by_window(sdf, "window_id").toPandas().set_index("window_id")


# ---------------------------------------------------------------------------
# Spark vs numpy reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_all_metrics_match_reference(credit_frames, kind, seed):
    pdf, sdf = credit_frames[(kind, seed)]
    got = (
        decentralization_by_window(sdf, "window_id")
        .toPandas()
        .set_index("window_id")
        .sort_index()
    )
    for wid, grp in pdf.groupby("window_id"):
        c = grp.miner.value_counts().to_numpy()
        row = got.loc[wid]
        assert row["gini"] == pytest.approx(gini(c), abs=1e-9)
        assert row["entropy"] == pytest.approx(shannon_entropy(c), abs=1e-9)
        assert int(row["nakamoto"]) == nakamoto(c)
        assert int(row["n_miners"]) == len(c)
        assert int(row["n_credits"]) == len(grp)


# Window count distributions for the property test. Besides arbitrary
# counts, three cases get their own strategy because a random draw rarely
# hits them: heavy ties (two distinct values), a single miner, and a top-k
# share of exactly the Nakamoto threshold.
any_counts = st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30)
tied_counts = st.tuples(
    st.integers(1, 9), st.integers(1, 9), st.integers(1, 25), st.integers(0, 25)
).map(lambda t: [t[0]] * t[2] + [t[1]] * t[3])
single_miner = st.integers(min_value=1, max_value=500).map(lambda c: [c])


def _parts(draw, total: int, cap: int) -> list[int]:
    """Positive parts, each at most ``cap``, that sum to ``total``."""
    parts = []
    while total:
        parts.append(draw(st.integers(1, min(cap, total))))
        total -= parts[-1]
    return parts


@st.composite
def boundary_counts(draw):
    """T = 100·s and the top producers hold exactly the threshold share."""
    s = draw(st.integers(1, 4))
    top = _parts(draw, NAKAMOTO_THRESHOLD_PCT * s, NAKAMOTO_THRESHOLD_PCT * s)
    return top + _parts(draw, (100 - NAKAMOTO_THRESHOLD_PCT) * s, min(top))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.one_of(any_counts, tied_counts, single_miner, boundary_counts()),
                min_size=1, max_size=6))
def test_kernel_matches_reference_property(spark, windows):
    """Several generated windows per Spark job, each checked against numpy."""
    got = _metrics(spark, {w: {f"m{i}": c for i, c in enumerate(counts)}
                           for w, counts in enumerate(windows)})
    assert len(got) == len(windows)
    for w, counts in enumerate(windows):
        row = got.loc[w]
        assert row["gini"] == pytest.approx(gini(counts), abs=1e-9)
        assert row["entropy"] == pytest.approx(shannon_entropy(counts), abs=1e-9)
        assert int(row["nakamoto"]) == nakamoto(counts)
        assert int(row["n_miners"]) == len(counts)
        assert int(row["n_credits"]) == sum(counts)


# ---------------------------------------------------------------------------
# Spark vs DuckDB oracle: both engines run the SQL text of repro.metrics.sql
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_counts_vs_oracle(credit_frames, kind, seed):
    pdf, sdf = credit_frames[(kind, seed)]
    got = per_window_counts(sdf, "window_id")
    assert_equivalent(got, msql.counts_sql("bp", "window_id"), bp=pdf)


def _assert_metric_vs_oracle(credit_frames, kind, seed, metric):
    """Spark's kernel and DuckDB running ``metrics_sql`` over ``counts_sql``
    agree on ``metric`` and the window size columns."""
    pdf, sdf = credit_frames[(kind, seed)]
    cols = ["window_id", "n_miners", "n_credits", metric]
    got = decentralization_by_window(sdf, "window_id").select(*cols)
    counts = f"({msql.counts_sql('bp', 'window_id')})"
    sql = f"SELECT {', '.join(cols)} FROM ({msql.metrics_sql(counts, 'window_id')}) m"
    assert_equivalent(got, sql, bp=pdf)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_gini_vs_oracle(credit_frames, kind, seed):
    _assert_metric_vs_oracle(credit_frames, kind, seed, "gini")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_entropy_vs_oracle(credit_frames, kind, seed):
    _assert_metric_vs_oracle(credit_frames, kind, seed, "entropy")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_nakamoto_vs_oracle(credit_frames, kind, seed):
    _assert_metric_vs_oracle(credit_frames, kind, seed, "nakamoto")


def test_persisted_input_stays_cached(spark):
    """Binding the input as a SQL relation must not unpersist it."""
    pdf = _credits_pdf("zipf", 0).assign(block_idx=np.arange(4_000))
    sdf = spark.createDataFrame(pdf).persist()
    try:
        sdf.count()
        decentralization_by_window(sdf, "window_id").collect()
        assert sdf.storageLevel.useMemory
    finally:
        sdf.unpersist()


# ---------------------------------------------------------------------------
# boundary behaviour
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "dist,expected",
    [
        ({"a": 51, "b": 49}, 1),
        ({"a": 50, "b": 50}, 2),
        ({"a": 25, "b": 25, "c": 25, "d": 25}, 3),
        ({"a": 100}, 1),
    ],
)
def test_spark_nakamoto_threshold_exact(spark, dist, expected):
    assert _metrics(spark, {"w": dist}).loc["w", "nakamoto"] == expected


def test_spark_gini_with_heavy_ties(spark):
    """row_number tie-breaking must not change the Gini value."""
    got = _metrics(spark, {0: {f"m{i}": 1 for i in range(40)}})  # all counts equal 1
    assert got.loc[0, "gini"] == pytest.approx(0.0, abs=1e-12)


def test_metrics_rank_zipf_below_uniform(spark):
    """Zipf-distributed miners must measure as materially less equal than
    uniform miners."""
    z, u = (
        decentralization_by_window(
            spark.createDataFrame(_credits_pdf(kind, 7, n_windows=1, n_rows=5_000)),
            "window_id",
        ).collect()[0]
        for kind in ("zipf", "uniform")
    )
    assert z["gini"] > u["gini"] + 0.1
    assert z["entropy"] < u["entropy"]
    assert z["nakamoto"] < u["nakamoto"]
