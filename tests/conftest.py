"""Shared fixtures for the test suite.

``TINY_2019`` is a 30-day miniature chain (same generator code paths:
two regimes, a coinbase anomaly, a boundary-straddling surge) for fast
unit tests; the full calibrated BTC/ETH specs are exercised by the
table tests and by ``perfbench``.
"""

import pytest

from repro.chain.params import (
    BITCOIN_2019,
    ChainSpec,
    CoinbaseAnomaly,
    DominantSurge,
    Regime,
    TailSpec,
)

TINY_POOLS_A = (("PoolA", 0.30), ("PoolB", 0.25), ("PoolC", 0.20), ("PoolD", 0.15))
TINY_POOLS_B = (("PoolA", 0.35), ("PoolB", 0.25), ("PoolC", 0.15), ("PoolD", 0.15))

TINY_2019 = ChainSpec(
    name="tinychain",
    year=2019,
    n_days=30,
    start_block=1_000,
    total_blocks=1_500,
    blocks_per_day_sd=4.0,
    regimes=(
        Regime(1, 15, TINY_POOLS_A,
               medium=TailSpec(0.06, 5, 0.3),
               sparse=TailSpec(0.02, 50, 1.2)),
        Regime(16, 30, TINY_POOLS_B,
               medium=TailSpec(0.05, 4, 0.3),
               sparse=TailSpec(0.01, 40, 1.2)),
    ),
    share_noise_sigma=0.05,
    sliding_sizes={"day": 50, "week": 150, "month": 600},
    coinbase_anomalies=(CoinbaseAnomaly(7, (12, 15)),),
    surges=(DominantSurge(start_day=20, blocks_before_boundary=25, length=50,
                          share=0.6, miner="TinyStealth"),),
    forced_day_counts=((7, 52),),
    forced_prefix_totals=((6, 300),),
    seed=99,
)


@pytest.fixture(scope="session")
def tiny_spec() -> ChainSpec:
    return TINY_2019


@pytest.fixture(scope="session")
def btc_spec() -> ChainSpec:
    return BITCOIN_2019


@pytest.fixture(scope="session")
def tiny_df(spark, tiny_spec):
    """Producer-credit DataFrame for the tiny chain, one row per credit."""
    from repro.core import pipeline

    return pipeline.producers(spark, tiny_spec)


@pytest.fixture(scope="session")
def tiny_panes(spark, tiny_spec):
    """Persisted pane relation (weighted credits) for the tiny chain."""
    from repro.core import pipeline

    return pipeline.panes(spark, tiny_spec)


@pytest.fixture(scope="session")
def btc_df(spark, btc_spec):
    from repro.core import pipeline

    return pipeline.producers(spark, btc_spec)
