"""Deterministic synthetic block-producer stream generation.

The output is the *producer-credit* relation the paper's pipeline
consumes: one row per (block, coinbase address) pair with the block
number, block index, timestamp and producer label. Normal blocks
contribute one credit to their pool/miner; multi-coinbase anomaly
blocks contribute one credit to each of their one-off addresses (the
attribution that reproduces the paper's day-14 statistics).

Generation is fully vectorized numpy → pandas; ``block_producers``
validates the pandas frame and ingests a compact form of it into Spark
(int miner ids, a month column instead of timestamps). Everything is
deterministic in ``seed`` (default: ``spec.seed``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.chain.anomalies import apply_surges, resolve_coinbase_anomalies
from repro.chain.params import ChainSpec

_SECONDS_PER_DAY = 86_400


def daily_counts(spec: ChainSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """Blocks produced per day (length ``spec.n_days``, sums to
    ``spec.total_blocks`` exactly).

    Counts are Gaussian around the chain's mean rate, then adjusted to
    honour ``forced_day_counts`` (exact per-day counts), every
    ``forced_prefix_totals`` entry (exact cumulative counts — used to
    pin the paper's day-14 block numbers), and the exact yearly total.
    """
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    c = np.rint(
        rng.normal(spec.blocks_per_day_mean, spec.blocks_per_day_sd, spec.n_days)
    ).astype(np.int64)
    c = np.maximum(c, 1)

    forced = {day: cnt for day, cnt in spec.forced_day_counts}
    for day, cnt in forced.items():
        c[day - 1] = cnt

    def _distribute(day_indices: list[int], diff: int) -> None:
        """Spread ``diff`` blocks (positive or negative) over the days."""
        if diff == 0:
            return
        if not day_indices:
            raise ValueError("no adjustable days to absorb count difference")
        base, rem = divmod(diff, len(day_indices))
        for j, d in enumerate(day_indices):
            c[d] += base + (1 if j < rem else 0)
        if (c[[*day_indices]] < 1).any():
            raise ValueError("count adjustment drove a day below 1 block")

    last_prefix_day = 0
    for through_day, total in sorted(spec.forced_prefix_totals):
        adjustable = [
            d for d in range(last_prefix_day, through_day) if (d + 1) not in forced
        ]
        _distribute(adjustable, int(total - c[:through_day].sum()))
        last_prefix_day = through_day

    adjustable = [
        d for d in range(last_prefix_day, spec.n_days) if (d + 1) not in forced
    ]
    _distribute(adjustable, int(spec.total_blocks - c.sum()))
    assert c.sum() == spec.total_blocks
    return c


def miner_universe(spec: ChainSpec) -> tuple[np.ndarray, dict[str, int], int, int]:
    """Global miner label universe for a chain.

    Returns ``(labels, pool_index, medium_offset, sparse_offset)`` where
    ``labels`` lists every possible producer label (pools and surge
    miners first, then the medium tail, then the sparse tail) and
    ``pool_index`` maps pool / surge-miner names to slots.
    """
    pool_names: list[str] = []
    for regime in spec.regimes:
        for name, _ in regime.pool_shares:
            if name not in pool_names:
                pool_names.append(name)
    for surge in spec.surges:
        if surge.miner not in pool_names:
            pool_names.append(surge.miner)
    med_pop = max(r.medium.population for r in spec.regimes)
    sp_pop = max(r.sparse.population for r in spec.regimes)
    labels = np.array(
        pool_names
        + [f"{spec.name}-small-{i:03d}" for i in range(1, med_pop + 1)]
        + [f"{spec.name}-tail-{i:05d}" for i in range(1, sp_pop + 1)],
        dtype=object,
    )
    pool_index = {name: i for i, name in enumerate(pool_names)}
    return labels, pool_index, len(pool_names), len(pool_names) + med_pop


def _zipf_weights(population: int, alpha: float, total: float) -> np.ndarray:
    ranks = np.arange(1, population + 1, dtype=np.float64)
    w = ranks**-alpha
    return w / w.sum() * total


def day_probabilities(
    spec: ChainSpec, day: int, pool_index: dict[str, int], n_ids: int,
    medium_offset: int, sparse_offset: int,
) -> np.ndarray:
    """Noise-free miner probability vector for a day (regime lookup)."""
    regime = spec.regime_for_day(day)
    p = np.zeros(n_ids, dtype=np.float64)
    tail_share = regime.medium.share + regime.sparse.share
    raw = np.array([s for _, s in regime.pool_shares], dtype=np.float64)
    raw = raw / raw.sum() * (1.0 - tail_share)
    for (name, _), share in zip(regime.pool_shares, raw):
        p[pool_index[name]] = share
    m = regime.medium
    p[medium_offset : medium_offset + m.population] = _zipf_weights(
        m.population, m.alpha, m.share
    )
    s = regime.sparse
    p[sparse_offset : sparse_offset + s.population] = _zipf_weights(
        s.population, s.alpha, s.share
    )
    return p


def block_producers_pdf(spec: ChainSpec, seed: int | None = None) -> pd.DataFrame:
    """Generate the full-year producer-credit relation as pandas.

    Columns: ``block_number`` (int64), ``block_idx`` (int64, 0-based),
    ``day_of_year`` (int32), ``ts`` (datetime64[ns]), ``miner``
    (categorical producer label). One row per producer credit; blocks
    with a single coinbase address yield one row, multi-coinbase anomaly
    blocks yield one per address. The categories are the
    :func:`miner_universe` labels followed by the anomaly addresses, so a
    label's category code is its index in that universe.
    """
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    counts = daily_counts(spec, rng)
    labels, pool_index, medium_offset, sparse_offset = miner_universe(spec)
    n_ids = len(labels)
    n_blocks = int(counts.sum())

    codes = np.empty(n_blocks, dtype=np.int32)
    ts = np.empty(n_blocks, dtype=np.int64)  # seconds into the year, then epoch ns
    pos = 0
    for day in range(1, spec.n_days + 1):
        c = int(counts[day - 1])
        p = day_probabilities(spec, day, pool_index, n_ids, medium_offset, sparse_offset)
        p = p * rng.lognormal(0.0, spec.share_noise_sigma, n_ids)
        p /= p.sum()
        codes[pos : pos + c] = rng.choice(n_ids, size=c, p=p)
        ts[pos : pos + c] = (day - 1) * _SECONDS_PER_DAY + np.floor(
            np.linspace(0, _SECONDS_PER_DAY, c, endpoint=False)
        ).astype(np.int64)
        pos += c
    ts *= 1_000_000_000
    ts += pd.Timestamp(f"{spec.year}-01-01").value
    day_of_year = np.repeat(np.arange(1, spec.n_days + 1, dtype=np.int32), counts)

    apply_surges(spec, counts, codes, pool_index, rng)

    # Expand multi-coinbase anomaly blocks into one row per address; each
    # address gets a category code above the regular universe.
    block_idx = np.arange(n_blocks, dtype=np.int64)
    categories = list(labels)
    anomalies = resolve_coinbase_anomalies(spec, counts)
    if anomalies:
        rows_per_block = np.ones(n_blocks, dtype=np.int64)
        for gidx, size, _day, _k in anomalies:
            rows_per_block[gidx] = size
        row_offsets = np.concatenate([[0], np.cumsum(rows_per_block)])
        block_idx = np.repeat(block_idx, rows_per_block)
        del rows_per_block
        codes, ts, day_of_year = codes[block_idx], ts[block_idx], day_of_year[block_idx]
        for gidx, size, day, k in anomalies:
            lo = int(row_offsets[gidx])
            codes[lo : lo + size] = np.arange(len(categories), len(categories) + size)
            categories += [f"{spec.name}-anon-d{day:03d}-b{k}-{i:03d}" for i in range(size)]

    return pd.DataFrame(
        {
            "block_number": spec.start_block + block_idx,
            "block_idx": block_idx,
            "day_of_year": day_of_year,
            "ts": ts.view("datetime64[ns]"),
            "miner": pd.Categorical.from_codes(codes, categories=categories),
        },
        copy=False,
    )


def validate_producers(pdf: pd.DataFrame, spec: ChainSpec) -> None:
    """Reject a producer-credit frame that breaks what the pipeline assumes.

    Sliding windows take ``spec.total_blocks`` rather than the data and
    index blocks by ``block_idx``, so ``block_idx`` must run from 0 to
    ``total_blocks - 1`` in order without gaps (a block may repeat, one
    row per credit); every row needs a producer; timestamps must be
    monotone. Raises ``ValueError`` naming the first violation.
    """
    idx = pdf["block_idx"].to_numpy()
    if len(idx) == 0 or idx[0] != 0 or idx[-1] != spec.total_blocks - 1:
        raise ValueError(
            f"block_idx must run from 0 to {spec.total_blocks - 1} "
            f"for {spec.name}, got {idx[:1]}..{idx[-1:]}"
        )
    step = np.diff(idx)
    if (step < 0).any() or (step > 1).any():
        raise ValueError("block_idx goes backwards or skips a block")
    if (pdf["miner"].cat.codes.to_numpy() < 0).any():
        raise ValueError("credit rows without a miner")
    if (np.diff(pdf["ts"].to_numpy().view(np.int64)) < 0).any():
        raise ValueError("timestamps are not monotone in block order")


def block_producers(
    spark: SparkSession, spec: ChainSpec, seed: int | None = None
) -> DataFrame:
    """Spark producer-credit DataFrame for a chain-year.

    Columns: ``block_number``, ``block_idx``, ``day_of_year``, ``month``
    and ``miner`` as an int id, the category code of
    :func:`block_producers_pdf`'s label (the index into
    :func:`miner_universe`'s labels; anomaly addresses above it). The
    frame is validated before it enters Spark, and the relation is
    coalesced to one partition per core (``defaultParallelism``) instead
    of one per Arrow batch.
    """
    pdf = block_producers_pdf(spec, seed=seed)
    validate_producers(pdf, spec)
    relation = pd.DataFrame(
        {
            "block_number": pdf["block_number"].to_numpy(),
            "block_idx": pdf["block_idx"].to_numpy(),
            "day_of_year": pdf["day_of_year"].to_numpy(),
            "month": pdf["ts"].dt.month.to_numpy(np.int8),
            "miner": pdf["miner"].cat.codes.to_numpy(np.int32),
        },
        copy=False,
    )
    del pdf  # the timestamps and labels are not ingested
    return spark.createDataFrame(relation).coalesce(
        spark.sparkContext.defaultParallelism
    )
