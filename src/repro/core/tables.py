"""Table builders T1–T8: every quantitative claim in the paper.

The paper reports its evaluation as figures plus in-text statistics; we
tabulate each claim as a row ``(item, paper, measured)`` where ``paper``
is the value/range stated in the paper (string, verbatim-ish) and
``measured`` is the number this reproduction computes. Tests in
``tests/test_tables.py`` assert the ``measured`` column against
tolerance bands; ``jobs/`` print these tables and EXPERIMENTS.md
records them.

All builders memoize through ``repro.core.pipeline``'s series cache, so
building every table touches each (chain, windowing, granularity)
series once.
"""

from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.chain.generator import miner_universe
from repro.chain.params import BITCOIN_2019, ETHEREUM_2019
from repro.core import pipeline
from repro.core.anomaly_detect import detect_spikes
from repro.core.summarize import frac_in_range, frac_in_set, mode_in_window_range
from repro.windows.fixed import with_fixed_window
from repro.windows.sliding import num_windows, with_sliding_window

GRANULARITIES = ("day", "week", "month")


def _rows_to_df(rows: list[tuple[str, str, float]]) -> pd.DataFrame:
    return pd.DataFrame(rows, columns=["item", "paper", "measured"])


def table1_dataset(spark: SparkSession) -> pd.DataFrame:
    """T1 — dataset sizes and block ranges (§II.A). Exact reproduction."""
    rows = []
    for spec, blocks, first, last in (
        (BITCOIN_2019, 54_231, 556_459, 610_689),
        (ETHEREUM_2019, 2_204_650, 6_988_615, 9_193_264),
    ):
        df = pipeline.producers(spark, spec)
        agg = df.agg(
            F.countDistinct("block_number").alias("blocks"),
            F.min("block_number").alias("first"),
            F.max("block_number").alias("last"),
        ).collect()[0]
        name = spec.name
        rows.append((f"{name} blocks", f"{blocks:,}", float(agg["blocks"])))
        rows.append((f"{name} first block", f"{spec.start_block:,}", float(agg["first"])))
        # the paper's stated end blocks (610,690 / 9,193,265) are off by
        # one vs its own counts; we match the counts (DESIGN.md §2).
        rows.append((f"{name} last block", f"{last + 1:,} (paper; count-consistent: {last:,})", float(agg["last"])))
    return _rows_to_df(rows)


def table2_btc_fixed(spark: SparkSession) -> pd.DataFrame:
    """T2 — Bitcoin with fixed windows (§II.C.1, Figs. 1–3)."""
    day = pipeline.fixed_series(spark, BITCOIN_2019, "day")
    week = pipeline.fixed_series(spark, BITCOIN_2019, "week")
    month = pipeline.fixed_series(spark, BITCOIN_2019, "month")
    early_day = day[day["window_id"] <= 90]
    rows = [
        ("monthly gini max, months 1-3", "close to 0.90",
         float(month[month["window_id"] <= 3]["gini"].max())),
        ("gini mean daily", "lowest of the three", float(day["gini"].mean())),
        ("gini mean weekly", "between daily and monthly", float(week["gini"].mean())),
        ("gini mean monthly", "always the highest", float(month["gini"].mean())),
        ("daily gini frac in [0.45, 0.60]", "most", frac_in_range(day, "gini", 0.45, 0.60)),
        ("daily gini min, days 1-90", "around 0.25", float(early_day["gini"].min())),
        ("daily entropy frac in [3.5, 4.0]", "most", frac_in_range(day, "entropy", 3.5, 4.0)),
        ("daily entropy max", "> 5.5", float(day["entropy"].max())),
        ("entropy mean days 1-60 minus days 61-365", "> 0 (higher early)",
         float(day[day["window_id"] <= 60]["entropy"].mean()
               - day[day["window_id"] > 60]["entropy"].mean())),
        ("daily nakamoto mode, days 100-260", "stable at 4",
         mode_in_window_range(day, "nakamoto", 100, 260)),
        ("weekly nakamoto mode, weeks 15-37", "stable at 4",
         mode_in_window_range(week, "nakamoto", 15, 37)),
        ("monthly nakamoto mode, months 4-9", "stable at 4",
         mode_in_window_range(month, "nakamoto", 4, 9)),
        ("daily nakamoto frac in {4,5} outside days 100-260", "mainly oscillates 4-5",
         frac_in_set(day[(day["window_id"] < 100) | (day["window_id"] > 260)],
                     "nakamoto", {4, 5})),
        ("daily nakamoto max, days 1-50", "> 35",
         float(day[day["window_id"] <= 50]["nakamoto"].max())),
    ]
    return _rows_to_df(rows)


def table3_eth_fixed(spark: SparkSession) -> pd.DataFrame:
    """T3 — Ethereum with fixed windows + BTC-vs-ETH summary (§II.C.2–3)."""
    eday = pipeline.fixed_series(spark, ETHEREUM_2019, "day")
    eweek = pipeline.fixed_series(spark, ETHEREUM_2019, "week")
    emonth = pipeline.fixed_series(spark, ETHEREUM_2019, "month")
    bday = pipeline.fixed_series(spark, BITCOIN_2019, "day")
    rows = [
        ("gini mean daily", "lowest of the three", float(eday["gini"].mean())),
        ("gini mean weekly", "between daily and monthly", float(eweek["gini"].mean())),
        ("gini mean monthly", "always the highest", float(emonth["gini"].mean())),
        ("daily entropy frac in [3.3, 3.5]", "most", frac_in_range(eday, "entropy", 3.3, 3.5)),
        ("daily nakamoto frac in {2,3}", "fluctuates between 2 and 3",
         frac_in_set(eday, "nakamoto", {2, 3})),
        ("eth daily gini mean - btc daily gini mean", "> 0 (eth gini higher)",
         float(eday["gini"].mean() - bday["gini"].mean())),
        ("eth daily gini std / btc daily gini std", "< 1 (eth more stable)",
         float(eday["gini"].std() / bday["gini"].std())),
        ("btc daily entropy mean - eth daily entropy mean", "> 0 (btc more decentralized)",
         float(bday["entropy"].mean() - eday["entropy"].mean())),
        ("eth daily entropy std / btc daily entropy std", "< 1 (eth more stable)",
         float(eday["entropy"].std() / bday["entropy"].std())),
        ("btc daily nakamoto mean - eth daily nakamoto mean", "> 0 (btc more decentralized)",
         float(bday["nakamoto"].mean() - eday["nakamoto"].mean())),
        ("eth daily nakamoto std / btc daily nakamoto std", "< 1 (eth more stable)",
         float(eday["nakamoto"].std() / bday["nakamoto"].std())),
    ]
    return _rows_to_df(rows)


_BTC_SLIDING_MEANS = {
    "entropy": {"day": 3.810, "week": 4.002, "month": 4.091},
    "gini": {"day": 0.523, "week": 0.667, "month": 0.760},
}
_ETH_SLIDING_MEANS = {
    "entropy": {"day": 3.420, "week": 3.433, "month": 3.445},
    "gini": {"day": 0.837, "week": 0.878, "month": 0.916},
}


def table4_btc_sliding(spark: SparkSession) -> pd.DataFrame:
    """T4 — Bitcoin with sliding windows (§III.B, Figs. 9, 11, 13)."""
    rows = []
    for metric in ("entropy", "gini"):
        for g in GRANULARITIES:
            s = pipeline.sliding_series(spark, BITCOIN_2019, g)
            rows.append(
                (f"sliding {metric} mean, N={BITCOIN_2019.sliding_sizes[g]}",
                 f"{_BTC_SLIDING_MEANS[metric][g]:.3f}", float(s[metric].mean()))
            )
    sday = pipeline.sliding_series(spark, BITCOIN_2019, "day")
    fday = pipeline.fixed_series(spark, BITCOIN_2019, "day")
    rows += [
        ("sliding day nakamoto frac in {4,5}", "mostly between 4 and 5",
         frac_in_set(sday, "nakamoto", {4, 5})),
        ("sliding day entropy frac in [3.5, 4.0]", "most", frac_in_range(sday, "entropy", 3.5, 4.0)),
        ("n sliding day windows with entropy > 5.0", "more extremes than fixed",
         float((sday["entropy"] > 5.0).sum())),
        ("n fixed day windows with entropy > 5.0", "fewer than sliding",
         float((fday["entropy"] > 5.0).sum())),
        ("|sliding day entropy mean - fixed day entropy mean|", "quite close",
         abs(float(sday["entropy"].mean() - fday["entropy"].mean()))),
    ]
    return _rows_to_df(rows)


def table5_eth_sliding(spark: SparkSession) -> pd.DataFrame:
    """T5 — Ethereum with sliding windows (§III.B, Figs. 10, 12, 14)."""
    rows = []
    for metric in ("entropy", "gini"):
        for g in GRANULARITIES:
            s = pipeline.sliding_series(spark, ETHEREUM_2019, g)
            rows.append(
                (f"sliding {metric} mean, N={ETHEREUM_2019.sliding_sizes[g]}",
                 f"{_ETH_SLIDING_MEANS[metric][g]:.3f}", float(s[metric].mean()))
            )
    sday = pipeline.sliding_series(spark, ETHEREUM_2019, "day")
    fday = pipeline.fixed_series(spark, ETHEREUM_2019, "day")
    rows += [
        ("sliding day entropy frac in [3.3, 3.5]", "most", frac_in_range(sday, "entropy", 3.3, 3.5)),
        ("sliding day nakamoto frac in {2,3}", "majority between 2 and 3",
         frac_in_set(sday, "nakamoto", {2, 3})),
        ("|sliding day entropy mean - fixed day entropy mean|", "quite close",
         abs(float(sday["entropy"].mean() - fday["entropy"].mean()))),
    ]
    return _rows_to_df(rows)


def table6_window_counts(spark: SparkSession) -> pd.DataFrame:
    """T6 — Eq. 5 measurement counts, closed form vs realized windows."""
    paper_l = {
        ("bitcoin", "day"): "about 700 (vs 365 fixed)",
        ("bitcoin", "week"): "Eq. 5",
        ("bitcoin", "month"): "Eq. 5",
        ("ethereum", "day"): "Eq. 5",
        ("ethereum", "week"): "Eq. 5",
        ("ethereum", "month"): "Eq. 5",
    }
    rows = []
    for spec in (BITCOIN_2019, ETHEREUM_2019):
        for g in GRANULARITIES:
            n = spec.sliding_sizes[g]
            formula = num_windows(spec.total_blocks, n, n // 2)
            realized = len(pipeline.sliding_series(spark, spec, g))
            rows.append((f"{spec.name} sliding L, N={n}", paper_l[(spec.name, g)], float(formula)))
            rows.append((f"{spec.name} sliding windows realized, N={n}",
                         "= Eq. 5 value", float(realized)))
    for g, fixed_n in (("day", 365), ("week", 53), ("month", 12)):
        realized = len(pipeline.fixed_series(spark, BITCOIN_2019, g))
        rows.append((f"fixed {g} windows", str(fixed_n), float(realized)))
    return _rows_to_df(rows)


def table7_day14_anomaly(spark: SparkSession) -> pd.DataFrame:
    """T7 — the Jan 14 2019 multi-coinbase anomaly (§II.C.1d)."""
    day = pipeline.fixed_series(spark, BITCOIN_2019, "day")
    d14 = day[day["window_id"] == 14].iloc[0]
    df = pipeline.producers(spark, BITCOIN_2019)
    blk = {
        int(r["block_number"]): float(r["cnt"])
        for r in df.where(F.col("block_number").isin(558_473, 558_545))
        .groupBy("block_number")
        .agg(F.count("*").alias("cnt"))
        .collect()
    }
    n_blocks_day14 = (
        df.where(F.col("day_of_year") == 14)
        .agg(F.countDistinct("block_number"))
        .collect()[0][0]
    )
    # entropy z-score of day 14 within the daily series: "extreme value"
    ez = detect_spikes(day, "entropy", z_threshold=4.0, direction="high")
    rows = [
        ("day 14 daily gini", "0.34", float(d14["gini"])),
        ("day 14 daily entropy", "6.2", float(d14["entropy"])),
        ("day 14 blocks", "148 (only)", float(n_blocks_day14)),
        ("block 558,473 producer credits", "more than 80", blk.get(558_473, 0.0)),
        ("block 558,545 producer credits", "more than 90", blk.get(558_545, 0.0)),
        ("day 14 distinct producers", "extremely large set", float(d14["n_miners"])),
        ("day 14 flagged as entropy spike (z>=4)", "abnormal/extreme",
         float(14 in set(ez["window_id"]))),
    ]
    return _rows_to_df(rows)


def table8_cross_interval(spark: SparkSession) -> pd.DataFrame:
    """T8 — dominant-miner surge: sliding windows catch what fixed miss
    (§III.A motivation; §III.B 'abnormal change at N=120 / day 60')."""
    spec = BITCOIN_2019
    surge = spec.surges[0]
    df = pipeline.panes(spark, spec)
    fday = pipeline.fixed_series(spark, spec, "day")
    fweek = pipeline.fixed_series(spark, spec, "week")
    sday = pipeline.sliding_series(spark, spec, "day")

    day_windowed = with_fixed_window(df, "day")
    week_windowed = with_fixed_window(df, "week")
    slide_windowed = with_sliding_window(
        df, spec.total_blocks, spec.sliding_sizes["day"]
    )
    surge_id = miner_universe(spec)[1][surge.miner]
    share_day = pipeline.miner_share_series(day_windowed, surge_id)
    share_week = pipeline.miner_share_series(week_windowed, surge_id)
    share_slide = pipeline.miner_share_series(slide_windowed, surge_id)

    surge_days = (surge.start_day, surge.start_day + 1)
    near_day = fday[fday["window_id"].between(surge.start_day - 5, surge.start_day + 6)]
    rows = [
        (f"{surge.miner} max share, fixed daily", "diluted across the boundary (~1/2)",
         float(share_day["share"].max())),
        (f"{surge.miner} max share, fixed weekly", "diluted (~1/7)",
         float(share_week["share"].max())),
        (f"{surge.miner} max share, sliding day windows", "one window aligns (~0.55)",
         float(share_slide["share"].max())),
        ("min nakamoto, sliding day windows", "clear abnormal drop (<= 2)",
         float(sday["nakamoto"].min())),
        (f"min nakamoto, fixed daily days {surge_days[0]}-{surge_days[1]}",
         "within the normal 4-5 band", float(
             fday[fday["window_id"].isin(surge_days)]["nakamoto"].min())),
        ("min nakamoto, fixed weekly", "unchanged", float(fweek["nakamoto"].min())),
        ("n sliding day windows with nakamoto <= 2", ">= 1 (anomaly visible)",
         float((sday["nakamoto"] <= 2).sum())),
        ("n fixed day windows with nakamoto <= 2", "0 (anomaly missed)",
         float((fday["nakamoto"] <= 2).sum())),
        ("n fixed week windows with nakamoto <= 2", "0 (anomaly missed)",
         float((fweek["nakamoto"] <= 2).sum())),
        ("min daily nakamoto near the surge (days -5..+6)", "no drop below 3",
         float(near_day["nakamoto"].min())),
    ]
    return _rows_to_df(rows)


ALL_TABLES = {
    "T1": table1_dataset,
    "T2": table2_btc_fixed,
    "T3": table3_eth_fixed,
    "T4": table4_btc_sliding,
    "T5": table5_eth_sliding,
    "T6": table6_window_counts,
    "T7": table7_day14_anomaly,
    "T8": table8_cross_interval,
}


def to_markdown(pdf: pd.DataFrame, floatfmt: str = "{:.4f}") -> str:
    """Render a table as GitHub markdown (no external deps)."""
    body = pdf.copy()
    body["measured"] = body["measured"].map(lambda v: floatfmt.format(v))
    widths = {
        c: max(len(str(c)), *(len(str(v)) for v in body[c])) for c in body.columns
    }
    def row(vals):
        return "| " + " | ".join(str(v).ljust(widths[c]) for c, v in zip(body.columns, vals)) + " |"
    lines = [row(body.columns), "|" + "|".join("-" * (widths[c] + 2) for c in body.columns) + "|"]
    lines += [row(r) for r in body.itertuples(index=False)]
    return "\n".join(lines)
