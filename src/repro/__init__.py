"""Reproduction of Lin et al., "Measuring Decentralization in Bitcoin and
Ethereum using Multiple Metrics and Granularities" (ICDE-W 2021).

Subpackages:
    chain   — calibrated synthetic 2019 BTC/ETH block-producer streams
              (substitute for the paper's Google BigQuery data).
    windows — fixed (day/week/month) and sliding (N, M=N/2) windowing.
    metrics — Gini / Shannon entropy / Nakamoto coefficient, both as
              numpy references and as one SQL query run on Spark.
    core    — measurement pipeline, summaries, anomaly detection and
              the T1–T8 table builders.
"""

__version__ = "0.1.0"
