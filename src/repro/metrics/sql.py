"""The metrics layer as SQL text (paper §II.B, Eqs. 1–4).

This text is the one formulation of the metrics: Spark executes it in
production (``repro.metrics.spark_metrics``) and the DuckDB oracle
executes the same text in the tests, so the oracle checks the
production query itself. Three statements run in sequence:

* ``panes_sql`` counts the producer-credit relation (one row per credit)
  once per (pane, day, month, miner); this is the only ``count(*)``.
  A pane is ``P`` consecutive blocks, and ``P`` divides every sliding
  window's size and step, so every fixed window (a set of whole days)
  and every sliding window is a union of pane rows;
* ``counts_sql`` rolls weighted credits (``window, miner, cnt``) up into
  per-(window, miner) counts with ``sum(cnt)``;
* ``metrics_sql`` turns those counts into one row per window.

``metrics_sql`` orders each window's counts once, by ``(cnt, miner)``
ascending, and derives from that single window spec the rank ``rn``,
the exclusive prefix sum ``excl`` and the window total ``T``:

* **Gini** — rank identity ``G = 2·Σ rn·cnt / (n·T) − (n+1)/n``. Ties
  may be ranked in any strict order without changing the sum; the
  ``miner`` tie-break only fixes determinism.
* **Shannon entropy** — ``E = log₂T − Σ cnt·log₂cnt / T``, the algebraic
  rearrangement of Eqs. 2–3.
* **Nakamoto** — the top k producers are the last k rows in this order
  and together hold ``T − excl`` of the k-th row from the end, so the
  coefficient is
  ``n + 1 − #{rows : 100·excl ≤ (100 − threshold)·T}``. The arithmetic
  is exact on integers and no tie order can change it.

Portability: each window spec is written out in full (Spark rejects a
frame clause on a named window), and float literals are written
``2e0``/``1e0`` (Spark parses ``2.0`` as DECIMAL).
"""

from __future__ import annotations

from repro.metrics.reference import NAKAMOTO_THRESHOLD_PCT


def panes_sql(table: str, pane_size: int) -> str:
    """Credit counts per (pane, day, month, miner).

    ``block_idx`` becomes the pane's first block index, a multiple of
    ``pane_size``; a pane that crosses midnight yields one row per day.
    """
    pane = f"block_idx - block_idx % {pane_size}"
    return (
        f"SELECT {pane} AS block_idx, day_of_year, month, miner, count(*) AS cnt "
        f"FROM {table} GROUP BY {pane}, day_of_year, month, miner"
    )


def counts_sql(table: str, window_col: str) -> str:
    """Per-(window, miner) credit counts from weighted credits."""
    return (
        f"SELECT {window_col}, miner, sum(cnt) AS cnt "
        f"FROM {table} GROUP BY {window_col}, miner"
    )


def metrics_sql(counts_table: str, window_col: str) -> str:
    """All three metrics per window from per-(window, miner) counts.

    Output columns: ``window_col, n_miners, n_credits, gini, entropy,
    nakamoto``.
    """
    spec = f"PARTITION BY {window_col} ORDER BY cnt, miner"
    return f"""
        WITH ranked AS (
            SELECT {window_col}, cnt,
                   row_number() OVER ({spec}) AS rn,
                   sum(cnt) OVER ({spec} ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW) - cnt AS excl,
                   sum(cnt) OVER ({spec} ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND UNBOUNDED FOLLOWING) AS total
            FROM {counts_table}
        )
        SELECT {window_col},
               count(*) AS n_miners,
               sum(cnt) AS n_credits,
               (2e0 * sum(rn * cnt)) / (count(*) * sum(cnt))
                   - (count(*) + 1e0) / count(*) AS gini,
               log2(sum(cnt)) - sum(cnt * log2(cnt)) / sum(cnt) AS entropy,
               count(*) + 1
                   - count_if(100 * excl <= {100 - NAKAMOTO_THRESHOLD_PCT} * total)
                   AS nakamoto
        FROM ranked GROUP BY {window_col}
    """
