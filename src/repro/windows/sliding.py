"""Sliding block-count windows (paper §III.A, Fig. 8 and Eq. 5).

Window ``i`` (0-based) covers block indices ``[i·M, i·M + N)`` for
window size ``N`` and step ``M``. The paper fixes ``M = N/2``, so two
consecutive windows overlap in ``N − M`` blocks and each block belongs
to at most ``⌈N/M⌉ = 2`` windows; membership is materialized with
``explode(sequence(...))``, keeping the blow-up bounded.

Eq. 5: a stream of ``S`` blocks yields ``L = ⌊(S − N)/M⌋ + 1`` full
windows (the paper omits the floor; we only emit complete windows, so
partial trailing windows are dropped).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def num_windows(total_blocks: int, window_size: int, step: int) -> int:
    """Eq. 5: number of complete sliding windows over the stream."""
    if window_size <= 0 or step <= 0:
        raise ValueError("window_size and step must be positive")
    if total_blocks < window_size:
        return 0
    return (total_blocks - window_size) // step + 1


def pane_size(window_sizes: Iterable[int]) -> int:
    """The largest pane ``P`` that tiles every window of these sizes.

    ``P`` is the gcd of every size ``N`` and step ``M = N // 2``, so every
    window boundary ``i·M`` and ``i·M + N`` is a multiple of ``P``: a
    window holds a pane whole or not at all, and assigning a pane by its
    first block index assigns each of its blocks.
    """
    sizes = list(window_sizes)
    return math.gcd(*sizes, *(n // 2 for n in sizes))


def with_sliding_window(
    df: DataFrame,
    total_blocks: int,
    window_size: int,
    step: int | None = None,
    idx_col: str = "block_idx",
    out_col: str = "window_id",
) -> DataFrame:
    """Explode each credit row into the sliding windows its block belongs to.

    ``step`` defaults to the paper's choice ``window_size // 2``. A block
    at index ``b`` is a member of windows ``⌈(b − N + 1)/M⌉ … ⌊b/M⌋``
    clipped to the ``L`` complete windows, so trailing blocks that only
    fall in partial windows produce no rows.
    """
    if step is None:
        step = window_size // 2
    n_windows = num_windows(total_blocks, window_size, step)
    if n_windows == 0:
        raise ValueError(
            f"stream of {total_blocks} blocks shorter than window {window_size}"
        )
    b = F.col(idx_col)
    lo = F.greatest(F.lit(0), F.ceil((b - window_size + 1) / step))
    hi = F.least(F.lit(n_windows - 1), F.floor(b / step))
    # sequence(lo, hi) would count *down* when lo > hi (trailing blocks
    # that only fall in partial windows) — emit no windows instead.
    members = F.when(lo <= hi, F.sequence(lo, hi)).otherwise(
        F.array().cast("array<bigint>")
    )
    return (
        df.withColumn(out_col, F.explode(members))
        .withColumn(out_col, F.col(out_col).cast("int"))
    )
