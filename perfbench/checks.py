"""Output checks for one benchmark pass, run outside the timed region.

Every per-window series the pass measured is recomputed from the same
generated producer-credit frame with the numpy metrics of
``repro.metrics.reference`` and compared window by window. Window
membership is re-derived here from the definitions (fixed calendar
windows; sliding windows ``[i*M, i*M + N)`` with ``M = N // 2``), so a
windowing bug shows as a mismatch rather than being shared by both sides.

Each check returns ``(name, ok, detail)``; a check that raises counts as
failed with the exception text as detail.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from repro.metrics import reference

TOL = 1e-6
FIXED_LENGTHS = {"day": 365, "week": 53, "month": 12}


def _fixed_ids(pdf: pd.DataFrame, granularity: str) -> np.ndarray:
    doy = pdf["day_of_year"].to_numpy(dtype=np.int64)
    if granularity == "day":
        return doy
    if granularity == "week":
        return (doy - 1) // 7 + 1
    return pdf["ts"].dt.month.to_numpy(dtype=np.int64)


def _window_rows(pdf: pd.DataFrame, spec, windowing: str, granularity: str):
    """``(window_ids, lo, hi)``: the row range of each window.

    Rows are ordered by block, and both window kinds cover contiguous
    block ranges, so each window is one slice of the frame.
    """
    if windowing == "fixed":
        ids = _fixed_ids(pdf, granularity)
        if (np.diff(ids) < 0).any():
            raise AssertionError("fixed window ids not monotone in block order")
        wids, lo = np.unique(ids, return_index=True)
        hi = np.append(lo[1:], len(ids))
        return wids, lo, hi
    n = spec.sliding_sizes[granularity]
    m = n // 2
    total = int(pdf["block_idx"].max()) + 1
    n_windows = (total - n) // m + 1 if total >= n else 0  # Eq. 5
    starts = np.arange(n_windows, dtype=np.int64) * m
    idx = pdf["block_idx"].to_numpy()
    lo = np.searchsorted(idx, starts, side="left")
    hi = np.searchsorted(idx, starts + n, side="left")
    return np.arange(n_windows), lo, hi


def reference_series(pdf: pd.DataFrame, spec, windowing: str, granularity: str) -> pd.DataFrame:
    """Per-window n_miners, n_credits and the three metrics, in numpy."""
    codes = pd.factorize(pdf["miner"])[0]
    wids, lo, hi = _window_rows(pdf, spec, windowing, granularity)
    rows = []
    for w, a, b in zip(wids, lo, hi):
        cnt = np.unique(codes[a:b], return_counts=True)[1]
        rows.append((int(w), len(cnt), int(b - a), reference.gini(cnt),
                     reference.shannon_entropy(cnt), reference.nakamoto(cnt)))
    return pd.DataFrame(
        rows, columns=["window_id", "n_miners", "n_credits", "gini", "entropy", "nakamoto"]
    )


def compare_series(got: pd.DataFrame, want: pd.DataFrame) -> str:
    """Empty string when every window agrees, else the first differences."""
    if list(got["window_id"]) != list(want["window_id"]):
        return f"window ids differ: {len(got)} measured vs {len(want)} expected"
    bad = []
    for col in ("n_miners", "n_credits", "nakamoto"):
        diff = got[col].to_numpy(dtype=np.int64) != want[col].to_numpy(dtype=np.int64)
        if diff.any():
            bad.append(f"{col} differs in {int(diff.sum())} windows")
    for col in ("gini", "entropy"):
        err = np.abs(got[col].to_numpy(dtype=float) - want[col].to_numpy(dtype=float))
        if (err > TOL).any():
            bad.append(f"{col} max error {err.max():.3g} > {TOL}")
    return "; ".join(bad)


def _row(table: pd.DataFrame, item: str) -> float:
    sel = table[table["item"] == item]
    if len(sel) != 1:
        raise AssertionError(f"table row {item!r} missing")
    return float(sel["measured"].iloc[0])


def series_checks(name, got, pdf, spec, windowing, granularity):
    """Reference agreement plus the dataflow invariants of one series."""
    diff = compare_series(got, reference_series(pdf, spec, windowing, granularity))
    out = [(f"{name}: matches numpy reference", not diff, diff)]
    if windowing == "fixed":
        total = int(got["n_credits"].sum())
        out.append((f"{name}: sum n_credits == credits", total == len(pdf),
                    f"{total} vs {len(pdf)}"))
        want_len = FIXED_LENGTHS[granularity]
        out.append((f"{name}: {want_len} windows", len(got) == want_len, str(len(got))))
    else:
        n = spec.sliding_sizes[granularity]
        eq5 = (spec.total_blocks - n) // (n // 2) + 1
        out.append((f"{name}: window count == Eq. 5", len(got) == eq5,
                    f"{len(got)} vs {eq5}"))
        _, lo, hi = _window_rows(pdf, spec, windowing, granularity)
        in_range = (hi - lo).astype(np.int64)
        same = len(in_range) == len(got) and bool(
            (got["n_credits"].to_numpy(dtype=np.int64) == in_range).all())
        out.append((f"{name}: n_credits == credits in block range", same,
                    f"{len(got)} windows measured, {len(in_range)} expected"))
    return out


def chain_checks(pdf: pd.DataFrame, spec) -> list:
    """The generator assertions of the former T1 benchmark."""
    blocks = int(pdf["block_number"].nunique())
    out = [(f"{spec.name}: distinct blocks == total_blocks",
            blocks == spec.total_blocks, f"{blocks} vs {spec.total_blocks}")]
    if not spec.coinbase_anomalies:
        out.append((f"{spec.name}: one credit per block",
                    len(pdf) == spec.total_blocks, f"{len(pdf)} rows"))
    return out


def table_checks(built: dict, pdfs: dict, specs: dict, series: dict, spec_seeds: bool) -> list:
    """Cross-check the drill-down rows of T1, T7 and T8 against the frame,
    and keep the remaining assertions of the former table benchmarks.

    Those benchmarks ran on the spec seeds only, and their value
    thresholds (day-14 entropy, surge share, sliding Nakamoto minimum)
    are properties of the calibrated chain at those seeds: on other seeds
    the surge share can fall just below 0.45. The thresholds are therefore
    asserted when ``spec_seeds`` is true; the exact cross-checks always."""
    out = []
    if "T1" in built:
        t1 = built["T1"]
        for spec in specs.values():
            pdf = pdfs[spec.name]
            bn = pdf["block_number"]
            for item, want in (
                (f"{spec.name} blocks", bn.nunique()),
                (f"{spec.name} first block", bn.min()),
            ):
                got = _row(t1, item)
                out.append((f"T1 {item}", got == float(want), f"{got} vs {want}"))
            last = t1[t1["item"].str.startswith(f"{spec.name} last block")]["measured"]
            out.append((f"T1 {spec.name} last block", float(last.iloc[0]) == float(bn.max()),
                        f"{float(last.iloc[0])} vs {bn.max()}"))
    btc = specs.get("bitcoin")
    if "T7" in built:
        t7, pdf = built["T7"], pdfs["bitcoin"]
        per_block = pdf["block_number"].value_counts()
        for block in (558_473, 558_545):
            got = _row(t7, f"block {block:,} producer credits")
            want = float(per_block.get(block, 0))
            out.append((f"T7 block {block} credits", got == want and got > 0, f"{got} vs {want}"))
        d14 = float(pdf.loc[pdf["day_of_year"] == 14, "block_number"].nunique())
        got = _row(t7, "day 14 blocks")
        out.append(("T7 day 14 blocks", got == d14, f"{got} vs {d14}"))
        if spec_seeds:
            day = series[("bitcoin", "fixed", "day")]
            e14 = float(day.loc[day["window_id"] == 14, "entropy"].iloc[0])
            out.append(("T7 day 14 entropy > 5.5", e14 > 5.5, f"{e14:.4f}"))
    if "T8" in built:
        t8, pdf = built["T8"], pdfs["bitcoin"]
        surge = btc.surges[0].miner
        hit = (pdf["miner"] == surge).to_numpy()
        for label, windowing, g in (("fixed daily", "fixed", "day"),
                                    ("fixed weekly", "fixed", "week"),
                                    ("sliding day windows", "sliding", "day")):
            _, lo, hi = _window_rows(pdf, btc, windowing, g)
            csum = np.concatenate([[0], np.cumsum(hit)])
            want = float(((csum[hi] - csum[lo]) / (hi - lo)).max())
            got = _row(t8, f"{surge} max share, {label}")
            out.append((f"T8 {surge} share, {label}", abs(got - want) <= TOL,
                        f"{got:.6f} vs {want:.6f}"))
        if spec_seeds:
            sday = series[("bitcoin", "sliding", "day")]
            out.append(("T8 sliding day nakamoto min <= 2", sday["nakamoto"].min() <= 2,
                        str(sday["nakamoto"].min())))
            share = _row(t8, f"{surge} max share, sliding day windows")
            out.append(("T8 sliding surge share >= 0.45", share >= 0.45, f"{share:.4f}"))
    return out
