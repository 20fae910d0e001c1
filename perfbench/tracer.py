"""Per-layer tracing for the traced benchmark pass.

The tracer wraps the public functions of each layer from outside the
program, records a span around every call, and tags the Spark jobs each
span starts with ``SparkContext.setJobGroup`` so the event log can be
folded into per-layer Spark counters.

Spark is lazy, so a series' windowing, counting and kernel calls only
build a plan; the work happens when ``collect_series`` collects it. The
tracer therefore forces each prefix of the plan -- the windowed
relation, the per-(window, miner) counts and the metric relation -- by
executing its physical plan and counting the rows it yields
(``member_rows``, ``pairs``). Executing the plan of a fresh projection
computes every column without adding a stage and without leaving
materialized shuffles for the program's own query to reuse.

A layer's self time is the difference between the cumulative prefix
times (windows = P1, counts = P2 - P1, kernel = P3 - P2, collect =
collect_series - P3), plus the time of the call itself. The forced
actions are tracing overhead, recorded as ``trace.forced_s``, so a
traced build's wall time is the sum of the self times plus
``trace.forced_s`` plus a small unattributed remainder.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import repro.chain.generator as generator
import repro.core.tables as tables
import repro.metrics.spark_metrics as spark_metrics
from repro.core import pipeline

SPARK_LAYERS = ("ingest", "windows", "counts", "kernel", "collect", "drill")
SPARK_STATS = ("shuffle_write_mb", "shuffle_read_records", "spill_mb", "task_s", "tasks", "stages")
CHAIN_TAGS = {"bitcoin": "btc", "ethereum": "eth"}
#: The series and tables the workloads measure (see ``worker.WORKLOADS``):
#: eth-series builds T5, drilldown builds T1, T7 and T8.
SERIES_KEYS = ("fixed.day", "fixed.week", "sliding.day", "sliding.week", "sliding.month")
TABLES = ("T1", "T5", "T7", "T8")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = [("chain.generate_s", "s"), ("chain.credits", "count"),
             ("ingest.s", "s"), ("ingest.rows", "count"), ("ingest.cached_mb", "MB")]
    names += [(f"windows.{k}.s", "s") for k in SERIES_KEYS]
    names += [(f"windows.{k}.member_rows", "count") for k in SERIES_KEYS if k.startswith("sliding")]
    for layer, stat, unit in (("counts", "s", "s"), ("counts", "pairs", "count"),
                              ("kernel", "s", "s"), ("kernel", "windows", "count"),
                              ("collect", "s", "s")):
        names += [(f"{layer}.{k}.{stat}", unit) for k in SERIES_KEYS]
    for d in ("fixed-day", "fixed-week", "sliding-day"):
        names.append((f"drill.share.{d}.s", "s"))
    names += [("drill.distinct.btc.s", "s"), ("drill.distinct.eth.s", "s"),
              ("drill.block_lookup.s", "s")]
    names += [(f"tables.{t}.s", "s") for t in TABLES]
    units = {"shuffle_write_mb": "MB", "shuffle_read_records": "count", "spill_mb": "MB",
             "task_s": "s", "tasks": "count", "stages": "count"}
    for layer in SPARK_LAYERS:
        for stat in SPARK_STATS:
            names.append((f"spark.{layer}.{stat}", units[stat]))
    names += [("trace.overhead_s", "s"), ("trace.forced_s", "s"),
              ("trace.self_sum_s", "s"), ("trace.residual_s", "s")]
    return names


def self_time_names() -> list[str]:
    """The self-time metrics that partition a traced pass's wall time."""
    return [n for n, u in per_layer_names()
            if u == "s" and not n.startswith(("spark.", "trace."))]


class _Span:
    __slots__ = ("name", "group", "start", "child")

    def __init__(self, name: str, group: str | None):
        self.name, self.group = name, group
        self.start, self.child = time.perf_counter(), 0.0


class Tracer:
    """Spans, forced prefixes and job-group tags for one traced pass."""

    def __init__(self, spark, specs: dict):
        self.spark = spark
        self.sc = spark.sparkContext
        self.by_blocks = {s.total_blocks: s for s in specs.values()}
        self.values: dict[str, float] = defaultdict(float)
        self.forced = 0.0
        self._stack: list[_Span] = []
        self._series: tuple[str, str] | None = None
        self._prefix = 0.0
        self._groups: list[tuple[str, str]] = []  # (group id, prefix-chain key or "")
        self._chain: str | None = None
        self._drill_tags: dict[int, str] = {}
        self._table: str | None = None

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, metric: str, group: str | None = None):
        if group is None and self._stack:
            group = self._stack[-1].group
        sp = _Span(metric, group)
        self._stack.append(sp)
        if group:
            self._set_group(group)
        try:
            yield sp
        finally:
            self._stack.pop()
            dur = time.perf_counter() - sp.start
            self.values[metric] += dur - sp.child
            if self._stack:
                self._stack[-1].child += dur
                if self._stack[-1].group:
                    self._set_group(self._stack[-1].group)

    def _set_group(self, group: str) -> None:
        self.sc.setJobGroup(group, group)

    def _force(self, group: str, chain_key: str, action):
        """Run a forced action; its time is overhead, not the span's."""
        self._groups.append((group, chain_key))
        self._set_group(group)
        t = time.perf_counter()
        result = action()
        d = time.perf_counter() - t
        self.forced += d
        self._stack[-1].child += d
        if self._stack[-1].group:
            self._set_group(self._stack[-1].group)
        return result, d

    @staticmethod
    def _run_plan(df) -> int:
        return df.select("*")._jdf.queryExecution().toRdd().count()

    def _new_group(self, layer: str) -> str:
        return f"{layer}#{len(self._groups)}"

    # -- layer wrappers ------------------------------------------------
    def _granularity(self, total_blocks: int, window_size: int) -> str:
        sizes = self.by_blocks[total_blocks].sliding_sizes
        return next(g for g, n in sizes.items() if n == window_size)

    def _chain_pdf(self, real):
        def wrapped(spec, seed=None):
            with self.span("chain.generate_s"):
                pdf = real(spec, seed=seed)
            self.values["chain.credits"] += len(pdf)
            self.values["ingest.rows"] += len(pdf)
            return pdf
        return wrapped

    def _producers(self, real):
        def wrapped(spark, spec, seed=None):
            self._chain = spec.name
            before = self.values["chain.credits"]
            group = self._new_group("ingest")
            self._groups.append((group, ""))
            with self.span("ingest.s", group) as sp:
                df = real(spark, spec, seed)
                if self.values["chain.credits"] != before:
                    t = time.perf_counter()
                    infos = self.sc._jsc.sc().getRDDStorageInfo()
                    self.values["ingest.cached_mb"] = sum(
                        i.memSize() + i.diskSize() for i in infos) / 1e6
                    d = time.perf_counter() - t
                    self.forced += d
                    sp.child += d
            return df
        return wrapped

    def _windows(self, real, windowing: str):
        def wrapped(df, *args, **kwargs):
            if windowing == "fixed":
                g = args[0] if args else kwargs["granularity"]
            else:
                g = self._granularity(args[0], args[1])
            self._series, self._prefix = (windowing, g), 0.0
            key = f"{windowing}.{g}"
            with self.span(f"windows.{key}.s"):
                out = real(df, *args, **kwargs)
                rows, d = self._force(self._new_group("windows"), key,
                                      lambda: self._run_plan(out))
            self._advance("windows", d)
            if windowing == "sliding":
                self.values[f"windows.sliding.{g}.member_rows"] += rows
            return out
        return wrapped

    def _advance(self, layer: str, prefix: float) -> None:
        w, g = self._series
        self.values[f"{layer}.{w}.{g}.s"] += prefix - self._prefix
        self._prefix = prefix

    def _counts(self, real):
        def wrapped(df, window_col, *args, **kwargs):
            w, g = self._series
            with self.span(f"counts.{w}.{g}.s"):
                out = real(df, window_col, *args, **kwargs)
                pairs, d = self._force(self._new_group("counts"), f"{w}.{g}",
                                       lambda: self._run_plan(out))
            self._advance("counts", d)
            self.values[f"counts.{w}.{g}.pairs"] += pairs
            return out
        return wrapped

    def _kernel(self, real):
        def wrapped(df, window_col, *args, **kwargs):
            w, g = self._series
            with self.span(f"kernel.{w}.{g}.s"):
                out = real(df, window_col, *args, **kwargs)
                _, d = self._force(self._new_group("kernel"), f"{w}.{g}",
                                   lambda: self._run_plan(out))
            self._advance("kernel", d)
            return out
        return wrapped

    def _collect(self, real):
        def wrapped(measured):
            w, g = self._series
            group = self._new_group("collect")
            self._groups.append((group, f"{w}.{g}"))
            with self.span(f"collect.{w}.{g}.s", group):
                pdf = real(measured)
            self.values[f"collect.{w}.{g}.s"] -= self._prefix
            self.values[f"kernel.{w}.{g}.windows"] += len(pdf)
            self._series = None
            return pdf
        return wrapped

    def _tag_window(self, real, windowing: str):
        def wrapped(df, *args, **kwargs):
            out = real(df, *args, **kwargs)
            if windowing == "fixed":
                g = args[0] if args else kwargs["granularity"]
            else:
                g = self._granularity(args[0], args[1])
            self._drill_tags[id(out)] = f"{windowing}-{g}"
            return out
        return wrapped

    def _share(self, real):
        def wrapped(window_df, miner):
            label = f"drill.share.{self._drill_tags.get(id(window_df), 'untagged')}"
            group = self._new_group(label)
            self._groups.append((group, ""))
            with self.span(f"{label}.s", group):
                return real(window_df, miner)
        return wrapped

    def _raw_collect(self, real):
        """Collects issued directly by a table builder: T1's distinct
        counts and T7's block lookups."""
        def wrapped(df):
            top = self._stack[-1].name if self._stack else ""
            if not top.startswith("tables."):
                return real(df)
            if self._table == "T1":
                label = f"drill.distinct.{CHAIN_TAGS[self._chain]}"
            else:
                label = "drill.block_lookup"
            group = self._new_group(label)
            self._groups.append((group, ""))
            with self.span(f"{label}.s", group):
                return real(df)
        return wrapped

    @contextmanager
    def installed(self):
        """Patch every layer entry point for the duration of the block."""
        patches = [
            (generator, "block_producers_pdf", self._chain_pdf),
            (pipeline, "producers", self._producers),
            (pipeline, "with_fixed_window", lambda r: self._windows(r, "fixed")),
            (pipeline, "with_sliding_window", lambda r: self._windows(r, "sliding")),
            (spark_metrics, "per_window_counts", self._counts),
            (pipeline, "decentralization_by_window", self._kernel),
            (pipeline, "collect_series", self._collect),
            (tables, "with_fixed_window", lambda r: self._tag_window(r, "fixed")),
            (tables, "with_sliding_window", lambda r: self._tag_window(r, "sliding")),
            (pipeline, "miner_share_series", self._share),
            (type(self.spark.range(0)), "collect", self._raw_collect),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, make in patches:
                setattr(obj, attr, make(getattr(obj, attr)))
            yield self
        finally:
            for obj, attr, real in saved:
                setattr(obj, attr, real)
            self.sc.setLocalProperty("spark.jobGroup.id", None)

    def table(self, name: str):
        self._table = name
        return self.span(f"tables.{name}.s", f"tables.{name}")

    # -- event log -----------------------------------------------------
    def fold_event_log(self, log_dir: Path) -> None:
        """Fold per-task counters of the event log into spark.<layer>.*.

        Counters of a forced prefix chain are differenced like times, so
        each series layer reports only what it adds to the plan.
        """
        per_group = _read_event_log(log_dir)
        zero = dict.fromkeys(SPARK_STATS, 0.0)
        last_in_chain: dict[str, dict] = {}
        for group, chain_key in self._groups:
            stats = per_group.get(group, zero)
            layer = group.split("#")[0].split(".")[0]
            if chain_key:
                prev = last_in_chain.get(chain_key, zero)
                if layer == "windows":
                    prev = zero
                delta = {k: stats[k] - prev[k] for k in SPARK_STATS}
                last_in_chain[chain_key] = stats
            else:
                delta = stats
            for k in SPARK_STATS:
                self.values[f"spark.{layer}.{k}"] += delta[k]


def _read_event_log(log_dir: Path) -> dict[str, dict]:
    stage_group: dict[int, str] = {}
    stats: dict[str, dict] = defaultdict(lambda: dict.fromkeys(SPARK_STATS, 0.0))
    stages: dict[str, set] = defaultdict(set)
    files = [p for p in log_dir.rglob("*") if p.is_file() and p.name.startswith(("events", "local-"))]
    for path in sorted(files):
        with open(path) as fh:
            for line in fh:
                ev = json.loads(line)
                kind = ev.get("Event")
                if kind == "SparkListenerJobStart":
                    group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                    if group:
                        for sid in ev.get("Stage IDs", ()):
                            stage_group.setdefault(sid, group)
                elif kind == "SparkListenerTaskEnd":
                    group = stage_group.get(ev.get("Stage ID"))
                    tm = ev.get("Task Metrics")
                    if group is None or not tm:
                        continue
                    s = stats[group]
                    sw = tm.get("Shuffle Write Metrics", {})
                    sr = tm.get("Shuffle Read Metrics", {})
                    s["shuffle_write_mb"] += sw.get("Shuffle Bytes Written", 0) / 1e6
                    s["shuffle_read_records"] += sr.get("Total Records Read", 0)
                    s["spill_mb"] += (tm.get("Memory Bytes Spilled", 0)
                                      + tm.get("Disk Bytes Spilled", 0)) / 1e6
                    s["task_s"] += tm.get("Executor Run Time", 0) / 1e3
                    s["tasks"] += 1
                    stages[group].add((ev.get("Stage ID"), ev.get("Stage Attempt ID")))
    for group, ids in stages.items():
        stats[group]["stages"] = float(len(ids))
    return dict(stats)
