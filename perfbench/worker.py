"""One benchmark pass: a fresh Python process, JVM and Spark session.

Run by ``perfbench/run.py``; it writes one JSON record to ``--out``::

    python3 perfbench/worker.py --workload eth-series --seed 0 --trace 0 --out rec.json

The pass launches the JVM, creates the session and runs a small warm-up
query that takes the same paths as the pipeline (all of which is
``setup_s``, so the class loading and code generation of a fresh JVM's
first action are there), then builds the workload's tables in sequence
with fresh pipeline caches (``wall_s``). Peak memory is read
right after the timed region; the output checks and the fidelity record
follow, outside it. With ``--trace 1`` the layers are traced and the
Spark event log is folded into per-layer counters.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
DRIVER_MEMORY = "4g"
#: Fixed initial heap and young generation, so the driver JVM's resident
#: memory follows what the program keeps alive rather than how far the
#: collector happened to grow the heap.
JVM_OPTIONS = "-Xms4g -Xmn1g"
SHUFFLE_PARTITIONS = "64"  # as in jobs/_session.py and conftest.py

#: Tables each workload builds, in order, and the series they measure.
WORKLOADS = {
    "eth-series": ("T5",),
    "drilldown": ("T1", "T7", "T8"),
}
SERIES = {
    "T5": [("ethereum", "sliding", g) for g in ("day", "week", "month")]
          + [("ethereum", "fixed", "day")],
    "T7": [("bitcoin", "fixed", "day")],
    "T8": [("bitcoin", "fixed", "day"), ("bitcoin", "fixed", "week"),
           ("bitcoin", "sliding", "day")],
}
CHAINS = {"T1": ("bitcoin", "ethereum")}


def threads() -> int:
    return min(4, len(os.sched_getaffinity(0)))


def configure_environment(run_dir: Path, trace: bool) -> dict:
    """Spark settings for this pass; the driver JVM options must be in
    place before pyspark launches the JVM."""
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{threads()}] --driver-memory {DRIVER_MEMORY} "
        f"--conf 'spark.driver.extraJavaOptions={JVM_OPTIONS} -Djava.io.tmpdir={tmp}' pyspark-shell"
    )
    conf = {
        "spark.sql.shuffle.partitions": SHUFFLE_PARTITIONS,
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": str(tmp),
        "spark.sql.warehouse.dir": str(run_dir / "warehouse"),
    }
    if trace:
        log_dir = run_dir / "eventlog"
        log_dir.mkdir(parents=True, exist_ok=True)
        conf |= {
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": log_dir.as_uri(),
            "spark.eventLog.compress": "false",
        }
    return conf


def warm_up(spark) -> None:
    """Arrow in, persist, a calendar column, a grouped count, a ranked
    window and Arrow out, on 2,000 rows."""
    import numpy as np
    import pandas as pd
    from pyspark.sql import Window
    from pyspark.sql import functions as F

    n = 2_000
    pdf = pd.DataFrame({
        "w": np.arange(n) % 10,
        "miner": [f"m{i % 37}" for i in range(n)],
        "ts": pd.to_datetime(np.arange(n) * 1_000_000_000),
    })
    df = spark.createDataFrame(pdf).withColumn("date", F.to_date("ts")).persist()
    df.count()
    counts = df.groupBy("w", "miner").agg(F.count("*").alias("cnt"))
    ranked = counts.withColumn(
        "rn", F.row_number().over(Window.partitionBy("w").orderBy("cnt", "miner")))
    ranked.groupBy("w").agg(F.sum("rn")).toPandas()
    df.unpersist()


def peak_rss_mb() -> dict:
    """VmHWM of this process and of its descendants (the JVM), in MB."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    def hwm(pid: int) -> int:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        except OSError:
            pass
        return 0

    own, descendants, todo = hwm(os.getpid()), 0, list(children.get(os.getpid(), []))
    while todo:
        pid = todo.pop()
        todo += children.get(pid, [])
        descendants += hwm(pid)
    mb = 1024 / 1e6
    return {"peak_rss_mb": (own + descendants) * mb,
            "python_rss_mb": own * mb, "jvm_rss_mb": descendants * mb}


def environment(spark) -> dict:
    import pandas as pd
    import pyarrow
    import pyspark

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.exists():
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    sc = spark.sparkContext
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "spark_master": sc.master,
        "spark_threads": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "driver_java_options": JVM_OPTIONS,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "spark_version": spark.version,
        "pyspark_version": pyspark.__version__,
        "java_version": spark._jvm.System.getProperty("java.version"),
        "pyarrow_version": pyarrow.__version__,
        "pandas_version": pd.__version__,
        "python_version": sys.version.split()[0],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def seeded_specs(seed_offset: int) -> dict:
    """The calibrated specs with their seeds shifted by ``seed_offset``;
    offset 0 gives the spec seeds 2019 (BTC) and 1559 (ETH)."""
    from repro.chain.params import BITCOIN_2019, ETHEREUM_2019

    return {s.name: dataclasses.replace(s, seed=s.seed + seed_offset)
            for s in (BITCOIN_2019, ETHEREUM_2019)}


def build_tables(spark, names, tracer=None) -> tuple[dict, list, float]:
    """The timed region: build the workload's tables in sequence, starting
    from empty pipeline caches. Returns ``(tables, failures, wall_s)``."""
    import repro.core.tables as tables
    from repro.core import pipeline

    pipeline.clear_caches()
    built, failures = {}, []
    t0 = time.perf_counter()
    for name in names:
        try:
            if tracer:
                with tracer.installed(), tracer.table(name):
                    built[name] = tables.ALL_TABLES[name](spark)
            else:
                built[name] = tables.ALL_TABLES[name](spark)
        except Exception:
            failures.append({"op": f"build {name}", "detail": traceback.format_exc()})
    return built, failures, time.perf_counter() - t0


def run_pass(workload: str, seed: int, trace: bool, run_dir: Path) -> dict:
    """One pass; with ``trace`` an untraced build of the tables runs first
    in the same session, and its wall time is the base of the overhead."""
    conf = configure_environment(run_dir, trace)
    sys.path.insert(0, str(ROOT / "src"))
    from pyspark.sql import SparkSession

    import repro.core.tables as tables
    from repro.core import pipeline

    specs = seeded_specs(seed)
    names = WORKLOADS[workload]
    saved_specs = (tables.BITCOIN_2019, tables.ETHEREUM_2019)
    tables.BITCOIN_2019, tables.ETHEREUM_2019 = specs["bitcoin"], specs["ethereum"]
    t0 = time.perf_counter()
    builder = SparkSession.builder.appName(f"perfbench-{workload}")
    for key, value in conf.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    tracer = None
    try:
        warm_up(spark)
        record = {"workload": workload, "seed": seed, "trace": int(trace),
                  "setup_s": time.perf_counter() - t0}
        failures = []
        if trace:
            from tracer import Tracer

            _, more, record["untraced_wall_s"] = build_tables(spark, names)
            failures += more
            tracer = Tracer(spark, specs)
        built, more, record["wall_s"] = build_tables(spark, names, tracer)
        failures += more
        record |= peak_rss_mb()
        t0 = time.perf_counter()
        checks = output_checks(spark, pipeline, specs, seed, names, built)
        record["checks_s"] = time.perf_counter() - t0
        record["env"] = environment(spark)
    finally:
        tables.BITCOIN_2019, tables.ETHEREUM_2019 = saved_specs
        spark.stop()

    failures += [{"op": n, "detail": d} for n, ok, d in checks if not ok]
    fidelity = {name: dict(zip(t["item"], map(float, t["measured"])))
                for name, t in built.items()}
    compared, fidelity_failures = compare_fidelity(fidelity, seed)
    failures += fidelity_failures
    record |= {
        "attempted": len(names) * (1 + trace) + len(checks) + compared,
        "failed": len(failures), "failures": failures,
        "checks": [{"op": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "fidelity": fidelity,
    }
    if tracer:
        tracer.fold_event_log(run_dir / "eventlog")
        record["layers"] = dict(tracer.values)
        record["forced_s"] = tracer.forced
    return record


def output_checks(spark, pipeline, specs, seed, names, built) -> list:
    """Every check of the pass, each as ``(name, ok, detail)``."""
    import checks
    from repro.chain.generator import block_producers_pdf

    wanted = sorted({s for n in names for s in SERIES.get(n, ())})
    chains = sorted({c for c, _, _ in wanted} | {c for n in names for c in CHAINS.get(n, ())})
    out, series = [], {}
    pdfs = {c: block_producers_pdf(specs[c]) for c in chains}
    for chain in chains:
        out += _guard(f"{chain} chain", checks.chain_checks, pdfs[chain], specs[chain])
    for chain, windowing, g in wanted:
        name = f"{chain} {windowing} {g}"
        get = pipeline.fixed_series if windowing == "fixed" else pipeline.sliding_series
        try:
            series[(chain, windowing, g)] = get(spark, specs[chain], g)
        except Exception:
            out.append((f"{name}: collected", False, traceback.format_exc()))
            continue
        out += _guard(name, checks.series_checks, name, series[(chain, windowing, g)],
                      pdfs[chain], specs[chain], windowing, g)
    out += _guard("tables", checks.table_checks, built, pdfs,
                  {c: specs[c] for c in pdfs}, series, seed == 0)
    return out


def _guard(name, fn, *args) -> list:
    try:
        return fn(*args)
    except Exception:
        return [(f"{name}: check raised", False, traceback.format_exc())]


def compare_fidelity(fidelity: dict, seed: int) -> tuple[int, list]:
    """Compare the measured columns with the reference captured for this
    seed, if there is one. Returns ``(tables compared, failures)``; each
    table whose values differ by more than 1e-6 is one failure."""
    ref = json.loads((BENCH / "fidelity_ref.json").read_text()).get(str(seed), {})
    compared, out = 0, []
    for name, got in fidelity.items():
        want = ref.get(name)
        if want is None:
            continue
        compared += 1
        diff = {k: (got.get(k), v) for k, v in want.items()
                if got.get(k) is None or abs(got[k] - v) > 1e-6}
        diff |= {k: (v, None) for k, v in got.items() if k not in want}
        if diff:
            out.append({"op": f"fidelity {name}", "detail": json.dumps(diff)})
    return compared, out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    record = run_pass(args.workload, args.seed, bool(args.trace), args.run_dir)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
