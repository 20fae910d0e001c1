"""Benchmark of the T1-T8 reproduction: one command per workload.

    python3 perfbench/run.py --workload eth-series --seed 0 --seconds 20 --trace 0

Each pass runs in a fresh worker process with its own JVM (see
``worker.py``). Passes repeat while the timed regions, one more
included, fit in ``--seconds``; there is always at least one. ``--seed`` shifts both chain seeds; 0, the
default, keeps the spec seeds 2019 and 1559. Where ``fidelity_ref.json``
holds values captured for the seed, the measured column of every table
built is compared with them.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` runs one pass that builds the tables twice in the same
session, untraced and then traced, and reports the per-layer metrics of
the traced build together with the tracing overhead (traced minus
untraced wall time).

The last line of standard output is the JSON result; the lines before
it name every metric with its unit, the failure rate and the
environment. Each run also writes its full record and the T1-T8
measured values to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("eth-series", "drilldown")
DEADLINE_S = 175.0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_rate", "ratio"))


def run_worker(workload: str, seed: int, trace: int, tag: str, budget: float) -> dict:
    run_dir = OUT / "runs" / tag
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    out = run_dir / "record.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--run-dir", str(run_dir),
           "--out", str(out)]
    started = time.monotonic()
    with open(run_dir / "worker.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise SystemExit(f"pass {tag} exceeded the {DEADLINE_S:.0f} s deadline")
        finally:
            _kill_group(proc.pid)
    if code != 0 or not out.exists():
        tail = (run_dir / "worker.log").read_text().splitlines()[-15:]
        raise SystemExit(f"pass {tag} failed with exit code {code}:\n" + "\n".join(tail))
    record = json.loads(out.read_text())
    record["process_s"] = time.monotonic() - started
    return record


def _kill_group(pgid: int) -> None:
    """Stop anything the worker left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def end_to_end(passes: list[dict]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_rate": 1.0 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(traced: dict) -> dict:
    from tracer import per_layer_names, self_time_names

    values = dict.fromkeys((n for n, _ in per_layer_names()), 0.0)
    values.update(traced["layers"])
    self_sum = sum(values[n] for n in self_time_names())
    values |= {
        "trace.overhead_s": traced["wall_s"] - traced["untraced_wall_s"],
        "trace.forced_s": traced["forced_s"],
        "trace.self_sum_s": self_sum,
        "trace.residual_s": traced["wall_s"] - self_sum - traced["forced_s"],
    }
    return {n: {"value": values[n], "unit": u} for n, u in per_layer_names()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro" / "core" / "tables.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    start = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes: list[dict] = []
    if args.trace:
        passes = [run_worker(args.workload, args.seed, 1, f"{tag}-0", DEADLINE_S)]
        metrics = per_layer(passes[0])
    else:
        while True:
            t = time.monotonic()
            passes.append(run_worker(args.workload, args.seed, 0, f"{tag}-{len(passes)}",
                                     DEADLINE_S - (t - start)))
            measured = sum(p["wall_s"] for p in passes)
            elapsed, last = time.monotonic() - start, time.monotonic() - t
            if measured + passes[-1]["wall_s"] > args.seconds or elapsed + last > DEADLINE_S - 5:
                break
        metrics = end_to_end(passes)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": passes[-1]["env"], "metrics": metrics, "passes": passes}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    (OUT / f"fidelity-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(passes[-1]["fidelity"], indent=1, sort_keys=True))

    for p in passes:
        for f in p["failures"]:
            last = (f["detail"].strip().splitlines() or [""])[-1]
            print(f"FAILED {f['op']}: {last[:300]}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    print(f"  {'fail_rate':40s} {failed / attempted:14.4f} ratio  ({failed}/{attempted})")
    print("env " + json.dumps(passes[-1]["env"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
