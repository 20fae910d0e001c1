"""The one Spark session configuration of the reproduction.

``get_session`` serves both the test suite's ``spark`` fixture
(``conftest.py``) and ``jobs/run_all.py``, so the jobs measure the plans
the tests verify: shuffle partitions (64 unless
``SPARK_SHUFFLE_PARTITIONS`` says otherwise), Arrow transfer on, and
broadcast joins disabled so the aggregations exercise real shuffles.

Master and driver memory are read when the JVM launches, not from the
session builder, so ``get_session`` puts them in ``PYSPARK_SUBMIT_ARGS``
(unless that is already set) before the first session starts the JVM:
the master is ``SPARK_MASTER`` or ``local[*]``, the driver memory
``SPARK_DRIVER_MEM`` or ~75 % of the container's memory limit. Under
``spark-submit`` the JVM already runs, and the submit command line's
master and memory hold.
"""

from __future__ import annotations

import os

from pyspark.sql import SparkSession


def _driver_memory() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback. The source of the value is recorded in
    ``_SPARK_DRIVER_MEM_SRC``.

    The cgroup read is best-effort: a sandbox's sysfs emulation may not
    pass the host limit through. An unbounded value (cgroup-v1's ~9.2e18
    "unlimited" sentinel, or a missing limit) is treated as absent so the
    JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def get_session(app_name: str) -> SparkSession:
    """Build (or reuse) the reproduction's SparkSession."""
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_memory())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app_name)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
