import os
import sys

import pytest
from pyspark.sql import SparkSession

from repro.session import get_session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, configured
    by ``repro.session`` exactly as ``jobs/run_all.py`` configures its own.
    """
    s = get_session("repro")
    # One line in the test output that tells whether the driver memory
    # came from the environment, the cgroup limit or the fallback.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
