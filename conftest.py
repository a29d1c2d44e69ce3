import os
import sys

import pytest

from repro.session import build_session


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, built by
    :func:`repro.session.build_session` (the jobs use the same one)."""
    s = build_session("repro")
    # The driver heap in use and the rule that chose it (README § Spark
    # target): a reader of the test log can tell a real cgroup limit
    # from the MemTotal fallback.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
