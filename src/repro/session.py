"""The one local-mode Spark session builder, for tests and jobs alike.

``spark.driver.memory`` and the master are read when pyspark launches
the JVM gateway, not from SparkConf, so :func:`build_session` puts them
in ``PYSPARK_SUBMIT_ARGS`` before the first session starts. Broadcast
joins are disabled session-wide so OOF's explicit broadcast hints are
the only ones.

Jobs are written as ``main(spark)`` functions so tests can call them
with the pytest session fixture; the ``__main__`` blocks build their
session here for ``spark-submit jobs/<name>.py``.
"""
import os

CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",  # v2; "max" when unlimited
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",  # v1; ~8.6e9 GiB when unlimited
)
MEMINFO = "/proc/meminfo"


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def _mem_total_gib() -> float | None:
    for line in (_read(MEMINFO) or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / (1 << 20)
    return None


def _driver_mem() -> tuple[str, str]:
    """The driver JVM's heap and where it came from.

    ``SPARK_DRIVER_MEM`` wins; otherwise 75% of the cgroup memory limit;
    otherwise half of MemTotal clamped to 2..8 GiB. A cgroup limit that
    is not below MemTotal (v2 ``max``, v1's "unlimited" sentinel, or a
    sandbox that does not pass the host limit through) is no limit.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m, "env"
    total = _mem_total_gib()
    for p in CGROUP_LIMITS:
        raw = (_read(p) or "").strip()
        try:
            gib = int(raw) / (1 << 30)
        except ValueError:
            continue
        if 1 <= gib < (total or 1024):
            return f"{max(1, int(gib * 0.75))}g", f"cgroup:{p}={raw}"
    if total is None:
        return "2g", "fallback"
    return f"{min(8, max(2, int(total / 2)))}g", "meminfo"


def build_session(app_name: str):
    """Start (or return) the local session: driver memory and master
    from the environment, 64 shuffle partitions, Arrow on, automatic
    broadcast joins off, and no console progress bar (it would
    interleave ``[Stage N: ...]`` bars with the jobs' result lines)."""
    mem, src = _driver_mem()
    os.environ.setdefault("SPARK_DRIVER_MEM", mem)
    os.environ.setdefault("_SPARK_DRIVER_MEM_SRC", src)
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
