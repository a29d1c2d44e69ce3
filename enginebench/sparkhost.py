"""The benchmark's own local-mode Spark session and what it reads from it.

The session keeps the test suite's semantics (64 shuffle partitions,
Arrow on, automatic broadcast joins off) but sizes driver memory from
this host, keeps every file it writes inside the checkout, and retains
enough job records that per-evaluation job counts are never truncated.
"""
from __future__ import annotations

import gc
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: A fixed heap and young generation: under G1's adaptive young
#: generation the JVM's VmHWM moved by 15-20% between runs of one
#: workload, which would drown any change in peak_rss_mb.
JVM_HEAP = "-XX:+UseParallelGC -XX:-UseAdaptiveSizePolicy -Xmn512m"
#: job and stage records the status store keeps; one csda evaluation
#: runs about a hundred jobs, and a run evaluates a dozen times at most.
RETAINED_JOBS = 100_000


def mem_total_gib() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / (1 << 20)
    raise RuntimeError("MemTotal missing from /proc/meminfo")


def driver_memory() -> str:
    """A quarter of the host's memory, between 1 and 4 GiB; the largest
    workload's JVM peaks at about 1.5 GB with a 3 GiB heap."""
    return f"{min(4, max(1, int(mem_total_gib() / 4)))}g"


def master() -> str:
    return f"local[{min(os.cpu_count() or 1, 4)}]"


def configure(tmp: Path, src: Path) -> None:
    """Set the environment the JVM and its Python workers start with.
    Must run before pyspark launches the JVM."""
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # No JVM, the launcher's included, writes its perf data file to /tmp.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    # PBME's mapInPandas workers import repro.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )
    mem = driver_memory()
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master {master()}",
        f"--driver-memory {mem}",
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData {JVM_HEAP} -Xms{mem}'",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.ui.retainedJobs={RETAINED_JOBS}",
        f"--conf spark.ui.retainedStages={RETAINED_JOBS}",
        "pyspark-shell",
    ])


def start_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("enginebench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_pid(spark) -> int:
    return int(spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid())


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of the driver JVM (VmHWM)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"VmHWM missing for pid {pid}")


def storage_mb(spark) -> float:
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return sum(info.memSize() for info in infos) / (1 << 20)


def retained_mb(spark, rounds: int = 6) -> float:
    """Storage memory still held once dropped frames are collected.

    Python's collector releases the py4j handles (py4j forwards the
    release from its own thread), ``System.gc`` makes the JVM objects
    unreachable, and the ContextCleaner then removes their blocks from
    its own thread. Some blocks go only after a later collection, so
    rounds repeat until two readings in a row agree."""
    jvm = spark.sparkContext._jvm
    last = None
    for _ in range(rounds):
        gc.collect()
        for _ in range(2):
            time.sleep(0.1)
            jvm.java.lang.System.gc()
        time.sleep(0.1)
        now = storage_mb(spark)
        if now == last:
            break
        last = now
    return now


def fingerprint(spark, seed: int) -> dict:
    import pyspark

    return {
        "cores": os.cpu_count(),
        "mem_total_gib": round(mem_total_gib(), 2),
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        "java": spark.sparkContext._jvm.java.lang.System.getProperty("java.version"),
        "master": spark.sparkContext.master,
        "driver_memory": driver_memory(),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "seed": seed,
    }


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except FileNotFoundError:
            continue
        for t in tasks:
            try:
                with open(f"/proc/{p}/task/{t}/children") as f:
                    kids = [int(k) for k in f.read().split()]
            except FileNotFoundError:
                continue
            out += kids
            todo += kids
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def shutdown(spark, timeout_s: float = 60.0) -> None:
    """Stop the session, end the JVM and wait for it and the Python
    workers it started to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    pid = jvm_pid(spark)
    workers = _descendants(pid)
    spark.stop()
    proc = gateway.proc
    gateway.shutdown()
    # The gateway JVM exits when its stdin closes.
    proc.stdin.close()
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + timeout_s
    while any(_alive(w) for w in workers):
        if time.monotonic() > deadline:
            for w in workers:
                if _alive(w):
                    os.kill(w, 9)
            break
        time.sleep(0.05)
