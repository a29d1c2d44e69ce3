"""Figure 2 (as a table): the per-optimization ablation on CSPA.

The paper's core evidence that each Section 5 technique matters is the
CSPA/httpd ablation: runtime with each optimization turned off, as a
percentage of RecStep-NO-OP (all off = 100%). This job reruns that
experiment on the scaled CSPA workload and prints the same normalized
percentages.

The optimizations act on Spark rounds, so every :data:`ABLATIONS`
configuration runs all rounds on Spark (``local_rows=0``); one extra
row, ``default``, times the default engine, whose small rounds run on
the driver. One untimed evaluation first warms the session, so that no
configuration carries its cold start, and each result is counted after
its timed region.

Usage: ``spark-submit jobs/ablation_optimizations.py [scale]``
"""
import sys
import time

from pyspark.sql import SparkSession

from repro import synth_data
from repro.core import RecStepEngine, RecStepOptions
from repro.core.options import ABLATIONS
from repro.datalog import programs
from repro.session import build_session

# Paper's Figure 2 percentages on CSPA/httpd (RecStep-NO-OP = 100%).
PAPER_PERCENTAGES = {
    "all_on": 24.0,
    "oof_na": 63.0,
    "oof_fa": 41.0,
    "all_off": 100.0,
}
CONFIGS = {**ABLATIONS, "default": RecStepOptions()}


def main(spark: SparkSession, scale: float = 0.5) -> dict[str, float]:
    edb = {
        k: spark.createDataFrame(v).localCheckpoint()
        for k, v in synth_data.cspa_input(scale=scale, seed=50).items()
    }
    program = programs.get_program("cspa")
    RecStepEngine(spark, ABLATIONS["all_on"]).evaluate(program, edb)  # warm-up
    runtimes: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    for name, options in CONFIGS.items():
        engine = RecStepEngine(spark, options)
        t0 = time.perf_counter()
        out = engine.evaluate(program, edb)
        runtimes[name] = time.perf_counter() - t0
        counts[name] = {idb: df.count() for idb, df in out.items()}
        print(f"[ablation] {name:<14} {runtimes[name]:7.2f}s", flush=True)
        # An optimization changes speed, never the fixpoint.
        if counts[name] != counts["all_on"]:
            raise RuntimeError(
                f"{name} derived {counts[name]}, all_on derived {counts['all_on']}"
            )

    base = runtimes["all_off"]
    print(f"\n{'config':<16}{'runtime':>10}{'% of NO-OP':>12}{'paper %':>10}")
    for name, t in runtimes.items():
        paper = PAPER_PERCENTAGES.get(name)
        print(
            f"{name:<16}{t:>9.2f}s{100 * t / base:>11.1f}%"
            + (f"{paper:>9.1f}%" if paper is not None else f"{'-':>10}")
        )
    return runtimes


if __name__ == "__main__":
    spark = build_session("ablation-optimizations")
    main(spark, float(sys.argv[1]) if len(sys.argv) > 1 else 0.5)
    spark.stop()
