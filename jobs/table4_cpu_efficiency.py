"""Table 4 reproduction: CPU efficiency of every system on every workload.

Runs each supported (system × workload) cell of the paper's Table 4 on
the scaled datasets, computes ce = 1/(runtime × cores) (Appendix B), and
prints the measured table next to the paper's published numbers.
"-" cells are unsupported combinations (same cells as the paper);
Distributed-BigDatalog is shown from the paper only (cluster-scale, see
DESIGN.md).

Usage: ``spark-submit jobs/table4_cpu_efficiency.py [workload ...]``
(defaults to all eight). Also emits ``table4_results.json`` next to the
repo root for EXPERIMENTS.md bookkeeping.
"""
import json
import sys
from pathlib import Path

from pyspark.sql import SparkSession

from repro.session import build_session
from repro.workloads.registry import (
    PAPER_DISTRIBUTED_BIGDATALOG_CE,
    SYSTEMS,
    WORKLOADS,
    cpu_efficiency,
    run_system,
    supported,
    system_cores,
)


def main(
    spark: SparkSession,
    workload_names: list[str] | None = None,
    *,
    repeats: int = 2,
) -> dict:
    """Run the grid; returns {workload: {system: {runtime_s, cores, ce}}}.

    Like the paper (Section 6.3), each Spark-engine cell is run
    ``repeats`` times with the first run discarded (JIT/caching warmup)
    and the rest averaged; the single-process baselines have no warmup
    effects and run once.
    """
    names = workload_names or list(WORKLOADS)
    results: dict[str, dict] = {}
    for wname in names:
        w = WORKLOADS[wname]
        edb = w.edb_factory()
        results[wname] = {}
        for system in SYSTEMS:
            if not supported(system, wname):
                continue
            n_runs = repeats if system in ("recstep", "bigdatalog") else 1
            times = [
                run_system(system, wname, spark, edb=edb) for _ in range(n_runs)
            ]
            measured = times[1:] if len(times) > 1 else times
            runtime = sum(measured) / len(measured)
            cores = system_cores(system, spark)
            results[wname][system] = {
                "runtime_s": runtime,
                "all_runs_s": times,
                "cores": cores,
                "ce": cpu_efficiency(runtime, cores),
            }
            print(
                f"[table4] {wname:6s} {system:10s} "
                f"t={runtime:8.2f}s n={cores:2d} ce={cpu_efficiency(runtime, cores):.2e}"
                f"  (runs: {', '.join(f'{t:.1f}' for t in times)})",
                flush=True,
            )
    print()
    print(format_table(results))
    return results


def format_table(results: dict) -> str:
    """Render measured vs paper rows in the paper's Table 4 layout."""
    header = (
        f"{'workload':<18}{'':10}"
        + "".join(f"{s:>14}" for s in ("graspan", "bigdatalog", "dist-bd", "souffle", "recstep"))
    )
    lines = [header, "-" * len(header)]
    for wname, per_system in results.items():
        w = WORKLOADS[wname]
        label = f"{wname.upper()} ({w.dataset_label})"

        def cell(val):
            return f"{val:>14.2e}" if val is not None else f"{'-':>14}"

        paper_cells = [
            w.paper_ce.get("graspan"),
            w.paper_ce.get("bigdatalog"),
            PAPER_DISTRIBUTED_BIGDATALOG_CE.get(wname),
            w.paper_ce.get("souffle"),
            w.paper_ce.get("recstep"),
        ]
        mine_cells = [
            per_system.get("graspan", {}).get("ce"),
            per_system.get("bigdatalog", {}).get("ce"),
            None,
            per_system.get("souffle", {}).get("ce"),
            per_system.get("recstep", {}).get("ce"),
        ]
        lines.append(f"{label:<18}{'paper':>10}" + "".join(cell(v) for v in paper_cells))
        lines.append(f"{'':<18}{'measured':>10}" + "".join(cell(v) for v in mine_cells))
    return "\n".join(lines)


if __name__ == "__main__":
    spark = build_session("table4-cpu-efficiency")
    out = main(spark, sys.argv[1:] or None)
    Path("table4_results.json").write_text(json.dumps(out, indent=2))
    spark.stop()
