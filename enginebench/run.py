"""Benchmark of ``RecStepEngine.evaluate``, measured from outside the engine.

One closed-loop client in one process hands the engine a parsed program
and loaded EDB frames, waits until every returned IDB frame is counted,
checks the tuples against an independent DuckDB reference, and starts
the next evaluation. Usage, from the root of a checkout:

    python3 enginebench/run.py --workload csda --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (session start
plus the median of repeated EDB generation and loading), ``first_eval_s``
(the first evaluation of the fresh session), ``eval_s`` (the median warm
evaluation), ``peak_rss_mb`` (the JVM's VmHWM) and ``retained_mb``
(storage memory held after the third evaluation's frames are dropped).
``--trace 1`` runs the same protocol with half of the warm evaluations
traced (see ``spans.py``), reports per-layer metrics and the tracing
overhead, and writes the spans to ``.enginebench_spans/``. Both print
every figure by name and unit, then one JSON line; end-to-end metrics
come from untraced evaluations only.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
#: warm evaluations per run at least; traced runs need this many of
#: each kind
MIN_WARM = 3
MIN_TRACED = 2
#: evaluation (counting the first as 0) after which retained_mb is read;
#: it is read again after the last one, so that growth shows
RETAINED_AT = 2
#: no evaluation starts this long after the process started
DEADLINE_S = 130.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "engine.py").is_file():
        print(f"enginebench: {SRC}/repro not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"enginebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".enginebench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run_", dir=tmp_root))
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, tmp: Path) -> int:
    import sparkhost

    t_process = time.perf_counter()
    sparkhost.configure(tmp, SRC)
    spark = sparkhost.start_session()
    session_s = time.perf_counter() - t_process
    try:
        return _measure(args, spark, session_s, t_process)
    finally:
        sparkhost.shutdown(spark)


def _measure(args, spark, session_s: float, t_process: float) -> int:
    import numpy as np

    import sparkhost
    import spans
    from repro.core import RecStepEngine, RecStepOptions
    from repro.core.setdiff import calibrate_alpha
    from repro.datalog import programs
    from workloads import WORKLOADS, reference, sorted_rows

    w = WORKLOADS[args.workload]
    host = sparkhost.fingerprint(spark, args.seed)
    host["workload"] = w.name
    expected = reference(w, w.make_edb(args.seed))

    loads = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        frames = {
            name: spark.createDataFrame(pdf).localCheckpoint()
            for name, pdf in w.make_edb(args.seed).items()
        }
        loads.append(time.perf_counter() - t)
    setup_s = session_s + statistics.median(loads)

    program = programs.get_program(w.program)
    tracer = spans.Tracer(spark.sparkContext)
    records = []

    def evaluate(kind: str) -> dict:
        rec = {"i": len(records), "kind": kind, "ok": False}
        records.append(rec)
        engine = RecStepEngine(spark, RecStepOptions(**w.options))
        if kind == "traced":
            tracer.begin(rec["i"])
            spans.install(tracer)
        try:
            t = time.perf_counter()
            out = engine.evaluate(program, frames)
            rec["counts"] = {pred: out[pred].count() for pred in out}
            rec["eval_s"] = time.perf_counter() - t
        except Exception:
            traceback.print_exc()
            return rec
        finally:
            if kind == "traced":
                spans.uninstall(tracer)
        rec["iterations"] = sum(engine.metrics.iterations.values())
        if kind == "traced":
            rec["layers"] = spans.layer_metrics(tracer, rec["iterations"])
            rec["spans"] = spans.records(tracer.spans)
        rec["ok"] = set(out) == {w.idb} and np.array_equal(
            sorted_rows(out[w.idb].toPandas().to_numpy(dtype="int64")), expected
        )
        del out, engine
        if rec["i"] == RETAINED_AT:
            rec["retained_mb"] = sparkhost.retained_mb(spark)
        return rec

    evaluate("first")
    warm_start = time.perf_counter()
    while True:
        n_plain = sum(r["kind"] == "warm" for r in records)
        n_traced = sum(r["kind"] == "traced" for r in records)
        done = (
            time.perf_counter() - warm_start >= args.seconds
            and n_plain >= (MIN_TRACED if args.trace else MIN_WARM)
            and n_traced >= (MIN_TRACED if args.trace else 0)
        )
        if done or time.perf_counter() - t_process > DEADLINE_S:
            break
        # Traced runs alternate untraced, traced, traced, untraced, so
        # that the JVM's continued warm-up does not bias the overhead.
        trace_next = args.trace and (n_plain + n_traced) % 4 in (1, 2)
        evaluate("traced" if trace_next else "warm")

    records[-1]["retained_mb"] = sparkhost.retained_mb(spark)
    peak = sparkhost.peak_rss_mb(sparkhost.jvm_pid(spark))
    failed = sum(not r["ok"] for r in records)
    attempted = len(records)
    warm = [r["eval_s"] for r in records if r["kind"] == "warm" and r["ok"]]
    traced = [r for r in records if r["kind"] == "traced" and r["ok"]]
    # Iteration, call and job counts must repeat exactly within a seed.
    repeat_ok = len({r.get("iterations") for r in records}) == 1 and all(
        r["layers"][k] == traced[0]["layers"][k] for r in traced for k in spans.COUNTS
    )

    for r in records:
        print("eval " + json.dumps({k: v for k, v in r.items() if k not in ("layers", "spans")}))
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} evaluations)")
    if not repeat_ok:
        print("enginebench: counts differ between evaluations of one seed", file=sys.stderr)
    if warm:
        print(f"eval_s samples={len(warm)} min={min(warm):.4f} max={max(warm):.4f}"
              " (under 20 samples: no percentile above the median is supported)")
    end_to_end = {
        "eval_s": (_median(warm), "s"),
        "first_eval_s": (records[0].get("eval_s", NAN), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MB"),
        "retained_mb": (records[RETAINED_AT].get("retained_mb", NAN)
                        if len(records) > RETAINED_AT else NAN, "MB"),
    }
    metrics = end_to_end
    if args.trace:
        metrics = {
            k: (_median([r["layers"][k] for r in traced]), spans.unit(k))
            for k in (traced[0]["layers"] if traced else ())
        }
        metrics["trace.overhead_ratio"] = (
            _median([r["eval_s"] for r in traced]) / _median(warm) - 1, "ratio"
        )
        # DSD's α on this host (Appendix A, equation 7), recorded beside
        # the engine's fixed value and never fed to the engine.
        host["alpha_engine"] = RecStepOptions().alpha
        host["alpha_estimated"] = calibrate_alpha(
            spark, pair_sizes=((10_000, 100_000),), runs=2
        )
        print(f"traced evaluations {len(traced)}, untraced {len(warm)}")
        out = ROOT / ".enginebench_spans" / f"{w.name}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({r["i"]: r["spans"] for r in traced}))
        print(f"spans of the traced evaluations written to {out}")
    print("host " + json.dumps(host))
    for name, (value, unit) in {**end_to_end, **metrics}.items():
        print(f"{name} {value:.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0 and repeat_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": None if math.isnan(v) else v, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }))
    return 0


NAN = float("nan")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else NAN


if __name__ == "__main__":
    sys.exit(main())
