"""Per-layer spans recorded around the public calls into each layer.

Nothing inside ``src/`` is changed: :func:`install` replaces the names
the engine calls through with wrappers that record a span (name, start,
end, parent) and count calls, and :func:`uninstall` puts the originals
back, so untraced evaluations run the unmodified code. The engine
imports most layer functions by name, so the wrappers patch the names in
``repro.core.engine`` (and ``repro.core.pbme`` for ``pack_matrix``), not
only the defining modules. Spark actions are wrapped on the classic
DataFrame class, where Spark 4 defines them.

Every Spark action also sets a job group naming the evaluation and the
layer that called it, so jobs are attributed per evaluation and per
layer from ``statusTracker().getJobIdsForGroup``.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from pyspark.sql.classic import dataframe as classic_df
from pyspark.sql.readwriter import DataFrameWriter

import repro.core.dedup as dedup_mod
import repro.core.engine as engine_mod
import repro.core.pbme as pbme_mod
import repro.core.stats as stats_mod

# (owner, attribute, span name) of every wrapped call.
_TARGETS = (
    (engine_mod.RecStepEngine, "evaluate", "engine.evaluate"),
    (engine_mod, "analyze_program", "datalog.analyze"),
    (engine_mod, "compile_rule_body", "compiler.compile_rule_body"),
    (engine_mod, "project_head", "compiler.project_head"),
    (engine_mod, "apply_aggregation", "compiler.apply_aggregation"),
    (engine_mod, "dedup", "dedup.dedup"),
    (engine_mod, "choose_set_difference", "setdiff.choose"),
    (engine_mod, "set_difference", "setdiff.set_difference"),
    (stats_mod.StatsCollector, "analyze", "stats.analyze"),
    (pbme_mod, "evaluate", "pbme.evaluate"),
    (pbme_mod, "pack_matrix", "pbme.pack_matrix"),
    (classic_df.DataFrame, "localCheckpoint", "spark.checkpoint"),
    (classic_df.DataFrame, "count", "spark.count"),
    (classic_df.DataFrame, "collect", "spark.collect"),
    (classic_df.DataFrame, "toPandas", "spark.collect"),
    (DataFrameWriter, "parquet", "spark.write"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    """Spans and counters of the current traced evaluation."""

    sc: object
    eval_id: int = 0
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    groups: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def begin(self, eval_id: int) -> None:
        self.eval_id = eval_id
        self.spans, self.counts, self.groups = [], Counter(), set()

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        in_action = parent is not None and self.spans[parent].name.startswith("spark.")
        if name.startswith("spark.") and in_action:
            return fn(*args, **kwargs)  # an action calling another action
        if name.startswith("spark."):
            self._set_group(parent)
        if name == "dedup.dedup" and _packs(kwargs.get("fast"), args[0], kwargs.get("max_value")):
            self.counts["dedup.fast"] += 1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()
            if name.startswith("spark."):
                self.sc.setLocalProperty("spark.jobGroup.id", None)
        if name == "setdiff.choose":
            self.counts[f"setdiff.{out.method}"] += 1
        return out

    def _set_group(self, parent: int | None) -> None:
        layer = "driver"
        while parent is not None:
            layer = self.spans[parent].name.split(".")[0]
            if layer != "engine":
                break
            parent = self.spans[parent].parent
        group = f"eb{self.eval_id}:{layer}"
        self.groups.add(group)
        self.sc.setJobGroup(group, group)


def install(tracer: Tracer) -> None:
    for owner, attr, name in _TARGETS:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer._saved.append((owner, attr, original))
        setattr(owner, attr, _wrapper(tracer, name, original))


def uninstall(tracer: Tracer) -> None:
    while tracer._saved:
        owner, attr, original = tracer._saved.pop()
        setattr(owner, attr, original)


def _wrapper(tracer: Tracer, name: str, fn):
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapped


def _packs(fast, df, max_value) -> bool:
    """Whether ``dedup`` takes its compact-key path for these arguments."""
    return bool(fast) and max_value is not None and dedup_mod.can_pack(df, max_value)


def records(spans: list[Span]) -> list[dict]:
    """The spans as dicts, each with its self time: its duration minus
    the time its child spans cover."""
    out = [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "self_s": s.end - s.start}
        for s in spans
    ]
    for r in out:
        if r["parent"] is not None:
            out[r["parent"]]["self_s"] -= r["end"] - r["start"]
    return out


def _union_s(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Per-layer counts and times of one traced evaluation."""
    calls: Counter = Counter()
    secs: Counter = Counter()
    for s in tracer.spans:
        calls[s.name] += 1
        secs[s.name] += s.end - s.start
    evals = [(s.start, s.end) for s in tracer.spans if s.name == "engine.evaluate"]
    spark_in_eval = _union_s([
        (max(s.start, a), min(s.end, b))
        for s in tracer.spans if s.name.startswith("spark.")
        for a, b in evals if s.start < b and s.end > a
    ])
    jobs = _jobs_by_layer(tracer)
    total_jobs = sum(len(ids) for ids in jobs.values())
    chosen = tracer.counts["setdiff.opsd"] + tracer.counts["setdiff.tpsd"]
    return {
        "datalog.analyze_s": secs["datalog.analyze"],
        "compiler.calls": _layer_total(calls, "compiler"),
        "compiler.s": _layer_total(secs, "compiler"),
        "dedup.calls": calls["dedup.dedup"],
        "dedup.s": secs["dedup.dedup"],
        "dedup.fast_ratio": _ratio(tracer.counts["dedup.fast"], calls["dedup.dedup"]),
        "setdiff.calls": calls["setdiff.set_difference"],
        "setdiff.tpsd_ratio": _ratio(tracer.counts["setdiff.tpsd"], chosen),
        "setdiff.s": _layer_total(secs, "setdiff"),
        "stats.analyze_calls": calls["stats.analyze"],
        "stats.analyze_s": secs["stats.analyze"],
        "stats.analyze_jobs": len(jobs.get("stats", ())),
        "engine.iterations": iterations,
        "engine.driver_s": secs["engine.evaluate"] - spark_in_eval,
        "engine.jobs_per_iter": _ratio(total_jobs, iterations),
        "pbme.calls": calls["pbme.evaluate"],
        "pbme.pack_s": secs["pbme.pack_matrix"],
        "pbme.s": secs["pbme.evaluate"],
        "spark.jobs": total_jobs,
        "spark.checkpoint_calls": calls["spark.checkpoint"],
        "spark.checkpoint_s": secs["spark.checkpoint"],
        "spark.count_calls": calls["spark.count"],
        "spark.count_s": secs["spark.count"],
        "spark.collect_s": secs["spark.collect"],
        "spark.failed_tasks": _failed_tasks(tracer, jobs),
    }


#: per-layer counts that must repeat exactly across evaluations of one seed
COUNTS = (
    "compiler.calls", "dedup.calls", "setdiff.calls", "stats.analyze_calls",
    "stats.analyze_jobs", "engine.iterations", "pbme.calls", "spark.jobs",
    "spark.checkpoint_calls", "spark.count_calls",
)


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_ratio", "_per_iter")):
        return "ratio"
    return "count"


def _layer_total(by_span: Counter, layer: str) -> float:
    return sum(v for name, v in by_span.items() if name.startswith(layer + "."))


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _jobs_by_layer(tracer: Tracer) -> dict[str, list[int]]:
    st = tracer.sc.statusTracker()
    return {g.split(":", 1)[1]: st.getJobIdsForGroup(g) for g in tracer.groups}


def _failed_tasks(tracer: Tracer, jobs: dict[str, list[int]]) -> int:
    st = tracer.sc.statusTracker()
    failed = 0
    for ids in jobs.values():
        for job_id in ids:
            job = st.getJobInfo(job_id)
            for stage_id in job.stageIds if job else ():
                stage = st.getStageInfo(stage_id)
                failed += stage.numFailedTasks if stage else 0
    return failed
