"""The RecStep interpreter: Algorithm 1 of the paper on Spark SQL.

Each stratum (in stratification order) runs one semi-naive loop:

    repeat
      for each IDB R in the stratum:
        R_t  <- uieval(rules(R, s))        # UIE: one unioned plan
        Rδ   <- dedup(R_t)                 # FAST-DEDUP
        analyze(Rδ, R)                     # OOF breakpoint
        ΔR   <- Rδ - R                     # DSD: OPSD or TPSD
        R    <- R ∪ ΔR
    until ∀R: ΔR = ∅

The first round runs every rule of each IDB over the current relations;
R is still empty, so R = ΔR = Rδ and no set difference runs. Each later
round runs the Δ-rewrites: one subquery per same-stratum body atom whose
Δ is non-empty. A non-recursive stratum is the loop stopping after its
first round. The per-IDB step has two variants:

- *set*: the step above;
- *meld*: a MIN/MAX aggregate inside a recursive stratum (CC, SSSP)
  keeps one row per group with the running best. ΔR is the candidate
  groups that improve on R, and R ∪ ΔR replaces the improved groups —
  the monotonic-aggregate semantics of BigDatalog [12].

Other aggregate IDBs live in non-recursive strata and are grouped after
dedup. Around the loop sit the EOST materialization policy (in-memory
``localCheckpoint`` vs per-iteration Parquet commit) and the PBME fast
path for TC/SG-shaped programs (Section 5.3).

Spark specifics: every per-iteration state frame is materialized with a
truncated lineage (``localCheckpoint``) so plans do not grow across
iterations. Each materialization is one Spark action that also yields
the frame's row count (an ``Observation`` rides on the checkpoint or
the Parquet write), so |Rδ|, |ΔR| and |R| cost no extra query. R ∪ ΔR
is coalesced to the session's default parallelism, so R's partition
count stays bounded however many Δs were appended. Because the session
disables automatic broadcast, all broadcasts are explicit OOF decisions.
"""
from __future__ import annotations

import shutil
import tempfile
import uuid
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core import pbme
from repro.core.compiler import (
    apply_aggregation,
    compile_rule_body,
    empty_relation,
    load_relations,
    positional_columns,
    project_head,
)
from repro.core.dedup import dedup
from repro.core.options import RecStepOptions
from repro.core.setdiff import choose_set_difference, set_difference
from repro.core.stats import StatsCollector
from repro.datalog.analyzer import AnalyzedProgram, Stratum, analyze as analyze_program
from repro.datalog.ast import Program


@dataclass
class EngineMetrics:
    """Observable evaluation behaviour, used by tests and benchmarks."""

    iterations: dict[str, int] = field(default_factory=dict)
    setdiff_choices: list[str] = field(default_factory=list)
    analyze_calls: int = 0
    pbme_used: bool = False


@dataclass
class _Evaluation:
    """The state of one ``evaluate`` call."""

    analyzed: AnalyzedProgram
    rels: dict[str, DataFrame]
    types: dict[str, tuple[str, ...]]
    stats: StatsCollector
    #: FAST-DEDUP's packing bound per IDB (``None``: generic dedup)
    bounds: dict[str, int | None]
    #: DSD's μ per IDB, fed back from the previous round's set difference
    mu: dict[str, float | None] = field(default_factory=dict)


class RecStepEngine:
    """General-purpose Datalog engine over a SparkSession backend."""

    def __init__(self, spark: SparkSession, options: RecStepOptions | None = None):
        self.spark = spark
        self.options = options or RecStepOptions()
        self.metrics = EngineMetrics()
        self._commit_dir: str | None = None
        # The row-count metric every materialization observes, built once:
        # each Column built costs Py4J round trips to the JVM.
        self._rows_metric = F.count(F.lit(1)).alias("rows")

    # ------------------------------------------------------------------
    def evaluate(
        self,
        program_or_analyzed: Program | AnalyzedProgram,
        edb: dict[str, DataFrame],
    ) -> dict[str, DataFrame]:
        """Evaluate the program over the EDB frames; returns IDB frames
        with positional columns ``c0..``. Inputs may have any column
        names (taken positionally) and are deduplicated on entry."""
        analyzed = (
            program_or_analyzed
            if isinstance(program_or_analyzed, AnalyzedProgram)
            else analyze_program(program_or_analyzed)
        )
        self.metrics = EngineMetrics()
        opts = self.options
        stats = StatsCollector(opts.oof)

        rels, types = load_relations(self.spark, analyzed, edb)
        edb_bound: int | None = 0
        for pred in analyzed.edbs:
            rows, bound = _profile(rels[pred])
            stats.record(pred, rows)
            if bound is None or edb_bound is None:
                edb_bound = None  # negative ids: compact key unusable
            else:
                edb_bound = max(edb_bound, bound)

        # PBME fast path (Section 5.3): TC/SG-shaped program over a
        # small enough active domain of integer ids.
        shape = pbme.match_program(analyzed) if opts.pbme and edb_bound is not None else None
        if (
            shape is not None
            and edb_bound + 1 <= opts.pbme_max_vertices
            and set(types[shape.edb]) == {"long"}
        ):
            self.metrics.pbme_used = True
            return pbme.evaluate(self.spark, shape, rels, n=edb_bound + 1)

        for pred in analyzed.idbs:
            stats.record(pred, 0)
        ev = _Evaluation(analyzed, rels, types, stats, analyzed.value_bounds(edb_bound))
        self._commit_dir = None if opts.eost else tempfile.mkdtemp(prefix="recstep_commits_")
        try:
            for stratum in analyzed.strata:
                self._evaluate_stratum(ev, stratum)
            self.metrics.analyze_calls = stats.analyze_calls
            # EOST off: the commit directory is deleted below; pin the
            # results in memory before handing them back.
            return {
                p: rels[p] if opts.eost else rels[p].localCheckpoint(eager=True)
                for p in analyzed.idbs
            }
        finally:
            if self._commit_dir is not None:
                shutil.rmtree(self._commit_dir, ignore_errors=True)
                self._commit_dir = None

    # -- helpers ---------------------------------------------------------
    def _materialize(self, df: DataFrame, name: str) -> tuple[DataFrame, int]:
        """EOST on: keep in memory; EOST off: commit to Parquet and read
        back — the per-query transaction I/O RecStep removes. Returns
        the frame and its row count, both from that one action."""
        obs = Observation()
        df = df.observe(obs, self._rows_metric)
        if self.options.eost:
            frame = df.localCheckpoint(eager=True)
        else:
            assert self._commit_dir is not None
            path = f"{self._commit_dir}/{name}_{uuid.uuid4().hex}"
            df.write.mode("overwrite").parquet(path)
            frame = self.spark.read.parquet(path)
        return frame, obs.get["rows"]

    def _bounded(self, df: DataFrame) -> DataFrame:
        """``df`` in at most the session's default parallelism partitions:
        each R ∪ ΔR would otherwise append ΔR's partitions to R's."""
        return df.coalesce(self.spark.sparkContext.defaultParallelism)

    def _uieval(self, parts: list[DataFrame], types: tuple[str, ...]) -> DataFrame:
        """UNION ALL of the subqueries deriving one IDB.

        UIE on: a single lazy unioned plan, evaluated as one query (all
        subqueries share the scan/broadcast work and the cores).
        UIE off: each subquery is materialized separately (its own query
        with its own overhead), then the results are appended.
        """
        if not parts:
            return empty_relation(self.spark, types)
        if not self.options.uie:
            parts = [self._materialize(p, "subquery")[0] for p in parts]
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        return out

    def _subqueries(
        self, ev: _Evaluation, pred: str, deltas: dict[str, DataFrame] | None
    ) -> list[DataFrame]:
        """The subqueries deriving ``pred``: one per rule, or with
        ``deltas`` the semi-naive Δ-rewrites — one per body atom whose
        relation has a Δ (the union-of-subqueries construction of
        Section 3.2 / Figure 4)."""
        parts = []
        for rule in ev.analyzed.program.rules_for(pred):
            if deltas is None:
                sites = [(None, None, None)]
            else:
                sites = [
                    (i, deltas[a.pred], f"Δ{a.pred}")
                    for i, a in enumerate(rule.positive_body)
                    if a.pred in deltas
                ]
            for delta_idx, delta, delta_name in sites:
                body = compile_rule_body(
                    rule,
                    ev.rels,
                    delta_idx=delta_idx,
                    delta=delta,
                    delta_name=delta_name,
                    stats=ev.stats,
                    broadcast_rows=self.options.broadcast_rows,
                )
                parts.append(
                    project_head(rule, body, types=ev.types[pred], spark=self.spark)
                )
        return parts

    # -- the semi-naive loop ---------------------------------------------
    def _evaluate_stratum(self, ev: _Evaluation, stratum: Stratum) -> None:
        """Algorithm 1's repeat loop over one stratum. ``deltas`` holds
        the non-empty ΔR of each IDB, updated as each IDB's step runs."""
        deltas: dict[str, DataFrame] = {}
        first = True
        while first or (stratum.recursive and deltas):
            for pred in sorted(stratum.predicates):
                parts = self._subqueries(ev, pred, None if first else deltas)
                delta, rows = self._step(
                    ev, pred, self._uieval(parts, ev.types[pred]), first=first
                )
                if rows:
                    deltas[pred] = delta
                else:
                    deltas.pop(pred, None)
                self.metrics.iterations[pred] = self.metrics.iterations.get(pred, 0) + 1
            first = False

    def _step(
        self, ev: _Evaluation, pred: str, raw: DataFrame, *, first: bool
    ) -> tuple[DataFrame, int]:
        """Merge one round's candidates for ``pred`` into R; returns ΔR
        and |ΔR|."""
        opts, stats = self.options, ev.stats
        spec = ev.analyzed.agg_specs.get(pred)
        meld = pred in ev.analyzed.meld_idbs
        cands = raw
        if not meld:
            cands = dedup(
                raw,
                fast=opts.fast_dedup,
                max_value=ev.bounds[pred] if opts.fast_dedup else None,
            )
        if spec is not None:
            cands = apply_aggregation(
                cands,
                spec.group_positions,
                spec.agg_position,
                spec.op,
                out_type=ev.types[pred][spec.agg_position],
            )

        if first:
            # R is empty: R = ΔR = Rδ.
            rel, rows = self._materialize(cands, pred)
            ev.rels[pred] = rel
            if stats.analyze(pred, rel, rows) is None:
                stats.record(pred, rows)  # DSD needs |R| under OOF-NA too
            stats.record(f"Δ{pred}", rows)
            return rel, rows

        if meld:
            # ΔR: candidate groups whose best value strictly improves on
            # (or is absent from) R; R keeps the other groups' rows.
            val = f"c{spec.agg_position}"
            group = [f"c{i}" for i in spec.group_positions]
            new, old = F.col(val), F.col("__old")
            joined = cands.join(
                ev.rels[pred].withColumnRenamed(val, "__old"), on=group, how="left"
            )
            better = new < old if spec.op == "MIN" else new > old
            delta, rows = self._materialize(
                joined.filter(old.isNull() | better).select(
                    *positional_columns(len(group) + 1)
                ),
                f"{pred}_delta",
            )
            merged = ev.rels[pred].join(delta.select(*group), on=group, how="left_anti")
            ev.rels[pred], total = self._materialize(
                self._bounded(merged.union(delta)), pred
            )
            stats.record(pred, total)
        else:
            r_delta, new_rows = self._materialize(cands, f"{pred}_rdelta")
            stats.analyze(f"Rδ{pred}", r_delta, new_rows)
            if opts.dsd:
                method = choose_set_difference(
                    stats.rows(pred), new_rows, opts.alpha, ev.mu.get(pred)
                ).method
            else:
                method = opts.static_setdiff
            self.metrics.setdiff_choices.append(method)
            delta, rows = self._materialize(
                set_difference(
                    r_delta,
                    ev.rels[pred],
                    method=method,
                    broadcast_threshold_rows=opts.broadcast_rows,
                    new_rows=new_rows,
                ),
                f"{pred}_delta",
            )
            # μ = |Rδ| / |r| where r = Rδ ∩ R = Rδ - ΔR.
            overlap = new_rows - rows
            ev.mu[pred] = new_rows / overlap if overlap > 0 else None
            if rows:
                ev.rels[pred], total = self._materialize(
                    self._bounded(ev.rels[pred].union(delta)), pred
                )
                stats.record(pred, total)
        stats.record(f"Δ{pred}", rows)
        return delta, rows


def _profile(df: DataFrame) -> tuple[int, int | None]:
    """Row count and active-domain bound of an EDB, in one aggregate
    query. The bound is the max value over integral columns if all are
    non-negative (what the compact dedup key needs); ``None`` when any
    integral value is negative (packing would smear sign bits). Frames
    without integral columns have bound 0 (nothing to pack there)."""
    int_cols = [c for c, t in df.dtypes if t in ("bigint", "int", "smallint", "tinyint")]
    aggs = [F.count(F.lit(1)).alias("rows")]
    for c in int_cols:
        aggs += [F.max(F.col(c)).alias(f"mx_{c}"), F.min(F.col(c)).alias(f"mn_{c}")]
    row = df.agg(*aggs).collect()[0].asDict()
    maxima = [row[f"mx_{c}"] for c in int_cols if row[f"mx_{c}"] is not None]
    minima = [row[f"mn_{c}"] for c in int_cols if row[f"mn_{c}"] is not None]
    if not maxima:
        return row["rows"], 0
    if min(minima) < 0:
        return row["rows"], None
    return row["rows"], int(max(maxima))
