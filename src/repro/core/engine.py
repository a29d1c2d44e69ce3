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

Each round picks its executor once, for the whole stratum: when every
relation the round reads (each EDB and IDB its rules scan, and the
stratum's own R, which bounds each Δ) is within
``RecStepOptions.local_rows`` rows, the round runs on the driver over
pandas (:mod:`repro.core.local`), interpreting the same rule plans with
the same dedup, set-difference, meld and aggregation semantics;
otherwise on Spark. The row counts are the ones OOF already records, so
the choice runs no Spark job. On the driver the bound caps each join
slice and R ∪ ΔR, not the round's candidates: a join that would pass
``local_rows`` runs in slices of its left side (Δ when it is one of the
first two scans) whose joins each fit, and each slice is merged into ΔR
before the next is built. With FAST-DEDUP a set IDB's R is a sorted
array of packed keys that each round probes and extends, so a round
costs O(|Δ|) plus one merge of ΔR into R. A step in which one row's fan-out or R ∪ ΔR
would pass ``local_rows``, or whose data pandas would answer
differently (NULLs, overflow, strings meeting numbers), raises
``local.Fallback`` before it changes anything and runs on Spark; from
then on, as once R outgrows the bound, the stratum stays on Spark.
Each relation is held in the form that produced it and converted on
demand, at most once per version: ``toPandas`` (or a decode of its
keys) for a driver round, and a Parquet write read back by Spark for a
Spark round or a result (:meth:`_frame`). With ``local_rows`` > 0 an
EDB of at most that many rows enters on the driver, collected in one
job capped at ``local_rows + 1`` rows; a larger one (or one with NULLs)
is deduplicated and checkpointed on Spark. A result that reads the
evaluation's files is pinned with ``localCheckpoint`` before they are
deleted (:meth:`_result`), so an evaluation crosses the Spark boundary
once on the way in and once on the way out.

Spark specifics: every per-iteration state frame is materialized with a
truncated lineage (``localCheckpoint``) so plans do not grow across
iterations. Each materialization is one Spark action that also yields
the frame's row count (an ``Observation`` rides on the checkpoint or
the Parquet write), so |Rδ|, |ΔR| and |R| cost no extra query. R ∪ ΔR
is coalesced to the session's default parallelism, so R's partition
count stays bounded however many Δs were appended. A materialized frame
is released (its checkpoint unpersisted, or its Parquet commit deleted)
as soon as the frame that supersedes it exists, so storage stays
bounded over long runs; the EDB checkpoints and whatever else no result
reads are released when the evaluation ends. Because the session disables automatic
broadcast, all broadcasts are explicit OOF decisions.
"""
from __future__ import annotations

import shutil
import tempfile
import uuid
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core import local, pbme
from repro.core.compiler import (
    apply_aggregation,
    compile_rule_body,
    empty_relation,
    load_relations,
    positional_columns,
    project_head,
    schema,
)
from repro.core.dedup import dedup
from repro.core.local import Relation
from repro.core.options import RecStepOptions
from repro.core.setdiff import choose_set_difference, set_difference
from repro.core.stats import StatsCollector
from repro.datalog.analyzer import AnalyzedProgram, Stratum, analyze as analyze_program
from repro.datalog.ast import Program, Rule

@dataclass
class EngineMetrics:
    """Observable evaluation behaviour, used by tests and benchmarks."""

    iterations: dict[str, int] = field(default_factory=dict)
    setdiff_choices: list[str] = field(default_factory=list)
    analyze_calls: int = 0
    pbme_used: bool = False
    #: stratum rounds whose every step ran on the driver
    local_rounds: int = 0


@dataclass
class _Evaluation:
    """The state of one ``evaluate`` call."""

    analyzed: AnalyzedProgram
    rels: dict[str, Relation]
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
        #: the evaluation's Parquet files: commits (EOST off) and relations
        #: handed from the driver to Spark
        self._commit_dir: str | None = None
        #: frames this evaluation made and has not released, by id: the
        #: frame and its Parquet path (None: checkpointed)
        self._owned: dict[int, tuple[DataFrame, str | None]] = {}
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

        loaded, types = load_relations(analyzed, edb, collect_rows=opts.local_rows)
        self._commit_dir = tempfile.mkdtemp(prefix="recstep_")
        out: dict[str, DataFrame] = {}
        try:
            # IDBs start empty on the driver: a first round there reads
            # them with no Spark job, and a Spark round makes an empty
            # frame only for those it reads.
            rels = {p: Relation(types[p], table=local.empty(types[p])) for p in analyzed.idbs}
            edb_bound: int | None = 0
            for pred in analyzed.edbs:
                if isinstance(loaded[pred], DataFrame):
                    rows, bound = _profile(loaded[pred])
                    rels[pred] = Relation(types[pred], frame=loaded[pred])
                    self._owned[id(loaded[pred])] = (loaded[pred], None)
                else:
                    rows, bound = _profile_table(loaded[pred])
                    rels[pred] = Relation(types[pred], table=loaded[pred])
                stats.record(pred, rows)
                if bound is None or edb_bound is None:
                    edb_bound = None  # negative ids: compact key unusable
                else:
                    edb_bound = max(edb_bound, bound)
            results = self._pbme(analyzed, rels, types, edb_bound)
            if results is None:
                for pred in analyzed.idbs:
                    stats.record(pred, 0)
                ev = _Evaluation(
                    analyzed, rels, types, stats, analyzed.value_bounds(edb_bound)
                )
                for stratum in analyzed.strata:
                    self._evaluate_stratum(ev, stratum)
                self.metrics.analyze_calls = stats.analyze_calls
                results = ev.rels
            for p in analyzed.idbs:
                out[p] = self._result(results[p])
            return out
        finally:
            # Release what no result reads now rather than when the JVM
            # collects it: the EDB checkpoints and any frame still held.
            kept = {id(df) for df in out.values()}
            for key, (frame, _) in list(self._owned.items()):
                if key not in kept:
                    self._release(frame)
            self._owned.clear()
            shutil.rmtree(self._commit_dir, ignore_errors=True)
            self._commit_dir = None

    def _pbme(
        self,
        analyzed: AnalyzedProgram,
        rels: dict[str, Relation],
        types: dict[str, tuple[str, ...]],
        edb_bound: int | None,
    ) -> dict[str, Relation] | None:
        """The PBME fast path (Section 5.3): the result of a TC/SG-shaped
        program over a small enough active domain of integer ids, or
        ``None`` when it does not apply."""
        opts = self.options
        if not opts.pbme or edb_bound is None or edb_bound + 1 > opts.pbme_max_vertices:
            return None
        shape = pbme.match_program(analyzed)
        if shape is None or set(types[shape.edb]) != {"long"}:
            return None
        try:
            arcs = rels[shape.edb].pandas()
        except local.Fallback:  # NULL arcs: no bit matrix holds them
            return None
        self.metrics.pbme_used = True
        return pbme.evaluate(self.spark, shape, arcs, n=edb_bound + 1)

    # -- helpers ---------------------------------------------------------
    def _materialize(self, df: DataFrame, name: str) -> tuple[DataFrame, int]:
        """EOST on: keep in memory; EOST off: commit to Parquet and read
        back — the per-query transaction I/O RecStep removes. Returns
        the frame and its row count, both from that one action."""
        obs = Observation()
        df = df.observe(obs, self._rows_metric)
        path = None
        if self.options.eost:
            frame = df.localCheckpoint(eager=True)
        else:
            assert self._commit_dir is not None
            path = f"{self._commit_dir}/{name}_{uuid.uuid4().hex}"
            df.write.mode("overwrite").parquet(path)
            frame = self.spark.read.parquet(path)
        self._owned[id(frame)] = (frame, path)
        return frame, obs.get["rows"]

    def _frame(self, rel: Relation) -> DataFrame:
        """``rel`` as a Spark frame. A driver-held version is written to
        Parquet once (:func:`local.write_parquet`) and read back with its
        typed schema, so each Spark scan of it reads files rather than
        re-shipping its rows from the driver; the files live until the
        version is released or the evaluation ends."""
        if rel.frame is None:
            if not rel.rows():
                rel.frame = empty_relation(self.spark, rel.types)
            else:
                path = f"{self._commit_dir}/handoff_{uuid.uuid4().hex}"
                local.write_parquet(
                    rel.pandas(), rel.types, path, self.spark.sparkContext.defaultParallelism
                )
                rel.frame = self.spark.read.schema(schema(rel.types)).parquet(path)
                self._owned[id(rel.frame)] = (rel.frame, path)
        return rel.frame

    def _result(self, rel: Relation) -> DataFrame:
        """``rel`` as a result frame. A driver-held version is handed to
        Spark as Parquet (:meth:`_frame`); like any frame that reads
        this evaluation's files, it is then pinned in memory, since the
        files are deleted when the evaluation ends. A result is thus
        never a ``LocalRelation``, whose every action would re-ship its
        rows from the driver."""
        frame = self._frame(rel)
        files = self._owned.get(id(frame), (None, None))[1]
        return frame.localCheckpoint(eager=True) if files else frame

    def _release(self, frame: DataFrame | None) -> None:
        """Free the storage behind a frame ``_materialize`` made, once no
        plan reads it any more: unpersist its checkpoint (a later read
        fails with CHECKPOINT_RDD_BLOCK_ID_NOT_FOUND, so an early release
        cannot go unnoticed) or delete its Parquet files. Frames from
        elsewhere (EDBs, empty relations) hold no storage of ours."""
        owned = self._owned.pop(id(frame), None)
        if owned is None:
            return
        if owned[1] is None:
            frame._jdf.queryExecution().analyzed().rdd().unpersist(False)
        else:
            shutil.rmtree(owned[1], ignore_errors=True)

    def _bounded(self, df: DataFrame) -> DataFrame:
        """``df`` in at most the session's default parallelism partitions:
        each R ∪ ΔR would otherwise append ΔR's partitions to R's."""
        return df.coalesce(self.spark.sparkContext.defaultParallelism)

    def _uieval(
        self, parts: list[DataFrame], types: tuple[str, ...]
    ) -> tuple[DataFrame, list[DataFrame]]:
        """UNION ALL of the subqueries deriving one IDB, and the frames
        to release once that union is materialized.

        UIE on: a single lazy unioned plan, evaluated as one query (all
        subqueries share the scan/broadcast work and the cores).
        UIE off: each subquery is materialized separately (its own query
        with its own overhead), then the results are appended.
        """
        if not parts:
            return empty_relation(self.spark, types), []
        if not self.options.uie:
            parts = [self._materialize(p, "subquery")[0] for p in parts]
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        return out, parts if not self.options.uie else []

    @staticmethod
    def _sites(
        ev: _Evaluation, pred: str, deltas: dict[str, Relation] | None
    ) -> list[tuple[Rule, int | None]]:
        """The subqueries deriving ``pred``, as (rule, Δ position): one
        per rule, or with ``deltas`` the semi-naive Δ-rewrites — one per
        body atom whose relation has a Δ (the union-of-subqueries
        construction of Section 3.2 / Figure 4)."""
        sites: list[tuple[Rule, int | None]] = []
        for rule in ev.analyzed.program.rules_for(pred):
            if deltas is None:
                sites.append((rule, None))
            else:
                sites += [
                    (rule, i) for i, a in enumerate(rule.positive_body) if a.pred in deltas
                ]
        return sites

    # -- the semi-naive loop ---------------------------------------------
    def _evaluate_stratum(self, ev: _Evaluation, stratum: Stratum) -> None:
        """Algorithm 1's repeat loop over one stratum. ``deltas`` holds
        the non-empty ΔR of each IDB, updated as each IDB's step runs;
        a superseded or empty Δ is released unless it is still R (the
        first round's R = ΔR)."""
        reads = {a.pred for r in stratum.rules for a in r.body} | stratum.predicates
        deltas: dict[str, Relation] = {}
        on_driver = True  # until the stratum moves to Spark
        first = True
        while first or (stratum.recursive and deltas):
            on_driver = self._runs_locally(ev, reads) and on_driver
            for pred in sorted(stratum.predicates):
                d = None if first else deltas
                if on_driver:
                    try:
                        delta, rows = self._local_step(ev, pred, d)
                    except local.Fallback:
                        on_driver = False
                if not on_driver:
                    delta, rows = self._spark_step(ev, pred, d, reads, first=first)
                superseded = [deltas.pop(pred, None)]
                if rows:
                    deltas[pred] = delta
                else:
                    superseded.append(delta)  # an empty Δ is never read
                for d in superseded:
                    if d is not None and d is not ev.rels[pred]:
                        self._release(d.frame)
                self.metrics.iterations[pred] = self.metrics.iterations.get(pred, 0) + 1
            self.metrics.local_rounds += on_driver
            first = False

    def _runs_locally(self, ev: _Evaluation, reads: set[str]) -> bool:
        """Whether a round starts on the driver: every relation it reads
        (each Δ is a subset of its R) is within ``local_rows``."""
        limit = self.options.local_rows
        return 0 < limit and all(ev.stats.rows(p) <= limit for p in reads)

    def _local_step(
        self, ev: _Evaluation, pred: str, deltas: dict[str, Relation] | None
    ) -> tuple[Relation, int]:
        """One IDB's round on the driver; returns ΔR and |ΔR|. Raises
        ``local.Fallback``, having changed nothing, when a join row's
        fan-out, R ∪ ΔR or an aggregate's candidates would exceed
        ``local_rows`` or the data needs Spark's semantics."""
        types, limit = ev.types[pred], self.options.local_rows
        meld = pred in ev.analyzed.meld_idbs
        pieces = (
            piece
            for rule, i in self._sites(ev, pred, deltas)
            for piece in local.derive(
                rule,
                ev.rels,
                types=types,
                max_rows=limit,
                delta_idx=i,
                delta=None if i is None else deltas[rule.positive_body[i].pred].pandas(),
            )
        )
        rel, delta, new_rows = local.step(
            ev.rels[pred],
            pieces,
            spec=ev.analyzed.agg_specs.get(pred),
            meld=meld,
            max_value=ev.bounds[pred] if self.options.fast_dedup else None,
            max_rows=limit,
        )
        rows = delta.rows()
        if not meld:
            # μ = |Rδ| / |r| where r = Rδ ∩ R = Rδ - ΔR, as on Spark.
            overlap = new_rows - rows
            ev.mu[pred] = new_rows / overlap if overlap > 0 else None
        ev.rels[pred] = rel
        ev.stats.record(pred, rel.rows())
        ev.stats.record(f"Δ{pred}", rows)
        return delta, rows

    def _spark_step(
        self,
        ev: _Evaluation,
        pred: str,
        deltas: dict[str, Relation] | None,
        reads: set[str],
        *,
        first: bool,
    ) -> tuple[Relation, int]:
        """One IDB's round on Spark; returns ΔR and |ΔR|."""
        rels = {p: self._frame(ev.rels[p]) for p in reads}
        parts = [
            project_head(
                rule,
                compile_rule_body(
                    rule,
                    rels,
                    delta_idx=i,
                    delta=None if i is None else self._frame(deltas[rule.positive_body[i].pred]),
                    delta_name=None if i is None else f"Δ{rule.positive_body[i].pred}",
                    stats=ev.stats,
                    broadcast_rows=self.options.broadcast_rows,
                ),
                types=ev.types[pred],
                spark=self.spark,
            )
            for rule, i in self._sites(ev, pred, deltas)
        ]
        raw, temps = self._uieval(parts, ev.types[pred])
        delta, rows = self._step(ev, pred, raw, first=first)
        for t in temps:
            self._release(t)
        return delta, rows

    def _step(
        self, ev: _Evaluation, pred: str, raw: DataFrame, *, first: bool
    ) -> tuple[Relation, int]:
        """Merge one round's candidates for ``pred`` into R on Spark;
        returns ΔR and |ΔR|. Rδ and the old R are released once the
        frames that supersede them are materialized."""
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

        types = ev.types[pred]
        if first:
            # R is empty: R = ΔR = Rδ.
            frame, rows = self._materialize(cands, pred)
            ev.rels[pred] = Relation(types, frame=frame)
            if stats.analyze(pred, frame, rows) is None:
                stats.record(pred, rows)  # DSD needs |R| under OOF-NA too
            stats.record(f"Δ{pred}", rows)
            return ev.rels[pred], rows

        rel = self._frame(ev.rels[pred])
        if meld:
            # ΔR: candidate groups whose best value strictly improves on
            # (or is absent from) R; R keeps the other groups' rows.
            val = f"c{spec.agg_position}"
            group = [f"c{i}" for i in spec.group_positions]
            new, old = F.col(val), F.col("__old")
            joined = cands.join(rel.withColumnRenamed(val, "__old"), on=group, how="left")
            better = new < old if spec.op == "MIN" else new > old
            delta, rows = self._materialize(
                joined.filter(old.isNull() | better).select(
                    *positional_columns(len(group) + 1)
                ),
                f"{pred}_delta",
            )
            merged = rel.join(delta.select(*group), on=group, how="left_anti")
            frame, total = self._materialize(self._bounded(merged.union(delta)), pred)
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
                    rel,
                    method=method,
                    broadcast_threshold_rows=opts.broadcast_rows,
                    new_rows=new_rows,
                ),
                f"{pred}_delta",
            )
            self._release(r_delta)
            # μ = |Rδ| / |r| where r = Rδ ∩ R = Rδ - ΔR.
            overlap = new_rows - rows
            ev.mu[pred] = new_rows / overlap if overlap > 0 else None
            frame = total = None
            if rows:
                frame, total = self._materialize(self._bounded(rel.union(delta)), pred)
        if frame is not None:
            ev.rels[pred] = Relation(types, frame=frame)
            stats.record(pred, total)
            self._release(rel)
        stats.record(f"Δ{pred}", rows)
        return Relation(types, frame=delta), rows


#: Spark's integral column types, the columns FAST-DEDUP's key packs
_INTEGRAL = ("bigint", "int", "smallint", "tinyint")


def _profile(df: DataFrame) -> tuple[int, int | None]:
    """Row count and active-domain bound of an EDB, in one aggregate
    query. The bound is the max value over integral columns if all are
    non-negative (what the compact dedup key needs); ``None`` when any
    integral value is negative (packing would smear sign bits). Frames
    without integral columns have bound 0 (nothing to pack there)."""
    int_cols = [c for c, t in df.dtypes if t in _INTEGRAL]
    aggs = [F.count(F.lit(1)).alias("rows")]
    for c in int_cols:
        aggs += [F.max(F.col(c)).alias(f"mx_{c}"), F.min(F.col(c)).alias(f"mn_{c}")]
    row = df.agg(*aggs).collect()[0].asDict()
    return row["rows"], _bound([(row[f"mn_{c}"], row[f"mx_{c}"]) for c in int_cols])


def _profile_table(table: pd.DataFrame) -> tuple[int, int | None]:
    """:func:`_profile` of an EDB collected to the driver, computed
    there. A table without NULLs holds Spark's integral columns, and
    only those, as numpy integers."""
    int_cols = [c for c in table.columns if table[c].dtype.kind == "i"]
    return len(table), _bound([(table[c].min(), table[c].max()) for c in int_cols if len(table)])


def _bound(ranges: list[tuple[int | None, int | None]]) -> int | None:
    """The active-domain bound of :func:`_profile` from each integral
    column's (min, max), both ``None`` over no rows."""
    ranges = [(lo, hi) for lo, hi in ranges if hi is not None]
    if not ranges:
        return 0
    if min(lo for lo, _ in ranges) < 0:
        return None
    return int(max(hi for _, hi in ranges))
