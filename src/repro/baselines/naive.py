"""Naive bottom-up evaluation (Section 3.2) on Spark.

The textbook baseline that semi-naive improves on: every iteration
re-applies *all* rules to *all* facts derived so far and stops when the
IDB relations no longer change. Re-derives every tuple every iteration,
so it does asymptotically more work than Algorithm 1 — kept as an
independent correctness witness and as the contrast benchmark for the
semi-naive machinery.

Reuses the Datalog->DataFrame compiler but none of the RecStep engine's
semi-naive/optimization machinery.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.compiler import (
    apply_aggregation,
    compile_rule_body,
    empty_relation,
    load_relations,
    project_head,
)
from repro.datalog.analyzer import AnalyzedProgram, analyze as analyze_program
from repro.datalog.ast import Program


class NaiveEngine:
    """Naive fixpoint evaluation; same language as the RecStep engine."""

    def __init__(self, spark: SparkSession):
        self.spark = spark
        self.iterations: dict[str, int] = {}

    def evaluate(
        self,
        program_or_analyzed: Program | AnalyzedProgram,
        edb: dict[str, DataFrame],
    ) -> dict[str, DataFrame]:
        analyzed = (
            program_or_analyzed
            if isinstance(program_or_analyzed, AnalyzedProgram)
            else analyze_program(program_or_analyzed)
        )
        self.iterations = {}
        rels, types = load_relations(analyzed, edb)
        for pred in analyzed.idbs:
            rels[pred] = empty_relation(self.spark, types[pred])
        for stratum in analyzed.strata:
            preds = sorted(stratum.predicates)
            while True:
                changed = False
                for pred in preds:
                    new = self._full_eval(analyzed, pred, rels, types)
                    new = new.localCheckpoint(eager=True)
                    if self._differs(new, rels[pred]):
                        changed = True
                    rels[pred] = new
                    self.iterations[pred] = self.iterations.get(pred, 0) + 1
                if not stratum.recursive or not changed:
                    break
        return {p: rels[p] for p in analyzed.idbs}

    def _full_eval(
        self,
        analyzed: AnalyzedProgram,
        pred: str,
        rels: dict[str, DataFrame],
        types: dict[str, tuple[str, ...]],
    ) -> DataFrame:
        parts = []
        for rule in analyzed.program.rules_for(pred):
            body = compile_rule_body(rule, rels)
            parts.append(project_head(rule, body, types=types[pred], spark=self.spark))
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        if pred in analyzed.agg_specs:
            spec = analyzed.agg_specs[pred]
            return apply_aggregation(
                out.dropDuplicates(),
                spec.group_positions,
                spec.agg_position,
                spec.op,
                out_type=types[pred][spec.agg_position],
            )
        return out.dropDuplicates()

    @staticmethod
    def _differs(a: DataFrame, b: DataFrame) -> bool:
        """Content inequality — counts are not enough for aggregated
        relations whose values can improve at constant cardinality."""
        return a.exceptAll(b).limit(1).count() > 0 or b.exceptAll(a).limit(1).count() > 0
