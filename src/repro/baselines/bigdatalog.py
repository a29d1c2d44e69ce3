"""BigDatalog-like engine: Datalog on Spark without RecStep's tricks.

BigDatalog [23] *is* Datalog compiled onto Spark, so the honest
single-node stand-in is this repo's semi-naive DataFrame evaluation with
every RecStep optimization disabled:

- per-rule/subquery evaluation instead of UIE's single unioned plan;
- static plans, no per-iteration statistics (OOF-NA) and therefore no
  adaptive broadcast decisions;
- fixed one-phase set difference (no DSD);
- generic multi-column deduplication (no compact key);
- no bit-matrix fast path;
- every round on Spark, none on the driver (``local_rows=0``).

It stays in memory between iterations (``eost=True``): BigDatalog's RDD
caching has no per-iteration commit I/O, so charging it the Parquet
round-trip would be unfair.

Language restriction, per the paper (Section 1, Table 1): **no mutual
recursion** — programs whose stratification puts several predicates in
one stratum (e.g. CSPA) raise :class:`UnsupportedProgramError`, which is
why Table 4 has no BigDatalog number for CSPA. Recursive (monotonic
MIN/MAX) aggregation is supported — BigDatalog's mmin/mmax aggregates —
so CC and SSSP run.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.engine import RecStepEngine
from repro.core.options import RecStepOptions
from repro.datalog.analyzer import AnalyzedProgram, analyze as analyze_program
from repro.datalog.ast import Program


class UnsupportedProgramError(ValueError):
    """The program needs a feature BigDatalog does not have."""


BIGDATALOG_OPTIONS = RecStepOptions(
    uie=False,
    oof="na",
    dsd=False,
    static_setdiff="opsd",
    eost=True,
    fast_dedup=False,
    pbme=False,
    local_rows=0,
)


class BigDatalogLikeEngine:
    """Semi-naive Spark evaluation, optimizations off, no mutual recursion."""

    def __init__(self, spark: SparkSession):
        self.spark = spark
        self._inner = RecStepEngine(spark, BIGDATALOG_OPTIONS)

    @property
    def metrics(self):
        return self._inner.metrics

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
        if analyzed.has_mutual_recursion:
            raise UnsupportedProgramError(
                "BigDatalog supports only non-mutual recursion; strata "
                f"{[sorted(s.predicates) for s in analyzed.strata if len(s.predicates) > 1]} "
                "are mutually recursive"
            )
        return self._inner.evaluate(analyzed, edb)
