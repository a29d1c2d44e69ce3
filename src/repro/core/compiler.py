"""Query generator: Datalog rules -> Spark DataFrame plans.

This is RecStep's "query generator" (Figure 1) retargeted from SQL text
to the DataFrame API (both compile to the same relational algebra; the
DataFrame form composes better with per-iteration plan decisions).

A rule compiles first to an executor-neutral :class:`RulePlan`
(:func:`plan_rule`), which holds every semantic decision: a
left-to-right join pipeline in which

- each positive atom projects its relation onto the rule's variables
  (constants filtered, intra-atom repeated variables unified, wildcards
  dropped) and joins with the accumulated rows on the shared variables;
- builtin conditions become filters;
- negated atoms become anti joins (stratified negation as SQL
  difference, Section 3.3) on the variables they share with the body;
- the head projects variables/constants/arithmetic to positional
  columns ``c0..c{k-1}``; aggregate heads materialize the aggregate's
  input expression (grouping happens in the engine, which owns
  set-vs-meld semantics).

:func:`compile_rule_body` and :func:`project_head` run a plan on Spark;
:mod:`repro.core.local` runs the same plan over pandas on the driver.

:func:`load_relations` sets up an evaluation's EDB relations and column
types, the same way for every engine built on this compiler.

OOF hook: when a :class:`~repro.core.stats.StatsCollector` with fresh
row counts is supplied, the small side of each join is broadcast-hinted
— Catalyst's equivalent of choosing the hash build side with up-to-date
statistics. Without statistics (OOF-NA) the plan is static.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.stats import StatsCollector
from repro.datalog.analyzer import AnalyzedProgram
from repro.datalog.ast import (
    AggTerm,
    Atom,
    BinExpr,
    Condition,
    Const,
    Rule,
    Var,
    Wildcard,
)


class CompileError(ValueError):
    """Raised when a rule uses a feature the compiler does not support."""


def positional_columns(arity: int) -> list[str]:
    return [f"c{i}" for i in range(arity)]


def normalize_edb(df: DataFrame, arity: int) -> DataFrame:
    """Rename an input EDB frame to positional columns and deduplicate
    (EDBs are sets; generators may emit duplicate arcs)."""
    return _positional(df, arity).dropDuplicates()


def _positional(df: DataFrame, arity: int) -> DataFrame:
    if len(df.columns) != arity:
        raise CompileError(f"expected {arity} columns, got {df.columns}")
    return df.toDF(*positional_columns(arity))


def schema(types: tuple[str, ...]) -> str:
    """The DDL schema of a relation with positional columns of the given
    type names."""
    return ", ".join(f"c{i} {_spark_type(t)}" for i, t in enumerate(types))


def empty_relation(spark: SparkSession, types: tuple[str, ...]) -> DataFrame:
    """An empty relation with positional columns of the given type names."""
    return spark.createDataFrame([], schema(types))


def load_relations(
    analyzed: AnalyzedProgram,
    edb: dict[str, DataFrame],
    *,
    collect_rows: int = 0,
) -> tuple[dict[str, DataFrame | pd.DataFrame], dict[str, tuple[str, ...]]]:
    """The EDB relations an evaluation starts from, each normalized and
    checkpointed, and every relation's column types (taken from the
    frames' schemas, which runs no job).

    With ``collect_rows`` > 0 each EDB is first collected in one job
    capped at ``collect_rows + 1`` rows. If at most ``collect_rows``
    rows come back and none holds a NULL, the EDB is that pandas table
    with positional columns, deduplicated on the driver; otherwise the
    collect is dropped and the EDB is checkpointed as above."""
    rels: dict[str, DataFrame | pd.DataFrame] = {}
    types: dict[str, tuple[str, ...]] = {}
    for pred in analyzed.edbs:
        if pred not in edb:
            raise ValueError(f"missing EDB relation {pred!r}")
        named = _positional(edb[pred], analyzed.arities[pred])
        table = _collect(named, collect_rows) if collect_rows > 0 else None
        rels[pred] = named.dropDuplicates().localCheckpoint() if table is None else table
        types[pred] = tuple(_type_name(t) for _, t in named.dtypes)
    return rels, analyzed.infer_types(types)


def _collect(df: DataFrame, max_rows: int) -> pd.DataFrame | None:
    """``df`` as a deduplicated table if it has at most ``max_rows`` rows
    and no NULLs (which the driver executor leaves to Spark), from one
    job capped at ``max_rows + 1`` rows; else ``None``."""
    table = df.limit(max_rows + 1).toPandas()
    if len(table) > max_rows or table.isna().to_numpy().any():
        return None
    return table.drop_duplicates(ignore_index=True)


# -- the executor-neutral rule plan ---------------------------------------
@dataclass(frozen=True)
class Scan:
    """One body atom occurrence: the rows of ``pred`` holding each
    constant of ``consts`` (position, value) and agreeing on each
    repeated variable of ``same`` (position, position of its first
    occurrence), projected onto ``project`` (variable, position). An atom
    without variables projects onto nothing: an existence guard whose
    one marker row (or none) the body joins with."""

    pred: str
    consts: tuple[tuple[int, int], ...]
    same: tuple[tuple[int, int], ...]
    project: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class RulePlan:
    """A rule as the relational steps every round executor runs:

    - ``positives``: the positive atoms, joined left to right, each on
      its ``keys`` entry (the variables it shares with the atoms before
      it; none: a cross join);
    - ``conditions``: filters over the joined variables;
    - ``negations``: anti joins, each on the variables its atom shares
      with the body;
    - ``head``: one expression per head position; an aggregate term
      yields its input expression (the engine groups).

    A fact has no positives and an all-constant head."""

    positives: tuple[Scan, ...]
    keys: tuple[tuple[str, ...], ...]
    conditions: tuple[Condition, ...]
    negations: tuple[tuple[Scan, tuple[str, ...]], ...]
    head: tuple[Var | Const | BinExpr, ...]


#: Arithmetic and comparison operators; both apply to Spark columns and
#: to numpy arrays alike.
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
COMPARISONS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def plan_rule(rule: Rule) -> RulePlan:
    """The executor-neutral plan of a rule; raises :class:`CompileError`
    for a rule no executor can run."""
    positives, keys, bound = [], [], set()
    for atom in rule.positive_body:
        scan = _scan(atom)
        names = {v for v, _ in scan.project}
        keys.append(tuple(sorted(bound & names)))
        positives.append(scan)
        bound |= names
    for cond in rule.conditions:
        _check_bound(cond.left, bound)
        _check_bound(cond.right, bound)
    negations = []
    for atom in rule.negated_body:
        scan = _scan(atom)
        on = tuple(sorted(bound & {v for v, _ in scan.project}))
        if not on:
            raise CompileError(f"negated atom {atom} shares no variables with the body")
        negations.append((scan, on))
    head = []
    for term in rule.head.terms:
        expr = term.expr if isinstance(term, AggTerm) else term
        if not isinstance(expr, (Var, Const, BinExpr)):
            raise CompileError(f"unsupported head term {term}")
        if not positives and not isinstance(expr, Const):
            raise CompileError(f"fact rule with non-constant head: {rule}")
        _check_bound(expr, bound if positives else set())
        head.append(expr)
    return RulePlan(tuple(positives), tuple(keys), rule.conditions, tuple(negations), tuple(head))


def _scan(atom: Atom) -> Scan:
    consts, same, first = [], [], {}
    for pos, term in enumerate(atom.terms):
        if isinstance(term, Const):
            consts.append((pos, term.value))
        elif isinstance(term, Var):
            if term.name in first:
                same.append((pos, first[term.name]))
            else:
                first[term.name] = pos
        elif not isinstance(term, Wildcard):
            raise CompileError(f"unsupported body term {term} in {atom}")
    return Scan(atom.pred, tuple(consts), tuple(same), tuple(first.items()))


def _check_bound(expr, bound: set[str]) -> None:
    if isinstance(expr, Var) and expr.name not in bound:
        raise CompileError(f"unbound variable {expr.name}")
    if isinstance(expr, BinExpr):
        _check_bound(expr.left, bound)
        _check_bound(expr.right, bound)
    elif not isinstance(expr, (Var, Const)):
        raise CompileError(f"unsupported expression {expr}")


def evaluate_expr(expr, column, literal, arithmetic=None):
    """``expr`` over one executor's values: ``column(var)`` and
    ``literal(value)`` build its leaves, ``arithmetic(op, left, right)``
    (default :data:`ARITHMETIC`) its operators."""
    if isinstance(expr, Const):
        return literal(expr.value)
    if isinstance(expr, Var):
        return column(expr.name)
    left = evaluate_expr(expr.left, column, literal, arithmetic)
    right = evaluate_expr(expr.right, column, literal, arithmetic)
    if arithmetic is None:
        return ARITHMETIC[expr.op](left, right)
    return arithmetic(expr.op, left, right)


# -- the Spark executor ----------------------------------------------------
_EXISTS = "__exists"


def _scan_frame(scan: Scan, rel: DataFrame) -> DataFrame:
    conds = [F.col(f"c{p}") == F.lit(v) for p, v in scan.consts]
    conds += [F.col(f"c{p}") == F.col(f"c{q}") for p, q in scan.same]
    df = rel.filter(reduce(operator.and_, conds)) if conds else rel
    if scan.project:
        return df.select(*(F.col(f"c{p}").alias(v) for v, p in scan.project))
    return df.select(F.lit(1).alias(_EXISTS)).limit(1)


def _maybe_broadcast(
    df: DataFrame, name: str | None, stats: StatsCollector | None, threshold: int
) -> DataFrame:
    """Broadcast-hint ``df`` when OOF statistics say it is small."""
    if stats is None or not stats.enabled or name is None:
        return df
    rows = stats.rows(name)
    if rows is not None and rows <= threshold:
        return F.broadcast(df)
    return df


def compile_rule_body(
    rule: Rule,
    rels: dict[str, DataFrame],
    *,
    delta_idx: int | None = None,
    delta: DataFrame | None = None,
    delta_name: str | None = None,
    stats: StatsCollector | None = None,
    broadcast_rows: int = 200_000,
) -> DataFrame | None:
    """The rule's :class:`RulePlan` body as a Spark frame whose columns
    are the rule's variables, or ``None`` for a fact.

    Positive atom #``delta_idx`` (counting positives only) reads from
    ``delta`` — the semi-naive Δ-rewrite. ``delta_name`` lets OOF look up
    the Δ table's statistics for join-side decisions.
    """
    plan = plan_rule(rule)
    if not plan.positives:
        return None
    acc: DataFrame | None = None
    for i, (scan, keys) in enumerate(zip(plan.positives, plan.keys)):
        if i == delta_idx:
            assert delta is not None
            rel, rel_name = delta, delta_name
        else:
            rel, rel_name = rels[scan.pred], scan.pred
        part = _scan_frame(scan, rel)
        if acc is None:
            acc = part
            continue
        part = _maybe_broadcast(part, rel_name, stats, broadcast_rows)
        acc = acc.join(part, on=list(keys), how="inner") if keys else acc.crossJoin(part)
    if _EXISTS in acc.columns:
        acc = acc.drop(_EXISTS)
    for cond in plan.conditions:
        acc = acc.filter(COMPARISONS[cond.op](
            evaluate_expr(cond.left, F.col, F.lit), evaluate_expr(cond.right, F.col, F.lit)
        ))
    for scan, on in plan.negations:
        probe = _scan_frame(scan, rels[scan.pred]).select(*on).dropDuplicates()
        probe = _maybe_broadcast(probe, scan.pred, stats, broadcast_rows)
        acc = acc.join(probe, on=list(on), how="left_anti")
    return acc


def project_head(
    rule: Rule,
    body: DataFrame | None,
    *,
    types: tuple[str, ...],
    spark=None,
) -> DataFrame:
    """Project onto head terms as positional columns cast to ``types``.

    Aggregate head terms are materialized as their input expression (the
    engine applies the actual grouping). A ``None`` body means a fact
    rule — a one-row frame of constants is produced (needs ``spark``).
    """
    cols = [
        evaluate_expr(expr, F.col, F.lit).cast(_spark_type(types[pos])).alias(f"c{pos}")
        for pos, expr in enumerate(plan_rule(rule).head)
    ]
    if body is None:
        assert spark is not None, "fact rules need a SparkSession"
        return spark.range(1).select(*cols)
    return body.select(*cols)


def _spark_type(name: str) -> str:
    return {"long": "bigint", "double": "double", "string": "string"}[name]


def _type_name(spark_type: str) -> str:
    """The analyzer's type name for a Spark column type."""
    if spark_type in ("double", "float"):
        return "double"
    return "string" if spark_type == "string" else "long"


_AGG_FN = {
    "MIN": F.min,
    "MAX": F.max,
    "SUM": F.sum,
    "AVG": F.avg,
    "COUNT": F.count,
}


def apply_aggregation(
    pre: DataFrame, group_positions: tuple[int, ...], agg_position: int, op: str,
    *, out_type: str,
) -> DataFrame:
    """SQL group-by aggregation over the (deduplicated) pre-agg frame —
    the paper's non-recursive aggregation encoding (Section 3.3)."""
    val = f"c{agg_position}"
    agg_col = _AGG_FN[op](F.col(val)).cast(_spark_type(out_type)).alias(val)
    if not group_positions:
        return pre.agg(agg_col)
    group = [f"c{i}" for i in group_positions]
    out = pre.groupBy(*group).agg(agg_col)
    return out.select(*positional_columns(len(group) + 1))
