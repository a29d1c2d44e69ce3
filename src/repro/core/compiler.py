"""Query generator: Datalog rules -> Spark DataFrame plans.

This is RecStep's "query generator" (Figure 1) retargeted from SQL text
to the DataFrame API (both compile to the same relational algebra; the
DataFrame form composes better with per-iteration plan decisions).

A rule body compiles to a left-to-right join pipeline:

- each positive atom projects its relation onto the rule's variables
  (constants filtered, intra-atom repeated variables unified, wildcards
  dropped) and joins with the accumulated frame on the shared variables;
- builtin conditions become filters;
- negated atoms become ``left_anti`` joins (stratified negation as SQL
  difference, Section 3.3);
- the head projects variables/constants to positional columns
  ``c0..c{k-1}``; aggregate heads materialize the aggregate's input
  expression (grouping happens in the engine, which owns set-vs-meld
  semantics).

:func:`load_relations` sets up an evaluation's starting relations and
column types, the same way for every engine built on this compiler.

OOF hook: when a :class:`~repro.core.stats.StatsCollector` with fresh
row counts is supplied, the small side of each join is broadcast-hinted
— Catalyst's equivalent of choosing the hash build side with up-to-date
statistics. Without statistics (OOF-NA) the plan is static.
"""
from __future__ import annotations

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
    if len(df.columns) != arity:
        raise CompileError(f"expected {arity} columns, got {df.columns}")
    return df.toDF(*positional_columns(arity)).dropDuplicates()


def empty_relation(spark: SparkSession, types: tuple[str, ...]) -> DataFrame:
    """An empty relation with positional columns of the given type names."""
    schema = ", ".join(f"c{i} {_spark_type(t)}" for i, t in enumerate(types))
    return spark.createDataFrame([], schema)


def load_relations(
    spark: SparkSession, analyzed: AnalyzedProgram, edb: dict[str, DataFrame]
) -> tuple[dict[str, DataFrame], dict[str, tuple[str, ...]]]:
    """The starting relations of an evaluation and every relation's
    column types: each EDB normalized and checkpointed, each IDB empty."""
    rels: dict[str, DataFrame] = {}
    for pred in analyzed.edbs:
        if pred not in edb:
            raise ValueError(f"missing EDB relation {pred!r}")
        rels[pred] = normalize_edb(edb[pred], analyzed.arities[pred]).localCheckpoint()
    types = analyzed.infer_types({
        p: tuple(_type_name(t) for _, t in rels[p].dtypes) for p in analyzed.edbs
    })
    for pred in analyzed.idbs:
        rels[pred] = empty_relation(spark, types[pred])
    return rels, types


def _atom_plan(atom: Atom, rel: DataFrame) -> DataFrame:
    """Project one atom occurrence onto its variables."""
    df = rel
    cond = None
    first_col: dict[str, str] = {}
    selected: list = []
    for pos, term in enumerate(atom.terms):
        col = f"c{pos}"
        if isinstance(term, Const):
            c = F.col(col) == F.lit(term.value)
            cond = c if cond is None else (cond & c)
        elif isinstance(term, Var):
            if term.name in first_col:
                c = F.col(col) == F.col(first_col[term.name])
                cond = c if cond is None else (cond & c)
            else:
                first_col[term.name] = col
                selected.append(F.col(col).alias(term.name))
        elif isinstance(term, Wildcard):
            continue
        else:
            raise CompileError(f"unsupported body term {term} in {atom}")
    if cond is not None:
        df = df.filter(cond)
    if selected:
        return df.select(*selected)
    # All-constant/wildcard atom: acts as an existence guard. One marker
    # row survives iff the (filtered) relation is non-empty; the marker
    # column is dropped after the joins.
    return df.select(F.lit(1).alias("__exists")).limit(1)


def _expr_column(expr, available: set[str]):
    if isinstance(expr, Const):
        return F.lit(expr.value)
    if isinstance(expr, Var):
        if expr.name not in available:
            raise CompileError(f"unbound variable {expr.name}")
        return F.col(expr.name)
    if isinstance(expr, BinExpr):
        left = _expr_column(expr.left, available)
        right = _expr_column(expr.right, available)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise CompileError(f"unsupported expression {expr}")


def _condition_filter(cond: Condition, available: set[str]):
    left = _expr_column(cond.left, available)
    right = _expr_column(cond.right, available)
    return {
        "=": left == right,
        "!=": left != right,
        "<": left < right,
        "<=": left <= right,
        ">": left > right,
        ">=": left >= right,
    }[cond.op]


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
    """Compile the body into a frame whose columns are the rule's
    variables, or ``None`` for a body with no positive atoms (a fact).

    Positive atom #``delta_idx`` (counting positives only) reads from
    ``delta`` — the semi-naive Δ-rewrite. ``delta_name`` lets OOF look up
    the Δ table's statistics for join-side decisions.
    """
    acc: DataFrame | None = None
    pos_idx = -1
    pending_neg: list[Atom] = []
    for atom in rule.body:
        if atom.negated:
            pending_neg.append(atom)
            continue
        pos_idx += 1
        if delta_idx is not None and pos_idx == delta_idx:
            rel, rel_name = delta, delta_name
            assert rel is not None
        else:
            rel, rel_name = rels[atom.pred], atom.pred
        part = _atom_plan(atom, rel)
        if acc is None:
            acc = part
            continue
        shared = sorted(set(acc.columns) & set(part.columns))
        part = _maybe_broadcast(part, rel_name, stats, broadcast_rows)
        if shared:
            acc = acc.join(part, on=shared, how="inner")
        else:
            acc = acc.crossJoin(part)
    if acc is None:
        return None
    if "__exists" in acc.columns:
        acc = acc.drop("__exists")
    available = set(acc.columns)
    for cond in rule.conditions:
        acc = acc.filter(_condition_filter(cond, available))
    for atom in pending_neg:
        probe = _atom_plan(atom, rels[atom.pred]).dropDuplicates()
        on = sorted(set(acc.columns) & set(probe.columns))
        if not on:
            raise CompileError(
                f"negated atom {atom} shares no variables with the body"
            )
        probe = _maybe_broadcast(probe, atom.pred, stats, broadcast_rows)
        acc = acc.join(probe, on=on, how="left_anti")
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
    if body is None:
        assert spark is not None, "fact rules need a SparkSession"
        cols = []
        for pos, term in enumerate(rule.head.terms):
            if not isinstance(term, Const):
                raise CompileError(f"fact rule with non-constant head: {rule}")
            cols.append(F.lit(term.value).cast(_spark_type(types[pos])).alias(f"c{pos}"))
        return spark.range(1).select(*cols)
    available = set(body.columns)
    cols = []
    for pos, term in enumerate(rule.head.terms):
        name = f"c{pos}"
        if isinstance(term, Var):
            expr = F.col(term.name)
        elif isinstance(term, Const):
            expr = F.lit(term.value)
        elif isinstance(term, AggTerm):
            expr = _expr_column(term.expr, available)
        elif isinstance(term, BinExpr):
            expr = _expr_column(term, available)
        else:
            raise CompileError(f"unsupported head term {term}")
        cols.append(expr.cast(_spark_type(types[pos])).alias(name))
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
