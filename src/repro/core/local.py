"""Driver-side rounds: the semi-naive step over pandas for tiny relations.

Section 6.3 of the paper: when each iteration's deltas are too small to
use the cores, the fixed cost of every query dominates, and that is why
RecStep loses CSDA to a single-node engine. On Spark the fixed cost is
a few Spark jobs per materialization (about 20–25 ms each on a 4-core
host); the same round over pandas on the driver takes well under a
millisecond per relation. :class:`~repro.core.engine.RecStepEngine`
therefore runs a round here when every relation it reads is within
``RecStepOptions.local_rows`` rows, and on Spark otherwise.

This module interprets the compiler's executor-neutral
:class:`~repro.core.compiler.RulePlan` and merges one IDB's candidates:

- :func:`derive` — one subquery: the plan's scans, joins, filters and
  anti joins, projected onto the head's positional columns ``c0..``
  and cast to the IDB's column types;
- :func:`step` — one IDB's merge: dedup, non-recursive aggregation,
  then set difference and R ∪ ΔR for a set IDB, or the MIN/MAX meld.

Spark's semantics are the reference. Where pandas would answer
differently — NULLs, integer overflow (an error under ANSI SQL), a
string meeting a number in a join, comparison, arithmetic or cast — or
where a join or a round's candidates would exceed the size bound, the
work raises :class:`Fallback` before anything is changed, and the
engine runs that step on Spark instead.

:class:`Relation` holds one version of a relation in whichever form
produced it; :meth:`Relation.pandas` converts it for a driver round
(``toPandas``), at most once.
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame

from repro.core.compiler import ARITHMETIC, COMPARISONS, Scan, evaluate_expr, plan_rule
from repro.datalog.analyzer import AggSpec
from repro.datalog.ast import Rule

#: pandas dtype per type name (``str``: object columns of Python strings)
_DTYPES = {"long": "int64", "double": "float64", "string": str}
#: the numpy dtype kinds a column may hold to be cast to each type
_CASTABLE = {"long": "iu", "double": "iuf", "string": "O"}
_ARROW = {"long": pa.int64(), "double": pa.float64(), "string": pa.string()}
_AGG = {"MIN": "min", "MAX": "max", "SUM": "sum", "AVG": "mean", "COUNT": "count"}
#: integer results at or above this magnitude go to Spark, which raises
#: on a 64-bit overflow where numpy wraps around
_INT_LIMIT = 2.0**62


class Fallback(Exception):
    """This step needs Spark: its input or result is outside what the
    driver executor answers as Spark does, or its size is over the
    bound."""


class Relation:
    """One version of a relation: a Spark frame, a pandas frame, or both
    once converted."""

    __slots__ = ("types", "frame", "table")

    def __init__(
        self,
        types: tuple[str, ...],
        *,
        frame: DataFrame | None = None,
        table: pd.DataFrame | None = None,
    ):
        assert (frame is None) != (table is None), "one producing form"
        self.types = types
        self.frame = frame
        self.table = table

    def pandas(self) -> pd.DataFrame:
        if self.table is None:
            table = self.frame.toPandas()
            if table.isna().to_numpy().any():
                raise Fallback("NULL values")
            self.table = table
        return self.table


def empty(types: tuple[str, ...]) -> pd.DataFrame:
    """An empty relation with positional columns of the given types."""
    return pd.DataFrame(
        {f"c{i}": pd.Series([], dtype=_DTYPES[t]) for i, t in enumerate(types)}
    )


def write_parquet(table: pd.DataFrame, types: tuple[str, ...], path: str, parts: int) -> None:
    """Write ``table`` as up to ``parts`` Parquet files under ``path``,
    typed as Spark reads them back: each later Spark scan is a file read,
    not a re-shipment of the rows from the driver."""
    schema = pa.schema([(f"c{i}", _ARROW[t]) for i, t in enumerate(types)])
    rows = pa.Table.from_pandas(table, schema=schema, preserve_index=False)
    os.makedirs(path)
    size = max(1, -(-len(rows) // parts))
    for i, start in enumerate(range(0, len(rows), size)):
        pq.write_table(rows.slice(start, size), f"{path}/part-{i}.parquet")


# -- one subquery --------------------------------------------------------
def derive(
    rule: Rule,
    rels: dict[str, pd.DataFrame],
    *,
    types: tuple[str, ...],
    max_rows: int,
    delta_idx: int | None = None,
    delta: pd.DataFrame | None = None,
) -> pd.DataFrame:
    """The head tuples one subquery derives. Positive atom #``delta_idx``
    (counting positives only) reads ``delta``, the semi-naive Δ-rewrite.
    A join whose result would exceed ``max_rows`` raises
    :class:`Fallback` before it is built."""
    plan = plan_rule(rule)
    if not plan.positives:
        return _cast(pd.DataFrame({f"c{i}": [e.value] for i, e in enumerate(plan.head)}), types)
    acc: pd.DataFrame | None = None
    for i, (scan, keys) in enumerate(zip(plan.positives, plan.keys)):
        part = _scan(scan, delta if i == delta_idx else rels[scan.pred])
        acc = part if acc is None else _join(acc, part, list(keys), max_rows)
    for cond in plan.conditions:
        acc = acc[_compare(cond, acc)]
    for scan, on in plan.negations:
        acc = _anti(acc, _scan(scan, rels[scan.pred]), list(on))
    return _cast(pd.DataFrame(
        {f"c{i}": _value(e, acc) for i, e in enumerate(plan.head)},
        index=pd.RangeIndex(len(acc)),
    ), types)


def _scan(scan: Scan, table: pd.DataFrame) -> pd.DataFrame:
    """The rows of one atom occurrence; an existence guard is one row
    (or none) without columns."""
    mask = np.ones(len(table), dtype=bool)
    for pos, value in scan.consts:
        col = table[f"c{pos}"].to_numpy()
        _same_kind(col, np.asarray(value))
        mask &= col == value
    for pos, first in scan.same:
        mask &= table[f"c{pos}"].to_numpy() == table[f"c{first}"].to_numpy()
    if scan.project:
        return pd.DataFrame({v: table[f"c{p}"].to_numpy()[mask] for v, p in scan.project})
    return pd.DataFrame(index=pd.RangeIndex(min(int(mask.sum()), 1)))


def _join(acc: pd.DataFrame, part: pd.DataFrame, keys: list[str], max_rows: int) -> pd.DataFrame:
    acc, part = _comparable(acc, part, keys)
    if len(acc) * len(part) > max_rows:
        size = len(acc) * len(part)
        if keys:
            # Σ over each key of its matches on both sides, from key counts.
            size = acc.groupby(keys, sort=False).size().mul(
                part.groupby(keys, sort=False).size()
            ).sum()
        if size > max_rows:
            raise Fallback(f"a join of {int(size)} rows")
    return acc.merge(part, on=keys, how="inner") if keys else acc.merge(part, how="cross")


def _value(expr, acc: pd.DataFrame):
    return evaluate_expr(expr, lambda v: acc[v].to_numpy(), np.asarray, _arithmetic)


def _arithmetic(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if "O" in (left.dtype.kind, right.dtype.kind):
        raise Fallback("arithmetic over strings")
    out = ARITHMETIC[op](left, right)
    if out.dtype.kind == "i" and out.size and np.abs(
        ARITHMETIC[op](left.astype(float), right.astype(float))
    ).max() >= _INT_LIMIT:
        raise Fallback("integer overflow")
    return out


def _compare(cond, acc: pd.DataFrame) -> np.ndarray:
    left, right = _value(cond.left, acc), _value(cond.right, acc)
    _same_kind(left, right)
    return np.broadcast_to(COMPARISONS[cond.op](left, right), len(acc))


def _same_kind(left: np.ndarray, right: np.ndarray) -> None:
    """Strings meet strings and numbers numbers: Spark coerces a string
    against a number (or raises), pandas compares them unequal."""
    if (left.dtype.kind == "O") != (right.dtype.kind == "O"):
        raise Fallback("a string against a number")


def _comparable(
    left: pd.DataFrame, right: pd.DataFrame, keys: list[str]
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """``left`` and ``right`` with each join key of one dtype: an integer
    key against a double one is compared as doubles, as Spark does."""
    for k in keys:
        _same_kind(left[k].to_numpy(), right[k].to_numpy())
        if left[k].dtype != right[k].dtype:
            left, right = left.astype({k: "float64"}), right.astype({k: "float64"})
    return left, right


def _cast(df: pd.DataFrame, types: tuple[str, ...]) -> pd.DataFrame:
    """Cast to the column types; only between kinds that convert the
    same way in pandas and Spark (an integer to a double, not a number
    to a string or a double to an integer)."""
    for col, t in zip(df.columns, types):
        if df[col].dtype.kind not in _CASTABLE[t]:
            raise Fallback(f"a cast of {df[col].dtype} to {t}")
    return df.astype({f"c{i}": _DTYPES[t] for i, t in enumerate(types)}, copy=False)


def _anti(left: pd.DataFrame, right: pd.DataFrame, on: list[str]) -> pd.DataFrame:
    """The rows of ``left`` with no match in ``right`` on ``on``."""
    probe, right = _comparable(left, right, on)
    if left.empty or right.empty:
        return left
    keys = right[on].drop_duplicates()
    hit = probe[on].merge(keys, on=on, how="left", indicator=True)["_merge"].to_numpy()
    return left[hit == "left_only"]


# -- one IDB's merge -----------------------------------------------------
def step(
    raw: pd.DataFrame,
    rel: pd.DataFrame,
    *,
    spec: AggSpec | None,
    meld: bool,
    first: bool,
    types: tuple[str, ...],
) -> tuple[pd.DataFrame, pd.DataFrame, int]:
    """Merge one round's candidates ``raw`` into R = ``rel``; returns
    the new R, ΔR and |Rδ|. ``first``: R is empty, so R = ΔR = Rδ."""
    cands = raw if meld else raw.drop_duplicates(ignore_index=True)
    if spec is not None:
        cands = _aggregate(cands, spec, types)
    if first:
        return cands, cands, len(cands)
    if meld:
        # ΔR: candidate groups whose best value strictly improves on (or
        # is absent from) R; R keeps the other groups' rows.
        val = f"c{spec.agg_position}"
        group = [f"c{i}" for i in spec.group_positions]
        old = rel.rename(columns={val: "__old"})
        joined = cands.merge(old, on=group, how="left") if group else (
            cands.merge(old, how="cross") if len(old) else cands.assign(__old=np.nan)
        )
        new, prev = joined[val], joined["__old"]
        better = COMPARISONS["<" if spec.op == "MIN" else ">"](new, prev)
        delta = joined.loc[prev.isna() | better, list(cands.columns)]
        merged = pd.concat([_anti(rel, delta, group), delta], ignore_index=True)
        return merged, delta.reset_index(drop=True), len(cands)
    delta = _anti(cands, rel, list(cands.columns)).reset_index(drop=True)
    if len(delta):
        rel = pd.concat([rel, delta], ignore_index=True)
    return rel, delta, len(cands)


def _aggregate(pre: pd.DataFrame, spec: AggSpec, types: tuple[str, ...]) -> pd.DataFrame:
    """SQL group-by aggregation over the deduplicated pre-aggregate
    tuples. Without a GROUP BY key the result is one row, as in SQL;
    over no input that row is 0 for COUNT and NULL otherwise, which
    Spark computes."""
    val = f"c{spec.agg_position}"
    values = pre[val].to_numpy()
    if spec.op != "COUNT" and values.dtype.kind == "O":
        raise Fallback(f"{spec.op} over strings")
    if spec.op == "SUM" and values.dtype.kind == "i" and len(values) and (
        np.abs(values.astype(float)).max() * len(values) >= _INT_LIMIT
    ):
        raise Fallback("integer overflow")
    how = _AGG[spec.op]
    group = [f"c{i}" for i in spec.group_positions]
    if not group:
        if not len(pre) and spec.op != "COUNT":
            raise Fallback(f"{spec.op} over no rows is NULL")
        return _cast(pd.DataFrame({val: [getattr(pre[val], how)()]}), types)
    out = pre.groupby(group, sort=False)[val].agg(how).reset_index()
    return _cast(out[[f"c{i}" for i in range(len(types))]], types)
