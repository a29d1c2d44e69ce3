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
  and cast to the IDB's column types. A join that would pass the size
  bound is cut into slices of its left side (Δ when it is one of the
  first two scans, else the first scan) whose joins each fit;
- :func:`step` — one IDB's merge: dedup, non-recursive aggregation,
  then set difference and R ∪ ΔR for a set IDB, or the MIN/MAX meld. A
  set IDB merges each slice into ΔR before the next is built, so the
  bound caps each slice and R ∪ ΔR, not the round's candidates. With
  FAST-DEDUP it works on packed keys
  (:func:`repro.core.dedup.pack_keys`): dedup by hashing one int64 per
  tuple, set difference by probing R's sorted key array.

Spark's semantics are the reference. Where pandas would answer
differently — NULLs, integer overflow (an error under ANSI SQL), a
string meeting a number in a join, comparison, arithmetic or cast — or
where one row's join fan-out, R ∪ ΔR or an aggregate's candidates would
exceed the size bound, the work raises :class:`Fallback` before
anything is changed, and the engine runs that step on Spark instead.
|R ∪ ΔR| is known only once the slices are deduplicated, so that check
fires mid-round and Spark redoes the slices merged so far; the stratum
then stays on Spark, so this happens at most once per stratum.

:class:`Relation` holds one version of a relation in whichever form
produced it — a Spark frame, a pandas table, or a sorted key array —
and converts it on demand, at most once: :meth:`Relation.pandas`
collects a frame (``toPandas``) or decodes keys, :meth:`Relation.index`
packs a table's keys.
"""
from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Mapping

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame

from repro.core.compiler import ARITHMETIC, COMPARISONS, Scan, evaluate_expr, plan_rule
from repro.core.dedup import compact_key_bits, pack_keys, unpack_keys
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
    """One version of a relation: a Spark frame, a pandas table, or the
    sorted array of its packed keys (FAST-DEDUP's compact key, one per
    tuple), plus whichever other forms it has been converted to."""

    __slots__ = ("types", "frame", "table", "keys", "bits")

    def __init__(
        self,
        types: tuple[str, ...],
        *,
        frame: DataFrame | None = None,
        table: pd.DataFrame | None = None,
        keys: np.ndarray | None = None,
        bits: int | None = None,
    ):
        assert sum(f is not None for f in (frame, table, keys)) == 1, "one producing form"
        self.types = types
        self.frame = frame
        self.table = table
        self.keys = keys
        self.bits = bits

    def rows(self) -> int:
        """The row count of a driver-held version."""
        return len(self.keys) if self.keys is not None else len(self.pandas())

    def pandas(self) -> pd.DataFrame:
        """The version as a table, converted at most once: decoded from
        its keys, or collected from Spark."""
        if self.table is None:
            if self.keys is not None:
                self.table = pd.DataFrame({
                    f"c{i}": col
                    for i, col in enumerate(unpack_keys(self.keys, self.bits, len(self.types)))
                })
            else:
                table = self.frame.toPandas()
                if table.isna().to_numpy().any():
                    raise Fallback("NULL values")
                self.table = table
        return self.table

    def index(self, bits: int) -> np.ndarray:
        """The version's packed keys, sorted, built at most once."""
        if self.keys is None:
            table = self.pandas()
            self.keys = np.sort(pack_keys([table[c].to_numpy() for c in table.columns], bits))
            self.bits = bits
        return self.keys


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
    rels: Mapping[str, Relation],
    *,
    types: tuple[str, ...],
    max_rows: int,
    delta_idx: int | None = None,
    delta: pd.DataFrame | None = None,
) -> Iterator[pd.DataFrame]:
    """The head tuples one subquery derives, in pieces of at most
    ``max_rows`` rows, each built once the previous one has been
    consumed. Positive atom #``delta_idx`` (counting positives only)
    reads ``delta``, the semi-naive Δ-rewrite; the others read their
    relation in ``rels`` whole. A join row whose own fan-out exceeds
    ``max_rows`` raises :class:`Fallback` before its join is built."""
    plan = plan_rule(rule)
    if not plan.positives:
        yield _cast(pd.DataFrame({f"c{i}": [e.value] for i, e in enumerate(plan.head)}), types)
        return
    # A join past the bound is cut into slices of its left side. Δ second
    # in plan order swaps with the first scan to be that side: the two
    # share the same join, and later joins see the same variables. Δ
    # further right keeps the plan's order: leading with it there would
    # change the joins' sizes (it doubled Andersen's driver time).
    order = list(range(len(plan.positives)))
    if delta_idx == 1:
        order[:2] = [1, 0]
    scans = [(i, plan.positives[i]) for i in order]
    parts = [
        _scan(scan, delta if i == delta_idx else rels[scan.pred].pandas()) for i, scan in scans
    ]
    negations = [
        (_scan(scan, rels[scan.pred].pandas()), list(on)) for scan, on in plan.negations
    ]
    for acc in _joined(parts[0], parts[1:], plan.keys[1:], max_rows):
        for cond in plan.conditions:
            acc = acc[_compare(cond, acc)]
        for neg, on in negations:
            acc = _anti(acc, neg, on)
        yield _cast(pd.DataFrame(
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


def _joined(
    acc: pd.DataFrame,
    parts: list[pd.DataFrame],
    keys: tuple[tuple[str, ...], ...],
    max_rows: int,
) -> Iterator[pd.DataFrame]:
    """``acc`` joined with each of ``parts`` in turn, on its ``keys``
    entry, in pieces of at most ``max_rows`` rows."""
    if not parts:
        yield acc
        return
    on = list(keys[0])
    acc, part = _comparable(acc, parts[0], on)
    for run in _runs(acc, part, on, max_rows):
        joined = run.merge(part, on=on, how="inner") if on else run.merge(part, how="cross")
        yield from _joined(joined, parts[1:], keys[1:], max_rows)


def _runs(
    acc: pd.DataFrame, part: pd.DataFrame, on: list[str], max_rows: int
) -> Iterator[pd.DataFrame]:
    """``acc`` cut into runs of consecutive rows whose joins with
    ``part`` each stay within ``max_rows`` rows. Each row's fan-out is
    its key's count in ``part``; a cumulative sum over the fan-outs
    places the cuts. A row whose fan-out alone passes the bound raises
    :class:`Fallback`."""
    if len(acc) * len(part) <= max_rows:
        yield acc
        return
    if on:
        counts = part.groupby(on, sort=False).size().rename("__n").reset_index()
        fan = acc[on].merge(counts, on=on, how="left")["__n"].fillna(0).to_numpy(np.int64)
    else:
        fan = np.full(len(acc), len(part))
    if fan.max() > max_rows:
        raise Fallback(f"one row joins {int(fan.max())} rows")
    ends = np.cumsum(fan)
    start = 0
    while start < len(acc):
        done = ends[start - 1] if start else 0
        end = int(np.searchsorted(ends, done + max_rows, side="right"))
        yield acc.iloc[start:end]
        start = end


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
    rel: Relation,
    pieces: Iterable[pd.DataFrame],
    *,
    spec: AggSpec | None,
    meld: bool,
    max_value: int | None,
    max_rows: int,
) -> tuple[Relation, Relation, int]:
    """Merge one round's candidates, arriving in ``pieces``, into
    R = ``rel``; returns the new R, ΔR and |Rδ|. When R is empty the new
    R and ΔR are one version (R = ΔR = Rδ).

    A set IDB merges each piece into ΔR before the next is built; it
    raises :class:`Fallback` once |R| + |ΔR| would pass ``max_rows``.
    FAST-DEDUP applies when ``max_value`` (the IDB's value bound, or
    None) lets every column, all integers, pack into one key. Aggregate
    and meld IDBs group all candidates at once, within ``max_rows``."""
    if spec is not None:
        return _grouped(rel, pieces, spec=spec, meld=meld, max_rows=max_rows)
    form: _Keys | _Tables = _Tables(rel.types)
    if max_value is not None and set(rel.types) == {"long"}:
        bits = compact_key_bits(len(rel.types), max_value)
        if bits is not None:
            form = _Keys(rel.types, bits)
    return _set_union(rel, pieces, max_rows, form)


def _set_union(
    rel: Relation, pieces: Iterable[pd.DataFrame], max_rows: int, form: _Keys | _Tables
) -> tuple[Relation, Relation, int]:
    """A set IDB's merge: each piece deduplicated, then probed against R
    and against ΔR so far, its new tuples added to ΔR. ``form`` holds the
    tuples as packed keys or as tables; R is not copied until R ∪ ΔR."""
    old = form.index(rel)
    hit = np.zeros(len(old), dtype=bool)  # R's tuples derived again: r = Rδ ∩ R
    new = form.empty  # ΔR so far
    for piece in pieces:
        cands = form.distinct(piece)
        found, rows = form.probe(old, cands)
        hit[rows] = True
        cands = cands[~found]
        cands = cands[~form.probe(new, cands)[0]]
        if len(old) + len(new) + len(cands) > max_rows:
            raise Fallback(f"R ∪ ΔR of {len(old) + len(new) + len(cands)} rows")
        new = form.insert(new, cands)
    delta = form.relation(new)
    r_delta = int(hit.sum()) + len(new)
    if not len(old):
        return delta, delta, r_delta
    if not len(new):
        return rel, delta, r_delta
    return form.relation(form.insert(old, new)), delta, r_delta


class _Keys:
    """FAST-DEDUP's form: one packed int64 key per tuple, deduplicated by
    hashing; R is its sorted key array, probed by binary search."""

    def __init__(self, types: tuple[str, ...], bits: int):
        self.types, self.bits = types, bits
        self.empty = np.empty(0, dtype=np.int64)

    def index(self, rel: Relation) -> np.ndarray:
        return rel.index(self.bits)

    def distinct(self, piece: pd.DataFrame) -> np.ndarray:
        return pd.unique(pack_keys([piece[c].to_numpy() for c in piece.columns], self.bits))

    @staticmethod
    def probe(index: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of ``keys`` the sorted ``index`` holds, and where."""
        pos = np.searchsorted(index, keys)
        found = pos < len(index)
        found[found] = index[pos[found]] == keys[found]
        return found, pos[found]

    @staticmethod
    def insert(index: np.ndarray, keys: np.ndarray) -> np.ndarray:
        keys = np.sort(keys)
        return np.insert(index, np.searchsorted(index, keys), keys)

    def relation(self, keys: np.ndarray) -> Relation:
        return Relation(self.types, keys=keys, bits=self.bits)


class _Tables:
    """The generic form: tables deduplicated over all columns; R is
    probed by a join that numbers its rows."""

    def __init__(self, types: tuple[str, ...]):
        self.types, self.empty = types, empty(types)

    @staticmethod
    def index(rel: Relation) -> pd.DataFrame:
        return rel.pandas()

    @staticmethod
    def distinct(piece: pd.DataFrame) -> pd.DataFrame:
        return piece.drop_duplicates()

    @staticmethod
    def probe(index: pd.DataFrame, table: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
        """Which rows of ``table`` ``index`` holds, and at which of its rows."""
        if index.empty or table.empty:
            return np.zeros(len(table), dtype=bool), np.empty(0, dtype=np.int64)
        numbered = index.assign(__row=np.arange(len(index)))
        row = table.merge(numbered, on=list(index.columns), how="left")["__row"].to_numpy()
        found = ~np.isnan(row)
        return found, row[found].astype(np.int64)

    @staticmethod
    def insert(index: pd.DataFrame, table: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([index, table], ignore_index=True)

    def relation(self, table: pd.DataFrame) -> Relation:
        return Relation(self.types, table=table)


def _grouped(
    rel: Relation,
    pieces: Iterable[pd.DataFrame],
    *,
    spec: AggSpec,
    meld: bool,
    max_rows: int,
) -> tuple[Relation, Relation, int]:
    """An aggregate IDB's merge: the candidates, within ``max_rows``,
    grouped after dedup, or melded into R (MIN/MAX in a recursive
    stratum)."""
    types, parts, total = rel.types, [], 0
    for piece in pieces:
        parts.append(piece)
        total += len(piece)
        if total > max_rows:
            raise Fallback(f"{total} candidates")
    raw = pd.concat(parts, ignore_index=True) if parts else empty(types)
    cands = _aggregate(raw if meld else raw.drop_duplicates(ignore_index=True), spec, types)
    old = rel.pandas()
    if not len(old):
        out = Relation(types, table=cands)
        return out, out, len(cands)
    # Meld: ΔR is the candidate groups whose best value strictly improves
    # on (or is absent from) R; R keeps the other groups' rows.
    val = f"c{spec.agg_position}"
    group = [f"c{i}" for i in spec.group_positions]
    renamed = old.rename(columns={val: "__old"})
    joined = cands.merge(renamed, on=group, how="left") if group else (
        cands.merge(renamed, how="cross")
    )
    new, prev = joined[val], joined["__old"]
    better = COMPARISONS["<" if spec.op == "MIN" else ">"](new, prev)
    delta = joined.loc[prev.isna() | better, list(cands.columns)].reset_index(drop=True)
    merged = pd.concat([_anti(old, delta, group), delta], ignore_index=True)
    return Relation(types, table=merged), Relation(types, table=delta), len(cands)


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
