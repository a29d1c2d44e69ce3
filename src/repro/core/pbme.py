"""PBME — Parallel Bit-Matrix Evaluation (Section 5.3, Algorithms 2, 3).

For dense-graph programs whose IDB is a binary relation over a small
active domain, the relation is an n×n bit matrix (packed ``uint64``
words, numpy). Join + dedup fuse into bitwise OR — no materialized
intermediate tuples, the paper's key memory saving.

Parallelization on Spark:

- **TC** (Algorithm 2): rows of ``M_tc`` are partitioned across tasks;
  each task runs the per-row frontier loop (lines 8-21) with zero
  coordination — a row's closure only ever writes that row. The arc
  matrix is broadcast once; ``mapInPandas`` emits the result tuples.
- **SG** (Algorithm 3): a new sg fact (a, b) writes rows *other* than a
  (q ∈ parents via arc), so rows are not independent — the paper notes
  exactly this coordination problem (Figure 7). Our Spark variant is
  bulk-synchronous: per iteration the driver packs the Δ matrix into
  T[a] = OR_{b ∈ Δ[a]} arc_row(b) (the column-join), broadcasts T, and
  tasks compute their row block ``new[q] = OR_{a ∈ parents(q)} T[a]``;
  the driver melds ``new`` into M_sg and extracts the next Δ. This is
  the matrix identity M_sg += M_arcᵀ ⊛ (Δ ⊛ M_arc) evaluated with the
  heavy boolean products distributed.

``match_program`` recognizes the TC and SG shapes structurally, so the
engine can dispatch like RecStep does when the bit matrix fits memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.local import Relation
from repro.datalog.analyzer import AnalyzedProgram
from repro.datalog.ast import Atom, Condition, Var


@dataclass(frozen=True)
class PbmeShape:
    """A recognized PBME-able program: which template and which names."""

    kind: str  # "tc" | "sg"
    idb: str
    edb: str


def match_program(analyzed: AnalyzedProgram) -> PbmeShape | None:
    """Structurally match the TC or SG template (any predicate names)."""
    if len(analyzed.idbs) != 1 or len(analyzed.edbs) != 1:
        return None
    idb = next(iter(analyzed.idbs))
    edb = next(iter(analyzed.edbs))
    if analyzed.arities[idb] != 2 or analyzed.arities[edb] != 2:
        return None
    rules = analyzed.program.rules_for(idb)
    if len(rules) != 2:
        return None
    base = next((r for r in rules if idb not in r.body_predicates()), None)
    rec = next((r for r in rules if idb in r.body_predicates()), None)
    if base is None or rec is None:
        return None
    if _is_tc_base(base, edb) and _is_tc_rec(rec, idb, edb):
        return PbmeShape("tc", idb, edb)
    if _is_sg_base(base, edb) and _is_sg_rec(rec, idb, edb):
        return PbmeShape("sg", idb, edb)
    return None


def _vars(atom: Atom) -> tuple[str, ...] | None:
    names = []
    for t in atom.terms:
        if not isinstance(t, Var):
            return None
        names.append(t.name)
    return tuple(names)


def _is_tc_base(rule, edb) -> bool:
    # h(x, y) :- e(x, y).
    if len(rule.body) != 1 or rule.conditions:
        return False
    hv, bv = _vars(rule.head), _vars(rule.body[0])
    return hv is not None and bv == hv and rule.body[0].pred == edb


def _is_tc_rec(rule, idb, edb) -> bool:
    # h(x, y) :- h(x, z), e(z, y)   (or the e-first spelling).
    if len(rule.body) != 2 or rule.conditions:
        return False
    atoms = {a.pred: a for a in rule.body}
    if set(atoms) != {idb, edb}:
        return False
    hv = _vars(rule.head)
    iv = _vars(atoms[idb])
    ev = _vars(atoms[edb])
    if None in (hv, iv, ev):
        return False
    x, y = hv
    return iv[0] == x and iv[1] == ev[0] and ev[1] == y


def _is_sg_base(rule, edb) -> bool:
    # h(x, y) :- e(p, x), e(p, y), x != y.
    if len(rule.body) != 2:
        return False
    if [a.pred for a in rule.body] != [edb, edb]:
        return False
    v1, v2 = _vars(rule.body[0]), _vars(rule.body[1])
    hv = _vars(rule.head)
    if None in (v1, v2, hv):
        return False
    x, y = hv
    if not (v1[0] == v2[0] and v1[1] == x and v2[1] == y):
        return False
    conds = rule.conditions
    return (
        len(conds) == 1
        and conds[0].op == "!="
        and {getattr(conds[0].left, "name", None), getattr(conds[0].right, "name", None)}
        == {x, y}
    )


def _is_sg_rec(rule, idb, edb) -> bool:
    # h(x, y) :- e(a, x), h(a, b), e(b, y).
    if len(rule.body) != 3 or rule.conditions:
        return False
    preds = [a.pred for a in rule.body]
    if sorted(preds) != sorted([edb, edb, idb]):
        return False
    sg_atom = next(a for a in rule.body if a.pred == idb)
    e_atoms = [a for a in rule.body if a.pred == edb]
    hv, sv = _vars(rule.head), _vars(sg_atom)
    e1, e2 = _vars(e_atoms[0]), _vars(e_atoms[1])
    if None in (hv, sv, e1, e2):
        return False
    x, y = hv
    a, b = sv
    cands = [(e1, e2), (e2, e1)]
    return any(ea == (a, x) and eb == (b, y) for ea, eb in cands)


# ---------------------------------------------------------------------------
# Packed bit-matrix helpers (numpy uint64 words).
# ---------------------------------------------------------------------------


def pack_matrix(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Build the packed n x ceil(n/64) adjacency bit matrix."""
    words = (n + 63) // 64
    m = np.zeros((n, words), dtype=np.uint64)
    word_idx = (dst // 64).astype(np.int64)
    bit = (dst % 64).astype(np.uint64)
    np.bitwise_or.at(m, (src.astype(np.int64), word_idx), np.uint64(1) << bit)
    return m


def row_bits(row: np.ndarray, n: int) -> np.ndarray:
    """Indices of set bits in one packed row."""
    bits = np.unpackbits(row.view(np.uint8), bitorder="little")[:n]
    return np.nonzero(bits)[0]


def matrix_to_pairs(m: np.ndarray, n: int) -> pd.DataFrame:
    """All (row, col) pairs of set bits, as positional columns c0, c1."""
    bits = np.unpackbits(m.view(np.uint8), axis=1, bitorder="little")[:, :n]
    r, c = np.nonzero(bits)
    return pd.DataFrame({"c0": r.astype("int64"), "c1": c.astype("int64")})


def _closure_row(arc: np.ndarray, i: int, n: int) -> np.ndarray:
    """Per-row TC frontier loop (Algorithm 2 lines 8-21), vectorized:
    the frontier expands by OR-ing the arc rows of its members."""
    row = arc[i].copy()
    frontier = row.copy()
    while frontier.any():
        idxs = row_bits(frontier, n)
        reached = np.bitwise_or.reduce(arc[idxs], axis=0)
        new = reached & ~row
        row |= new
        frontier = new
    return row


# ---------------------------------------------------------------------------
# TC (Algorithm 2): embarrassingly parallel row partitions.
# ---------------------------------------------------------------------------


def pbme_tc(spark: SparkSession, arcs: pd.DataFrame, n: int) -> DataFrame:
    """Evaluate transitive closure over the driver-held ``arcs`` with the
    bit-matrix; returns a lazy frame of (c0, c1)."""
    src = arcs.iloc[:, 0].to_numpy()
    dst = arcs.iloc[:, 1].to_numpy()
    arc = pack_matrix(src, dst, n)
    bc = spark.sparkContext.broadcast(arc)
    rows_with_edges = np.unique(src.astype("int64"))

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        arc_m = bc.value
        for batch in batches:
            outs = []
            for i in batch["row"].to_numpy():
                closed = _closure_row(arc_m, int(i), n)
                js = row_bits(closed, n)
                if len(js):
                    outs.append(
                        pd.DataFrame({"c0": np.full(len(js), i, dtype="int64"),
                                      "c1": js.astype("int64")})
                    )
            yield pd.concat(outs, ignore_index=True) if outs else pd.DataFrame(
                {"c0": pd.Series([], dtype="int64"), "c1": pd.Series([], dtype="int64")}
            )

    parallelism = spark.sparkContext.defaultParallelism
    rows_df = spark.createDataFrame(
        pd.DataFrame({"row": rows_with_edges.astype("int64")})
    ).repartition(min(parallelism * 2, max(1, len(rows_with_edges))))
    return rows_df.mapInPandas(compute, schema="c0 long, c1 long")


# ---------------------------------------------------------------------------
# SG (Algorithm 3): bulk-synchronous row blocks with broadcast deltas.
# ---------------------------------------------------------------------------


def _sg_init(arc: np.ndarray, n: int) -> np.ndarray:
    """sg(x, y) :- arc(p, x), arc(p, y), x != y  as bit operations."""
    words = arc.shape[1]
    sg = np.zeros((n, words), dtype=np.uint64)
    for p in range(n):
        kids = row_bits(arc[p], n)
        if len(kids) < 2:
            continue
        mask = arc[p]
        for x in kids:
            sg[x] |= mask
    # remove the diagonal (x != y)
    idx = np.arange(n)
    sg[idx, (idx // 64)] &= ~(np.uint64(1) << (idx % 64).astype(np.uint64))
    return sg


def _expand_delta(delta: np.ndarray, arc: np.ndarray, n: int) -> np.ndarray:
    """T[a] = OR_{b in Δ[a]} arc[b] — the Δ ⊛ M_arc boolean product."""
    t = np.zeros_like(delta)
    nonzero_rows = np.nonzero(delta.any(axis=1))[0]
    for a in nonzero_rows:
        bs = row_bits(delta[a], n)
        if len(bs):
            t[a] = np.bitwise_or.reduce(arc[bs], axis=0)
    return t


def pbme_sg(spark: SparkSession, arcs: pd.DataFrame, n: int) -> pd.DataFrame:
    """Evaluate same-generation over the driver-held ``arcs`` with the
    bit-matrix; returns the table of (c0, c1), which the driver melds."""
    src = arcs.iloc[:, 0].to_numpy()
    dst = arcs.iloc[:, 1].to_numpy()
    arc = pack_matrix(src, dst, n)
    arc_t = pack_matrix(dst, src, n)  # parents index (V_arc reversed)
    sg = _sg_init(arc, n)
    delta = sg.copy()

    arct_bc = spark.sparkContext.broadcast(arc_t)
    parallelism = spark.sparkContext.defaultParallelism
    blocks = np.array_split(np.arange(n), min(parallelism * 2, n))
    blocks_pdf = pd.DataFrame(
        {"block": range(len(blocks)),
         "start": [int(b[0]) if len(b) else 0 for b in blocks],
         "stop": [int(b[-1]) + 1 if len(b) else 0 for b in blocks]}
    )
    blocks_df = spark.createDataFrame(blocks_pdf).repartition(len(blocks)).localCheckpoint()

    while delta.any():
        t = _expand_delta(delta, arc, n)
        t_bc = spark.sparkContext.broadcast(t)

        def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            t_m = t_bc.value
            arct = arct_bc.value
            for batch in batches:
                outs = []
                for _, r in batch.iterrows():
                    start, stop = int(r["start"]), int(r["stop"])
                    block = np.zeros((stop - start, t_m.shape[1]), dtype=np.uint64)
                    for q in range(start, stop):
                        parents = row_bits(arct[q], n)
                        if len(parents):
                            block[q - start] = np.bitwise_or.reduce(
                                t_m[parents], axis=0
                            )
                    outs.append(
                        pd.DataFrame(
                            {"start": [start], "data": [block.tobytes()]}
                        )
                    )
                yield pd.concat(outs, ignore_index=True)

        rows = blocks_df.mapInPandas(
            compute, schema="start long, data binary"
        ).collect()
        new = np.zeros_like(sg)
        for r in rows:
            block = np.frombuffer(r["data"], dtype=np.uint64).reshape(-1, sg.shape[1])
            new[r["start"] : r["start"] + block.shape[0]] = block
        t_bc.unpersist()
        delta = new & ~sg
        sg |= delta

    return matrix_to_pairs(sg, n)


def evaluate(
    spark: SparkSession,
    shape: PbmeShape,
    arcs: pd.DataFrame,
    *,
    n: int,
) -> dict[str, Relation]:
    """Engine entry point: dispatch the matched shape over the driver-held
    ``arcs``. TC's result is checkpointed where its tasks emit it; SG's
    stays on the driver, where it was melded, for the engine to return."""
    types = ("long", "long")
    if shape.kind == "tc":
        out = Relation(types, frame=pbme_tc(spark, arcs, n).localCheckpoint())
    else:
        out = Relation(types, table=pbme_sg(spark, arcs, n))
    return {shape.idb: out}
