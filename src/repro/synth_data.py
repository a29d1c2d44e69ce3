"""Synthetic Datalog inputs: graphs and program-analysis relations.

Generators are deterministic in ``seed`` so the DuckDB oracle sees
identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Graph generators for the RecStep reproduction (Section 6.2 datasets).
#
# The paper evaluates on GTgraph Gn-p random graphs, RMAT graphs (10n
# directed edges for n vertices, per BigDatalog [23]), and large real-world
# snapshots (livejournal/orkut/...). Real snapshots are unavailable
# offline, so RMAT at reduced scale stands in for them (see DESIGN.md).
# All generators are deterministic in ``seed`` and return pandas frames;
# wrap with :func:`to_spark` for the DataFrame engines.
# ---------------------------------------------------------------------------


def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Create a Spark DataFrame from a generator's pandas frame."""
    return spark.createDataFrame(pdf)


def gnp_arcs(*, n: int, p: float = 0.001, seed: int = 0) -> pd.DataFrame:
    """Gn-p directed graph: every ordered pair (u, v), u != v, is an arc
    with probability ``p`` (the paper's GTgraph random graphs)."""
    g = _rng(seed)
    mask = g.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return pd.DataFrame({"src": src.astype("int64"), "dst": dst.astype("int64")})


def rmat_arcs(*, n: int, edge_factor: int = 10, seed: int = 0,
              a: float = 0.57, b: float = 0.19, c: float = 0.19) -> pd.DataFrame:
    """RMAT-n graph with ``edge_factor * n`` directed edges.

    Recursive-matrix quadrant sampling with the standard (Graph500)
    partition probabilities; the paper's RMAT-n graphs use 10n edges.
    ``n`` is rounded up to the next power of two for quadrant splitting
    and vertex ids above n-1 are folded back with a modulo, keeping the
    skewed degree distribution. Self-loops and duplicate arcs are kept
    (they are deduplicated by Datalog set semantics anyway).
    """
    g = _rng(seed)
    levels = int(np.ceil(np.log2(max(n, 2))))
    m = edge_factor * n
    src = np.zeros(m, dtype="int64")
    dst = np.zeros(m, dtype="int64")
    for lvl in range(levels):
        r = g.random(m)
        # quadrant: 0=a (0,0), 1=b (0,1), 2=c (1,0), 3=d (1,1)
        q = np.select(
            [r < a, r < a + b, r < a + b + c], [0, 1, 2], default=3
        )
        bit = 1 << (levels - 1 - lvl)
        src += np.where(q >= 2, bit, 0)
        dst += np.where((q == 1) | (q == 3), bit, 0)
    return pd.DataFrame({"src": src % n, "dst": dst % n})


def add_weights(arcs: pd.DataFrame, *, max_weight: int = 100, seed: int = 0) -> pd.DataFrame:
    """Attach integer edge weights in [1, max_weight] (for SSSP)."""
    g = _rng(seed)
    out = arcs.copy()
    out["w"] = g.integers(1, max_weight + 1, len(arcs)).astype("int64")
    return out


def chain_arcs(*, length: int, n_chains: int = 1, cross_p: float = 0.0, seed: int = 0) -> pd.DataFrame:
    """Disjoint directed chains with optional random cross edges.

    Long sparse chains reproduce the CSDA regime: many iterations
    (~chain length) with tiny per-iteration deltas.
    """
    g = _rng(seed)
    srcs, dsts = [], []
    for ch in range(n_chains):
        base = ch * length
        srcs.append(np.arange(base, base + length - 1))
        dsts.append(np.arange(base + 1, base + length))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    if cross_p > 0:
        total = n_chains * length
        n_cross = int(cross_p * len(src))
        cs = g.integers(0, total, n_cross)
        cd = g.integers(0, total, n_cross)
        src = np.concatenate([src, cs])
        dst = np.concatenate([dst, cd])
    return pd.DataFrame({"src": src.astype("int64"), "dst": dst.astype("int64")})


# ---------------------------------------------------------------------------
# Program-analysis inputs (Andersen / CSPA / CSDA).
#
# The paper uses 7 synthetic Andersen datasets "generated based on the
# characteristics of a tiny real dataset" and the Graspan linux/postgresql/
# httpd extraction outputs. Neither is available, so these generators
# produce inputs in the same regimes (see DESIGN.md substitution table).
# ---------------------------------------------------------------------------


def andersen_input(*, scale: int = 1, seed: int = 0) -> dict[str, pd.DataFrame]:
    """Andersen's-analysis EDBs (addressOf/assign/load/store).

    ``scale`` 1..7 grows the variable domain the way the paper's datasets
    1..7 grow; densities are chosen so pointsTo stays a moderate multiple
    of the input (the paper: "small graphs, moderate number of tuples").
    """
    g = _rng(seed + scale)
    n_vars = int(100 * scale**1.5)

    def pairs(m: int) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": g.integers(0, n_vars, m).astype("int64"),
                "dst": g.integers(0, n_vars, m).astype("int64"),
            }
        )

    return {
        "addressOf": pairs(int(0.6 * n_vars)),
        "assign": pairs(int(0.9 * n_vars)),
        "load": pairs(int(0.2 * n_vars)),
        "store": pairs(int(0.2 * n_vars)),
    }


def cspa_input(*, scale: float = 1, seed: int = 0) -> dict[str, pd.DataFrame]:
    """CSPA EDBs (assign/dereference) with clustered structure.

    Variables are grouped into clusters (functions after cloning);
    assignments mostly stay within a cluster, which yields the large
    nonlinear per-iteration deltas the paper reports for CSPA. ``scale``
    may be fractional (CSPA cost grows superlinearly in the domain).
    """
    g = _rng(int(seed + 10 * scale))
    n_vars = int(300 * scale)
    cluster = 30
    n_assign = int(1.5 * n_vars)
    a_src = g.integers(0, n_vars, n_assign)
    offs = g.integers(-cluster // 2, cluster // 2 + 1, n_assign)
    a_dst = np.clip(a_src + offs, 0, n_vars - 1)
    n_deref = int(0.5 * n_vars)
    d_src = g.integers(0, n_vars, n_deref)
    d_dst = g.integers(0, n_vars, n_deref)
    return {
        "assign": pd.DataFrame(
            {"src": a_src.astype("int64"), "dst": a_dst.astype("int64")}
        ),
        "dereference": pd.DataFrame(
            {"src": d_src.astype("int64"), "dst": d_dst.astype("int64")}
        ),
    }


def csda_input(*, scale: int = 1, seed: int = 0, depth: int = 100) -> dict[str, pd.DataFrame]:
    """CSDA EDBs (nullEdge/arc): deep, sparse control-flow chains.

    ``depth`` controls the iteration count of the linear ``null`` fixpoint
    (the paper's linux/postgresql/httpd need ~1000 iterations; the default
    100 keeps the same many-iterations/tiny-delta regime at repo scale).
    """
    g = _rng(seed + scale)
    n_chains = 20 * scale
    arcs = chain_arcs(length=depth, n_chains=n_chains, cross_p=0.02, seed=seed + scale)
    # Null seeds: a handful of edges out of chain heads.
    heads = np.arange(n_chains) * depth
    null_src = np.tile(heads, 2)
    null_dst = np.concatenate([heads + 1, heads + g.integers(1, depth // 2, n_chains)])
    null_edge = pd.DataFrame(
        {"src": null_src.astype("int64"), "dst": null_dst.astype("int64")}
    )
    return {"nullEdge": null_edge, "arc": arcs}
