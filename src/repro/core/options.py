"""Engine configuration: one switch per optimization of Section 5.

The defaults are "RecStep with everything on". Each flag maps to one of
the paper's ablations (Figure 2/3): turning a flag off reproduces the
corresponding OOF-NA / OOF-FA / no-UIE / no-DSD / no-EOST / no-FAST-DEDUP
configuration; :data:`ABLATIONS` names the Figure 2 configurations.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RecStepOptions:
    """Switches for the optimizations of Section 5.

    Attributes
    ----------
    uie:
        Unified IDB Evaluation — evaluate all subqueries deriving one IDB
        as a single unioned plan (True) instead of materializing each
        subquery separately and unioning afterwards (False).
    oof:
        Optimization On the Fly mode: ``"oof"`` collects exactly the
        statistics each decision needs (table sizes for join sides and
        set difference); ``"na"`` collects nothing and keeps a static
        plan; ``"fa"`` collects the full statistics set (per-column
        min/max/avg too), reproducing the paper's OOF-FA overhead.
    dsd:
        Dynamic Set Difference — choose OPSD/TPSD per iteration with the
        Appendix A cost model (True) or always use ``static_setdiff``.
    eost:
        Evaluation as One Single Transaction — keep all iteration state
        in memory (``localCheckpoint``) and only deliver results at the
        end (True), or commit every iteration's IDB state to Parquet and
        read it back, emulating per-query transactional I/O (False).
    fast_dedup:
        Compact-concatenated-key deduplication for narrow all-integer
        relations (True) or generic multi-column ``dropDuplicates``.
    pbme:
        Parallel Bit-Matrix Evaluation for TC/SG-shaped programs on
        small active domains (Section 5.3).
    alpha:
        DSD cost-model build/probe cost ratio (α). Calibrate offline with
        :func:`repro.core.setdiff.calibrate_alpha` or keep the default.
    broadcast_rows:
        OOF join-side decision: a relation whose latest analyzed row
        count is below this is broadcast-hinted (the Catalyst analogue of
        "build the hash table on the smaller side").
    static_setdiff:
        Translation used when ``dsd`` is off: ``"opsd"`` or ``"tpsd"``.
    pbme_max_vertices:
        PBME applies only if two n×n bit matrices fit comfortably in
        memory (paper: "only if the memory available can fit the bit
        matrix and its indexes").
    local_rows:
        A semi-naive round starts on the driver over pandas
        (:mod:`repro.core.local`) when every relation it reads is within
        this many rows; other rounds run on Spark. On the driver the
        bound caps each join slice and R ∪ ΔR, not the round's
        candidates: a join larger than this is built in slices that
        each fit, and the step moves to Spark before one row's join or
        R ∪ ΔR (an aggregate's candidates) would pass it. 0 runs every
        round on Spark, which is what the Section 5 optimizations above
        act on. The bound caps the driver's memory, not its time. On a
        4-core host (warm, default against 0, one sitting) the driver
        won on every recursive program tried: Table 4's CSDA 1.8 s
        against 32.4 s, Andersen 21.5 against 38.7 s and CSPA 17.1
        against 23.0 s (every round on the driver), tc over
        ``gnp_arcs(990, 0.02)`` 8.1 against 10.6 s (every round, joins
        sliced at the bound) and over ``gnp_arcs(1200, 0.005)`` 12.7
        against 13.5 s (4 of 9 rounds). A 998,001-row join at the bound
        took 0.8 s warm (the round 0.2 s; 2.1 s on Spark in an earlier
        sitting). An EDB within the bound enters on the driver, from one
        job that collects at most this many rows plus one. The driver
        holds one slice per join level, R ∪ ΔR, the tables decoded from
        R and Δ, and the head: its Python peak RSS reached 335 MB on the tc-shaped
        ``gnp_arcs(990, 0.02)`` run and 387–393 MB on CSPA and
        Andersen, whose three-atom rules hold two slices (about 120 MB
        of each figure is the interpreter with pyspark and pandas),
        just above the 384 MB minimum of ``spark.driver.memoryOverhead``.
    """

    uie: bool = True
    oof: str = "oof"
    dsd: bool = True
    eost: bool = True
    fast_dedup: bool = True
    pbme: bool = False
    alpha: float = 2.0
    broadcast_rows: int = 200_000
    static_setdiff: str = "opsd"
    pbme_max_vertices: int = 20_000
    local_rows: int = 1_000_000

    def __post_init__(self) -> None:
        if self.oof not in ("oof", "na", "fa"):
            raise ValueError(f"oof mode must be oof/na/fa, got {self.oof!r}")
        if self.static_setdiff not in ("opsd", "tpsd"):
            raise ValueError(f"static_setdiff must be opsd/tpsd, got {self.static_setdiff!r}")
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1 (building costs more than probing)")
        if self.local_rows < 0:
            raise ValueError(f"local_rows must be >= 0, got {self.local_rows}")


#: The Figure 2 configurations on CSPA: everything on, each optimization
#: off on its own, and RecStep-NO-OP (everything off). The optimizations
#: act on Spark rounds, so every configuration runs all rounds on Spark.
ABLATIONS: dict[str, RecStepOptions] = {
    "all_on": RecStepOptions(local_rows=0),
    "no_uie": RecStepOptions(uie=False, local_rows=0),
    "oof_na": RecStepOptions(oof="na", local_rows=0),
    "oof_fa": RecStepOptions(oof="fa", local_rows=0),
    "no_dsd": RecStepOptions(dsd=False, local_rows=0),
    "no_eost": RecStepOptions(eost=False, local_rows=0),
    "no_fast_dedup": RecStepOptions(fast_dedup=False, local_rows=0),
    "all_off": RecStepOptions(
        uie=False, oof="na", dsd=False, eost=False, fast_dedup=False, pbme=False,
        local_rows=0,
    ),
}
