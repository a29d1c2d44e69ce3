"""Naive and BigDatalog-like Spark engine tests."""
import pandas as pd
import pytest

from repro import synth_data
from repro.baselines.bigdatalog import (
    BIGDATALOG_OPTIONS,
    BigDatalogLikeEngine,
    UnsupportedProgramError,
)
from repro.baselines.naive import NaiveEngine
from repro.baselines import souffle_like
from repro.core import RecStepEngine
from repro.datalog import programs
from repro.oracle import assert_equivalent

from helpers import TC_SQL, REACH_SQL, ref_components_min

GRAPH = synth_data.gnp_arcs(n=30, p=0.06, seed=21)


class TestNaiveEngine:
    def test_tc(self, spark):
        out = NaiveEngine(spark).evaluate(
            programs.get_program("tc"), {"arc": spark.createDataFrame(GRAPH)}
        )
        assert_equivalent(out["tc"], TC_SQL, arc=GRAPH)

    def test_naive_needs_more_iterations_than_semi_naive(self, spark):
        chain = pd.DataFrame({"src": range(6), "dst": range(1, 7)})
        naive = NaiveEngine(spark)
        naive.evaluate(programs.get_program("tc"), {"arc": spark.createDataFrame(chain)})
        # Naive re-runs the full rules each round; round count ~ diameter.
        assert naive.iterations["tc"] >= 6

    def test_cc_meld_fixpoint(self, spark):
        out = NaiveEngine(spark).evaluate(
            programs.get_program("cc"), {"arc": spark.createDataFrame(GRAPH)}
        )
        got = {int(r["c0"]): int(r["c1"]) for r in out["cc3"].collect()}
        assert got == ref_components_min(GRAPH)

    def test_negation(self, spark):
        chain = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        out = NaiveEngine(spark).evaluate(
            programs.get_program("negated_tc"), {"arc": spark.createDataFrame(chain)}
        )
        expected = souffle_like.evaluate(
            programs.get_program("negated_tc"), {"arc": chain}
        )["ntc"]
        assert_equivalent(out["ntc"], "SELECT * FROM expected", expected=expected)


class TestBigDatalogLike:
    def test_options_are_all_off_but_in_memory(self):
        assert not BIGDATALOG_OPTIONS.uie
        assert BIGDATALOG_OPTIONS.oof == "na"
        assert not BIGDATALOG_OPTIONS.dsd
        assert not BIGDATALOG_OPTIONS.fast_dedup
        assert not BIGDATALOG_OPTIONS.pbme
        assert BIGDATALOG_OPTIONS.local_rows == 0  # every round on Spark
        assert BIGDATALOG_OPTIONS.eost  # RDD caching, no commit I/O

    def test_tc(self, spark):
        out = BigDatalogLikeEngine(spark).evaluate(
            programs.get_program("tc"), {"arc": spark.createDataFrame(GRAPH)}
        )
        assert_equivalent(out["tc"], TC_SQL, arc=GRAPH)

    def test_reach(self, spark):
        src = pd.DataFrame({"v": [int(GRAPH["src"].iloc[0])]})
        out = BigDatalogLikeEngine(spark).evaluate(
            programs.get_program("reach"),
            {"arc": spark.createDataFrame(GRAPH), "id": spark.createDataFrame(src)},
        )
        assert_equivalent(out["reach"], REACH_SQL, arc=GRAPH, id=src)

    def test_recursive_aggregation_supported(self, spark):
        out = BigDatalogLikeEngine(spark).evaluate(
            programs.get_program("cc"), {"arc": spark.createDataFrame(GRAPH)}
        )
        got = {int(r["c0"]): int(r["c1"]) for r in out["cc3"].collect()}
        assert got == ref_components_min(GRAPH)

    def test_nonlinear_non_mutual_supported(self, spark):
        edb = {k: v.head(25) for k, v in synth_data.andersen_input(scale=1, seed=7).items()}
        out = BigDatalogLikeEngine(spark).evaluate(
            programs.get_program("andersen"),
            {k: spark.createDataFrame(v) for k, v in edb.items()},
        )
        expected = souffle_like.evaluate(programs.get_program("andersen"), edb)["pointsTo"]
        assert_equivalent(out["pointsTo"], "SELECT * FROM expected", expected=expected)

    def test_mutual_recursion_rejected(self, spark):
        edb = synth_data.cspa_input(scale=1, seed=0)
        with pytest.raises(UnsupportedProgramError, match="mutual"):
            BigDatalogLikeEngine(spark).evaluate(
                programs.get_program("cspa"),
                {k: spark.createDataFrame(v) for k, v in edb.items()},
            )

    def test_agrees_with_recstep(self, spark):
        edb = {"arc": spark.createDataFrame(GRAPH)}
        a = BigDatalogLikeEngine(spark).evaluate(programs.get_program("sg"), edb)["sg"]
        b = RecStepEngine(spark).evaluate(programs.get_program("sg"), edb)["sg"]
        assert sorted(map(tuple, a.collect())) == sorted(map(tuple, b.collect()))
