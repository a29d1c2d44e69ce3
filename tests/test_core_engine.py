"""End-to-end RecStep engine tests over all benchmark programs.

Linear programs are oracle-checked against DuckDB ``WITH RECURSIVE``
through ``repro.oracle.assert_equivalent``; nonlinear/mutual programs
are checked against the independent single-node reference engine (whose
results are fed through the same oracle path).
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql.classic import dataframe as classic_df

from repro import synth_data
from repro.baselines import souffle_like
from repro.baselines.naive import NaiveEngine
from repro.core import RecStepEngine, RecStepOptions
from repro.core.compiler import empty_relation
from repro.datalog import analyze, programs
from repro.datalog.parser import parse_program
from repro.oracle import assert_equivalent

from helpers import CSDA_SQL, REACH_SQL, TC_SQL, ref_components_min, ref_sssp


GRAPH = synth_data.gnp_arcs(n=40, p=0.05, seed=11)
CHAIN = pd.DataFrame({"src": range(9), "dst": range(1, 10)})
WEIGHTED = synth_data.add_weights(
    synth_data.rmat_arcs(n=32, edge_factor=4, seed=2), seed=2
)


@pytest.fixture(scope="module")
def engine(spark):
    return RecStepEngine(spark)


def spark_edb(spark, pdfs: dict[str, pd.DataFrame]):
    return {k: spark.createDataFrame(v) for k, v in pdfs.items()}


def reference(program_name: str, pdfs: dict[str, pd.DataFrame]) -> dict[str, pd.DataFrame]:
    return souffle_like.evaluate(programs.get_program(program_name), pdfs)


class TestLinearProgramsVsDuckDB:
    def test_tc(self, spark, engine):
        out = engine.evaluate(
            programs.get_program("tc"), spark_edb(spark, {"arc": GRAPH})
        )
        assert_equivalent(out["tc"], TC_SQL, arc=GRAPH)

    def test_tc_chain(self, spark, engine):
        out = engine.evaluate(
            programs.get_program("tc"), spark_edb(spark, {"arc": CHAIN})
        )
        assert_equivalent(out["tc"], TC_SQL, arc=CHAIN)
        assert engine.metrics.iterations["tc"] >= 4  # doubling-free linear recursion

    def test_reach(self, spark, engine):
        src = pd.DataFrame({"v": [int(GRAPH["src"].iloc[0])]})
        out = engine.evaluate(
            programs.get_program("reach"),
            spark_edb(spark, {"arc": GRAPH, "id": src}),
        )
        assert_equivalent(out["reach"], REACH_SQL, arc=GRAPH, id=src)

    def test_csda(self, spark, engine):
        edb = synth_data.csda_input(scale=1, seed=1, depth=10)
        out = engine.evaluate(programs.get_program("csda"), spark_edb(spark, edb))
        assert_equivalent(
            out["null"], CSDA_SQL, nullEdge=edb["nullEdge"], arc=edb["arc"]
        )


class TestNonlinearProgramsVsReference:
    def test_sg(self, spark, engine):
        out = engine.evaluate(
            programs.get_program("sg"), spark_edb(spark, {"arc": GRAPH})
        )
        expected = reference("sg", {"arc": GRAPH})["sg"]
        assert_equivalent(out["sg"], "SELECT * FROM expected", expected=expected)

    def test_andersen(self, spark, engine):
        edb = {k: v.head(40) for k, v in synth_data.andersen_input(scale=1, seed=3).items()}
        out = engine.evaluate(programs.get_program("andersen"), spark_edb(spark, edb))
        expected = reference("andersen", edb)["pointsTo"]
        assert_equivalent(out["pointsTo"], "SELECT * FROM expected", expected=expected)

    def test_cspa_mutual_recursion(self, spark, engine):
        edb = {k: v.head(50) for k, v in synth_data.cspa_input(scale=1, seed=5).items()}
        out = engine.evaluate(programs.get_program("cspa"), spark_edb(spark, edb))
        expected = reference("cspa", edb)
        for idb in ("valueFlow", "memoryAlias", "valueAlias"):
            assert_equivalent(
                out[idb], "SELECT * FROM expected", expected=expected[idb]
            )


class TestAggregationPrograms:
    def test_cc_matches_reference(self, spark, engine):
        out = engine.evaluate(
            programs.get_program("cc"), spark_edb(spark, {"arc": GRAPH})
        )
        got = {int(r["c0"]): int(r["c1"]) for r in out["cc3"].collect()}
        assert got == ref_components_min(GRAPH)

    def test_cc_final_projection(self, spark, engine):
        out = engine.evaluate(
            programs.get_program("cc"), spark_edb(spark, {"arc": CHAIN})
        )
        assert [tuple(r) for r in out["cc"].collect()] == [(0,)]

    def test_sssp_matches_dijkstra(self, spark, engine):
        check_sssp(spark, engine)

    def test_tc_count(self, spark, engine):
        check_tc_count(spark, engine)


class TestNegation:
    def test_negated_tc(self, spark, engine):
        check_negated_tc(spark, engine)


def check_sssp(spark, engine):
    source = int(WEIGHTED["src"].iloc[0])
    out = engine.evaluate(
        programs.get_program("sssp"),
        spark_edb(spark, {"arc": WEIGHTED, "id": pd.DataFrame({"v": [source]})}),
    )
    got = {int(r["c0"]): float(r["c1"]) for r in out["sssp"].collect()}
    assert got == pytest.approx(ref_sssp(WEIGHTED, source))


def check_tc_count(spark, engine):
    out = engine.evaluate(
        programs.get_program("tc_count"), spark_edb(spark, {"arc": CHAIN})
    )
    got = {int(r["c0"]): int(r["c1"]) for r in out["gtc"].collect()}
    assert got == {i: 9 - i for i in range(9)}


def check_negated_tc(spark, engine):
    out = engine.evaluate(
        programs.get_program("negated_tc"), spark_edb(spark, {"arc": CHAIN})
    )
    expected = reference("negated_tc", {"arc": CHAIN})["ntc"]
    assert_equivalent(out["ntc"], "SELECT * FROM expected", expected=expected)


class TestOptionAblations:
    """Every optimization configuration must produce identical results
    (the optimizations change cost, never semantics) — Figure 2's axis."""

    CONFIGS = {
        "all_on": RecStepOptions.all_on(),
        "all_off": RecStepOptions.all_off(),
        "no_uie": RecStepOptions().without("uie"),
        "oof_na": RecStepOptions().without("oof"),
        "oof_fa": RecStepOptions().without("oof-fa"),
        "no_dsd_opsd": RecStepOptions(dsd=False, static_setdiff="opsd"),
        "no_dsd_tpsd": RecStepOptions(dsd=False, static_setdiff="tpsd"),
        "no_eost": RecStepOptions().without("eost"),
        "no_fast_dedup": RecStepOptions().without("fast_dedup"),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_tc_same_result(self, spark, name):
        eng = RecStepEngine(spark, self.CONFIGS[name])
        out = eng.evaluate(
            programs.get_program("tc"), spark_edb(spark, {"arc": GRAPH})
        )
        assert_equivalent(out["tc"], TC_SQL, arc=GRAPH)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("check", [check_sssp, check_tc_count, check_negated_tc])
    def test_stratum_kinds_same_result(self, spark, name, check):
        """Recursive MIN meld plus a non-recursive MIN (sssp), a
        non-recursive COUNT after a recursive stratum (tc_count) and a
        non-recursive stratum with negation (negated_tc)."""
        check(spark, RecStepEngine(spark, self.CONFIGS[name]))

    @pytest.mark.parametrize("name", ["all_off", "no_uie", "oof_na"])
    def test_andersen_same_result(self, spark, name):
        edb = {k: v.head(30) for k, v in synth_data.andersen_input(scale=1, seed=9).items()}
        eng = RecStepEngine(spark, self.CONFIGS[name])
        out = eng.evaluate(programs.get_program("andersen"), spark_edb(spark, edb))
        expected = reference("andersen", edb)["pointsTo"]
        assert_equivalent(out["pointsTo"], "SELECT * FROM expected", expected=expected)

    def test_oof_na_runs_no_analyze(self, spark):
        eng = RecStepEngine(spark, RecStepOptions(oof="na"))
        eng.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": CHAIN}))
        assert eng.metrics.analyze_calls == 0

    def test_oof_runs_analyze(self, spark):
        eng = RecStepEngine(spark, RecStepOptions(oof="oof"))
        eng.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": CHAIN}))
        assert eng.metrics.analyze_calls > 0

    def test_dsd_switches_methods_on_growing_relation(self, spark):
        # On a long chain, |R| grows while |Rδ| shrinks -> β crosses the
        # TPSD threshold in later iterations.
        long_chain = pd.DataFrame({"src": range(30), "dst": range(1, 31)})
        eng = RecStepEngine(spark, RecStepOptions(alpha=2.0))
        eng.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": long_chain}))
        assert "tpsd" in eng.metrics.setdiff_choices
        assert "opsd" in eng.metrics.setdiff_choices

    def test_static_setdiff_never_switches(self, spark):
        eng = RecStepEngine(spark, RecStepOptions(dsd=False, static_setdiff="opsd"))
        eng.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": CHAIN}))
        assert set(eng.metrics.setdiff_choices) == {"opsd"}


class TestFusedCounts:
    """Each materialization is one action that also yields the row count;
    R ∪ ΔR stays within the session's default parallelism."""

    FRAMES = {
        "non_empty": lambda spark: spark.createDataFrame(CHAIN),
        "filtered_out": lambda spark: spark.createDataFrame(CHAIN).filter(F.lit(False)),
        "empty_relation": lambda spark: empty_relation(spark, ("long", "long")),
    }

    @pytest.mark.parametrize("eost", [True, False], ids=["eost", "no_eost"])
    @pytest.mark.parametrize("frame", sorted(FRAMES))
    def test_materialize_returns_row_count(self, spark, tmp_path, eost, frame):
        eng = RecStepEngine(spark, RecStepOptions(eost=eost))
        eng._commit_dir = None if eost else str(tmp_path)
        out, rows = eng._materialize(self.FRAMES[frame](spark), "t")
        assert rows == out.count() == (len(CHAIN) if frame == "non_empty" else 0)

    @pytest.mark.parametrize("name", ["all_on", "no_eost"])
    def test_evaluate_runs_no_count(self, spark, monkeypatch, name):
        calls = []
        count = classic_df.DataFrame.count

        def counted(df):
            calls.append(df)
            return count(df)

        edb = spark_edb(spark, {"arc": CHAIN})
        eng = RecStepEngine(spark, TestOptionAblations.CONFIGS[name])
        monkeypatch.setattr(classic_df.DataFrame, "count", counted)
        out = eng.evaluate(programs.get_program("tc"), edb)
        monkeypatch.undo()
        assert len(calls) == 0
        assert_equivalent(out["tc"], TC_SQL, arc=CHAIN)

    def test_r_partitions_stay_bounded(self, spark, engine):
        # Every round appends ΔR's partitions to R unless R ∪ ΔR is
        # coalesced, so a chain longer than the parallelism exceeds it.
        dp = spark.sparkContext.defaultParallelism
        chain = pd.DataFrame({"src": range(dp + 4), "dst": range(1, dp + 5)})
        out = engine.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": chain}))
        assert out["tc"].rdd.getNumPartitions() <= dp
        assert_equivalent(out["tc"], TC_SQL, arc=chain)


class TestEngineContract:
    def test_missing_edb_raises(self, spark, engine):
        with pytest.raises(ValueError, match="missing EDB"):
            engine.evaluate(programs.get_program("tc"), {})

    def test_input_column_names_are_positional(self, spark, engine):
        weird = spark.createDataFrame(
            pd.DataFrame({"from_v": [0, 1], "to_v": [1, 2]})
        )
        out = engine.evaluate(programs.get_program("tc"), {"arc": weird})
        assert out["tc"].columns == ["c0", "c1"]
        assert out["tc"].count() == 3

    def test_duplicate_edges_deduped(self, spark, engine):
        arc = pd.DataFrame({"src": [0, 0, 1], "dst": [1, 1, 2]})
        out = engine.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": arc}))
        assert out["tc"].count() == 3

    def test_empty_edb(self, spark, engine):
        arc = spark.createDataFrame([], "src bigint, dst bigint")
        out = engine.evaluate(programs.get_program("tc"), {"arc": arc})
        assert out["tc"].count() == 0

    def test_negative_ids_supported_via_generic_dedup(self, spark, engine):
        arc = pd.DataFrame({"src": [-3, -2], "dst": [-2, -1]})
        out = engine.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": arc}))
        got = sorted(map(tuple, out["tc"].collect()))
        assert got == [(-3, -2), (-3, -1), (-2, -1)]

    def test_fast_dedup_keeps_values_above_the_edb_bound(self, spark, engine):
        # 2 * 1 exceeds the EDB's largest value, so a compact key sized
        # from the EDBs alone collides (2, 0) with (0, 1).
        e = pd.DataFrame({"a": [1, 0], "b": [0, 1]})
        out = engine.evaluate(
            parse_program("q(x * 2, y) :- e(x, y)."), spark_edb(spark, {"e": e})
        )
        assert sorted(map(tuple, out["q"].collect())) == [(0, 1), (2, 0)]

    @pytest.mark.parametrize(
        "make",
        [RecStepEngine, lambda s: RecStepEngine(s, RecStepOptions(pbme=True)), NaiveEngine],
        ids=["recstep", "recstep_pbme", "naive"],
    )
    def test_string_ids(self, spark, make):
        arc = pd.DataFrame({"src": ["u", "v"], "dst": ["v", "w"]})
        out = make(spark).evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": arc}))
        assert_equivalent(out["tc"], TC_SQL, arc=arc)
