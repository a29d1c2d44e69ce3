"""End-to-end RecStep engine tests over all benchmark programs.

Linear programs are oracle-checked against DuckDB ``WITH RECURSIVE``
through ``repro.oracle.assert_equivalent``; nonlinear/mutual programs
are checked against the independent single-node reference engine (whose
results are fed through the same oracle path).

The program and contract checks run on each round executor: the default
engine (``local``: these inputs are small, so rounds run on the
driver), every round on Spark (``spark``) and a threshold that CHAIN's
closure crosses mid-stratum (``mixed``). Tests of Spark mechanisms pin
``local_rows=0``.
"""
import ast
import inspect
import os

import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql.classic import dataframe as classic_df

from repro import synth_data
from repro.baselines import souffle_like
from repro.baselines.naive import NaiveEngine
from repro.core import RecStepEngine, RecStepOptions, local
from repro.core.compiler import empty_relation
from repro.core.options import ABLATIONS
from repro.datalog import analyze, programs
from repro.datalog.parser import parse_program
from repro.oracle import assert_equivalent

from helpers import CSDA_SQL, REACH_SQL, TC_SQL, ref_components_min, ref_sssp


GRAPH = synth_data.gnp_arcs(n=40, p=0.05, seed=11)
CHAIN = pd.DataFrame({"src": range(9), "dst": range(1, 10)})
WEIGHTED = synth_data.add_weights(
    synth_data.rmat_arcs(n=32, edge_factor=4, seed=2), seed=2
)


#: The round executors the program and contract checks run on.
EXECUTORS = {
    "spark": RecStepOptions(local_rows=0),
    "local": RecStepOptions(),
    # CHAIN's closure (45 tuples) passes 30 rows in round 5 of 10, so
    # round 5 falls back and rounds 5-10 run on Spark.
    "mixed": RecStepOptions(local_rows=30),
}


@pytest.fixture(scope="module")
def engine(spark, request):
    """The default engine, or the executor named by an indirect
    parametrization (the ``*OnSparkAndMixed`` classes)."""
    return RecStepEngine(spark, EXECUTORS[getattr(request, "param", "local")])


#: Reruns a test class's checks with every round on Spark and with a
#: stratum that crosses from the driver to Spark.
on_spark_and_mixed = pytest.mark.parametrize("engine", ["spark", "mixed"], indirect=True)


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


@on_spark_and_mixed
class TestLinearProgramsOnSparkAndMixed(TestLinearProgramsVsDuckDB):
    pass


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


@on_spark_and_mixed
class TestNonlinearProgramsOnSparkAndMixed(TestNonlinearProgramsVsReference):
    pass


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


@on_spark_and_mixed
class TestAggregationProgramsOnSparkAndMixed(TestAggregationPrograms):
    pass


class TestNegation:
    def test_negated_tc(self, spark, engine):
        check_negated_tc(spark, engine)


@on_spark_and_mixed
class TestNegationOnSparkAndMixed(TestNegation):
    pass


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
        **ABLATIONS,
        "no_dsd_tpsd": RecStepOptions(dsd=False, static_setdiff="tpsd", local_rows=0),
        "default": RecStepOptions(),
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
        eng = RecStepEngine(spark, ABLATIONS["oof_na"])
        eng.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": CHAIN}))
        assert eng.metrics.analyze_calls == 0

    def test_oof_runs_analyze(self, spark):
        eng = RecStepEngine(spark, EXECUTORS["spark"])
        eng.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": CHAIN}))
        assert eng.metrics.analyze_calls > 0

    def test_dsd_switches_methods_on_growing_relation(self, spark):
        # On a long chain, |R| grows while |Rδ| shrinks -> β crosses the
        # TPSD threshold in later iterations.
        long_chain = pd.DataFrame({"src": range(30), "dst": range(1, 31)})
        eng = RecStepEngine(spark, RecStepOptions(alpha=2.0, local_rows=0))
        eng.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": long_chain}))
        assert "tpsd" in eng.metrics.setdiff_choices
        assert "opsd" in eng.metrics.setdiff_choices

    def test_static_setdiff_never_switches(self, spark):
        eng = RecStepEngine(
            spark, RecStepOptions(dsd=False, static_setdiff="opsd", local_rows=0)
        )
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
        eng = RecStepEngine(spark, RecStepOptions(eost=eost, local_rows=0))
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

    def test_r_partitions_stay_bounded(self, spark):
        # Every round appends ΔR's partitions to R unless R ∪ ΔR is
        # coalesced, so a chain longer than the parallelism exceeds it.
        dp = spark.sparkContext.defaultParallelism
        chain = pd.DataFrame({"src": range(dp + 4), "dst": range(1, dp + 5)})
        out = RecStepEngine(spark, EXECUTORS["spark"]).evaluate(
            programs.get_program("tc"), spark_edb(spark, {"arc": chain})
        )
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
        [
            lambda s, e: e,
            lambda s, e: RecStepEngine(
                s, RecStepOptions(pbme=True, local_rows=e.options.local_rows)
            ),
            lambda s, e: NaiveEngine(s),
        ],
        ids=["recstep", "recstep_pbme", "naive"],
    )
    def test_string_ids(self, spark, engine, make):
        arc = pd.DataFrame({"src": ["u", "v"], "dst": ["v", "w"]})
        out = make(spark, engine).evaluate(
            programs.get_program("tc"), spark_edb(spark, {"arc": arc})
        )
        assert_equivalent(out["tc"], TC_SQL, arc=arc)


@on_spark_and_mixed
class TestEngineContractOnSparkAndMixed(TestEngineContract):
    pass


class TestRoundExecutors:
    """The driver and Spark executors run the same rounds; a stratum
    moves from the driver to Spark when its relations outgrow
    ``local_rows``."""

    CASES = {
        "tc_chain": ("tc", {"arc": CHAIN}),
        "tc_graph": ("tc", {"arc": GRAPH}),
        "sssp": (
            "sssp",
            {"arc": WEIGHTED, "id": pd.DataFrame({"v": [int(WEIGHTED["src"].iloc[0])]})},
        ),
        "tc_count": ("tc_count", {"arc": CHAIN}),
        "negated_tc": ("negated_tc", {"arc": CHAIN}),
        "cspa": (
            "cspa",
            {k: v.head(50) for k, v in synth_data.cspa_input(scale=1, seed=5).items()},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_iterations_and_result(self, spark, case):
        program, pdfs = self.CASES[case]
        edb = spark_edb(spark, pdfs)
        runs = {}
        for name, opts in EXECUTORS.items():
            eng = RecStepEngine(spark, opts)
            out = eng.evaluate(programs.get_program(program), edb)
            rows = {p: sorted(map(tuple, df.collect())) for p, df in out.items()}
            runs[name] = (eng.metrics.iterations, rows, eng.metrics.local_rounds)
        assert runs["spark"][0] == runs["local"][0] == runs["mixed"][0]
        assert runs["spark"][1] == runs["local"][1] == runs["mixed"][1]
        assert runs["spark"][2] == 0

    def test_default_runs_chain_on_the_driver(self, spark):
        eng = RecStepEngine(spark)
        eng.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": CHAIN}))
        assert eng.metrics.local_rounds == eng.metrics.iterations["tc"] == 10

    def test_mixed_moves_to_spark_mid_stratum(self, spark):
        eng = RecStepEngine(spark, EXECUTORS["mixed"])
        out = eng.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": CHAIN}))
        assert (eng.metrics.local_rounds, eng.metrics.iterations["tc"]) == (4, 10)
        assert_equivalent(out["tc"], TC_SQL, arc=CHAIN)

    def test_fan_out_moves_the_round_to_spark(self, spark, monkeypatch):
        """A join that would pass ``local_rows`` is built in slices that
        each fit; results that pass it (R ∪ ΔR, 1600 and 1200 rows here)
        move the step to Spark before they are held."""
        star = pd.DataFrame({"x": range(40), "k": 0})
        pairs = pd.DataFrame({"x": range(600), "y": range(1, 601)})
        program = parse_program(
            "q(x, y) :- a(x, k), a(y, k).\n"      # keyed join: 1600 rows
            "p(x, y) :- a(x, _), a(y, _).\n"      # cross join: 1600 rows
            "r(x, y) :- c(x, y).\nr(y, x) :- c(x, y)."  # 1200 candidates
        )
        built = []
        merge = pd.DataFrame.merge

        def sized(df, *args, **kwargs):
            out = merge(df, *args, **kwargs)
            built.append(len(out))
            return out

        monkeypatch.setattr(pd.DataFrame, "merge", sized)
        eng = RecStepEngine(spark, RecStepOptions(local_rows=1000))
        out = eng.evaluate(program, spark_edb(spark, {"a": star, "c": pairs}))
        assert eng.metrics.local_rounds == 0
        assert max(built, default=0) <= 1000
        assert out["q"].count() == out["p"].count() == 1600
        assert out["r"].count() == 1200

    #: Two sources joined to 20 middles that all reach the same 20 sinks,
    #: and a shortcut (0, 22): round 2's Δ-join builds 800 candidates, 40
    #: of them distinct, one of those already in R (441 rows before the
    #: round, 480 after).
    FAN_IN = pd.DataFrame(
        [(x, z) for x in range(2) for z in range(2, 22)]
        + [(z, y) for z in range(2, 22) for y in range(22, 42)]
        + [(0, 22)],
        columns=["src", "dst"],
    )

    @staticmethod
    def merges(monkeypatch) -> list[int]:
        """The row count of every ``DataFrame.merge`` built from now on."""
        built = []
        merge = pd.DataFrame.merge

        def sized(df, *args, **kwargs):
            out = merge(df, *args, **kwargs)
            built.append(len(out))
            return out

        monkeypatch.setattr(pd.DataFrame, "merge", sized)
        return built

    @pytest.mark.parametrize("program", [
        programs.PROGRAMS["tc"][0],
        # Δ second in the body: its slices lead the join instead of arc's
        "tc(x, y) :- arc(x, y).\ntc(x, y) :- arc(x, z), tc(z, y).",
    ], ids=["delta_first", "delta_second"])
    def test_sliced_join_stays_on_the_driver(self, spark, monkeypatch, program):
        """A Δ-join past ``local_rows`` whose R ∪ ΔR fits is built in
        slices, each within the bound, and the round stays on the driver."""
        built = self.merges(monkeypatch)
        eng = RecStepEngine(spark, RecStepOptions(local_rows=500))
        out = eng.evaluate(parse_program(program), spark_edb(spark, {"arc": self.FAN_IN}))
        largest = max(built)
        monkeypatch.undo()
        assert eng.metrics.local_rounds == eng.metrics.iterations["tc"] == 3
        assert largest <= 500
        assert_equivalent(out["tc"], TC_SQL, arc=self.FAN_IN)

    def test_results_past_the_bound_fall_back_mid_round(self, spark, monkeypatch):
        """R ∪ ΔR passes ``local_rows`` at round 2's second slice, after
        the first was merged into ΔR: the step falls back with R, its
        count and μ unchanged, and Spark finishes the round."""
        # FAN_IN without the shortcut, plus 0 -> 50 -> 30 leaves: the
        # first slice adds 40 tuples to R (471 -> 511), the second 30.
        arc = pd.concat([
            self.FAN_IN.iloc[:-1],
            pd.DataFrame({"src": [0] + [50] * 30, "dst": [50, *range(60, 90)]}),
        ], ignore_index=True)
        fell = []
        local_step = RecStepEngine._local_step

        def observed(self, ev, pred, deltas):
            before = (ev.rels[pred], ev.stats.rows(pred), ev.mu.get(pred))
            try:
                return local_step(self, ev, pred, deltas)
            except local.Fallback as exc:
                fell.append(str(exc))
                assert (ev.rels[pred], ev.stats.rows(pred), ev.mu.get(pred)) == before
                raise

        monkeypatch.setattr(RecStepEngine, "_local_step", observed)
        eng = RecStepEngine(spark, RecStepOptions(local_rows=520))
        out = eng.evaluate(programs.get_program("tc"), spark_edb(spark, {"arc": arc}))
        assert fell == ["R ∪ ΔR of 541 rows"]
        assert (eng.metrics.local_rounds, eng.metrics.iterations["tc"]) == (1, 3)
        assert_equivalent(out["tc"], TC_SQL, arc=arc)

    M = 2**21 - 1  # three columns of 21 bits fill the 63-bit key
    PACKING = {
        "split_duplicate": (True, "tc", {"arc": FAN_IN}),
        "bit_edge": (
            True,
            "p(x, y, z) :- t(x, y, z).\np(x, y, w) :- p(x, y, z), e(z, w).",
            {
                "t": pd.DataFrame({"a": [0, M, 1], "b": [M, 0, 2], "c": [0, M, 3]}),
                "e": pd.DataFrame({"s": [0, M, 3, M], "d": [M, 0, M, 1]}),
            },
        ),
        "negative_ids": (
            False, "tc", {"arc": pd.DataFrame({"src": [-1, 0, -2], "dst": [0, -2, 5]})},
        ),
        "string_ids": (
            False, "tc", {"arc": pd.DataFrame({"src": ["a", "b", "c"], "dst": ["b", "c", "a"]})},
        ),
    }

    @pytest.mark.parametrize("case", sorted(PACKING))
    def test_packed_and_generic_rounds_agree(self, spark, monkeypatch, case):
        """FAST-DEDUP's packed keys and the generic merge give the same
        rounds — |R|, |ΔR| and |Rδ| per step — and Spark's result; the
        packed path engages only on non-negative integer tuples that fit
        the key."""
        packs, program, pdfs = self.PACKING[case]
        program = programs.get_program(program) if program == "tc" else parse_program(program)
        edb = spark_edb(spark, pdfs)
        steps = []
        step = local.step

        def observed(*args, **kwargs):
            rel, delta, new_rows = step(*args, **kwargs)
            steps[-1].append((rel.rows(), delta.rows(), new_rows, rel.keys is not None))
            return rel, delta, new_rows

        monkeypatch.setattr(local, "step", observed)
        runs = {}
        for fast in (True, False):
            steps.append([])
            eng = RecStepEngine(spark, RecStepOptions(local_rows=500, fast_dedup=fast))
            out = eng.evaluate(program, edb)
            assert eng.metrics.local_rounds == max(eng.metrics.iterations.values())
            runs[fast] = (eng.metrics.iterations, {p: sorted(map(tuple, df.collect()))
                                                   for p, df in out.items()})
        eng = RecStepEngine(spark, EXECUTORS["spark"])
        out = eng.evaluate(program, edb)
        spark_run = (eng.metrics.iterations, {p: sorted(map(tuple, df.collect()))
                                              for p, df in out.items()})
        assert runs[True] == runs[False] == spark_run
        packed, generic = steps
        assert [s[:3] for s in packed] == [s[:3] for s in generic]
        assert {s[3] for s in packed} == {packs} and not any(s[3] for s in generic)
        if case == "split_duplicate":
            # Round 2: 40 distinct candidates over 2 slices, 1 already in R.
            assert packed[1][:3] == (480, 39, 40)

    def test_join_is_sized_from_key_counts(self, spark):
        # 40 × 40 rows, but each key matches once: a 40-row join.
        a = pd.DataFrame({"x": range(40), "k": range(40)})
        eng = RecStepEngine(spark, RecStepOptions(local_rows=1000))
        out = eng.evaluate(
            parse_program("q(x, y) :- a(x, k), a(y, k)."), spark_edb(spark, {"a": a})
        )
        assert eng.metrics.local_rounds == 1
        assert out["q"].count() == 40

    def test_results_are_typed_spark_frames(self, spark, engine):
        arc = spark.createDataFrame([], "src bigint, dst bigint")
        out = engine.evaluate(programs.get_program("tc"), {"arc": arc})
        assert out["tc"].dtypes == [("c0", "bigint"), ("c1", "bigint")]
        assert out["tc"].count() == 0

    def test_local_and_oracle_share_no_code(self):
        """``souffle_like`` stays an independent oracle of the driver
        executor: neither module imports the other."""
        for mod, other in [(local, "souffle_like"), (souffle_like, "local")]:
            tree = ast.parse(inspect.getsource(mod))
            names = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
            names |= {
                f"{n.module}.{a.name}"
                for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for a in n.names
            }
            assert not any(name.split(".")[-1] == other or f".{other}." in name
                           for name in names), (mod.__name__, names)


class TestExecutorSemantics:
    """Where pandas and Spark answer differently — NULLs, 64-bit
    overflow (an error under ANSI SQL), strings meeting numbers — every
    executor gives Spark's answer."""

    CASES = {
        "min_over_empty_feeds_a_later_stratum": (
            "m(MIN(x)) :- e(x).\nc(x) :- m(x).\nj(y) :- m(x), f(x, y).",
            {"e": ([], "x bigint"), "f": ([(1, 2)], "x bigint, y bigint")},
        ),
        "null_in_edb": (
            "q(x, y) :- e(x, y).\nt(x, z) :- e(x, y), e(y, z).\nn(x) :- f(x), !e(x, _).",
            {
                "e": ([(1, None), (None, 2), (1, 3), (3, 4)], "x bigint, y bigint"),
                "f": ([(1,), (2,), (None,)], "x bigint"),
            },
        ),
        "product_overflows": (
            "q(x * 4611686018427387904) :- e(x).", {"e": ([(3,)], "x bigint")},
        ),
        "sum_overflows": (
            "s(SUM(x)) :- e(x).",
            {"e": ([(2**62,), (2**62 + 1,)], "x bigint")},
        ),
        "sum_near_the_limit": (
            "s(SUM(x)) :- e(x).\nq(x + 1) :- e(x).",
            {"e": ([(2**61,), (2**61 + 1,)], "x bigint")},
        ),
        "string_joins_number": (
            "q(x) :- s(x), n(x).", {"s": ([("1",), ("a",)], "x string"), "n": ([(1,)], "x bigint")},
        ),
        "string_against_constant": (
            "q(x) :- s(x), x != 1.\np(x) :- s(x), s(1).",
            {"s": ([("1",), ("a",)], "x string")},
        ),
        "double_joins_long": (
            "q(x) :- d(x), n(x).\nr(x + 1) :- d(x).",
            {"d": ([(1.0,), (2.5,)], "x double"), "n": ([(1,), (2,)], "x bigint")},
        ),
    }

    @staticmethod
    def outcome(spark, opts, program, edb):
        try:
            out = RecStepEngine(spark, opts).evaluate(parse_program(program), {
                name: spark.createDataFrame(rows, ddl) for name, (rows, ddl) in edb.items()
            })
            return {p: sorted(map(tuple, df.collect()), key=repr) for p, df in out.items()}
        except Exception as exc:  # the executors must fail alike
            return type(exc).__name__

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_outcome_on_every_executor(self, spark, case):
        outcomes = {
            name: self.outcome(spark, opts, *self.CASES[case])
            for name, opts in EXECUTORS.items()
        }
        assert outcomes["local"] == outcomes["spark"] == outcomes["mixed"], outcomes

    def test_min_over_empty_edb_is_one_null_row(self, spark):
        got = self.outcome(
            spark, RecStepOptions(), *self.CASES["min_over_empty_feeds_a_later_stratum"]
        )
        assert got == {"m": [(None,)], "c": [(None,)], "j": []}


class TestReleasedStorage:
    """Each superseded checkpoint or Parquet commit is released once the
    frame that replaces it exists, so storage does not grow with the
    number of rounds."""

    LONG_CHAIN = pd.DataFrame({"src": range(40), "dst": range(1, 41)})
    #: ``handoff``: round 3's R ∪ ΔR passes 100 rows, so round 3 falls
    #: back and hands R and ΔR from the driver to Spark as Parquet files
    CONFIGS = {**ABLATIONS, "handoff": RecStepOptions(local_rows=100)}

    @pytest.mark.parametrize("name", ["all_on", "no_uie", "no_eost", "handoff"])
    def test_held_storage_stays_bounded(self, spark, monkeypatch, name):
        eng = RecStepEngine(spark, self.CONFIGS[name])
        persisted = spark.sparkContext._jsc.getPersistentRDDs
        before = persisted().size()
        held = []
        choose = RecStepEngine._runs_locally

        def observed(self, *args):
            # Called as each round starts, after the last one's releases.
            commits = len(os.listdir(self._commit_dir)) if self._commit_dir else 0
            held.append(persisted().size() - before + commits)
            return choose(self, *args)

        monkeypatch.setattr(RecStepEngine, "_runs_locally", observed)
        arc = spark_edb(spark, {"arc": self.LONG_CHAIN})
        out = eng.evaluate(programs.get_program("tc"), arc)
        assert len(held) == eng.metrics.iterations["tc"] == 41
        assert eng.metrics.local_rounds == (2 if name == "handoff" else 0)
        # The EDB's checkpoint, R and ΔR, whatever the number of rounds.
        assert max(held) <= 3, held
        # The EDB's checkpoint and R (EOST off: the checkpointed result).
        assert persisted().size() - before <= 2
        assert_equivalent(out["tc"], TC_SQL, arc=self.LONG_CHAIN)
