"""PBME tests: bit-matrix helpers, shape matching, and result parity
with the relational engine (Algorithms 2, 3)."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core import RecStepEngine, RecStepOptions
from repro.core import pbme
from repro.datalog import analyze, programs
from repro.datalog.parser import parse_program
from repro.oracle import assert_equivalent

from helpers import TC_SQL, ref_same_generation


class TestPacking:
    def test_pack_and_row_bits(self):
        src = np.array([0, 0, 1, 2])
        dst = np.array([1, 65, 2, 0])
        m = pbme.pack_matrix(src, dst, 70)
        assert m.shape == (70, 2)
        assert list(pbme.row_bits(m[0], 70)) == [1, 65]
        assert list(pbme.row_bits(m[1], 70)) == [2]
        assert list(pbme.row_bits(m[2], 70)) == [0]

    def test_matrix_to_pairs_roundtrip(self):
        src = np.array([3, 5, 5])
        dst = np.array([64, 0, 127])
        m = pbme.pack_matrix(src, dst, 128)
        pairs = pbme.matrix_to_pairs(m, 128)
        assert sorted(map(tuple, pairs.values)) == [(3, 64), (5, 0), (5, 127)]

    def test_closure_row_chain(self):
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 3])
        m = pbme.pack_matrix(src, dst, 4)
        closed = pbme._closure_row(m, 0, 4)
        assert list(pbme.row_bits(closed, 4)) == [1, 2, 3]

    def test_closure_row_cycle_terminates(self):
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 0])
        m = pbme.pack_matrix(src, dst, 3)
        closed = pbme._closure_row(m, 0, 3)
        assert list(pbme.row_bits(closed, 3)) == [0, 1, 2]

    def test_empty_matrix(self):
        m = pbme.pack_matrix(np.array([], dtype=int), np.array([], dtype=int), 5)
        assert not m.any()
        assert pbme.matrix_to_pairs(m, 5).empty


class TestShapeMatching:
    def test_tc_matches(self):
        shape = pbme.match_program(analyze(programs.get_program("tc")))
        assert shape == pbme.PbmeShape("tc", "tc", "arc")

    def test_sg_matches(self):
        shape = pbme.match_program(analyze(programs.get_program("sg")))
        assert shape == pbme.PbmeShape("sg", "sg", "arc")

    def test_renamed_tc_matches(self):
        p = parse_program(
            "path(a, b) :- edge(a, b). path(a, b) :- path(a, c), edge(c, b)."
        )
        shape = pbme.match_program(analyze(p))
        assert shape == pbme.PbmeShape("tc", "path", "edge")

    @pytest.mark.parametrize(
        "text",
        [
            # reversed recursion (right-linear) is a different shape
            "tc(x, y) :- arc(x, y). tc(x, y) :- arc(x, z), tc(z, y).",
            # reach is unary
            "reach(y) :- id(y). reach(y) :- reach(x), arc(x, y).",
            # extra rule
            "tc(x, y) :- arc(x, y). tc(x, y) :- tc(x, z), arc(z, y). tc(x, x) :- arc(x, y).",
            # sg without the inequality guard
            "sg(x, y) :- arc(p, x), arc(p, y). sg(x, y) :- arc(a, x), sg(a, b), arc(b, y).",
        ],
    )
    def test_non_matching_shapes(self, text):
        assert pbme.match_program(analyze(parse_program(text))) is None


class TestPbmeResults:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tc_matches_duckdb(self, spark, seed):
        arc = synth_data.gnp_arcs(n=60, p=0.04, seed=seed)
        out = pbme.pbme_tc(spark, arc.set_axis(["c0", "c1"], axis=1), 60)
        assert_equivalent(out, TC_SQL, arc=arc)

    def test_sg_matches_reference(self, spark):
        arc = synth_data.gnp_arcs(n=40, p=0.06, seed=3)
        out = pbme.pbme_sg(spark, arc.set_axis(["c0", "c1"], axis=1), 40)
        got = set(out.itertuples(index=False, name=None))
        assert got == ref_same_generation(arc)

    def test_engine_dispatches_pbme(self, spark):
        arc = synth_data.gnp_arcs(n=30, p=0.08, seed=4)
        eng = RecStepEngine(spark, RecStepOptions(pbme=True))
        out = eng.evaluate(
            programs.get_program("tc"), {"arc": spark.createDataFrame(arc)}
        )
        assert eng.metrics.pbme_used
        assert_equivalent(out["tc"], TC_SQL, arc=arc)

    def test_engine_skips_pbme_when_domain_too_large(self, spark):
        arc = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        eng = RecStepEngine(spark, RecStepOptions(pbme=True, pbme_max_vertices=2))
        out = eng.evaluate(
            programs.get_program("tc"), {"arc": spark.createDataFrame(arc)}
        )
        assert not eng.metrics.pbme_used  # fell back to relational path
        assert out["tc"].count() == 3

    def test_engine_skips_pbme_for_non_matching_program(self, spark):
        arc = pd.DataFrame({"src": [0], "dst": [1]})
        src = pd.DataFrame({"v": [0]})
        eng = RecStepEngine(spark, RecStepOptions(pbme=True))
        out = eng.evaluate(
            programs.get_program("reach"),
            {"arc": spark.createDataFrame(arc), "id": spark.createDataFrame(src)},
        )
        assert not eng.metrics.pbme_used
        assert out["reach"].count() == 2

    def test_pbme_sg_empty_init(self, spark):
        # A pure chain has no two children of one parent -> sg is empty.
        arc = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})
        out = pbme.pbme_sg(spark, arc.set_axis(["c0", "c1"], axis=1), 4)
        assert out.empty
        # The engine returns the empty result as a typed Spark frame.
        eng = RecStepEngine(spark, RecStepOptions(pbme=True))
        res = eng.evaluate(programs.get_program("sg"), {"arc": spark.createDataFrame(arc)})
        assert eng.metrics.pbme_used
        assert res["sg"].dtypes == [("c0", "bigint"), ("c1", "bigint")]
        assert res["sg"].count() == 0

    def test_pbme_vs_relational_same_result(self, spark):
        arc = synth_data.rmat_arcs(n=32, edge_factor=2, seed=6)
        arc = arc[arc["src"] != arc["dst"]]  # drop self loops for variety
        rel = RecStepEngine(spark).evaluate(
            programs.get_program("sg"), {"arc": spark.createDataFrame(arc)}
        )["sg"]
        bit = RecStepEngine(spark, RecStepOptions(pbme=True)).evaluate(
            programs.get_program("sg"), {"arc": spark.createDataFrame(arc)}
        )["sg"]
        assert sorted(map(tuple, rel.collect())) == sorted(map(tuple, bit.collect()))

    def test_null_arcs_take_the_relational_path(self, spark):
        arc = spark.createDataFrame([(0, 1), (1, 2), (2, None)], "src bigint, dst bigint")
        eng = RecStepEngine(spark, RecStepOptions(pbme=True))
        out = eng.evaluate(programs.get_program("tc"), {"arc": arc})
        assert not eng.metrics.pbme_used
        want = RecStepEngine(spark, RecStepOptions(local_rows=0)).evaluate(
            programs.get_program("tc"), {"arc": arc}
        )
        assert sorted(map(tuple, out["tc"].collect()), key=repr) == sorted(
            map(tuple, want["tc"].collect()), key=repr
        )
