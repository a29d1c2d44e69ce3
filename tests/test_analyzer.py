"""Unit tests for the rule analyzer: safety, stratification, aggregation."""
import pytest

from repro.datalog import programs
from repro.datalog.analyzer import DatalogAnalysisError, analyze
from repro.datalog.parser import parse_program


class TestIdbEdbSplit:
    def test_tc(self):
        a = analyze(programs.get_program("tc"))
        assert a.idbs == {"tc"}
        assert a.edbs == {"arc"}
        assert a.arities == {"tc": 2, "arc": 2}

    def test_cspa(self):
        a = analyze(programs.get_program("cspa"))
        assert a.idbs == {"valueFlow", "memoryAlias", "valueAlias"}
        assert a.edbs == {"assign", "dereference"}

    def test_arity_mismatch_rejected(self):
        with pytest.raises(DatalogAnalysisError, match="arities"):
            analyze(parse_program("p(x) :- q(x). p(x, y) :- q(x), q(y)."))

    def test_empty_program_rejected(self):
        with pytest.raises(DatalogAnalysisError):
            analyze(parse_program(""))


class TestSafety:
    def test_unbound_head_variable(self):
        with pytest.raises(DatalogAnalysisError, match="unsafe"):
            analyze(parse_program("p(x, y) :- q(x)."))

    def test_unbound_condition_variable(self):
        with pytest.raises(DatalogAnalysisError, match="unsafe"):
            analyze(parse_program("p(x) :- q(x), y < 3."))

    def test_unbound_negated_variable(self):
        with pytest.raises(DatalogAnalysisError, match="unsafe"):
            analyze(parse_program("p(x) :- q(x), !r(x, y)."))

    def test_negated_atom_does_not_bind(self):
        # y appears only in a negated atom -> unsafe even though present.
        with pytest.raises(DatalogAnalysisError, match="unsafe"):
            analyze(parse_program("p(x, y) :- q(x), !r(x, y)."))

    def test_safe_program_passes(self):
        analyze(parse_program("p(x) :- q(x), !r(x), x < 5."))


class TestStratification:
    def test_tc_single_recursive_stratum(self):
        a = analyze(programs.get_program("tc"))
        assert len(a.strata) == 1
        assert a.strata[0].predicates == {"tc"}
        assert a.strata[0].recursive

    def test_nonrecursive_program(self):
        a = analyze(parse_program("p(x) :- q(x). r(x) :- p(x)."))
        assert [s.recursive for s in a.strata] == [False, False]
        assert [sorted(s.predicates) for s in a.strata] == [["p"], ["r"]]

    def test_strata_topological_order(self):
        a = analyze(programs.get_program("negated_tc"))
        order = {p: s.index for s in a.strata for p in s.predicates}
        assert order["tc"] < order["ntc"]
        assert order["node"] < order["ntc"]

    def test_cspa_mutual_recursion_single_stratum(self):
        a = analyze(programs.get_program("cspa"))
        rec = [s for s in a.strata if s.recursive]
        assert len(rec) == 1
        assert rec[0].predicates == {"valueFlow", "memoryAlias", "valueAlias"}
        assert a.has_mutual_recursion

    def test_tc_not_mutual(self):
        assert not analyze(programs.get_program("tc")).has_mutual_recursion

    def test_andersen_nonlinear(self):
        a = analyze(programs.get_program("andersen"))
        assert a.has_nonlinear_recursion
        assert not a.has_mutual_recursion

    def test_tc_linear(self):
        assert not analyze(programs.get_program("tc")).has_nonlinear_recursion

    def test_sg_nonlinear_is_false(self):
        # SG's recursive rule has one sg atom -> linear recursion.
        assert not analyze(programs.get_program("sg")).has_nonlinear_recursion

    def test_cc_strata(self):
        a = analyze(programs.get_program("cc"))
        order = {p: s.index for s in a.strata for p in s.predicates}
        assert order["cc3"] < order["cc2"] < order["cc"]
        assert a.stratum_of("cc3").recursive
        assert not a.stratum_of("cc2").recursive

    def test_stratum_of_unknown_raises(self):
        a = analyze(programs.get_program("tc"))
        with pytest.raises(KeyError):
            a.stratum_of("nope")


class TestNegationStratification:
    def test_negated_tc_ok(self):
        a = analyze(programs.get_program("negated_tc"))
        assert a.stratum_of("ntc").index > a.stratum_of("tc").index

    def test_negation_in_own_stratum_rejected(self):
        with pytest.raises(DatalogAnalysisError, match="stratifiable"):
            analyze(parse_program("p(x) :- q(x). p(x) :- r(x), !p(x)."))

    def test_mutually_negative_cycle_rejected(self):
        with pytest.raises(DatalogAnalysisError, match="stratifiable"):
            analyze(
                parse_program(
                    "p(x) :- e(x), !q(x). q(x) :- e(x), !p(x)."
                )
            )

    def test_negated_edb_ok(self):
        analyze(parse_program("p(x) :- e(x), !f(x)."))


class TestAggregation:
    def test_nonrecursive_agg(self):
        a = analyze(programs.get_program("tc_count"))
        spec = a.agg_specs["gtc"]
        assert spec.op == "COUNT"
        assert spec.agg_position == 1
        assert spec.group_positions == (0,)
        assert a.meld_idbs == frozenset()

    def test_cc_recursive_min_is_meld(self):
        a = analyze(programs.get_program("cc"))
        assert "cc3" in a.meld_idbs
        assert "cc2" not in a.meld_idbs  # non-recursive stratum
        assert a.agg_specs["cc3"].op == "MIN"

    def test_sssp_meld(self):
        a = analyze(programs.get_program("sssp"))
        assert "sssp2" in a.meld_idbs
        assert "sssp" not in a.meld_idbs

    def test_recursive_sum_rejected(self):
        with pytest.raises(DatalogAnalysisError, match="MIN/MAX"):
            analyze(
                parse_program(
                    "p(x, SUM(y)) :- e(x, y). p(x, SUM(y)) :- p(x, y), e(x, y)."
                )
            )

    def test_mixed_agg_nonagg_rules_rejected(self):
        with pytest.raises(DatalogAnalysisError, match="mixes"):
            analyze(parse_program("g(x, MIN(y)) :- t(x, y). g(x, y) :- t(x, y)."))

    def test_two_agg_terms_rejected(self):
        with pytest.raises(DatalogAnalysisError, match="exactly one"):
            analyze(parse_program("g(MIN(x), MIN(y)) :- t(x, y)."))

    def test_inconsistent_layout_rejected(self):
        with pytest.raises(DatalogAnalysisError, match="layout"):
            analyze(
                parse_program(
                    "g(x, MIN(y)) :- t(x, y). g(MAX(x), y) :- t(x, y)."
                )
            )


class TestTypeInference:
    def test_tc_types(self):
        a = analyze(programs.get_program("tc"))
        types = a.infer_types({"arc": ("long", "long")})
        assert types["tc"] == ("long", "long")

    def test_sssp_types_with_double_weights(self):
        a = analyze(programs.get_program("sssp"))
        types = a.infer_types({"arc": ("long", "long", "double"), "id": ("long",)})
        assert types["sssp2"] == ("long", "double")
        assert types["sssp"] == ("long", "double")

    def test_count_is_long_avg_is_double(self):
        a = analyze(parse_program("g(x, COUNT(y)) :- t(x, y). h(x, AVG(y)) :- t(x, y)."))
        types = a.infer_types({"t": ("long", "double")})
        assert types["g"] == ("long", "long")
        assert types["h"] == ("long", "double")

    def test_unresolved_defaults_to_long(self):
        a = analyze(parse_program("p(1)."))
        assert a.infer_types({})["p"] == ("long",)

    def test_cspa_types(self):
        a = analyze(programs.get_program("cspa"))
        types = a.infer_types(
            {"assign": ("long", "long"), "dereference": ("long", "long")}
        )
        for idb in ("valueFlow", "memoryAlias", "valueAlias"):
            assert types[idb] == ("long", "long")


class TestValueBounds:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("tc(x, y) :- e(x, y). tc(x, y) :- tc(x, z), e(z, y).", {"tc": 9}),
            ("p(x, 40) :- e(x, _). q(x) :- p(_, x).", {"p": 40, "q": 40}),
            ("p(x * 2) :- e(x, _). q(x) :- p(x). r(x) :- p(x), e(x, _).",
             {"p": None, "q": None, "r": 9}),
            ("g(x, COUNT(y)) :- e(x, y). m(x, MIN(y)) :- e(x, y).", {"g": None, "m": 9}),
        ],
    )
    def test_bounds(self, text, expected):
        assert analyze(parse_program(text)).value_bounds(9) == expected

    def test_negative_edb_values_bound_nothing(self):
        a = analyze(programs.get_program("tc"))
        assert a.value_bounds(None) == {"tc": None}
