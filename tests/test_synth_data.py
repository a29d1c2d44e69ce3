"""Dataset generator tests: determinism, shapes, regimes."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data


class TestGnp:
    def test_deterministic(self):
        a = synth_data.gnp_arcs(n=50, p=0.05, seed=1)
        b = synth_data.gnp_arcs(n=50, p=0.05, seed=1)
        pd.testing.assert_frame_equal(a, b)

    def test_seed_changes_output(self):
        a = synth_data.gnp_arcs(n=50, p=0.05, seed=1)
        b = synth_data.gnp_arcs(n=50, p=0.05, seed=2)
        assert not a.equals(b)

    def test_no_self_loops(self):
        a = synth_data.gnp_arcs(n=40, p=0.2, seed=0)
        assert (a["src"] != a["dst"]).all()

    def test_edge_count_near_expectation(self):
        n, p = 200, 0.05
        a = synth_data.gnp_arcs(n=n, p=p, seed=3)
        expected = n * (n - 1) * p
        assert 0.8 * expected < len(a) < 1.2 * expected

    def test_vertex_range(self):
        a = synth_data.gnp_arcs(n=30, p=0.3, seed=0)
        assert a.values.min() >= 0 and a.values.max() < 30


class TestRmat:
    def test_deterministic(self):
        a = synth_data.rmat_arcs(n=128, seed=5)
        b = synth_data.rmat_arcs(n=128, seed=5)
        pd.testing.assert_frame_equal(a, b)

    def test_edge_factor(self):
        a = synth_data.rmat_arcs(n=100, edge_factor=10, seed=0)
        assert len(a) == 1000

    def test_vertex_range(self):
        a = synth_data.rmat_arcs(n=100, seed=0)
        assert a.values.min() >= 0 and a.values.max() < 100

    def test_degree_skew(self):
        # RMAT's recursive quadrants concentrate edges on low-id vertices:
        # max out-degree far above the uniform expectation.
        a = synth_data.rmat_arcs(n=1024, edge_factor=10, seed=7)
        degrees = a.groupby("src").size()
        assert degrees.max() > 5 * degrees.mean()


class TestWeightsAndChains:
    def test_add_weights(self):
        arc = synth_data.gnp_arcs(n=20, p=0.2, seed=0)
        w = synth_data.add_weights(arc, max_weight=10, seed=0)
        assert list(w.columns) == ["src", "dst", "w"]
        assert w["w"].between(1, 10).all()
        assert len(w) == len(arc)

    def test_chains_shape(self):
        c = synth_data.chain_arcs(length=10, n_chains=3)
        assert len(c) == 27  # 3 * (10 - 1)
        # each chain is disjoint
        assert c["src"].max() < 30

    def test_chain_cross_edges(self):
        c = synth_data.chain_arcs(length=10, n_chains=2, cross_p=0.5, seed=1)
        assert len(c) > 18


class TestProgramAnalysisInputs:
    def test_andersen_keys(self):
        edb = synth_data.andersen_input(scale=1)
        assert set(edb) == {"addressOf", "assign", "load", "store"}

    def test_andersen_scales(self):
        small = synth_data.andersen_input(scale=1)
        big = synth_data.andersen_input(scale=4)
        assert len(big["assign"]) > 2 * len(small["assign"])

    def test_andersen_deterministic(self):
        a = synth_data.andersen_input(scale=2, seed=1)
        b = synth_data.andersen_input(scale=2, seed=1)
        for k in a:
            pd.testing.assert_frame_equal(a[k], b[k])

    def test_cspa_keys_and_clustering(self):
        edb = synth_data.cspa_input(scale=1, seed=0)
        assert set(edb) == {"assign", "dereference"}
        # clustered assigns: most offsets are small
        d = (edb["assign"]["src"] - edb["assign"]["dst"]).abs()
        assert (d <= 15).mean() > 0.9

    def test_csda_regime_deep_iterations(self):
        edb = synth_data.csda_input(scale=1, depth=50)
        # the arc graph must contain chains of ~depth length
        assert len(edb["arc"]) >= 20 * 49
        assert set(edb) == {"nullEdge", "arc"}

    def test_csda_null_seeds_from_heads(self):
        edb = synth_data.csda_input(scale=1, depth=20)
        heads = set(range(0, 20 * 20, 20))
        assert set(edb["nullEdge"]["src"]).issubset(heads)


class TestSparkWrappers:
    def test_to_spark(self, spark):
        pdf = synth_data.gnp_arcs(n=10, p=0.3, seed=0)
        df = synth_data.to_spark(spark, pdf)
        assert df.count() == len(pdf)
