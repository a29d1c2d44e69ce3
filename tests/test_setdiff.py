"""DSD tests: cost model (pure) + OPSD/TPSD equivalence on Spark."""
import pandas as pd
import pytest

from repro.core.setdiff import (
    SetDiffDecision,
    calibrate_alpha,
    choose_set_difference,
    opsd,
    set_difference,
    tpsd,
)


class TestCostModel:
    """Appendix A: OPSD for β ≤ 1, TPSD for β ≥ 2α/(α-1), μ in between."""

    def test_beta_below_one_is_opsd(self):
        d = choose_set_difference(full_rows=100, new_rows=500, alpha=2.0)
        assert d.method == "opsd"
        assert d.beta == pytest.approx(0.2)

    def test_beta_equal_one_is_opsd(self):
        assert choose_set_difference(100, 100, 2.0).method == "opsd"

    def test_beta_above_threshold_is_tpsd(self):
        # α=2 -> threshold 2α/(α-1) = 4.
        assert choose_set_difference(500, 100, 2.0).method == "tpsd"

    def test_beta_at_threshold_is_tpsd(self):
        assert choose_set_difference(400, 100, 2.0).method == "tpsd"

    def test_grey_zone_without_mu_is_opsd(self):
        d = choose_set_difference(200, 100, 2.0, mu_prev=None)
        assert d.method == "opsd" and "grey" in d.reason

    def test_grey_zone_mu_favours_tpsd(self):
        # β=3, α=2: Cost(OPSD)-Cost(TPSD) > 0 iff 3·1 > 2 + 2/μ iff μ > 2.
        assert choose_set_difference(300, 100, 2.0, mu_prev=10.0).method == "tpsd"

    def test_grey_zone_mu_favours_opsd(self):
        assert choose_set_difference(300, 100, 2.0, mu_prev=1.5).method == "opsd"

    def test_empty_delta(self):
        d = choose_set_difference(100, 0, 2.0)
        assert d.method == "opsd" and d.beta is None

    def test_threshold_scales_with_alpha(self):
        # α=3 -> threshold 3; β=3.5 must be TPSD, with α=8 threshold ~2.3.
        assert choose_set_difference(350, 100, 3.0).method == "tpsd"
        assert choose_set_difference(230, 100, 8.0).method == "tpsd"
        assert choose_set_difference(220, 100, 8.0, mu_prev=None).method == "opsd"

    def test_decision_dataclass(self):
        d = SetDiffDecision("opsd", 1.0, "x")
        assert d.method == "opsd"


@pytest.fixture(scope="module")
def frames(spark):
    new = spark.createDataFrame(
        pd.DataFrame({"c0": [1, 2, 3, 4], "c1": [10, 20, 30, 40]})
    ).localCheckpoint()
    full = spark.createDataFrame(
        pd.DataFrame({"c0": [2, 4, 5], "c1": [20, 40, 50]})
    ).localCheckpoint()
    return new, full


class TestTranslationsAgree:
    def test_opsd_result(self, frames):
        new, full = frames
        got = sorted(map(tuple, opsd(new, full).collect()))
        assert got == [(1, 10), (3, 30)]

    def test_tpsd_result(self, frames):
        new, full = frames
        got = sorted(map(tuple, tpsd(new, full).collect()))
        assert got == [(1, 10), (3, 30)]

    def test_tpsd_no_broadcast(self, frames):
        new, full = frames
        got = sorted(map(tuple, tpsd(new, full, broadcast=False).collect()))
        assert got == [(1, 10), (3, 30)]

    def test_set_difference_dispatch(self, frames):
        new, full = frames
        for method in ("opsd", "tpsd"):
            got = sorted(
                map(
                    tuple,
                    set_difference(
                        new, full, method=method,
                        broadcast_threshold_rows=2, new_rows=4,
                    ).collect(),
                )
            )
            assert got == [(1, 10), (3, 30)]

    def test_disjoint_inputs(self, spark):
        new = spark.createDataFrame(pd.DataFrame({"c0": [1], "c1": [1]}))
        full = spark.createDataFrame(pd.DataFrame({"c0": [9], "c1": [9]}))
        assert opsd(new, full).count() == 1
        assert tpsd(new, full).count() == 1

    def test_full_overlap(self, spark):
        new = spark.createDataFrame(pd.DataFrame({"c0": [1, 2], "c1": [1, 2]}))
        assert opsd(new, new).count() == 0
        assert tpsd(new, new).count() == 0


class TestAlphaCalibration:
    def test_calibrate_returns_sane_alpha(self, spark):
        alpha = calibrate_alpha(
            spark, pair_sizes=((2_000, 20_000),), runs=1
        )
        assert 1.0 < alpha <= 16.0
