"""OOF StatsCollector tests (modes oof / na / fa)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.stats import StatsCollector


@pytest.fixture()
def df(spark):
    return spark.createDataFrame(pd.DataFrame({"c0": [1, 2, 3], "c1": [4, 5, 6]}))


class TestModes:
    def test_oof_counts(self, df):
        s = StatsCollector("oof")
        assert s.analyze("t", df) == 3
        assert s.rows("t") == 3
        assert s.analyze_calls == 1
        assert s.tables["t"].column_stats == {}

    def test_na_collects_nothing(self, df):
        s = StatsCollector("na")
        assert s.analyze("t", df) is None
        assert s.rows("t") is None
        assert s.analyze_calls == 0
        assert not s.enabled

    def test_fa_collects_full_stats(self, df):
        s = StatsCollector("fa")
        assert s.analyze("t", df) == 3
        cs = s.tables["t"].column_stats
        assert cs["c0"] == {"min": 1, "max": 3, "avg": 2.0}
        assert s.analyze_calls == 2  # count + full scan

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            StatsCollector("bogus")


class TestRecordAndPrealloc:
    def test_record_without_action(self, df):
        s = StatsCollector("na")
        s.record("t", 42)
        assert s.rows("t") == 42
        assert s.analyze_calls == 0

    def test_latest_analyze_wins(self, spark, df):
        s = StatsCollector("oof")
        s.analyze("t", df)
        s.analyze("t", df.limit(1))
        assert s.rows("t") == 1


@pytest.fixture()
def unrunnable(df):
    """``df`` behind a filter that fails any Spark job evaluating it."""
    return df.filter(F.raise_error(F.lit("a Spark job ran")).isNull())


class TestKnownRows:
    """A count already read from the action that built the frame."""

    def test_known_rows_run_no_job(self, unrunnable):
        with pytest.raises(Exception, match="a Spark job ran"):
            unrunnable.count()
        s = StatsCollector("oof")
        assert s.analyze("t", unrunnable, rows=3) == 3
        assert s.rows("t") == 3
        assert s.analyze_calls == 1

    def test_fa_still_scans_columns(self, df):
        s = StatsCollector("fa")
        assert s.analyze("t", df, rows=3) == 3
        assert s.tables["t"].column_stats["c1"] == {"min": 4, "max": 6, "avg": 5.0}
        assert s.analyze_calls == 2

    def test_na_ignores_known_rows(self, unrunnable):
        s = StatsCollector("na")
        assert s.analyze("t", unrunnable, rows=3) is None
        assert s.rows("t") is None
        assert s.analyze_calls == 0
