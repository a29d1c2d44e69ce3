"""OOF — Optimization On the Fly (Section 5.1).

In RecStep the interpreter calls ``analyze()`` on updated tables at
chosen breakpoints so the next query is planned with fresh statistics.
The Catalyst analogue implemented here: a :class:`StatsCollector` tracks
per-relation row counts (refreshed by explicit ``analyze`` calls; the
engine passes the count it read from the action that materialized the
frame, so an ``analyze`` runs no Spark job) and the compiler consults
them to broadcast-hint the small side of each join — the equivalent of
"build the hash table on the smaller table". The same counts drive the
DSD cost model.

Modes (Figure 2):

- ``oof``  — collect exactly what each decision needs: row counts of
  updated/new tables only;
- ``na``   — collect nothing; the same (static) plan runs every
  iteration and no broadcast hints are issued;
- ``fa``   — collect the *full* statistics set (count + per-column
  min/max/avg) on every updated table, reproducing OOF-FA's overhead.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass
class TableStats:
    rows: int
    #: populated only in "fa" mode (min/max/avg per column)
    column_stats: dict[str, dict[str, float]] = field(default_factory=dict)


class StatsCollector:
    """Tracks the latest analyzed statistics per relation name.

    ``analyze`` is the paper's ``analyze(R)`` call (Algorithm 1 lines
    9, 11): an explicit statistics collection on a named relation.
    """

    def __init__(self, mode: str = "oof") -> None:
        if mode not in ("oof", "na", "fa"):
            raise ValueError(f"invalid OOF mode {mode!r}")
        self.mode = mode
        self.tables: dict[str, TableStats] = {}
        #: analyze() calls plus OOF-FA's column scans (tests assert
        #: OOF-NA makes none)
        self.analyze_calls = 0

    @property
    def enabled(self) -> bool:
        return self.mode != "na"

    def analyze(self, name: str, df: DataFrame, rows: int | None = None) -> int | None:
        """Collect statistics for ``df`` under ``name``; returns the row
        count (None in "na" mode, where no action is run). A ``rows``
        already known from the action that built ``df`` is recorded
        without counting again."""
        if self.mode == "na":
            return None
        self.analyze_calls += 1
        if rows is None:
            rows = df.count()
        stats = TableStats(rows=rows)
        if self.mode == "fa" and rows > 0:
            # Full analysis: per-column min/max/avg — the paper's OOF-FA
            # configuration, whose extra scans slow evaluation down.
            aggs = []
            for c in df.columns:
                aggs += [
                    F.min(c).alias(f"min_{c}"),
                    F.max(c).alias(f"max_{c}"),
                    F.avg(c).alias(f"avg_{c}"),
                ]
            row = df.agg(*aggs).collect()[0].asDict()
            for c in df.columns:
                stats.column_stats[c] = {
                    "min": row[f"min_{c}"],
                    "max": row[f"max_{c}"],
                    "avg": row[f"avg_{c}"],
                }
            self.analyze_calls += 1
        self.tables[name] = stats
        return rows

    def record(self, name: str, rows: int) -> None:
        """Record a row count already known from another action (no new
        scan — OOF collects only what is not already at hand)."""
        self.tables[name] = TableStats(rows=rows)

    def rows(self, name: str) -> int | None:
        st = self.tables.get(name)
        return st.rows if st else None
