"""FAST-DEDUP — compact-concatenated-key deduplication (Section 5.2).

RecStep's CCK-GSCHT packs an all-integer tuple into one fixed-width key
(8 bytes for two ints, Figure 5), hashes on the key itself, and thereby
avoids generic multi-column hashing and the <key, value> indirection.

The Catalyst analogue: when every column is integral and the values fit
the per-column bit budget, pack the tuple into a single ``BIGINT``
column with shifts/ORs and run ``dropDuplicates`` on that one compact
key — a single-column shuffle + hash instead of a multi-column one. The
generic path (``fast=False``) is plain ``dropDuplicates`` over all
columns.

As in the paper (footnote 2), inputs are assumed to come from an
integer-mapped active domain; :func:`compact_key_bits` decides whether a
relation's domain fits 64 bits, given the maximum absolute value
observed on the EDBs (collected once at load, not per iteration).
:func:`pack_keys` and :func:`unpack_keys` lay out the same key over
numpy columns, for rounds that run on the driver.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import reduce

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

_COMPACT_KEY = "__cck"


def compact_key_bits(n_columns: int, max_value: int) -> int | None:
    """Bits per column when packing ``n_columns`` values of magnitude
    <= ``max_value`` into one 63-bit key; None when it does not fit."""
    if n_columns == 0 or max_value < 0:
        return None
    # bit_length(max_value) bits represent every value in [0, max_value];
    # 63 usable bits keep the packed BIGINT key non-negative.
    need = max(int(max_value).bit_length(), 1)
    return need if need * n_columns <= 63 else None


def can_pack(df: DataFrame, max_value: int) -> bool:
    """True when the frame is all-integral and the domain fits the key."""
    integral = {"bigint", "int", "smallint", "tinyint", "long", "integer"}
    if not all(t in integral for _, t in df.dtypes):
        return False
    return compact_key_bits(len(df.columns), max_value) is not None


def with_compact_key(df: DataFrame, bits: int) -> DataFrame:
    """Append the packed compact key column (little-endian field order)."""
    cols = df.columns
    key = reduce(
        lambda acc, ic: acc.bitwiseOR(
            F.shiftleft(F.col(ic[1]).cast("long"), ic[0] * bits)
        ),
        enumerate(cols),
        F.lit(0).cast("long"),
    )
    return df.withColumn(_COMPACT_KEY, key)


def pack_keys(columns: Sequence[np.ndarray], bits: int) -> np.ndarray:
    """The compact key of each row of non-empty integer ``columns``, laid
    out as :func:`with_compact_key` lays it out."""
    key = columns[0].astype(np.int64)
    for i, col in enumerate(columns[1:], 1):
        key |= col.astype(np.int64, copy=False) << (i * bits)
    return key


def unpack_keys(keys: np.ndarray, bits: int, n_columns: int) -> list[np.ndarray]:
    """The columns :func:`pack_keys` packed into ``keys``."""
    mask = (1 << bits) - 1
    return [(keys >> (i * bits)) & mask for i in range(n_columns)]


def dedup(
    df: DataFrame,
    *,
    fast: bool,
    max_value: int | None = None,
) -> DataFrame:
    """Deduplicate ``df`` (Algorithm 1 line 10).

    ``fast=True`` uses the compact-key path when the relation qualifies
    (all integer columns, domain bound ``max_value`` known and fitting);
    otherwise falls back to the generic multi-column ``dropDuplicates``,
    exactly like RecStep falls back when the compact key does not fit.
    """
    if fast and max_value is not None and can_pack(df, max_value):
        bits = compact_key_bits(len(df.columns), max_value)
        assert bits is not None
        keyed = with_compact_key(df, bits)
        return keyed.dropDuplicates([_COMPACT_KEY]).drop(_COMPACT_KEY)
    return df.dropDuplicates()
