"""Text dumps of Mandel-vector grid fields (`plate-field v1`).

Header line: ``plate-field v1 d 2 N <N> m 3``, followed by N^2 lines of 3 reals (the
Mandel components of one voxel), voxels row-major (axis 0 slowest), 17 significant
digits; `write_field` formats BLOCK_ROWS rows per %-format, with np.savetxt's bytes.
Fields are two-dimensional; the ``d 2`` entry is kept for format stability.
"""
from __future__ import annotations

import warnings

import numpy as np

from .mandel import M

FIELD_MAGIC = "plate-field"
FIELD_VERSION = "v1"

# 17 significant digits round-trip every float64 exactly.
FLOAT_FMT = "%.17g"
ROW_FMT = " ".join([FLOAT_FMT] * M) + "\n"
BLOCK_ROWS = 8192  # bounds the text write_field holds in memory


class FieldFormatError(ValueError):
    """Raised for malformed field-dump files."""


def write_field(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if values.shape != (n, n, M):
        raise ValueError(f"expected shape (N, N, {M}), got {values.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FIELD_MAGIC} {FIELD_VERSION} d 2 N {n} m {M}\n")
        for block in np.split(values.reshape(-1, M), range(BLOCK_ROWS, n * n, BLOCK_ROWS)):
            fh.write(ROW_FMT * len(block) % tuple(block.ravel().tolist()))


def read_field(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        # An empty body is reported below as a row count of 0.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        header = next(filter(None, map(str.split, fh)), [])
        if (
            len(header) != 8
            or header[0] != FIELD_MAGIC
            or header[1] != FIELD_VERSION
            or header[2] != "d"
            or header[4] != "N"
            or header[6] != "m"
        ):
            raise FieldFormatError(
                f"malformed header (expected '{FIELD_MAGIC} {FIELD_VERSION} d _ N _ m _')"
            )
        try:
            d, n, m = int(header[3]), int(header[5]), int(header[7])
        except ValueError as exc:
            raise FieldFormatError(f"non-integer header entry: {exc}") from None
        if d != 2:
            raise FieldFormatError(f"unsupported dimension d={d}; platefft is two-dimensional")
        if m != M:
            raise FieldFormatError(f"component count {m} does not match dimension 2 (expected {M})")
        if n < 2:
            raise FieldFormatError(f"header needs N >= 2 points per axis, got N={n}")
        try:
            values = np.loadtxt(fh, ndmin=2, comments=None)
        except ValueError as exc:
            raise FieldFormatError(f"bad field entry: {exc}") from None
    if len(values) != n * n:
        raise FieldFormatError(f"expected N^2 = {n * n} rows, found {len(values)}")
    if values.shape[1] != M:
        raise FieldFormatError(f"rows must carry {M} reals each")
    if not np.isfinite(values).all():
        raise FieldFormatError("non-finite field entry (nan or inf)")
    return values.reshape(n, n, M)
