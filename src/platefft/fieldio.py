"""Text dumps of Mandel-vector grid fields (`plate-field v1`).

Header line: ``plate-field v1 d 2 N <N> m 3``, followed by N^2 lines of 3
reals (the Mandel components of one voxel), voxels row-major (axis 0
slowest), 17 significant digits.  Fields are two-dimensional; the ``d 2``
entry is kept for format stability.
"""
from __future__ import annotations

import numpy as np

from .mandel import M

FIELD_MAGIC = "plate-field"
FIELD_VERSION = "v1"


class FieldFormatError(ValueError):
    """Raised for malformed field-dump files."""


def write_field(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if values.shape != (n, n, M):
        raise ValueError(f"expected shape (N, N, {M}), got {values.shape}")
    rows = values.reshape(-1, M)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FIELD_MAGIC} {FIELD_VERSION} d 2 N {n} m {M}\n")
        for row in rows:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_field(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.split() for line in fh]
    lines = [t for t in lines if t]
    if not lines:
        raise FieldFormatError("empty field file")
    header = lines[0]
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
    body = lines[1:]
    if len(body) != n * n:
        raise FieldFormatError(f"expected N^2 = {n * n} rows, found {len(body)}")
    try:
        values = np.array([[float(v) for v in row] for row in body])
    except ValueError as exc:
        raise FieldFormatError(f"bad field entry: {exc}") from None
    if values.shape != (n * n, M):
        raise FieldFormatError(f"rows must carry {M} reals each")
    return values.reshape(n, n, M)
