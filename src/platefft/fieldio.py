"""Text dumps of Mandel-vector grid fields (`plate-field v1`).

Header line: ``plate-field v1 d 2 N <N> m 3``, followed by N^2 lines of 3 reals (the
Mandel components of one voxel), voxels row-major (axis 0 slowest), 17 significant
digits.  `write_field` writes np.savetxt's bytes, formatting BLOCK_ROWS rows per
%-format (`_rowtext`).  A constant field (every row the same bits) is formatted once
and repeated.  A field of _SPLIT_MIN_ROWS rows or more, when this process may run on
two or more CPUs, is formatted in two processes: a writer process (`_rowtext` run as a
script) formats the second half of the rows while the caller formats the first.  On
one CPU, as under ``taskset -c 0``, it formats serially; there is no setting.
Fields are two-dimensional; the ``d 2`` entry is kept for format stability.
"""
from __future__ import annotations

import os
import shutil
import sys
import warnings

import numpy as np

from ._rowtext import BLOCK_ROWS, FLOAT_FMT, format_rows  # FLOAT_FMT for cli and microstructure
from .green import _CPUS
from .mandel import M

FIELD_MAGIC = "plate-field"
FIELD_VERSION = "v1"

# One random N x N field written on a 2-vCPU host, serial vs split, in ms (medians of 15): 47 vs 49 at N = 128
# (starting the writer, about 15 ms, eats the gain), 83 vs 71 at 160, 88 vs 75 at 181, 108 vs 88 at 192,
# 138 vs 109 at 224, 181 vs 125 at 256, 803 vs 490 at 512.
_SPLIT_MIN_ROWS = 2**15
_WRITER = os.path.join(os.path.dirname(__file__), "_rowtext.py")  # the writer process runs this script


class FieldFormatError(ValueError):
    """Raised for malformed field-dump files."""


def write_field(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if values.shape != (n, n, M):
        raise ValueError(f"expected shape (N, N, {M}), got {values.shape}")
    rows = values.reshape(-1, M)
    bits = rows.view(np.int64)  # bit patterns, so that -0.0 and 0.0 differ
    with open(path, "wb") as fh:
        fh.write(f"{FIELD_MAGIC} {FIELD_VERSION} d 2 N {n} m {M}\n".encode())
        if (bits == bits[0]).all():
            row = format_rows(rows[0].tolist())
            for lo in range(0, len(rows), BLOCK_ROWS):
                fh.write(row * min(BLOCK_ROWS, len(rows) - lo))
        elif len(rows) >= _SPLIT_MIN_ROWS and _CPUS >= 2:
            _write_split(fh, rows)
        else:
            _write_blocks(fh, rows)


def _write_blocks(fh, rows: np.ndarray) -> None:
    for lo in range(0, len(rows), BLOCK_ROWS):
        fh.write(format_rows(rows[lo : lo + BLOCK_ROWS].ravel().tolist()))


def _write_split(fh, rows: np.ndarray) -> None:
    """Write rows[:half] formatted here while a writer process formats rows[half:], then its text."""
    import subprocess  # lazily, as it costs the command's start-up about 8 ms

    half = len(rows) // 2
    with subprocess.Popen(
        [sys.executable, "-I", "-S", _WRITER],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    ) as writer:
        try:
            writer.stdin.write(memoryview(np.ascontiguousarray(rows[half:])))
            writer.stdin.close()
        except BrokenPipeError:
            pass  # the writer has exited; its status below says so
        _write_blocks(fh, rows[:half])
        shutil.copyfileobj(writer.stdout, fh)  # streamed, so its text never sits whole in this process
    if writer.returncode:
        raise OSError(f"cannot write {fh.name}: the field writer process exited with status {writer.returncode}")


def _read_sizes(tokens: list[str], key: str, error: type[ValueError]) -> tuple[int, int]:
    """(N, value) from `d 2 N <N> <key> <value>`, the size tokens that end both text headers; else raises error."""
    if len(tokens) != 6 or tokens[0] != "d" or tokens[2] != "N" or tokens[4] != key:
        raise error(f"malformed size header (expected 'd _ N _ {key} _')")
    try:
        d, n, value = int(tokens[1]), int(tokens[3]), int(tokens[5])
    except ValueError as exc:
        raise error(f"non-integer size header entry: {exc}") from None
    if d != 2:
        raise error(f"unsupported dimension d={d}; platefft is two-dimensional")
    return n, value


def read_field(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        # An empty body is reported below as a row count of 0.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        header = next(filter(None, map(str.split, fh)), [])
        if header[:2] != [FIELD_MAGIC, FIELD_VERSION]:
            raise FieldFormatError(f"malformed header (expected '{FIELD_MAGIC} {FIELD_VERSION} d _ N _ m _')")
        n, m = _read_sizes(header[2:], "m", FieldFormatError)
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
