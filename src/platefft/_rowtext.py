"""Rows of float64 as `plate-field` text, the formatter of `fieldio.write_field` and of its writer process.

Standard library only, so the writer process starts without numpy.  Run as a script
(``python -I -S _rowtext.py``), it reads rows of native float64 from stdin until EOF,
formats all of them, and only then writes their text to stdout: a writer that wrote
block by block would stall on a full pipe until its reader turned to it.
"""
import sys

# 17 significant digits round-trip every float64 exactly.
FLOAT_FMT = "%.17g"
COLUMNS = 3  # mandel.M, the Mandel components of one voxel
ROW_FMT = " ".join([FLOAT_FMT] * COLUMNS) + "\n"
BLOCK_ROWS = 8192  # rows per %-format, which bounds the text of one call


def format_rows(flat) -> bytes:
    """np.savetxt's bytes for the rows whose values, row after row, are the sequence flat."""
    return (ROW_FMT * (len(flat) // COLUMNS) % tuple(flat)).encode()


def _main() -> None:
    values = memoryview(sys.stdin.buffer.read()).cast("d")
    step = BLOCK_ROWS * COLUMNS
    text = [format_rows(values[lo : lo + step].tolist()) for lo in range(0, len(values), step)]
    sys.stdout.buffer.writelines(text)


if __name__ == "__main__":
    _main()
