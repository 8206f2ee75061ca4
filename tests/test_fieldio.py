import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from platefft import fieldio
from platefft.fieldio import BLOCK_ROWS, FieldFormatError, read_field, write_field

# Every finite float64, with the edge cases drawn explicitly as well.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308]
FINITE_FLOATS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


def assert_savetxt_body(path, values):
    """The file holds np.savetxt's bytes for values under its header and reads back bit for bit."""
    n = values.shape[0]
    want = io.BytesIO()
    np.savetxt(want, values.reshape(-1, 3), fmt="%.17g")
    header, _, body = path.read_bytes().partition(b"\n")
    assert header == f"plate-field v1 d 2 N {n} m 3".encode()
    assert body == want.getvalue()
    np.testing.assert_array_equal(read_field(path).view(np.int64), values.view(np.int64))


@st.composite
def finite_fields(draw):
    n = draw(st.integers(2, 4))
    return draw(hnp.arrays(np.float64, (n, n, 3), elements=FINITE_FLOATS))


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((6, 6, 3)) * np.exp(rng.uniform(-20, 20, (6, 6, 3)))
        path = tmp_path / "field.field"
        write_field(path, values)
        back = read_field(path)
        # 17 significant digits round-trip float64 exactly
        np.testing.assert_array_equal(back, values)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(finite_fields())
    @example(np.array(EDGE_VALUES[:8] * 6).reshape(4, 4, 3))
    def test_bit_exact_round_trip(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("field") / "field.field"
        write_field(path, values)
        back = read_field(path)
        # compare bit patterns, so that -0.0 must come back as -0.0
        np.testing.assert_array_equal(back.view(np.int64), values.view(np.int64))

    def test_body_bytes_equal_savetxt_across_blocks(self, tmp_path):
        # N = 91 gives 8281 rows: more than one block, and not a whole number of blocks
        n = 91
        assert n * n > BLOCK_ROWS and n * n % BLOCK_ROWS
        rng = np.random.default_rng(3)
        values = rng.standard_normal((n, n, 3)) * np.exp(rng.uniform(-300, 300, (n, n, 3)))
        edges = [-0.0, 5e-324, 1e308, -1.5e-300]
        values.reshape(-1)[:4] = edges  # first block
        values.reshape(-1)[-4:] = edges  # last, partial block
        path = tmp_path / "field.field"
        write_field(path, values)
        assert_savetxt_body(path, values)

    def test_header_line(self, tmp_path):
        path = tmp_path / "field.field"
        write_field(path, np.zeros((4, 4, 3)))
        first = path.read_text().splitlines()[0]
        assert first == "plate-field v1 d 2 N 4 m 3"

    def test_blank_lines_and_free_whitespace_accepted(self, tmp_path):
        path = tmp_path / "x.field"
        path.write_text("\n  \nplate-field v1  d 2\tN 2 m 3\n1 2 3\n\n 4\t5  6\n7 8 9\r\n10 11 12")
        np.testing.assert_array_equal(read_field(path), np.arange(1.0, 13.0).reshape(2, 2, 3))


class TestSplitWriter:
    @pytest.mark.parametrize("cpus", [2, 1])
    @pytest.mark.parametrize("layout", ["contiguous", "moveaxis"])
    def test_body_bytes_equal_savetxt(self, tmp_path, monkeypatch, split_writer, cpus, layout):
        # N = 131: an odd row count, so unequal halves, each of more than one block
        n = 131
        half = n * n // 2
        assert n * n % 2 and half > BLOCK_ROWS
        monkeypatch.setattr(fieldio, "_CPUS", cpus)
        rng = np.random.default_rng(11)
        # the (N, N, M) view of an (M, N, N) grid, as cmd_solve writes it
        values = np.moveaxis(rng.standard_normal((3, n, n)) * np.exp(rng.uniform(-300, 300, (3, n, n))), 0, -1)
        if layout == "contiguous":
            values = np.ascontiguousarray(values)
        assert values.flags.c_contiguous is (layout == "contiguous")
        edges = np.array([[-0.0, 5e-324, 1e308], [1e308, -0.0, -5e-324]])
        for lo in (0, half - 2, half, n * n - 2):  # both ends of both halves
            values[divmod(lo, n)] = edges[0]
            values[divmod(lo + 1, n)] = edges[1]
        path = tmp_path / "field.field"
        write_field(path, values)
        assert_savetxt_body(path, values)
        assert [writer.returncode for writer in split_writer] == ([0] if cpus >= 2 else [])


class TestConstantField:
    @pytest.mark.parametrize("case", ["nonzero", "negative-zero", "mixed-zeros", "last-row-differs"])
    def test_body_bytes_equal_savetxt(self, tmp_path, monkeypatch, case):
        # N = 91 gives 8281 rows: two blocks, the last one partial
        n = 91
        values = np.empty((n, n, 3))
        values[:] = [1.0, -2.5e-300, 3e300] if case == "nonzero" else -0.0
        if case == "mixed-zeros":
            values[40, 7, 1] = 0.0
        if case == "last-row-differs":
            values[-1, -1, 2] = 5e-324
        formatted = []  # the value count of each format_rows call

        def format_rows(flat, format_rows=fieldio.format_rows):
            formatted.append(len(flat))
            return format_rows(flat)

        monkeypatch.setattr(fieldio, "format_rows", format_rows)
        path = tmp_path / "field.field"
        write_field(path, values)
        assert_savetxt_body(path, values)
        constant = case in ("nonzero", "negative-zero")
        assert formatted == ([3] if constant else [3 * BLOCK_ROWS, 3 * (n * n - BLOCK_ROWS)])


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.field"
        path.write_text("plate-field v2 d 2 N 2 m 3\n" + "0 0 0\n" * 4)
        with pytest.raises(FieldFormatError, match="header"):
            read_field(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "x.field"
        path.write_text("plate-field v1 d 2 N 2 m 3\n" + "0 0 0\n" * 3)
        with pytest.raises(FieldFormatError, match="rows"):
            read_field(path)

    def test_header_only_file_reports_zero_rows_without_warning(self, tmp_path):
        path = tmp_path / "x.field"
        path.write_text("plate-field v1 d 2 N 2 m 3\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldFormatError, match="found 0"):
                read_field(path)

    def test_component_mismatch(self, tmp_path):
        path = tmp_path / "x.field"
        path.write_text("plate-field v1 d 2 N 2 m 4\n" + "0 0 0 0\n" * 4)
        with pytest.raises(FieldFormatError, match="component count"):
            read_field(path)

    def test_three_dimensional_field_rejected(self, tmp_path):
        path = tmp_path / "x.field"
        path.write_text("plate-field v1 d 3 N 2 m 6\n" + "0 0 0 0 0 0\n" * 8)
        with pytest.raises(FieldFormatError, match="dimension"):
            read_field(path)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_grid_below_two_points_rejected(self, tmp_path, n):
        path = tmp_path / "x.field"
        path.write_text(f"plate-field v1 d 2 N {n} m 3\n0 0 0\n")
        with pytest.raises(FieldFormatError, match="N >= 2"):
            read_field(path)

    def test_bad_entry(self, tmp_path):
        path = tmp_path / "x.field"
        path.write_text("plate-field v1 d 2 N 2 m 3\n0 0 0\n0 x 0\n0 0 0\n0 0 0\n")
        with pytest.raises(FieldFormatError, match="entry"):
            read_field(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_nonfinite_entry_rejected(self, tmp_path, bad):
        path = tmp_path / "x.field"
        path.write_text(f"plate-field v1 d 2 N 2 m 3\n0 0 0\n0 {bad} 0\n0 0 0\n0 0 0\n")
        with pytest.raises(FieldFormatError, match="non-finite"):
            read_field(path)

    def test_mismatched_shape_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_field(tmp_path / "x.field", np.zeros((4, 5, 3)))
