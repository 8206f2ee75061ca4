import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from platefft.fieldio import BLOCK_ROWS, FieldFormatError, read_field, write_field

# Every finite float64, with the edge cases drawn explicitly as well.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308]
FINITE_FLOATS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


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
        want = io.BytesIO()
        np.savetxt(want, values.reshape(-1, 3), fmt="%.17g")
        header, _, body = path.read_bytes().partition(b"\n")
        assert header == b"plate-field v1 d 2 N 91 m 3"
        assert body == want.getvalue()
        np.testing.assert_array_equal(read_field(path).view(np.int64), values.view(np.int64))

    def test_header_line(self, tmp_path):
        path = tmp_path / "field.field"
        write_field(path, np.zeros((4, 4, 3)))
        first = path.read_text().splitlines()[0]
        assert first == "plate-field v1 d 2 N 4 m 3"

    def test_blank_lines_and_free_whitespace_accepted(self, tmp_path):
        path = tmp_path / "x.field"
        path.write_text("\n  \nplate-field v1  d 2\tN 2 m 3\n1 2 3\n\n 4\t5  6\n7 8 9\r\n10 11 12")
        np.testing.assert_array_equal(read_field(path), np.arange(1.0, 13.0).reshape(2, 2, 3))


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
