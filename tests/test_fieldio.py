import numpy as np
import pytest

from platefft.fieldio import FieldFormatError, read_field, write_field


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((6, 6, 3)) * np.exp(rng.uniform(-20, 20, (6, 6, 3)))
        path = tmp_path / "field.field"
        write_field(path, values)
        back = read_field(path)
        # 17 significant digits round-trip float64 exactly
        np.testing.assert_array_equal(back, values)

    def test_header_line(self, tmp_path):
        path = tmp_path / "field.field"
        write_field(path, np.zeros((4, 4, 3)))
        first = path.read_text().splitlines()[0]
        assert first == "plate-field v1 d 2 N 4 m 3"


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

    def test_bad_entry(self, tmp_path):
        path = tmp_path / "x.field"
        path.write_text("plate-field v1 d 2 N 2 m 3\n0 0 0\n0 x 0\n0 0 0\n0 0 0\n")
        with pytest.raises(FieldFormatError, match="entry"):
            read_field(path)

    def test_mismatched_shape_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_field(tmp_path / "x.field", np.zeros((4, 5, 3)))
