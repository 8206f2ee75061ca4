import numpy as np
import pytest

from platefft.mandel import StiffTensor4
from platefft.microstructure import (
    CoefficientField,
    MicrostructureFormatError,
    PhaseTable,
    generate_chessboard,
    generate_inclusion,
    generate_laminate,
    load_microstructure,
    save_microstructure,
)

ID = StiffTensor4.identity()


def scalar_phase(mu):
    return mu * ID


class TestPhaseTable:
    def test_requires_phase(self):
        with pytest.raises(ValueError, match="at least one"):
            PhaseTable({}, 1.0)

    def test_ellipticity_violation_rejected(self):
        with pytest.raises(ValueError, match="ellipticity"):
            PhaseTable({0: scalar_phase(3.0)}, alpha=0.5)  # 3 > 1/0.5

    def test_auto_alpha(self):
        table = PhaseTable.with_auto_alpha({0: scalar_phase(1.0), 1: scalar_phase(3.0)})
        assert table.alpha == pytest.approx(1.0 / 3.0)
        for t in table.phases.values():
            assert t.is_elliptic(table.alpha)


class TestLaminate:
    def test_half_fraction_axis0(self):
        f = generate_laminate(scalar_phase(1.0), scalar_phase(3.0), 0.5, 0, 4)
        np.testing.assert_array_equal(f.phase_map, [[0] * 4, [0] * 4, [1] * 4, [1] * 4])

    def test_quarter_fraction_axis1(self):
        f = generate_laminate(scalar_phase(1.0), scalar_phase(2.0), 0.25, 1, 8)
        assert np.all(f.phase_map[:, :2] == 0) and np.all(f.phase_map[:, 2:] == 1)
        # constant along the other axis
        assert np.all(f.phase_map == f.phase_map[0][None, :])

    def test_non_representable_fraction(self):
        with pytest.raises(ValueError, match="not representable"):
            generate_laminate(scalar_phase(1.0), scalar_phase(2.0), 0.3, 0, 4)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="N >= 2"):
            generate_laminate(scalar_phase(1.0), scalar_phase(2.0), 0.5, 0, 1)

    def test_volume_fraction_exact(self):
        f = generate_laminate(scalar_phase(1.0), scalar_phase(2.0), 0.25, 0, 8)
        assert f.volume_fractions() == {0: 0.25, 1: 0.75}


class TestChessboard:
    def test_n2_pattern(self):
        f = generate_chessboard(scalar_phase(1.0), scalar_phase(2.0), 2)
        np.testing.assert_array_equal(f.phase_map, [[0, 1], [1, 0]])

    def test_n4_macro_cells(self):
        f = generate_chessboard(scalar_phase(1.0), scalar_phase(2.0), 4)
        want = np.array(
            [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
        )
        np.testing.assert_array_equal(f.phase_map, want)

    def test_fractions_exactly_half(self):
        for n in (2, 4, 8, 32):
            f = generate_chessboard(scalar_phase(1.0), scalar_phase(2.0), n)
            assert f.volume_fractions() == {0: 0.5, 1: 0.5}

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            generate_chessboard(scalar_phase(1.0), scalar_phase(2.0), 5)


class TestInclusion:
    def test_tiny_radius_gives_no_inclusion(self):
        f = generate_inclusion(scalar_phase(1.0), scalar_phase(2.0), 0.01, 16)
        assert np.count_nonzero(f.phase_map) == 0

    def test_fraction_close_to_disk_area(self):
        f = generate_inclusion(scalar_phase(1.0), scalar_phase(2.0), 0.25, 64)
        # voxel-center counting oracle, written out explicitly
        count = 0
        for i in range(64):
            for j in range(64):
                y1 = (i + 0.5) / 64 - 0.5
                y2 = (j + 0.5) / 64 - 0.5
                y1 -= round(y1)
                y2 -= round(y2)
                if y1 * y1 + y2 * y2 < 0.25**2:
                    count += 1
        assert np.count_nonzero(f.phase_map) == count
        area = np.pi * 0.25**2
        assert abs(count / 64**2 - area) <= 0.02 * area

    def test_equal_phases_is_homogeneous(self):
        f = generate_inclusion(scalar_phase(2.0), scalar_phase(2.0), 0.25, 16)
        mats = f.mandel_grid()
        assert np.all(mats == mats[0, 0])

    def test_radius_bounds(self):
        for r in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError, match="radius"):
                generate_inclusion(scalar_phase(1.0), scalar_phase(2.0), r, 16)


class TestEigenRange:
    def test_homogeneous_identity(self):
        f = generate_inclusion(ID, ID, 0.25, 8)
        assert f.eigen_range() == (1.0, 1.0)

    def test_two_scalar_phases(self):
        f = generate_chessboard(scalar_phase(1.0), scalar_phase(3.0), 4)
        assert f.eigen_range() == (1.0, 3.0)

    def test_diagonal_phases(self):
        a = StiffTensor4(np.diag([1.0, 2.0, 3.0]))
        b = StiffTensor4(np.diag([2.0, 4.0, 6.0]))
        f = generate_chessboard(a, b, 4)
        assert f.eigen_range() == (1.0, 6.0)

    def test_absent_phase_ignored(self):
        table = PhaseTable.with_auto_alpha(
            {0: scalar_phase(1.0), 1: scalar_phase(2.0), 7: scalar_phase(9.0)}
        )
        f = CoefficientField(np.zeros((4, 4), dtype=int), table)
        assert f.eigen_range() == (1.0, 1.0)

    def test_range_within_declared_ellipticity(self):
        f = generate_chessboard(scalar_phase(0.5), scalar_phase(2.0), 4)
        lo, hi = f.eigen_range()
        assert f.table.alpha - 1e-15 <= lo <= hi <= 1.0 / f.table.alpha + 1e-15


class TestFieldValidation:
    def test_unknown_phase_in_map(self):
        table = PhaseTable.with_auto_alpha({0: scalar_phase(1.0)})
        with pytest.raises(ValueError, match="unknown phase"):
            CoefficientField(np.array([[0, 7], [0, 0]]), table)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 3))
        anis = StiffTensor4(m @ m.T + 2.0 * np.eye(3))
        f = generate_chessboard(anis, scalar_phase(np.pi), 8)
        path = tmp_path / "cell.micro"
        save_microstructure(f, path)
        g = load_microstructure(path)
        np.testing.assert_array_equal(f.phase_map, g.phase_map)
        for pid in f.table.phases:
            np.testing.assert_allclose(
                g.table.phases[pid].mandel_matrix,
                f.table.phases[pid].mandel_matrix,
                rtol=0,
                atol=1e-15,
            )

    def test_header_magic_required(self, tmp_path):
        path = tmp_path / "bad.micro"
        path.write_text("not-a-micro\nd 2 N 2 phases 1\n")
        with pytest.raises(MicrostructureFormatError, match="header"):
            load_microstructure(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.micro"
        path.write_text(
            "plate-micro v1\n"
            "d 2 N 4 phases 1\n"
            "phase 0 1 0 0 1 0 1\n" + " ".join(["0"] * 15) + "\n"
        )
        with pytest.raises(MicrostructureFormatError, match="15 entries"):
            load_microstructure(path)

    def test_unknown_phase_id(self, tmp_path):
        path = tmp_path / "orphan.micro"
        body = " ".join(["0"] * 3 + ["7"])
        path.write_text(
            "plate-micro v1\nd 2 N 2 phases 1\nphase 0 1 0 0 1 0 1\n" + body + "\n"
        )
        with pytest.raises(MicrostructureFormatError, match="unknown phase"):
            load_microstructure(path)

    def test_malformed_size_header(self, tmp_path):
        path = tmp_path / "hdr.micro"
        path.write_text("plate-micro v1\nd 2 M 4 phases 1\n")
        with pytest.raises(MicrostructureFormatError, match="size header"):
            load_microstructure(path)
