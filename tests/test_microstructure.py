import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platefft.mandel import PLANES, UPPER, StiffTensor4
from platefft.microstructure import (
    CoefficientField,
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


def full_grid(planes):
    """The (N, N, M, M) grid of per-voxel Mandel matrices that mandel_grid's six distinct planes stand for."""
    return np.stack(planes)[PLANES].transpose(2, 3, 0, 1)


@st.composite
def spd_phases(draw):
    """Mandel matrices Q diag(eig) Q^T with eigenvalues in [0.1, 10] and a random rotation."""
    eig = draw(st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3))
    q, _ = np.linalg.qr(np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))).reshape(3, 3))
    return StiffTensor4(q @ np.diag(eig) @ q.T)


@st.composite
def random_fields(draw):
    """Fields of 1-3 anisotropic phases with arbitrary, non-contiguous int64 ids."""
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(2, 5))
    pm = np.array(draw(st.lists(st.sampled_from(ids), min_size=n * n, max_size=n * n)))
    phases = {pid: draw(spd_phases()) for pid in ids}
    return CoefficientField(pm.reshape(n, n), PhaseTable(phases))


class TestPhaseTable:
    def test_requires_phase(self):
        with pytest.raises(ValueError, match="at least one"):
            PhaseTable({})

    @pytest.mark.parametrize("eig", [(1.0, 2.0, 0.0), (1.0, -0.5, 3.0)], ids=["singular", "indefinite"])
    def test_non_positive_definite_rejected(self, eig):
        with pytest.raises(ValueError, match="phases must be positive definite"):
            PhaseTable({0: scalar_phase(1.0), 1: StiffTensor4(np.diag(eig))})


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

    def test_axis_outside_the_plane_rejected(self):
        with pytest.raises(ValueError, match="axis must be 0 or 1, got 2"):
            generate_laminate(scalar_phase(1.0), scalar_phase(2.0), 0.5, 2, 4)

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
        mats = full_grid(f.mandel_grid())
        assert np.all(mats == mats[0, 0])

    def test_radius_bounds(self):
        for r in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError, match="radius"):
                generate_inclusion(scalar_phase(1.0), scalar_phase(2.0), r, 16)
        with pytest.raises(ValueError, match="N >= 2"):  # a valid radius on a grid below two points
            generate_inclusion(scalar_phase(1.0), scalar_phase(2.0), 0.25, 1)


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
        table = PhaseTable(
            {0: scalar_phase(1.0), 1: scalar_phase(2.0), 7: scalar_phase(9.0)}
        )
        f = CoefficientField(np.zeros((4, 4), dtype=int), table)
        assert f.eigen_range() == (1.0, 1.0)


class TestPhaseCensus:
    """present_phases, volume_fractions and eigen_range read one census of the map, taken when the field is built."""

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(random_fields())
    def test_census_counts_the_map(self, f):
        ids, counts = np.unique(f.phase_map, return_counts=True)
        assert f.present_phases() == ids.tolist()
        assert f.volume_fractions() == {int(i): c / f.phase_map.size for i, c in zip(ids, counts)}

    def test_absent_phase_left_out(self):
        table = PhaseTable({0: scalar_phase(1.0), 3: scalar_phase(9.0), 5: scalar_phase(2.0)})
        f = CoefficientField(np.array([[5, 0], [0, 0]]), table)
        assert f.present_phases() == [0, 5]
        assert f.volume_fractions() == {0: 0.75, 5: 0.25}
        assert f.eigen_range() == (1.0, 2.0)

    def test_callers_get_fresh_containers(self):
        f = generate_laminate(scalar_phase(1.0), scalar_phase(2.0), 0.25, 0, 8)
        f.present_phases().append(7)
        f.volume_fractions()[0] = 1.0
        assert f.present_phases() == [0, 1]
        assert f.volume_fractions() == {0: 0.25, 1: 0.75}


class TestMandelGrid:
    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(random_fields())
    def test_planes_expand_to_each_voxels_matrix(self, f):
        planes = f.mandel_grid()
        assert len(planes) == 6 and all(p.shape == (f.n, f.n) for p in planes)
        want = np.array([[f.table.phases[pid].mandel_matrix for pid in row] for row in f.phase_map.tolist()])
        assert full_grid(planes).shape == want.shape and full_grid(planes).tobytes() == want.tobytes()
        entries = np.array([f.table.phases[pid].mandel_matrix[UPPER] for pid in f.present_phases()]).T
        self.assert_stores_exactly(planes, [len({e.tobytes() for e in row}) > 1 for row in entries])

    @staticmethod
    def assert_stores_exactly(planes, varies):
        """The planes that vary are rows of one contiguous (k, N, N) array, one row per distinct bit pattern, which
        the planes with those bits share; the others are zero-stride views.  Returns k."""
        stored = [p for p, v in zip(planes, varies) if v]
        for p, v in zip(planes, varies):
            assert (p.strides == (0, 0)) != v and p.flags.writeable == v
        if not stored:
            return 0
        block = stored[0].base
        assert block.shape == (len({p.tobytes() for p in stored}), *planes[0].shape) and block.flags.c_contiguous
        assert all(p.base is block for p in stored)
        assert all(np.shares_memory(p, q) == (p.tobytes() == q.tobytes()) for p in stored for q in stored)
        return block.shape[0]

    @pytest.mark.parametrize(
        "phases, varies, rows",
        [
            # solve-512's kind: multiples of the identity vary only on the diagonal planes (UPPER's 0, 3 and 5),
            # whose bits are equal, so one row is stored
            ({0: np.eye(3), 1: 10.0 * np.eye(3)}, [True, False, False, True, False, True], 1),
            # C_01 = 0.5 in both phases is a constant, not a stored plane
            ({0: [[2.0, 0.5, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 1.0]], 1: [[4.0, 0.5, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 2.0]]},
             [True, False, False, False, False, True], 2),
            # one value means the same bits: -0.0 and +0.0 differ
            ({0: np.eye(3), 1: [[1.0, -0.0, 0.0], [-0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, [False, True, False, False, False, False], 1),
            # a phase in the table only (3) makes no plane vary
            ({0: np.eye(3), 1: np.eye(3), 3: 5.0 * np.eye(3)}, [False] * 6, 0),
        ],
        ids=["diagonal", "constant-coupling", "signed-zero", "absent-phase"],
    )
    def test_only_the_planes_that_vary_over_the_present_phases_are_stored(self, phases, varies, rows):
        f = CoefficientField(np.arange(16).reshape(4, 4) % 2, PhaseTable({k: StiffTensor4(v) for k, v in phases.items()}))
        planes = f.mandel_grid()
        assert self.assert_stores_exactly(planes, varies) == rows
        want = np.array([[f.table.phases[pid].mandel_matrix for pid in row] for row in f.phase_map.tolist()])
        assert full_grid(planes).tobytes() == want.tobytes()

    def test_bit_equal_varying_planes_share_one_stored_row(self):
        # C_00 = C_22 and C_01 = C_02 in each phase, and the two pairs vary differently: two rows for four planes
        phases = {0: [[2.0, 0.5, 0.5], [0.5, 3.0, 0.0], [0.5, 0.0, 2.0]], 1: [[4.0, 0.25, 0.25], [0.25, 3.0, 0.0], [0.25, 0.0, 4.0]]}
        f = CoefficientField(np.arange(16).reshape(4, 4) % 2, PhaseTable({k: StiffTensor4(v) for k, v in phases.items()}))
        c = f.mandel_grid()
        first, second = c[PLANES[0, 0]], c[PLANES[0, 1]]
        assert np.shares_memory(first, c[PLANES[2, 2]]) and np.shares_memory(second, c[PLANES[0, 2]])
        assert not np.shares_memory(first, second) and first.base.shape == (2, 4, 4)
        assert self.assert_stores_exactly(c, [True, True, True, False, False, True]) == 2

    def test_planes_that_differ_only_by_the_sign_of_zero_stay_separate_rows(self):
        # C_01 and C_02 read (+0.0, 0.25) and (-0.0, 0.25) over the phases: equal values, not equal bits
        phases = {0: [[1.0, 0.0, -0.0], [0.0, 1.0, 0.0], [-0.0, 0.0, 1.0]], 1: [[1.0, 0.25, 0.25], [0.25, 1.0, 0.0], [0.25, 0.0, 1.0]]}
        f = CoefficientField(np.arange(16).reshape(4, 4) % 2, PhaseTable({k: StiffTensor4(v) for k, v in phases.items()}))
        c = f.mandel_grid()
        assert not np.shares_memory(c[PLANES[0, 1]], c[PLANES[0, 2]])
        assert np.signbit(c[PLANES[0, 2]][0, 0]) and not np.signbit(c[PLANES[0, 1]][0, 0])
        assert self.assert_stores_exactly(c, [False, True, True, False, False, False]) == 2
        want = np.array([[f.table.phases[pid].mandel_matrix for pid in row] for row in f.phase_map.tolist()])
        assert full_grid(c).tobytes() == want.tobytes()


class TestFieldValidation:
    def test_unknown_phase_in_map(self):
        table = PhaseTable({0: scalar_phase(1.0)})
        with pytest.raises(ValueError, match="unknown phase"):
            CoefficientField(np.array([[0, 7], [0, 0]]), table)

    @pytest.mark.parametrize("shape, message", [((2, 3), "N x N"), ((4,), "N x N"), ((1, 1), "N >= 2")])
    def test_map_not_square_or_below_two_points_rejected(self, shape, message):
        with pytest.raises(ValueError, match=message):
            CoefficientField(phase_map=np.zeros(shape, dtype=int), table=PhaseTable({0: scalar_phase(1.0)}))

    def test_keyword_construction_keeps_a_read_only_copy_of_the_map(self):
        pm = np.zeros((2, 2), dtype=int)
        f = CoefficientField(phase_map=pm, table=PhaseTable(phases={0: scalar_phase(1.0)}))
        pm[0, 0] = 7
        assert f.phase_map[0, 0] == 0 and not f.phase_map.flags.writeable


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

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(random_fields())
    def test_exact_round_trip(self, tmp_path_factory, f):
        path = tmp_path_factory.mktemp("micro") / "cell.micro"
        save_microstructure(f, path)
        g = load_microstructure(path)
        np.testing.assert_array_equal(g.phase_map, f.phase_map)
        assert g.table.phases.keys() == f.table.phases.keys()
        for pid, tensor in f.table.phases.items():
            np.testing.assert_array_equal(g.table.phases[pid].mandel_matrix, tensor.mandel_matrix)

    def test_free_phase_map_layout(self, tmp_path):
        path = tmp_path / "free.micro"
        path.write_text(
            "\nplate-micro v1\n\nd 2 N 2 phases 2\n"
            "phase 4 1 0 0 1 0 1\nphase 9 2 0 0 2 0 2\n4\n\n9 9   4\n"
        )
        f = load_microstructure(path)
        np.testing.assert_array_equal(f.phase_map, [[4, 9], [9, 4]])

    def test_header_magic_required(self, tmp_path):
        path = tmp_path / "bad.micro"
        path.write_text("not-a-micro\nd 2 N 2 phases 1\n")
        with pytest.raises(ValueError, match="header"):
            load_microstructure(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.micro"
        path.write_text(
            "plate-micro v1\n"
            "d 2 N 4 phases 1\n"
            "phase 0 1 0 0 1 0 1\n" + " ".join(["0"] * 15) + "\n"
        )
        with pytest.raises(ValueError, match="15 entries"):
            load_microstructure(path)

    def test_unknown_phase_id(self, tmp_path):
        path = tmp_path / "orphan.micro"
        body = " ".join(["0"] * 3 + ["7"])
        path.write_text(
            "plate-micro v1\nd 2 N 2 phases 1\nphase 0 1 0 0 1 0 1\n" + body + "\n"
        )
        with pytest.raises(ValueError, match="unknown phase"):
            load_microstructure(path)

    def test_unknown_phase_ids_listed_as_plain_integers(self, tmp_path):
        path = tmp_path / "orphans.micro"
        path.write_text("plate-micro v1\nd 2 N 2 phases 1\nphase 0 1 0 0 1 0 1\n0 -3 0 7\n")
        with pytest.raises(ValueError, match=r"unknown phase ids \[-3, 7\]$"):
            load_microstructure(path)

    def test_negative_grid_size_named(self, tmp_path):
        # N*N = 4 map entries match the header, so only the size check stands between N = -2 and a reshape
        path = tmp_path / "negative.micro"
        path.write_text("plate-micro v1\nd 2 N -2 phases 1\nphase 0 1 0 0 1 0 1\n0 0 0 0\n")
        with pytest.raises(ValueError, match=r"^header needs N >= 2 points per axis, got N=-2$"):
            load_microstructure(path)

    def test_malformed_size_header(self, tmp_path):
        path = tmp_path / "hdr.micro"
        path.write_text("plate-micro v1\nd 2 M 4 phases 1\n")
        with pytest.raises(ValueError, match="size header"):
            load_microstructure(path)

    @pytest.mark.parametrize("count", ["0", "-1", "12345678901234567890"], ids=["zero", "negative", "beyond-maxsize"])
    def test_phase_count_out_of_range(self, tmp_path, count):
        # a count above sys.maxsize is named in the error, not left to fail inside the row reader
        path = tmp_path / "count.micro"
        path.write_text(f"plate-micro v1\nd 2 N 2 phases {count}\nphase 0 1 0 0 1 0 1\n0 0 0 0\n")
        with pytest.raises(ValueError, match=f"got phases {count}$"):
            load_microstructure(path)

    @pytest.mark.parametrize("entry", ["99999999999999999999", "-9223372036854775809", "1.0", "x"])
    def test_bad_phase_map_entry(self, tmp_path, entry):
        path = tmp_path / "entry.micro"
        path.write_text(f"plate-micro v1\nd 2 N 2 phases 1\nphase 0 1 0 0 1 0 1\n0 0 0 {entry}\n")
        with pytest.raises(ValueError, match="entry"):
            load_microstructure(path)

    @pytest.mark.parametrize(
        "row", ["phase 0 1 0 0 1 0", "phase 0 1 0 0 1 0 1 0", "phasex 0 1 0 0 1 0 1", "phase x 1 0 0 1 0 1",
                "phase 0 1 0 0 1 0 y", "phase 0 inf 0 0 1 0 1", "phase 0 1 nan 0 1 0 1"],
    )
    def test_bad_phase_row(self, tmp_path, row):
        path = tmp_path / "row.micro"
        path.write_text(f"plate-micro v1\nd 2 N 2 phases 1\n{row}\n0 0 0 0\n")
        with pytest.raises(ValueError, match="phase row"):
            load_microstructure(path)
