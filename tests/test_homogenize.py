import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platefft.homogenize import (
    NonConvergenceError,
    analytic_chessboard,
    analytic_laminate,
    bracket_check,
    effective_tensor,
    voigt_reuss_bounds,
)
from platefft.mandel import StiffTensor4, SymTensor2
from platefft.microstructure import (
    CoefficientField,
    PhaseTable,
    generate_chessboard,
    generate_inclusion,
    generate_laminate,
)
from platefft.solver import ReferenceMedium, SolverConfig, select_reference, solve_cell

ID = StiffTensor4.identity()


def homogenized(field, tol=1e-10, strategy="arithmetic", lambda0=None, max_iter=5000):
    ref = select_reference(field, strategy, lambda0)
    return effective_tensor(field, ref, SolverConfig(tolerance=tol, max_iterations=max_iter))


@st.composite
def scalar_phase_maps(draw):
    """N = 8 phase maps of 2-3 scalar phases with stiffness in [1, 10] (contrast <= 10)."""
    stiffness = draw(st.lists(st.floats(1.0, 10.0), min_size=2, max_size=3))
    ids = draw(st.lists(st.integers(0, len(stiffness) - 1), min_size=64, max_size=64))
    table = PhaseTable({k: s * ID for k, s in enumerate(stiffness)})
    return np.array(ids).reshape(8, 8), table


@st.composite
def anisotropic_phase_maps(draw):
    """N = 8 phase maps of 2-3 anisotropic phases with eigenvalues in [1, 10] (contrast <= 10)."""
    phases = []
    for _ in range(draw(st.integers(2, 3))):
        eig = draw(st.lists(st.floats(1.0, 10.0), min_size=3, max_size=3))
        q, _ = np.linalg.qr(np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))).reshape(3, 3))
        phases.append(StiffTensor4(q @ np.diag(eig) @ q.T))
    ids = draw(st.lists(st.integers(0, len(phases) - 1), min_size=64, max_size=64))
    return np.array(ids).reshape(8, 8), phases


class TestHomogeneousExactness:
    def test_effective_equals_phase_tensor(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((3, 3))
        c = StiffTensor4(m @ m.T + 2.0 * np.eye(3))
        field = generate_inclusion(c, c, 0.25, 16)
        eff = homogenized(field)
        np.testing.assert_allclose(
            eff.tensor.mandel_matrix, c.mandel_matrix,
            rtol=1e-12, atol=1e-12 * c.operator_norm(),
        )
        assert all(case.iterations == 1 for case in eff.load_cases)
        assert eff.asymmetry <= 1e-12


class TestLaminate:
    def test_across_and_along_match_analytic(self):
        field = generate_laminate(1.0 * ID, 3.0 * ID, 0.5, 0, 128)
        eff = homogenized(field)
        along, across = analytic_laminate(1.0, 3.0, 0.5)
        chom = eff.tensor.mandel_matrix
        assert chom[0, 0] == pytest.approx(across, rel=0.01)  # across the layers
        assert chom[1, 1] == pytest.approx(along, rel=0.01)  # along the layers
        # scalar laminate decouples: off-diagonal entries vanish
        off = chom - np.diag(np.diag(chom))
        assert np.abs(off).max() < 1e-8

    def test_axis_swap_transposes_roles(self):
        f0 = generate_laminate(1.0 * ID, 4.0 * ID, 0.25, 0, 16)
        f1 = generate_laminate(1.0 * ID, 4.0 * ID, 0.25, 1, 16)
        c0 = homogenized(f0).tensor.mandel_matrix
        c1 = homogenized(f1).tensor.mandel_matrix
        assert c0[0, 0] == pytest.approx(c1[1, 1], rel=1e-8)
        assert c0[1, 1] == pytest.approx(c1[0, 0], rel=1e-8)


class TestVoigtReuss:
    def test_two_scalar_phases(self):
        field = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        bounds = voigt_reuss_bounds(field)
        np.testing.assert_allclose(bounds.voigt.mandel_matrix, 2.0 * np.eye(3), atol=1e-14)
        np.testing.assert_allclose(bounds.reuss.mandel_matrix, 1.5 * np.eye(3), atol=1e-14)

    def test_homogeneous_bounds_coincide(self):
        field = generate_inclusion(2.0 * ID, 2.0 * ID, 0.3, 8)
        bounds = voigt_reuss_bounds(field)
        np.testing.assert_allclose(
            bounds.voigt.mandel_matrix, bounds.reuss.mandel_matrix, rtol=1e-13
        )

    def test_three_phase_dense_averaging_oracle(self):
        rng = np.random.default_rng(5)
        diags = [np.diag(rng.uniform(0.5, 4.0, size=3)) for _ in range(3)]
        table = PhaseTable({k: StiffTensor4(d) for k, d in enumerate(diags)})
        pm = np.zeros((6, 6), dtype=int)
        pm[2:, :] = 1
        pm[4:, :] = 2  # fractions 1/3 each
        field = CoefficientField(pm, table)
        bounds = voigt_reuss_bounds(field)
        voigt_oracle = sum(d for d in diags) / 3.0
        reuss_oracle = np.linalg.inv(sum(np.linalg.inv(d) for d in diags) / 3.0)
        np.testing.assert_allclose(bounds.voigt.mandel_matrix, voigt_oracle, rtol=1e-12)
        np.testing.assert_allclose(bounds.reuss.mandel_matrix, reuss_oracle, rtol=1e-12)

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: generate_laminate(1.0 * ID, 3.0 * ID, 0.5, 0, 32),
            lambda: generate_chessboard(1.0 * ID, 4.0 * ID, 32),
            lambda: generate_inclusion(1.0 * ID, 10.0 * ID, 0.25, 32),
        ],
        ids=["laminate", "chessboard", "inclusion10"],
    )
    def test_computed_tensor_is_bracketed(self, maker):
        field = maker()
        eff = homogenized(field, tol=1e-9)
        verdict = bracket_check(voigt_reuss_bounds(field), eff.tensor)
        assert verdict.bracketed


class TestAnalyticFormulas:
    def test_laminate_examples(self):
        assert analytic_laminate(1.0, 3.0, 0.5) == pytest.approx((2.0, 1.5))
        assert analytic_laminate(2.0, 2.0, 0.3) == pytest.approx((2.0, 2.0))
        along, across = analytic_laminate(2.0, 8.0, 0.25)
        assert along == pytest.approx(6.5)
        assert across == pytest.approx(32.0 / 7.0)

    def test_laminate_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            analytic_laminate(-1.0, 3.0, 0.5)
        with pytest.raises(ValueError):
            analytic_laminate(1.0, 3.0, 1.5)

    def test_chessboard_examples(self):
        assert analytic_chessboard(1.0, 4.0) == pytest.approx(2.0)
        assert analytic_chessboard(3.0, 3.0) == pytest.approx(3.0)
        assert analytic_chessboard(2.0, 8.0) == pytest.approx(4.0)

    def test_chessboard_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            analytic_chessboard(0.0, 1.0)


class TestInvariants:
    def test_linear_scaling(self):
        f1 = generate_chessboard(1.0 * ID, 3.0 * ID, 16)
        f2 = generate_chessboard(2.0 * ID, 6.0 * ID, 16)
        c1 = homogenized(f1).tensor.mandel_matrix
        c2 = homogenized(f2).tensor.mandel_matrix
        np.testing.assert_allclose(c2, 2.0 * c1, rtol=1e-10)

    def test_phase_relabeling_invariance(self):
        table_a = PhaseTable({0: 1.0 * ID, 1: 3.0 * ID})
        table_b = PhaseTable({5: 1.0 * ID, 2: 3.0 * ID})
        pm = generate_chessboard(1.0 * ID, 3.0 * ID, 16).phase_map
        relabeled = np.where(pm == 0, 5, 2)
        f_a = CoefficientField(pm, table_a)
        f_b = CoefficientField(relabeled, table_b)
        c_a = homogenized(f_a).tensor.mandel_matrix
        c_b = homogenized(f_b).tensor.mandel_matrix
        np.testing.assert_allclose(c_a, c_b, rtol=1e-13)

    @settings(deadline=None, derandomize=True, max_examples=10)
    @given(anisotropic_phase_maps())
    def test_anisotropic_bracketed_and_symmetric(self, case):
        pm, phases = case
        field = CoefficientField(pm, PhaseTable(dict(enumerate(phases))))
        eff = homogenized(field)
        assert bracket_check(voigt_reuss_bounds(field), eff.tensor).bracketed
        assert eff.asymmetry <= 1e-8

    @settings(deadline=None, derandomize=True, max_examples=10)
    @given(anisotropic_phase_maps(), st.randoms(use_true_random=False),
           st.lists(st.integers(-1000, 1000), min_size=3, max_size=3, unique=True))
    def test_anisotropic_phase_relabelling(self, case, rnd, new_ids):
        pm, phases = case
        c = homogenized(CoefficientField(pm, PhaseTable(dict(enumerate(phases))))).tensor
        order = list(range(len(phases)))
        rnd.shuffle(order)
        # old id k becomes new_ids[k]; the table is built in the shuffled order
        relabelled = CoefficientField(
            np.array(new_ids)[pm],
            PhaseTable({new_ids[k]: phases[k] for k in order}),
        )
        c_relabelled = homogenized(relabelled).tensor
        np.testing.assert_allclose(
            c_relabelled.mandel_matrix, c.mandel_matrix, rtol=0, atol=1e-13 * c.operator_norm()
        )

    @settings(deadline=None, derandomize=True, max_examples=10)
    @given(scalar_phase_maps(), st.integers(0, 7), st.integers(0, 7))
    def test_periodic_shift_and_transposition(self, case, s0, s1):
        pm, table = case
        c = homogenized(CoefficientField(pm, table), tol=1e-12).tensor.mandel_matrix
        scale = 1e-10 * np.abs(c).max()
        shifted = CoefficientField(np.roll(pm, (s0, s1), axis=(0, 1)), table)
        c_shifted = homogenized(shifted, tol=1e-12).tensor.mandel_matrix
        np.testing.assert_allclose(c_shifted, c, rtol=0, atol=scale)
        # mirroring y1 <-> y2 exchanges the Mandel components 11 and 22; 12 is kept
        c_transposed = homogenized(CoefficientField(pm.T, table), tol=1e-12).tensor.mandel_matrix
        swap = np.ix_([1, 0, 2], [1, 0, 2])
        np.testing.assert_allclose(c_transposed, c[swap], rtol=0, atol=scale)

    def test_asymmetry_small_at_default_tolerance(self):
        field = generate_inclusion(1.0 * ID, 5.0 * ID, 0.3, 32)
        eff = homogenized(field, tol=1e-8)
        assert eff.asymmetry <= 1e-6

    def test_energy_consistency_with_effective_tensor(self):
        field = generate_chessboard(1.0 * ID, 3.0 * ID, 32)
        ref = select_reference(field, "arithmetic")
        eff = effective_tensor(field, ref, SolverConfig(tolerance=1e-10))
        e0 = np.array([1.0, -0.4, 0.6])
        s = solve_cell(field, ref, SolverConfig(e0=SymTensor2(e0), tolerance=1e-10))
        quad = float(e0 @ eff.tensor.mandel_matrix @ e0)
        assert s.energy == pytest.approx(quad, rel=1e-8)

    def test_positive_definite_for_elliptic_input(self):
        field = generate_inclusion(1.0 * ID, 10.0 * ID, 0.25, 16)
        eff = homogenized(field)
        assert eff.tensor.eigenvalues()[0] > 0

    def test_chessboard_anchor_recorded_not_asserted(self):
        # the geometric-mean value is a second-order-theory anchor; the computed
        # fourth-order tensor lands inside Voigt-Reuss, which is what we assert
        field = generate_chessboard(1.0 * ID, 4.0 * ID, 32)
        eff = homogenized(field)
        anchor = analytic_chessboard(1.0, 4.0)
        bounds = voigt_reuss_bounds(field)
        assert bracket_check(bounds, eff.tensor).bracketed
        assert bounds.reuss.mandel_matrix[0, 0] <= anchor <= bounds.voigt.mandel_matrix[0, 0]


class TestNonConvergencePropagation:
    def test_failed_load_case_is_named(self):
        field = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        ref = ReferenceMedium(0.05, "manual", 1.0, 3.0)
        with pytest.raises(NonConvergenceError, match="load case 0"):
            effective_tensor(field, ref, SolverConfig(tolerance=1e-10, max_iterations=50))
