import math

import numpy as np
import pytest

from platefft.green import SpectralField, gamma_apply
from platefft.mandel import StiffTensor4, SymTensor2, trace_dyad
from platefft.microstructure import (
    generate_chessboard,
    generate_inclusion,
    generate_laminate,
)
from platefft.solver import (
    ReferenceMedium,
    SolverConfig,
    apriori_bound,
    estimate_spectral_radius,
    select_reference,
    series_factor,
    solve_cell,
    spectral_bound,
)

ID = StiffTensor4.identity()


def scalar_field_values(field):
    """Scalar coefficient grid for fields whose phases are multiples of identity."""
    lut = {pid: t.mandel_matrix[2, 2] for pid, t in field.table.phases.items()}
    return np.vectorize(lut.get)(field.phase_map)


class TestSelectReference:
    def test_arithmetic_midpoint(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 4)
        ref = select_reference(f, "arithmetic")
        assert ref.lambda0 == 2.0
        assert (ref.mu_min, ref.mu_max) == (1.0, 3.0)

    def test_homogeneous_any_strategy(self):
        f = generate_chessboard(2.5 * ID, 2.5 * ID, 4)
        for strategy in ("arithmetic", "geometric"):
            assert select_reference(f, strategy).lambda0 == pytest.approx(2.5)
        assert select_reference(f, "manual", 2.5).lambda0 == 2.5

    def test_geometric_mean_positive_sign(self):
        f = generate_chessboard(1.0 * ID, 100.0 * ID, 4)
        assert select_reference(f, "geometric").lambda0 == pytest.approx(10.0)

    def test_manual_requires_positive(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 4)
        with pytest.raises(ValueError, match="positive"):
            select_reference(f, "manual", -1.0)
        with pytest.raises(ValueError, match="manual"):
            select_reference(f, "manual")

    def test_arithmetic_invariant_holds(self):
        ref = select_reference(generate_chessboard(1.0 * ID, 9.0 * ID, 4), "arithmetic")
        assert ref.lambda0 > ref.mu_max / 2.0 > 0

    def test_bad_arithmetic_reference_rejected(self):
        with pytest.raises(ValueError, match="mu_max/2"):
            ReferenceMedium(1.0, "arithmetic", 1.0, 9.0)


class TestSpectralBound:
    def test_contrast_three(self):
        assert spectral_bound(1.0, 3.0) == pytest.approx(0.5)

    def test_homogeneous(self):
        assert spectral_bound(2.0, 2.0) == 0.0

    def test_contrast_nine(self):
        assert spectral_bound(1.0, 9.0) == pytest.approx(0.8)

    def test_invalid_range(self):
        for lo, hi in ((0.0, 1.0), (-1.0, 2.0), (3.0, 1.0)):
            with pytest.raises(ValueError):
                spectral_bound(lo, hi)


class TestSeriesFactor:
    def test_half(self):
        assert series_factor(0.5) == pytest.approx(2.0)

    def test_ninety_percent(self):
        assert series_factor(0.9) == pytest.approx(10.0)

    def test_divergence_flag(self):
        assert math.isinf(series_factor(1.0))
        assert math.isinf(series_factor(1.5))

    def test_trace_reference_always_flags(self):
        # dC keeps the full coefficient on trace-free directions, so q >= 1
        # for every elliptic field under the scalar trace reference.
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 4)
        assert math.isinf(apriori_bound(f, select_reference(f, "arithmetic")))


class TestEstimateSpectralRadius:
    def test_homogeneous_underflows_to_zero(self):
        f = generate_inclusion(2.0 * ID, 2.0 * ID, 0.25, 16)
        ref = select_reference(f, "arithmetic")
        assert estimate_spectral_radius(f, ref, 30, seed=1) == 0.0

    def test_chessboard_respects_midpoint_bound(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 32)
        ref = select_reference(f, "arithmetic")
        est = estimate_spectral_radius(f, ref, 50, seed=7)
        assert 0.3 < est <= spectral_bound(1.0, 3.0) + 0.02

    def test_joint_rescaling_invariance(self):
        f1 = generate_chessboard(1.0 * ID, 3.0 * ID, 16)
        f2 = generate_chessboard(4.0 * ID, 12.0 * ID, 16)
        r1 = select_reference(f1, "arithmetic")
        r2 = select_reference(f2, "arithmetic")
        e1 = estimate_spectral_radius(f1, r1, 30, seed=3)
        e2 = estimate_spectral_radius(f2, r2, 30, seed=3)
        assert abs(e1 - e2) <= 1e-6

    def test_matches_power_iteration_of_gamma_apply(self):
        # the same seeded draw, run through the full-spectrum operator in the (N, N, M) layout
        n, lam, iterations = 16, 2.0, 30
        f = generate_inclusion(1.0 * ID, StiffTensor4(np.diag([3.0, 2.0, 4.0])), 0.3, n)
        ref = select_reference(f, "manual", lam)
        dc = f.mandel_grid() - lam * np.eye(3)
        x = np.random.default_rng(5).standard_normal((n, n, 3))
        x -= x.mean(axis=(0, 1))
        x /= math.sqrt(float((x * x).sum()) / (n * n))
        ratios = []
        for _ in range(iterations):
            p = np.einsum("xyab,xyb->xya", dc, x)
            y = -gamma_apply(SpectralField.from_real(p), lam).to_real()
            ratios.append(math.sqrt(float((y * y).sum()) / (n * n)))
            x = y / ratios[-1]
        want = math.exp(np.log(ratios[-5:]).mean())
        assert estimate_spectral_radius(f, ref, iterations, seed=5) == pytest.approx(want, rel=1e-12)

    def test_minimum_iterations_enforced(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        with pytest.raises(ValueError, match="10"):
            estimate_spectral_radius(f, select_reference(f, "arithmetic"), 5, seed=0)


def solve(field, e0, strategy="arithmetic", lambda0=None, tol=1e-10, max_iter=5000):
    ref = select_reference(field, strategy, lambda0)
    config = SolverConfig(e0=SymTensor2(np.asarray(e0, dtype=float)), tolerance=tol,
                          max_iterations=max_iter)
    return solve_cell(field, ref, config)


class TestSolveCell:
    def test_homogeneous_converges_first_iteration(self):
        f = generate_inclusion(2.0 * ID, 2.0 * ID, 0.25, 16)
        s = solve(f, [1.0, -0.5, 2.0])
        assert s.converged and s.iterations == 1
        assert np.array_equal(s.curvature, np.broadcast_to([1.0, -0.5, 2.0], (16, 16, 3)))
        assert s.final_residual == 0.0

    def test_zero_load_returns_zero_solution(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        s = solve(f, [0.0, 0.0, 0.0])
        assert s.converged and s.iterations == 0
        assert not s.curvature.any() and not s.moment.any()

    def test_laminate_matches_piecewise_oracle(self):
        f = generate_laminate(1.0 * ID, 3.0 * ID, 0.5, 0, 64)
        s = solve(f, [1.0, 0.0, 0.0])
        assert s.converged
        c = scalar_field_values(f).astype(float)
        harmonic = 1.0 / np.mean(1.0 / c[:, 0])
        oracle = harmonic / c
        # field varies only along axis 0
        assert np.abs(s.curvature - s.curvature[:, :1, :]).max() < 1e-12
        interior = np.abs(s.curvature[..., 0] - oracle) <= 1e-6
        assert interior.all()
        assert np.abs(s.curvature[..., 1]).max() < 1e-10
        assert np.abs(s.curvature[..., 2]).max() < 1e-10

    def test_mean_preserved_every_iteration(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 16)
        e0 = np.array([1.0, 0.25, -0.5])
        for k in (1, 2, 3, 5, 8):
            s = solve(f, e0, tol=1e-300, max_iter=k)
            assert s.iterations == k
            np.testing.assert_allclose(s.curvature.mean(axis=(0, 1)), e0, rtol=0, atol=1e-12)

    def test_chessboard_residual_ratio_below_bound(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 32)
        s = solve(f, [1.0, 0.0, 0.0], tol=1e-10)
        assert s.converged
        res = s.history.residuals
        tail = [res[i + 1] / res[i] for i in range(max(0, len(res) - 11), len(res) - 1)]
        assert max(tail) <= spectral_bound(1.0, 3.0) + 0.05

    def test_monotone_tail_against_estimate(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 16)
        ref = select_reference(f, "arithmetic")
        rho = estimate_spectral_radius(f, ref, 40, seed=11)
        s = solve(f, [0.3, 1.0, 0.4], tol=1e-11)
        res = s.history.residuals
        for i in range(10, len(res) - 1):
            assert res[i + 1] <= res[i] * (rho + 0.1)

    @pytest.mark.parametrize(
        "f",
        [
            pytest.param(generate_chessboard(1.0 * ID, 3.0 * ID, 16), id="chessboard-16"),
            # odd N: the last stored half-spectrum column has an implicit partner
            pytest.param(generate_inclusion(1.0 * ID, 3.0 * ID, 0.3, 15), id="inclusion-15"),
        ],
    )
    def test_two_iterations_match_neumann_truncation(self, f):
        n = f.n
        ref = select_reference(f, "arithmetic")
        e0 = np.array([1.0, -0.2, 0.7])
        s = solve(f, e0, tol=1e-300, max_iter=2)

        c0 = ref.lambda0 * trace_dyad()
        dc = f.mandel_grid() - c0

        def apply_b(values):
            p = np.einsum("xyab,xyb->xya", dc, values)
            return gamma_apply(SpectralField.from_real(p), ref.lambda0).to_real()

        term0 = np.broadcast_to(e0, (n, n, 3))
        term1 = apply_b(np.array(term0))
        term2 = apply_b(term1)
        np.testing.assert_allclose(s.curvature, term0 + term1 + term2, rtol=0, atol=1e-12)

    def test_moment_is_pointwise_product(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        s = solve(f, [1.0, 0.0, 0.0])
        c = scalar_field_values(f)[..., None]
        np.testing.assert_allclose(s.moment, c * s.curvature, rtol=1e-13, atol=1e-13)

    def test_divergent_manual_reference_flagged(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        s = solve(f, [1.0, 0.0, 0.0], strategy="manual", lambda0=0.05, max_iter=200)
        assert not s.converged
        assert len(s.history) == s.iterations >= 1
        assert not (s.final_residual <= 1e-10)

    def test_history_columns_consistent(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        s = solve(f, [1.0, 0.0, 0.0], tol=1e-8)
        h = s.history
        assert len(h.iterations) == len(h.residuals) == len(h.deltas) == len(h.energies)
        assert h.iterations == list(range(1, s.iterations + 1))
        assert all(r >= 0 for r in h.residuals)
        assert h.residuals[-1] == s.final_residual

    def test_energy_diagnostic_matches_solution_energy(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 16)
        s = solve(f, [1.0, 0.5, 0.0], tol=1e-12)
        assert s.history.energies[-1] == pytest.approx(s.energy(), rel=1e-12)

    def test_chessboard_rotation_equivariance(self):
        # swapping phases equals rotating the cell by 90 degrees; the solution
        # follows along, voxel for voxel
        n = 16
        e0 = np.array([1.0, 0.4, -0.3])

        def rot_mandel(v):
            out = np.empty_like(v)
            out[..., 0] = v[..., 1]
            out[..., 1] = v[..., 0]
            out[..., 2] = -v[..., 2]
            return out

        f1 = generate_chessboard(1.0 * ID, 3.0 * ID, n)
        f2 = generate_chessboard(3.0 * ID, 1.0 * ID, n)
        # the swapped-phase coefficient field is the rotated coefficient field
        c1, c2 = scalar_field_values(f1), scalar_field_values(f2)
        assert np.array_equal(np.rot90(c1), c2)
        ref = select_reference(f1, "arithmetic")
        config = lambda e: SolverConfig(e0=SymTensor2(e), tolerance=1e-12)
        s1 = solve_cell(f1, ref, config(e0))
        s2 = solve_cell(f2, ref, config(rot_mandel(e0)))
        assert s1.converged and s2.converged
        predicted = np.rot90(rot_mandel(s1.curvature), k=1, axes=(0, 1))
        np.testing.assert_allclose(s2.curvature, predicted, rtol=0, atol=1e-8)


class TestReferenceStrategiesHighContrast:
    def test_arithmetic_converges_geometric_diverges_at_contrast_100(self):
        # The midpoint rule satisfies the sufficient condition lam0 > mu_max/2;
        # the geometric rule does not, and the plain fixed point blows up.
        f = generate_inclusion(1.0 * ID, 100.0 * ID, 0.25, 32)
        arith = solve(f, [1.0, 0.0, 0.0], "arithmetic", tol=1e-8)
        geo = solve(f, [1.0, 0.0, 0.0], "geometric", tol=1e-8, max_iter=2000)
        assert arith.converged
        assert not geo.converged
