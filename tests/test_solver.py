import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platefft
from platefft import green
from platefft.green import FrequencyGrid, SpectralField, gamma_apply
from platefft.mandel import PLANES, StiffTensor4, SymTensor2, trace_dyad
from platefft.microstructure import (
    CoefficientField,
    PhaseTable,
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
    _PotentialStep,
    _stiffness_product,
)

ID = StiffTensor4.identity()


def scalar_field_values(field):
    """Scalar coefficient grid for fields whose phases are multiples of identity."""
    lut = {pid: t.mandel_matrix[2, 2] for pid, t in field.table.phases.items()}
    return np.vectorize(lut.get)(field.phase_map)


def full_grid(planes):
    """The (N, N, M, M) grid of per-voxel Mandel matrices that mandel_grid's six distinct planes stand for."""
    return np.stack(planes)[PLANES].transpose(2, 3, 0, 1)


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

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            select_reference(generate_chessboard(1.0 * ID, 3.0 * ID, 4), "bogus")


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

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            series_factor(-0.5)

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

    def test_returns_zero_once_a_ratio_falls_below_1e_13(self):
        # stiffnesses 2 and 2 (1 + eps) give a radius of about eps / 2, and no iterate comes near the underflow range
        estimates = []
        for eps in (1e-14, 1e-12):
            f = generate_inclusion(2.0 * ID, 2.0 * (1.0 + eps) * ID, 0.25, 16)
            estimates.append(estimate_spectral_radius(f, select_reference(f, "arithmetic"), 30, seed=1))
        assert estimates[0] == 0.0
        assert estimates[1] == pytest.approx(5e-13, rel=0.01)

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
        dc = full_grid(f.mandel_grid()) - lam * np.eye(3)
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


SMALL_CELLS = [
    pytest.param(generate_chessboard(1.0 * ID, 3.0 * ID, 16), id="chessboard-16"),
    # odd N: the last stored half-spectrum column has an implicit partner
    pytest.param(generate_inclusion(1.0 * ID, 3.0 * ID, 0.3, 15), id="inclusion-15"),
]


def solve(field, e0, strategy="arithmetic", lambda0=None, tol=1e-10, max_iter=5000):
    """solve_cell under the rule; the manual rule's lam0 defaults to the arithmetic one, where it runs the fixed point."""
    if strategy == "manual" and lambda0 is None:
        lambda0 = select_reference(field, "arithmetic").lambda0
    ref = select_reference(field, strategy, lambda0)
    config = SolverConfig(e0=SymTensor2(np.asarray(e0, dtype=float)), tolerance=tol,
                          max_iterations=max_iter)
    return solve_cell(field, ref, config)


def solve_fixed_point(field, e0, **kwargs):
    """The fixed point at the arithmetic lam0: the manual rule runs it, and solve_cell reads only lam0 and the rule."""
    return solve(field, e0, "manual", **kwargs)


def over_both_schemes(argnames, cases):
    """Parametrize argnames and the rule: each case on CG (the arithmetic rule) under its own id, then on the fixed
    point (the manual rule at the arithmetic lam0) under `fixed-point-` and the id; cases maps ids to values."""
    params = [pytest.param(*values, "arithmetic", id=key) for key, values in cases.items()]
    params += [pytest.param(*values, "manual", id=f"fixed-point-{key}") for key, values in cases.items()]
    return pytest.mark.parametrize(f"{argnames}, strategy", params)


def check_energy_diagnostic(strategy):
    f = generate_chessboard(1.0 * ID, 3.0 * ID, 16)
    s = solve(f, [1.0, 0.5, 0.0], strategy, tol=1e-12)
    assert s.energy == s.history.energies[-1]
    # the loop's formula against <E : J> of the returned fields
    assert s.energy == pytest.approx(float((s.curvature * s.moment).sum(axis=-1).mean()), rel=1e-12)


def check_underflowing_inner_product(strategy):
    # at tolerance 1e-300 the recursive residual falls to about 1e-162, where <r, z> underflows to 0: the loop
    # ends there with no 0/0 and no warning, unconverged, and reports the fields' residual, not the recursive one
    f = generate_inclusion(1.0 * ID, 3.0 * ID, 0.3, 8)
    s = solve(f, [1.0, 0.5, 0.0], strategy, tol=1e-300, max_iter=1000)
    assert s.iterations < 1000 and not s.converged
    assert s.history.residuals[-1] < 1e-150 < s.final_residual == pytest.approx(recomputed_residual(s.moment), rel=0.05)
    assert np.isfinite(s.history.energies).all() and np.isfinite(s.curvature).all()


class TestSolveCell:
    def test_homogeneous_converges_first_iteration(self):
        f = generate_inclusion(2.0 * ID, 2.0 * ID, 0.25, 16)
        for s in (solve_fixed_point(f, [1.0, -0.5, 2.0]), solve(f, [1.0, -0.5, 2.0])):
            assert s.converged and s.iterations == 1
            assert np.array_equal(s.curvature, np.broadcast_to([1.0, -0.5, 2.0], (16, 16, 3)))
            assert s.final_residual == 0.0
            assert s.history.residuals == [0.0] and s.history.deltas == [0.0]
            assert s.energy == s.history.energies[0] == pytest.approx(2.0 * (1.0 + 0.25 + 4.0), rel=1e-15)

    def test_zero_load_returns_zero_solution(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        s = solve(f, [0.0, 0.0, 0.0])
        assert s.converged and s.iterations == 0
        assert not s.curvature.any() and not s.moment.any()

    def test_config_without_load_rejected(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        with pytest.raises(ValueError, match="no macroscopic curvature"):
            solve_cell(f, select_reference(f, "arithmetic"), SolverConfig())

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

    def test_two_core_loop_identical_to_one_core(self, monkeypatch):
        # N at the real gate, so a host with two CPUs splits the first run; the second has the gate off
        n = green._SPLIT_MIN_N
        f = generate_inclusion(1.0 * ID, StiffTensor4(np.diag([10.0, 12.0, 8.0])), 0.3, n)
        ref = select_reference(f, "arithmetic")
        config = SolverConfig(e0=SymTensor2(np.array([1.0, 0.5, 0.25])), tolerance=1e-300, max_iterations=3)

        def outcome():
            out = []
            for rule in (ref, select_reference(f, "manual", ref.lambda0)):  # CG, then the fixed point
                s = solve_cell(f, rule, config)
                out += [s.curvature.tobytes(), s.moment.tobytes(), s.history, s.energy]
            return out, estimate_spectral_radius(f, ref, 10, seed=5)

        split = outcome()
        monkeypatch.setattr(green, "_SPLIT_MIN_N", n + 1)
        assert outcome() == split

    def test_no_thread_at_import_or_small_n(self):
        code = (
            "import sys, threading\n"
            "import numpy as np, platefft\n"
            "from platefft import *\n"
            "f = generate_chessboard(StiffTensor4.identity(), 3.0 * StiffTensor4.identity(), 16)\n"
            "solve_cell(f, select_reference(f, 'arithmetic'), SolverConfig(e0=SymTensor2(np.array([1.0, 0, 0]))))\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(platefft.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_mean_preserved_every_iteration(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 16)
        e0 = np.array([1.0, 0.25, -0.5])
        for k in (1, 2, 3, 5, 8):
            s = solve(f, e0, tol=1e-300, max_iter=k)
            assert s.iterations == k
            np.testing.assert_allclose(s.curvature.mean(axis=(0, 1)), e0, rtol=0, atol=1e-12)

    def test_chessboard_residual_ratio_below_bound(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 32)
        s = solve_fixed_point(f, [1.0, 0.0, 0.0], tol=1e-10)
        assert s.converged
        res = s.history.residuals
        tail = [res[i + 1] / res[i] for i in range(max(0, len(res) - 11), len(res) - 1)]
        assert max(tail) <= spectral_bound(1.0, 3.0) + 0.05

    def test_monotone_tail_against_estimate(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 16)
        ref = select_reference(f, "arithmetic")
        rho = estimate_spectral_radius(f, ref, 40, seed=11)
        s = solve_fixed_point(f, [0.3, 1.0, 0.4], tol=1e-11)
        res = s.history.residuals
        for i in range(10, len(res) - 1):
            assert res[i + 1] <= res[i] * (rho + 0.1)

    @pytest.mark.parametrize("f", SMALL_CELLS)
    def test_two_iterations_match_neumann_truncation(self, f):
        n = f.n
        ref = select_reference(f, "arithmetic")
        e0 = np.array([1.0, -0.2, 0.7])
        s = solve_fixed_point(f, e0, tol=1e-300, max_iter=2)

        c0 = ref.lambda0 * trace_dyad()
        dc = full_grid(f.mandel_grid()) - c0

        def apply_b(values):
            p = np.einsum("xyab,xyb->xya", dc, values)
            return gamma_apply(SpectralField.from_real(p), ref.lambda0).to_real()

        term0 = np.broadcast_to(e0, (n, n, 3))
        term1 = apply_b(np.array(term0))
        term2 = apply_b(term1)
        np.testing.assert_allclose(s.curvature, term0 + term1 + term2, rtol=0, atol=1e-12)

    @over_both_schemes("f", {p.id: p.values for p in SMALL_CELLS})
    def test_delta_is_rms_of_iterate_step(self, f, strategy):
        # deltas[k-1] = RMS of E_k - E_{k-1}, with E_k the curvature of a solve cut after k iterations
        e0 = np.array([1.0, -0.2, 0.7])
        deltas = solve(f, e0, strategy, tol=1e-300, max_iter=3).history.deltas
        iterates = [np.broadcast_to(e0, (f.n, f.n, 3))]
        iterates += [solve(f, e0, strategy, tol=1e-300, max_iter=k).curvature for k in (1, 2, 3)]
        for k in (1, 2, 3):
            d = iterates[k] - iterates[k - 1]
            assert deltas[k - 1] == pytest.approx(math.sqrt((d**2).sum(axis=-1).mean()), rel=1e-12)

    def test_moment_is_pointwise_product(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        s = solve(f, [1.0, 0.0, 0.0])
        c = scalar_field_values(f)[..., None]
        np.testing.assert_allclose(s.moment, c * s.curvature, rtol=1e-13, atol=1e-13)

    def test_consecutive_solutions_do_not_alias(self):
        # a solve's fields are its own: a workspace kept across solves would overwrite the first's
        f = generate_inclusion(1.0 * ID, 3.0 * ID, 0.3, 15)
        first = solve(f, [1.0, 0.0, 0.0])
        curvature, moment = first.curvature.tobytes(), first.moment.tobytes()
        solve(f, [0.0, 1.0, 0.5])
        assert first.curvature.tobytes() == curvature and first.moment.tobytes() == moment

    def test_divergent_manual_reference_flagged(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        s = solve(f, [1.0, 0.0, 0.0], strategy="manual", lambda0=0.05, max_iter=200)
        assert not s.converged
        assert len(s.history.iterations) == s.iterations >= 1
        assert not (s.final_residual <= 1e-10)

    def test_reference_far_above_the_stiffness_is_not_converged(self):
        # the contraction factor 1 - mu_min/lam0 rounds to 1, so the loop stops after one iteration that leaves
        # E = E0; C:E0 of the scaled load stays in range, so that stop reads unconverged, not as a zero residual
        f = generate_chessboard(1e-300 * ID, 3e-300 * ID, 8)
        s = solve(f, [1.0, 0.0, 0.0], strategy="manual", lambda0=1e300)
        assert s.iterations == 1 and not s.converged and s.final_residual > 1
        assert np.array_equal(s.curvature, np.broadcast_to([1.0, 0.0, 0.0], (8, 8, 3)))
        assert s.energy == pytest.approx(2e-300, rel=1e-12)

    def test_history_columns_consistent(self):
        f = generate_chessboard(1.0 * ID, 3.0 * ID, 8)
        s = solve(f, [1.0, 0.0, 0.0], tol=1e-8)
        h = s.history
        assert len(h.iterations) == len(h.residuals) == len(h.deltas) == len(h.energies)
        assert h.iterations == list(range(1, s.iterations + 1))
        assert all(r >= 0 for r in h.residuals)
        assert h.residuals[-1] == s.final_residual

    def test_energy_diagnostic_matches_solution_energy(self):
        check_energy_diagnostic("arithmetic")

    def test_fixed_point_energy_diagnostic_matches_solution_energy(self):
        check_energy_diagnostic("manual")

    @pytest.mark.parametrize(
        "field",
        [generate_chessboard(1.0 * ID, 3.0 * ID, 16), generate_inclusion(1.0 * ID, 5.0 * ID, 0.3, 15)],
        ids=["chessboard-16", "inclusion-15"],
    )
    def test_mean_moment_is_mean_of_moment_field(self, field):
        s = solve(field, [1.0, -0.4, 0.6], tol=1e-10)
        want = s.moment.mean(axis=(0, 1))
        np.testing.assert_allclose(s.mean_moment.mandel, want, rtol=1e-14, atol=0)

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


@st.composite
def anisotropic_cells(draw):
    """Fields of N in 3..16 (odd and even) with 2-3 random anisotropic phases, eigenvalues in [1, 100]."""
    n = draw(st.integers(3, 16))
    phases = {}
    for k in range(draw(st.integers(2, 3))):
        eig = draw(st.lists(st.floats(1.0, 100.0), min_size=3, max_size=3))
        q, _ = np.linalg.qr(np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))).reshape(3, 3))
        phases[k] = StiffTensor4(q @ np.diag(eig) @ q.T)
    ids = draw(st.lists(st.integers(0, len(phases) - 1), min_size=n * n, max_size=n * n))
    e0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda v: max(map(abs, v)) > 0.1))
    return CoefficientField(np.array(ids).reshape(n, n), PhaseTable(phases)), np.array(e0)


def recomputed_residual(moment):
    """The equilibrium residual of a returned (N, N, M) moment field, from its full fftn spectrum."""
    grid = FrequencyGrid(2, moment.shape[0])
    j_hat = np.fft.fftn(moment, axes=(0, 1))
    s = sum(plane * j_hat[..., a] for a, plane in enumerate(grid.mandel_nn(grid.n)))
    return math.sqrt(float((np.abs(s) ** 2)[grid.inv_norm4(grid.n) > 0].sum())) / float(np.linalg.norm(j_hat[0, 0]))


class TestConjugateGradients:
    """CG's robustness; the fixed point, which runs on the same step, passes the same tests but for CG's rate."""

    @pytest.mark.parametrize("n", [15, 16])
    def test_stable_below_the_rounding_floor(self, n):
        # FFT rounding leaves column 0 of the half spectrum slightly off conjugate symmetry, a part that CG cannot
        # reduce; kept in r, it made the residual climb from 1e-14 back to 1e2 within 150 iterations
        f = generate_inclusion(1.0 * ID, 10.0 * ID, 0.3, n)
        s = solve(f, [1.0, 0.5, 0.25], tol=1e-300, max_iter=150)
        assert s.iterations == 150 and s.history.residuals[-1] <= 1e-14 and s.final_residual <= 1e-13
        assert all(b <= a for a, b in zip(s.history.energies, s.history.energies[1:]))

    @over_both_schemes("tol", {"1e-10": (1e-10,), "1e-15": (1e-15,)})
    def test_reported_residual_is_the_returned_fields(self, tol, strategy):
        # The loop's recursive residual falls below 1e-15 here, while the fields' own stays near 3e-13 (rounding):
        # the solve reports the fields' residual, and is converged only if that meets the tolerance
        f = generate_inclusion(1.0 * ID, 10.0 * ID, 0.3, 64)
        s = solve(f, [1.0, 0.5, 0.25], strategy, tol=tol, max_iter=1000)
        recomputed = recomputed_residual(s.moment)
        assert s.final_residual == s.history.residuals[-1] == pytest.approx(recomputed, rel=0.05)
        assert s.converged == (recomputed <= tol) == (tol == 1e-10)
        assert s.iterations < 1000  # at the rounding floor the loop ends, rather than spend its budget
        np.testing.assert_allclose(s.mean_moment.mandel, s.moment.mean(axis=(0, 1)), rtol=1e-14)

    def test_underflowing_inner_product_ends_the_loop(self):
        check_underflowing_inner_product("arithmetic")

    def test_underflowing_inner_product_ends_the_fixed_point(self):
        check_underflowing_inner_product("manual")

    @over_both_schemes("exponent", {"-532": (-532,), "500": (500,)})
    def test_loads_far_from_one_solve_as_the_unit_load_scaled(self, exponent, strategy):
        # unscaled, <r, z> of a load near 1e-160 underflows to 0 and ends the loop; the solve is linear in E0, so a
        # load that is a power of two times another has exactly the scaled fields and the same residuals
        f = generate_inclusion(1.0 * ID, 3.0 * ID, 0.3, 8)
        unit = solve(f, [1.0, -0.5, 0.25], strategy, tol=1e-14)
        scaled = solve(f, np.ldexp([1.0, -0.5, 0.25], exponent), strategy, tol=1e-14)
        assert scaled.converged and scaled.history.residuals == unit.history.residuals
        assert np.array_equal(scaled.curvature, np.ldexp(unit.curvature, exponent))
        assert np.array_equal(scaled.moment, np.ldexp(unit.moment, exponent))
        assert scaled.history.deltas == [math.ldexp(d, exponent) for d in unit.history.deltas]
        assert scaled.energy == pytest.approx(math.ldexp(unit.energy, 2 * exponent), rel=2e-3)  # subnormal at -532

    @over_both_schemes("e0, stiffness", {"tiny-on-stiff": (5e-324, 1e300), "huge-on-soft": (1e300, 1e-300)})
    def test_extreme_load_and_stiffness_converge(self, e0, stiffness, strategy):
        # E0.<C>E0 is near 1e-24 and 1e300: in range, though C:E0 or E0 alone is near an end of it
        f = generate_inclusion(stiffness * ID, 3.0 * stiffness * ID, 0.3, 8)
        s = solve(f, [e0, 0.0, 0.0], strategy, tol=1e-14, max_iter=200)
        assert s.converged and s.iterations < 200
        assert np.isfinite(s.history.energies).all() and np.isfinite(s.curvature).all()

    @settings(deadline=None, derandomize=True, max_examples=20)
    @given(anisotropic_cells())
    def test_agrees_with_fixed_point(self, case):
        # the same mean moment to a small multiple of the tolerance, an energy that never rises, and a
        # residual of the returned moment, recomputed from its full spectrum, within twice the tolerance and
        # within 10 % of the residual CG reported
        field, e0 = case
        tol = 1e-8
        fixed = solve_fixed_point(field, e0, tol=tol)
        cg = solve(field, e0, tol=tol)
        assert fixed.converged and cg.converged
        scale = np.abs(fixed.mean_moment.mandel).max()
        assert np.abs(cg.mean_moment.mandel - fixed.mean_moment.mandel).max() <= 10 * tol * scale
        energies = cg.history.energies
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        recomputed = recomputed_residual(cg.moment)
        assert recomputed <= 2 * tol
        assert abs(recomputed - cg.final_residual) <= 0.1 * (cg.final_residual + 1e-13)


class TestReferenceStrategiesHighContrast:
    def test_arithmetic_converges_geometric_diverges_at_contrast_100(self):
        # The midpoint rule satisfies the sufficient condition lam0 > mu_max/2;
        # the geometric rule does not, and the plain fixed point blows up.
        f = generate_inclusion(1.0 * ID, 100.0 * ID, 0.25, 32)
        arith = solve(f, [1.0, 0.0, 0.0], "arithmetic", tol=1e-8)
        geo = solve(f, [1.0, 0.0, 0.0], "geometric", tol=1e-8, max_iter=2000)
        assert arith.converged
        assert not geo.converged


def orthotropic(d11, d12, d22, d66):
    """Mandel matrix of an orthotropic plate: no bending-twisting coupling, so C_02 = C_12 = 0."""
    return StiffTensor4([[d11, d12, 0.0], [d12, d22, 0.0], [0.0, 0.0, d66]])


def coupled(rng, c01):
    """A random positive definite Mandel matrix whose C_01 is c01."""
    a = rng.uniform(0.1, 1.0, (3, 3))
    mat = a @ a.T + 3.0 * np.eye(3)
    mat[0, 1] = mat[1, 0] = c01
    return StiffTensor4(mat)


class TestStiffnessProduct:
    @staticmethod
    def check_against_einsum(f, rng):
        """Asserts that C:x of the step of either scheme, CG and the fixed point (lam0 below the phases' diagonals),
        has the bits of einsum over the full grid, with +-0.0 in x; returns the step's number of terms per row."""
        n = f.n
        x = rng.standard_normal((3, n, n))
        x[:, 0], x[:, 1] = -0.0, 0.0
        x[0, 2], x[2, 3] = -0.0, 0.0
        c = np.ascontiguousarray(full_grid(f.mandel_grid()).transpose(2, 3, 0, 1))  # (M, M, N, N)
        want = np.einsum("abxy,bxy->axy", c, x)
        assert not np.signbit(want[:, :2]).any()  # einsum's sums of +-0.0 products are +0.0
        for ref in (select_reference(f, "arithmetic"), select_reference(f, "manual", 0.5)):
            step = _PotentialStep(f, ref)
            step.x[:] = x
            step.spec.fill(np.nan)
            step._contraction()  # C:x into x, through spec
            assert step.x.tobytes() == want.tobytes()
        return [len(row) for row in step.terms]

    @staticmethod
    def every_plane_varies(n, rng):
        """Three phases with positive entries, so where x is -0.0 every product is -0.0."""
        phases = {}
        for k in range(3):
            a = rng.uniform(0.1, 1.0, (3, 3))
            phases[k] = StiffTensor4(a @ a.T + np.eye(3))
        return CoefficientField(rng.integers(0, 3, (n, n)), PhaseTable(phases))

    @pytest.mark.parametrize("n", [8, 9])
    def test_both_steps_equal_einsum_over_the_full_grid_bit_for_bit(self, n):
        rng = np.random.default_rng(1200 + n)
        assert self.check_against_einsum(self.every_plane_varies(n, rng), rng) == [3, 3, 3]

    @pytest.mark.parametrize("n", [8, 9])
    def test_split_rows_equal_einsum_bit_for_bit(self, n, monkeypatch):
        # the split is forced, so a one-CPU host runs it too: each half forms C:x in place on its own rows, with
        # its own rows of spec as scratch; odd N halves the rows unevenly
        monkeypatch.setattr(green, "_CPUS", 2)
        monkeypatch.setattr(green, "_SPLIT_MIN_N", n)
        rng = np.random.default_rng(1200 + n)
        f = self.every_plane_varies(n, rng)
        assert _PotentialStep(f, select_reference(f, "arithmetic")).half.split
        assert self.check_against_einsum(f, rng) == [3, 3, 3]

    @pytest.mark.parametrize("n", [8, 9])
    def test_each_half_writes_only_its_own_rows(self, n):
        # the two halves run at once, so rows lo:hi of x and of spec's scratch planes are all that one may write
        rng = np.random.default_rng(1250 + n)
        f = self.every_plane_varies(n, rng)
        step = _PotentialStep(f, select_reference(f, "arithmetic"))
        x = rng.standard_normal((3, n, n))
        for lo, hi in ((0, n // 2), (n // 2, n)):
            step.x[:] = x
            storage = step.spec.reshape(-1).view(float)
            storage.fill(np.nan)  # in the imaginary parts too
            _stiffness_product(step.terms, step.x, step.spec, lo, hi)
            written = ~np.isnan(storage)
            assert not written[3 * n * n :].any()
            assert not written[: 3 * n * n].reshape(3, n, n)[:, np.r_[:lo, hi:n]].any()
            assert step.x[:, np.r_[:lo, hi:n]].tobytes() == x[:, np.r_[:lo, hi:n]].tobytes()

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize(
        "cell, terms",
        [
            # solve-512's kind: multiples of the identity, whose three off-diagonal planes are zero
            (lambda n, rng: generate_inclusion(1.0 * ID, 10.0 * ID, 0.3, n), [1, 1, 1]),
            # an orthotropic pair, one with a negative C_01: the shear-coupling planes C_02 and C_12 are zero
            (lambda n, rng: CoefficientField(rng.integers(0, 2, (n, n)), PhaseTable(
                {0: orthotropic(4.0, 1.0, 3.0, 2.0), 1: orthotropic(9.0, -2.0, 6.0, 5.0)})), [2, 2, 1]),
            # C_01 = 0.7 in every phase: a constant, nonzero plane, whose terms stay
            (lambda n, rng: CoefficientField(rng.integers(0, 3, (n, n)), PhaseTable(
                {k: coupled(rng, 0.7) for k in range(3)})), [3, 3, 3]),
        ],
        ids=["diagonal", "orthotropic", "constant-plane"],
    )
    def test_constant_and_zero_planes_keep_the_einsums_bits(self, cell, terms, n):
        rng = np.random.default_rng(1300 + n)
        f = cell(n, rng)
        assert self.check_against_einsum(f, rng) == terms


class TestAllocationBudget:
    # tracemalloc peaks of these 20-iteration solves, in bytes: 506 629 (CG) and 506 581 (fixed point).  The phases
    # are diagonal, so C stores its three diagonal planes, whose bits differ.  A second (M, N, N) field for C:X adds
    # 98 KB to either, and so do the three zero planes stored as well; a stored (M, N, N//2 + 1) mandel(n (x) n) in
    # place of n1^2 and n2^2 as broadcast vectors and one shear plane adds 33 KB; the contraction's products as
    # temporaries add 4 KB.
    @pytest.mark.parametrize("strategy, budget", [("arithmetic", 541_739), ("manual", 524_739)])
    def test_solve_peak_within_budget(self, strategy, budget):
        f = generate_inclusion(StiffTensor4(np.diag([1.0, 2.0, 1.5])), StiffTensor4(np.diag([10.0, 12.0, 8.0])), 0.3, 64)
        ref = select_reference(f, strategy, 7.0)
        config = SolverConfig(e0=SymTensor2([1.0, 0.5, 0.25]), max_iterations=20)
        solve_cell(f, ref, config)  # first-call allocations, such as numpy's caches, stay out of the measurement
        trace = sys.gettrace()  # a line tracer (tools/untested_lines.py) would add its frame objects to the peak
        sys.settrace(None)
        tracemalloc.start()
        try:
            solve_cell(f, ref, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sys.settrace(trace)
        assert peak <= budget
