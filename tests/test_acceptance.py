"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing test) and then asserts the criterion.
"""
import math

import numpy as np

from platefft.cli import main as cli_main
from platefft.green import (
    SpectralField,
    dirac_sobolev_partial_sum,
    gamma_apply,
    l2_inner,
    reconstruct_from_skew,
    build_skew_potential,
    weyl_decompose,
)
from platefft.homogenize import bracket_check, effective_tensor, voigt_reuss_bounds
from platefft.mandel import SQRT2, StiffTensor4, SymTensor2, identity_vector
from platefft.microstructure import (
    generate_chessboard,
    generate_inclusion,
    generate_laminate,
)
from platefft.solver import (
    SolverConfig,
    estimate_spectral_radius,
    select_reference,
    solve_cell,
    spectral_bound,
)

ID = StiffTensor4.identity()


def verdict(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def int_freqs(n):
    return np.rint(np.fft.fftfreq(n) * n).astype(int)


def random_w_hat(n, rng, band):
    f = int_freqs(n)
    n1, n2 = np.meshgrid(f, f, indexing="ij")
    mask = (np.abs(n1) <= band) & (np.abs(n2) <= band) & ((n1 != 0) | (n2 != 0))
    w_hat = np.zeros((n, n), dtype=complex)
    w_hat[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    w = np.real(np.fft.ifftn(w_hat))
    return np.fft.fftn(w)


def curvature_of(w_hat):
    n = w_hat.shape[0]
    f = int_freqs(n).astype(float)
    n1, n2 = np.meshgrid(f, f, indexing="ij")
    nn = np.stack([n1**2, n2**2, SQRT2 * n1 * n2], axis=-1)
    return np.real(np.fft.ifftn(-4.0 * np.pi**2 * nn * w_hat[..., None], axes=(0, 1)))


def l2_norm(values):
    return math.sqrt(float((values**2).sum(axis=-1).mean()))


def test_criterion_1_homogeneous_exactness():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((3, 3))
    phase = StiffTensor4(m @ m.T + 2.0 * np.eye(3))
    field = generate_inclusion(phase, phase, 0.25, 32)
    ref = select_reference(field, "arithmetic")
    s = solve_cell(field, ref, SolverConfig(e0=SymTensor2(np.array([1.0, -0.3, 0.8]))))
    exact_e = np.array_equal(
        s.curvature, np.broadcast_to([1.0, -0.3, 0.8], s.curvature.shape)
    )
    eff = effective_tensor(field, ref)
    rel = float(
        np.abs(eff.tensor.mandel_matrix - phase.mandel_matrix).max()
        / phase.operator_norm()
    )
    ok = s.converged and s.iterations == 1 and exact_e and rel <= 1e-12
    assert verdict(
        1, ok, f"homogeneous: 1 iteration, E == E0, effective rel err {rel:.2e} <= 1e-12"
    )


def test_criterion_2_green_projection_identity():
    rng = np.random.default_rng(20)
    n, lam0 = 32, 1.6
    worst_pot = 0.0
    worst_sol = 0.0
    for _ in range(50):
        w_hat = random_w_hat(n, rng, band=12)
        dw = curvature_of(w_hat)
        tr = dw[..., 0] + dw[..., 1]
        c0_dw = lam0 * tr[..., None] * identity_vector()
        out = gamma_apply(SpectralField.from_real(c0_dw), lam0).to_real()
        worst_pot = max(worst_pot, l2_norm(out + dw) / l2_norm(dw))
        p = rng.standard_normal((n, n, 3))
        _, sol, _ = weyl_decompose(SpectralField.from_real(p))
        sol_real = sol.to_real()
        out_sol = gamma_apply(sol, lam0).to_real()
        worst_sol = max(worst_sol, l2_norm(out_sol) / l2_norm(sol_real))
    ok = worst_pot <= 1e-10 and worst_sol <= 1e-10
    assert verdict(
        2,
        ok,
        f"Gamma(C0:Dw)=-Dw rel err {worst_pot:.2e} <= 1e-10; "
        f"Gamma on solenoidal {worst_sol:.2e} <= 1e-10 (50 trials, N=32)",
    )


def test_criterion_3_weyl_decomposition():
    rng = np.random.default_rng(30)
    n = 32
    worst_recon = 0.0
    worst_inner = 0.0
    worst_skew = 0.0
    for _ in range(20):
        values = rng.standard_normal((n, n, 3))
        spectral = SpectralField.from_real(values)
        pot, sol, mean = weyl_decompose(spectral)
        recon = pot.to_real() + sol.to_real() + mean.mandel
        worst_recon = max(worst_recon, float(np.abs(recon - values).max()))
        mean_field = SpectralField.from_real(
            np.broadcast_to(mean.mandel, values.shape).copy()
        )
        scale = l2_norm(values) ** 2
        worst_inner = max(
            worst_inner,
            abs(l2_inner(pot, sol)) / scale,
            abs(l2_inner(pot, mean_field)) / scale,
            abs(l2_inner(sol, mean_field)) / scale,
        )
        skew = build_skew_potential(sol)
        back = reconstruct_from_skew(skew)
        worst_skew = max(
            worst_skew,
            float(np.abs(back.coeffs - sol.coeffs).max())
            / float(np.abs(sol.coeffs).max()),
        )
    ok = worst_recon <= 1e-12 and worst_inner <= 1e-10 and worst_skew <= 1e-10
    assert verdict(
        3,
        ok,
        f"reconstruction {worst_recon:.2e}, orthogonality {worst_inner:.2e} <= 1e-10, "
        f"skew-potential D* reconstruction {worst_skew:.2e} <= 1e-10",
    )


def test_criterion_4_laminate_oracle():
    n = 128
    field = generate_laminate(1.0 * ID, 3.0 * ID, 0.5, 0, n)
    ref = select_reference(field, "arithmetic")
    eff = effective_tensor(field, ref, SolverConfig(tolerance=1e-10))
    chom = eff.tensor.mandel_matrix
    across_err = abs(chom[0, 0] - 1.5) / 1.5
    along_err = abs(chom[1, 1] - 2.0) / 2.0
    s = solve_cell(field, ref, SolverConfig(e0=SymTensor2.basis(0), tolerance=1e-10))
    c = np.where(field.phase_map == 0, 1.0, 3.0)
    oracle = (1.0 / np.mean(1.0 / c[:, 0])) / c
    away = np.ones(n, dtype=bool)
    for interface in (0, n // 2):  # exclude one voxel on each side
        away[(interface - 1) % n] = away[interface % n] = False
    voxel_err = float(np.abs(s.curvature[..., 0] - oracle)[away, :].max())
    ok = across_err <= 0.01 and along_err <= 0.01 and voxel_err <= 1e-6
    assert verdict(
        4,
        ok,
        f"across rel err {across_err:.2e} <= 1%, along rel err {along_err:.2e} <= 1%, "
        f"voxel-wise oracle err {voxel_err:.2e} <= 1e-6 (N=128)",
    )


def test_criterion_5_spectral_radius_bound():
    field = generate_chessboard(1.0 * ID, 3.0 * ID, 32)
    ref = select_reference(field, "arithmetic")
    bound = spectral_bound(ref.mu_min, ref.mu_max)
    estimate = estimate_spectral_radius(field, ref, 50, seed=7)
    s = solve_cell(field, ref, SolverConfig(e0=SymTensor2.basis(0), tolerance=1e-10))
    res = s.history.residuals
    tail = [res[i + 1] / res[i] for i in range(max(0, len(res) - 11), len(res) - 1)]
    ratio = max(tail)
    ok = bound == 0.5 and estimate <= bound + 0.02 and ratio <= 0.55
    assert verdict(
        5,
        ok,
        f"bound {bound}, power estimate {estimate:.4f} <= 0.52, "
        f"asymptotic residual ratio {ratio:.4f} <= 0.55",
    )


def test_criterion_6_voigt_reuss_bracketing():
    cases = {
        "laminate": generate_laminate(1.0 * ID, 3.0 * ID, 0.5, 0, 32),
        "chessboard": generate_chessboard(1.0 * ID, 4.0 * ID, 32),
        "inclusion": generate_inclusion(1.0 * ID, 10.0 * ID, 0.25, 32),
    }
    slacks = {}
    ok = True
    for name, field in cases.items():
        ref = select_reference(field, "arithmetic")
        eff = effective_tensor(field, ref, SolverConfig(tolerance=1e-9))
        bounds = voigt_reuss_bounds(field)
        v = bracket_check(bounds, eff.tensor)
        floor = -1e-8 * bounds.voigt.operator_norm()
        slacks[name] = (float(v.upper_slack.min()), float(v.lower_slack.min()))
        ok = ok and v.upper_slack.min() >= floor and v.lower_slack.min() >= floor
    assert verdict(
        6,
        ok,
        "min slack eigenvalues (voigt-chom, chom-reuss): "
        + ", ".join(f"{k}=({a:.2e},{b:.2e})" for k, (a, b) in slacks.items()),
    )


def test_criterion_7_reference_strategy_comparison():
    field = generate_inclusion(1.0 * ID, 100.0 * ID, 0.25, 32)
    config = SolverConfig(e0=SymTensor2.basis(0), tolerance=1e-8, max_iterations=5000)
    arith = solve_cell(field, select_reference(field, "arithmetic"), config)
    geo = solve_cell(field, select_reference(field, "geometric"), config)
    ok = arith.converged and geo.converged and geo.iterations <= arith.iterations
    assert verdict(
        7,
        ok,
        f"contrast-100 inclusion: geometric (converged={geo.converged}, "
        f"iters={geo.iterations}) <= arithmetic (converged={arith.converged}, "
        f"iters={arith.iterations}); the plain fixed point diverges under the "
        f"geometric rule once the contrast exceeds 4, so a FAIL here is the "
        f"known behavior of the scheme, not a regression",
    )


def test_criterion_8_dirac_sobolev_partial_sums():
    cutoffs = (8, 16, 32, 64)
    s2 = {r: dirac_sobolev_partial_sum(-2.0, 2, r) for r in cutoffs}
    inc = [s2[b] - s2[a] for a, b in zip(cutoffs, cutoffs[1:])]
    cauchy = all(inc[i] / inc[i + 1] >= 3.0 for i in range(len(inc) - 1))
    s1_64 = dirac_sobolev_partial_sum(-1.0, 2, 64)
    diverging = s1_64 > 10.0 * s2[64]
    ok = cauchy and diverging
    assert verdict(
        8,
        ok,
        f"s=-2 increment ratios {[f'{inc[i]/inc[i+1]:.2f}' for i in range(len(inc)-1)]} >= 3; "
        f"s=-1 sum {s1_64:.3e} > 10 x s=-2 limit {s2[64]:.3e}",
    )


def test_criterion_9_mean_preservation_and_determinism(tmp_path):
    e0 = np.array([1.0, 0.25, -0.5])
    worst_mean = 0.0
    for maker in (
        lambda: generate_laminate(1.0 * ID, 3.0 * ID, 0.25, 1, 16),
        lambda: generate_chessboard(1.0 * ID, 3.0 * ID, 16),
        lambda: generate_inclusion(1.0 * ID, 5.0 * ID, 0.25, 16),
    ):
        field = maker()
        ref = select_reference(field, "arithmetic")
        for k in (1, 2, 3, 5, 10):
            s = solve_cell(
                field, ref, SolverConfig(e0=SymTensor2(e0), tolerance=1e-300, max_iterations=k)
            )
            worst_mean = max(
                worst_mean, float(np.abs(s.curvature.mean(axis=(0, 1)) - e0).max())
            )
        s = solve_cell(field, ref, SolverConfig(e0=SymTensor2(e0)))
        worst_mean = max(
            worst_mean, float(np.abs(s.curvature.mean(axis=(0, 1)) - e0).max())
        )
    args = [
        "--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
        "--set", "micro.beta=3", "--set", "micro.n=16",
        "--set", "e0=1,0.25,-0.5", "--seed", "11",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["solve", "--out", str(out1)] + args) == 0
    assert cli_main(["solve", "--out", str(out2)] + args) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("report.txt", "history.csv", "solution_E.field", "moment_J.field")
    )
    ok = worst_mean <= 1e-12 and identical
    assert verdict(
        9,
        ok,
        f"worst |<E_k> - E0| = {worst_mean:.2e} <= 1e-12 across runs and iterations; "
        f"equal seeds reproduce byte-identical artifacts: {identical}",
    )
