import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platefft import green
from platefft.green import (
    FrequencyGrid,
    GreenOperator,
    SpectralField,
    build_skew_potential,
    dirac_sobolev_partial_sum,
    gamma_apply,
    green_evaluate,
    green_fourier_coefficient,
    l2_inner,
    reconstruct_from_skew,
    weyl_decompose,
)
from platefft.mandel import SQRT2, StiffTensor4, identity_vector, sym_to_mandel
from platefft.microstructure import generate_inclusion
from platefft.solver import _NeumannStep

TWO_PI = 2.0 * np.pi


def int_freqs(n):
    return np.rint(np.fft.fftfreq(n) * n).astype(int)


def random_w_hat(n, rng, band):
    """Zero-mean, conjugate-symmetric scalar coefficients supported on |n|_inf <= band."""
    f = int_freqs(n)
    n1, n2 = np.meshgrid(f, f, indexing="ij")
    mask = (np.abs(n1) <= band) & (np.abs(n2) <= band) & ((n1 != 0) | (n2 != 0))
    w_hat = np.zeros((n, n), dtype=complex)
    w_hat[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    w = np.real(np.fft.ifftn(w_hat))  # symmetrize; support stays inside the band
    return np.fft.fftn(w)


def curvature_of(w_hat):
    """Dw = grad grad w by spectral differentiation, as a real Mandel grid."""
    n = w_hat.shape[0]
    f = int_freqs(n)
    n1, n2 = np.meshgrid(f.astype(float), f.astype(float), indexing="ij")
    nn = np.stack([n1**2, n2**2, SQRT2 * n1 * n2], axis=-1)
    dw_hat = -4.0 * np.pi**2 * nn * w_hat[..., None]
    return np.real(np.fft.ifftn(dw_hat, axes=(0, 1)))


def reference_times(field_values, lambda0):
    """Pointwise C0 : X = lambda0 * Tr(X) * I."""
    tr = field_values[..., 0] + field_values[..., 1]
    return lambda0 * tr[..., None] * identity_vector()


def l2_norm(values):
    return math.sqrt(float((values**2).sum(axis=-1).mean()))


class TestGreenCoefficient:
    def test_unit_frequency(self):
        got = green_fourier_coefficient([1, 0])
        assert got == pytest.approx(-((TWO_PI) ** -4), rel=1e-15)
        assert got == pytest.approx(-6.41625e-4, abs=2e-9)

    def test_diagonal_frequency(self):
        assert green_fourier_coefficient([1, 1]) == pytest.approx(-((TWO_PI) ** -4) / 4.0)

    def test_zero_frequency_mean_zero(self):
        assert green_fourier_coefficient([0, 0]) == 0.0

    def test_quartic_decay_with_exact_constant(self):
        c = (TWO_PI) ** -4
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(-9, 10, size=2)
            if not n.any():
                continue
            norm4 = float(n @ n) ** 2
            assert abs(green_fourier_coefficient(n)) <= c / norm4 + 1e-18


class TestGreenEvaluate:
    def test_eight_term_value_at_origin(self):
        want = -5.0 * (TWO_PI) ** -4
        assert green_evaluate([0.0, 0.0], 1) == pytest.approx(want, rel=1e-14)

    def test_even_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            y = rng.random(2)
            a = green_evaluate(y, 3)
            b = green_evaluate(1.0 - y, 3)
            assert a == pytest.approx(b, abs=1e-14)

    def test_zero_mean_over_fine_grid(self):
        cutoff = 2
        m = 3 * (2 * cutoff) + 1  # M > 2R and coprime with the active modes
        vals = [
            green_evaluate([i / m, j / m], cutoff) for i in range(m) for j in range(m)
        ]
        assert abs(sum(vals) / m**2) < 1e-12

    def test_matches_slow_complex_sum(self):
        y = np.array([0.3, 0.7])
        cutoff = 2
        total = 0.0 + 0.0j
        for a in range(-cutoff, cutoff + 1):
            for b in range(-cutoff, cutoff + 1):
                if a == 0 and b == 0:
                    continue
                coeff = -((TWO_PI) ** -4) / float(a * a + b * b) ** 2
                total += coeff * cmath.exp(2j * math.pi * (a * y[0] + b * y[1]))
        assert abs(total.imag) < 1e-12
        assert green_evaluate(y, cutoff) == pytest.approx(total.real, rel=1e-13)


def single_mode_oracle(n, lambda0, p_mandel):
    """Solve lambda0 * Lap^2 w = -D*P for one mode and return the Mandel of Dw."""
    n = np.asarray(n, dtype=float)
    nn = np.array([n[0] ** 2, n[1] ** 2, SQRT2 * n[0] * n[1]])
    n_p_n = float(nn @ p_mandel)
    rhs = 4.0 * np.pi**2 * n_p_n  # -D*(P e) = +4 pi^2 (n.P.n) e
    w_hat = rhs / (lambda0 * 16.0 * np.pi**4 * float(n @ n) ** 2)
    return -4.0 * np.pi**2 * nn * w_hat


def gamma_on_mode(n, lambda0, p, size=16):
    """Gamma applied to a spectrum carrying the Mandel vector p on the one mode n; its value there."""
    coeffs = np.zeros((size, size, 3), dtype=complex)
    coeffs[n[0] % size, n[1] % size] = p
    out = gamma_apply(SpectralField(coeffs), lambda0).coeffs
    others = np.ones((size, size), dtype=bool)
    others[n[0] % size, n[1] % size] = False
    assert not out[others].any()  # Gamma acts mode by mode
    return out[n[0] % size, n[1] % size].real


class TestGammaSymbol:
    def test_identity_input_unit_frequency(self):
        out = gamma_on_mode([1, 0], 1.0, identity_vector())
        np.testing.assert_allclose(out, [-1.0, 0.0, 0.0], atol=1e-15)

    def test_solenoidal_single_mode_annihilated(self):
        p = sym_to_mandel(np.array([[0.0, 0.5], [0.5, 0.0]]))  # sym(e1 x e2)
        out = gamma_on_mode([1, 0], 1.0, p)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_diagonal_frequency_quarter(self):
        out = gamma_on_mode([1, 1], 2.0, identity_vector())
        want = -0.25 * np.array([1.0, 1.0, SQRT2])  # -1/4 mandel(n x n)
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_matches_biharmonic_single_mode_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = rng.integers(-6, 7, size=2)
            if not n.any():
                continue
            lam = float(rng.uniform(0.5, 5.0))
            p = rng.standard_normal(3)
            got = gamma_on_mode(n, lam, p)
            np.testing.assert_allclose(got, single_mode_oracle(n, lam, p), rtol=1e-12, atol=1e-14)

    def test_zero_frequency_is_zero_operator(self):
        np.testing.assert_array_equal(gamma_on_mode([0, 0], 1.0, [1.0, -2.0, 3.0]), np.zeros(3))

    def test_nonpositive_reference_rejected(self):
        # and a lam0 that is infinite, or whose reciprocal overflows
        for lam, message in ((0.0, "positive"), (-1.0, "positive"), (math.inf, "positive"), (1e-320, "too small")):
            with pytest.raises(ValueError, match=message):
                gamma_apply(SpectralField(np.zeros((4, 4, 3), dtype=complex)), lam)
            with pytest.raises(ValueError, match=message):
                GreenOperator(FrequencyGrid(2, 4), lam)


class TestGammaApply:
    @pytest.mark.parametrize("n,band", [(32, 12), (31, 12)])
    def test_projection_identity_on_potentials(self, n, band):
        rng = np.random.default_rng(100 + n)
        lam = 1.7
        for _ in range(10):
            w_hat = random_w_hat(n, rng, band)
            dw = curvature_of(w_hat)
            p = reference_times(dw, lam)
            out = gamma_apply(SpectralField.from_real(p), lam).to_real()
            assert l2_norm(out + dw) <= 1e-10 * l2_norm(dw)

    def test_constant_field_annihilated(self):
        p = np.ones((16, 16, 3)) * np.array([2.0, -1.0, 0.5])
        out = gamma_apply(SpectralField.from_real(p), 1.0).to_real()
        assert np.abs(out).max() < 1e-14

    @pytest.mark.parametrize("n", [16, 17])
    def test_solenoidal_fields_annihilated(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(10):
            p = rng.standard_normal((n, n, 3))
            _, sol, _ = weyl_decompose(SpectralField.from_real(p))
            out = gamma_apply(sol, 2.0).to_real()
            scale = l2_norm(sol.to_real())
            assert l2_norm(out) <= 1e-10 * scale

    def test_output_mean_exactly_zero(self):
        rng = np.random.default_rng(9)
        p = rng.standard_normal((16, 16, 3))
        out = gamma_apply(SpectralField.from_real(p), 1.0)
        assert np.all(out.coeffs[0, 0] == 0.0)

    @pytest.mark.parametrize("n", [16, 17])
    def test_output_conjugate_symmetric(self, n):
        rng = np.random.default_rng(300 + n)
        p = rng.standard_normal((n, n, 3))
        back = np.fft.ifftn(gamma_apply(SpectralField.from_real(p), 1.0).coeffs, axes=(0, 1))
        assert np.abs(back.imag).max() < 1e-12 * np.abs(back).max()

    @pytest.mark.parametrize("n", [16, 17])
    def test_projector_idempotent(self, n):
        # Pi = -Gamma(C0 : .) is the orthogonal projector onto resolved potentials
        rng = np.random.default_rng(400 + n)
        lam = 2.5

        def pi(values):
            return -gamma_apply(SpectralField.from_real(reference_times(values, lam)), lam).to_real()

        for _ in range(5):
            x = rng.standard_normal((n, n, 3))
            once = pi(x)
            twice = pi(once)
            assert l2_norm(twice - once) <= 1e-10 * max(l2_norm(once), 1e-30)


class TestWeylDecompose:
    def test_constant_field(self):
        p = np.ones((8, 8, 3)) * np.array([1.0, 2.0, 3.0])
        pot, sol, mean = weyl_decompose(SpectralField.from_real(p))
        assert np.abs(pot.to_real()).max() < 1e-14
        assert np.abs(sol.to_real()).max() < 1e-14
        np.testing.assert_allclose(mean.mandel, [1.0, 2.0, 3.0], atol=1e-14)

    def test_potential_field_recovered(self):
        rng = np.random.default_rng(21)
        n = 32
        w_hat = random_w_hat(n, rng, 10)
        dw = curvature_of(w_hat)
        pot, sol, mean = weyl_decompose(SpectralField.from_real(dw))
        assert l2_norm(pot.to_real() - dw) <= 1e-10 * l2_norm(dw)
        assert l2_norm(sol.to_real()) <= 1e-10 * l2_norm(dw)
        assert np.abs(mean.mandel).max() <= 1e-12 * l2_norm(dw)

    @pytest.mark.parametrize("n", [16, 17])
    def test_parts_reconstruct_exactly_and_orthogonal(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(10):
            p = rng.standard_normal((n, n, 3))
            spectral = SpectralField.from_real(p)
            pot, sol, mean = weyl_decompose(spectral)
            recon = pot.to_real() + sol.to_real() + mean.mandel
            np.testing.assert_allclose(recon, p, rtol=0, atol=1e-12)
            mean_field = SpectralField.from_real(np.broadcast_to(mean.mandel, p.shape).copy())
            scale = l2_norm(p) ** 2
            assert abs(l2_inner(pot, sol)) <= 1e-10 * scale
            assert abs(l2_inner(pot, mean_field)) <= 1e-10 * scale
            assert abs(l2_inner(sol, mean_field)) <= 1e-10 * scale


class TestModeSets:
    """weyl_decompose projects every nonzero mode; Gamma only the resolved ones (no Nyquist rows on even N)."""

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(half=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), lam=st.floats(1e-3, 1e3))
    def test_weyl_potential_part_is_minus_lam_gamma_off_the_nyquist_rows(self, parity, half, seed, lam):
        n = 2 * half + parity
        field = SpectralField.from_real(np.random.default_rng(seed).standard_normal((n, n, 3)))
        pot, _, _ = weyl_decompose(field)
        want = -lam * gamma_apply(field, lam).coeffs
        f = int_freqs(n)
        resolved = (f[:, None] != -n / 2) & (f[None, :] != -n / 2)  # every mode on odd N
        atol = 1e-13 * np.abs(pot.coeffs).max()
        np.testing.assert_allclose(pot.coeffs[resolved], want[resolved], rtol=0, atol=atol)
        assert np.all(want[~resolved] == 0)

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        half=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 13),
        column=st.booleans(), amp=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
    )
    def test_nyquist_potential_lands_in_pot_and_is_not_solenoidal(self, half, seed, k, column, amp):
        n = 2 * half
        grid = FrequencyGrid(2, n)
        mode = (k % n, n // 2) if column else (n // 2, k % n)
        _, sol0, _ = weyl_decompose(SpectralField.from_real(np.random.default_rng(seed).standard_normal((n, n, 3))))
        nyquist = np.zeros_like(sol0.coeffs)
        nyquist[mode] = amp * grid.mandel_nn[mode]
        field = SpectralField(sol0.coeffs + nyquist)
        pot, sol, _ = weyl_decompose(field)
        atol = 1e-13 * np.abs(field.coeffs).max()
        np.testing.assert_allclose(pot.coeffs, nyquist, rtol=0, atol=atol)
        np.testing.assert_allclose(sol.coeffs, sol0.coeffs, rtol=0, atol=atol)
        assert np.all(gamma_apply(field, 1.0).coeffs[mode] == 0)
        with pytest.raises(ValueError, match="solenoidal"):
            build_skew_potential(field)


class TestSkewPotential:
    def test_single_mode_example(self):
        n = 8
        coeffs = np.zeros((n, n, 3), dtype=complex)
        coeffs[1, 0] = [0.0, 1.0, 0.0]  # g_hat = e2 x e2 at n = (1, 0)
        skew = build_skew_potential(SpectralField(coeffs))
        inv4pi2 = 1.0 / (4.0 * np.pi**2)
        # Gamma^{22}_{ij} = n_i n_j (-4 pi^2)^-1 with n = (1, 0)
        np.testing.assert_allclose(
            skew[1, 0, 1, 1], [[-inv4pi2, 0.0], [0.0, 0.0]], atol=1e-18
        )
        np.testing.assert_allclose(
            skew[1, 0, 0, 0], [[0.0, 0.0], [0.0, inv4pi2]], atol=1e-18
        )
        recon = reconstruct_from_skew(skew)
        np.testing.assert_allclose(recon.coeffs, coeffs, atol=1e-13)

    def test_zero_field(self):
        skew = build_skew_potential(SpectralField(np.zeros((4, 4, 3), dtype=complex)))
        assert np.all(skew == 0.0)

    @pytest.mark.parametrize("n", [16, 17])
    def test_projected_random_field_reconstructs(self, n):
        rng = np.random.default_rng(600 + n)
        for _ in range(5):
            p = rng.standard_normal((n, n, 3))
            _, sol, _ = weyl_decompose(SpectralField.from_real(p))
            skew = build_skew_potential(sol)
            recon = reconstruct_from_skew(skew)
            scale = float(np.abs(sol.coeffs).max())
            assert float(np.abs(recon.coeffs - sol.coeffs).max()) <= 1e-10 * scale

    def test_symmetry_and_skew_invariants(self):
        rng = np.random.default_rng(33)
        p = rng.standard_normal((16, 16, 3))
        _, sol, _ = weyl_decompose(SpectralField.from_real(p))
        g = build_skew_potential(sol)
        np.testing.assert_allclose(g, g.transpose(0, 1, 2, 3, 5, 4), atol=1e-15)  # sym (i,j)
        np.testing.assert_allclose(g, -g.transpose(0, 1, 4, 5, 2, 3), atol=1e-15)  # skew pairs

    def test_non_solenoidal_rejected(self):
        rng = np.random.default_rng(35)
        p = rng.standard_normal((8, 8, 3))
        p -= p.mean(axis=(0, 1))
        with pytest.raises(ValueError, match="solenoidal"):
            build_skew_potential(SpectralField.from_real(p))

    def test_low_mode_potential_rejected(self):
        # a potential of 1e-7 max|g_hat| on the modes (+-1, 0): within 1e-10 max|g_hat| max|n|^2, not per mode
        n = 64
        _, sol, _ = weyl_decompose(SpectralField.from_real(np.random.default_rng(36).standard_normal((n, n, 3))))
        coeffs = sol.coeffs.copy()
        eps = 1e-7 * np.abs(coeffs).max()
        coeffs[1, 0] += [eps, 0.0, 0.0]  # eps mandel(n (x) n) at n = (1, 0)
        coeffs[-1, 0] += [eps, 0.0, 0.0]
        with pytest.raises(ValueError, match="solenoidal"):
            build_skew_potential(SpectralField(coeffs))

    def test_nonzero_mean_rejected(self):
        coeffs = np.zeros((4, 4, 3), dtype=complex)
        coeffs[0, 0] = [1.0, 1.0, 0.0]
        with pytest.raises(ValueError, match="mean"):
            build_skew_potential(SpectralField(coeffs))


def slow_dirac_sum(s, d, cutoff):
    assert d == 2
    total = []
    for a in range(-cutoff, cutoff + 1):
        for b in range(-cutoff, cutoff + 1):
            if a == 0 and b == 0:
                continue
            total.append((1.0 + 4.0 * math.pi**2 * (a * a + b * b)) ** s)
    return math.fsum(total) / (2.0 * math.pi) ** 2


class TestDiracSobolevSums:
    def test_matches_slow_oracle(self):
        for s in (-2.0, -1.0, -0.5):
            for cutoff in (1, 4, 9):
                got = dirac_sobolev_partial_sum(s, 2, cutoff)
                assert got == pytest.approx(slow_dirac_sum(s, 2, cutoff), rel=1e-13)

    def test_monotone_in_cutoff(self):
        for s in (-3.0, -2.0, -1.0, 0.5):
            vals = [dirac_sobolev_partial_sum(s, 2, r) for r in (1, 2, 4, 8, 16)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_convergent_below_threshold(self):
        # s = -2 < -d/2: dyadic increments shrink like R^-2
        vals = {r: dirac_sobolev_partial_sum(-2.0, 2, r) for r in (8, 16, 32, 64)}
        inc1 = vals[16] - vals[8]
        inc2 = vals[32] - vals[16]
        inc3 = vals[64] - vals[32]
        assert inc1 / inc2 >= 3.0
        assert inc2 / inc3 >= 3.0

    def test_divergent_above_threshold(self):
        # s = -1 >= -d/2 for d = 2: partial sums outgrow the s = -2 limit
        limit_proxy = dirac_sobolev_partial_sum(-2.0, 2, 64)
        assert dirac_sobolev_partial_sum(-1.0, 2, 64) > 10.0 * limit_proxy

    def test_one_dimensional_lattice(self):
        got = dirac_sobolev_partial_sum(-1.0, 1, 2)
        want = 2 * ((1 + 4 * math.pi**2) ** -1 + (1 + 16 * math.pi**2) ** -1) / (2 * math.pi)
        assert got == pytest.approx(want, rel=1e-13)


def norm4_of(grid):
    """|n|^4 per mode, from the frequency components."""
    n1, n2 = grid.components
    return (n1**2 + n2**2) ** 2


class TestFrequencyGrid:
    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_frequency_count_and_zero(self, n):
        grid = FrequencyGrid(2, n)
        zeros = (norm4_of(grid) == 0).sum()
        assert zeros == 1
        lo, hi = -(n // 2), (n + 1) // 2 - 1
        for comp in grid.components:
            assert comp.min() == lo and comp.max() == hi

    def test_even_grid_deactivates_nyquist_rows(self):
        grid = FrequencyGrid(2, 8)
        n1, n2 = grid.components
        nyq = (n1 == -4) | (n2 == -4)
        norm4 = norm4_of(grid)
        assert np.all(grid.inv_norm4[nyq] == 0)
        assert np.all(grid.inv_norm4[(~nyq) & (norm4 > 0)] > 0)
        np.testing.assert_array_equal(grid.inv_norm4_all[norm4 > 0], 1.0 / norm4[norm4 > 0])
        assert grid.inv_norm4_all[0, 0] == 0

    def test_odd_grid_keeps_all_nonzero_modes(self):
        grid = FrequencyGrid(2, 9)
        assert (grid.inv_norm4 > 0).sum() == 9 * 9 - 1
        np.testing.assert_array_equal(grid.inv_norm4, grid.inv_norm4_all)

    # at N = 16 the modes (3, 7) and (6, 7) give a shear entry that sqrt(2) * n1 * n2 rounds differently
    @pytest.mark.parametrize("n", [8, 9, 16])
    def test_mandel_nn_is_the_mandel_codec_of_n_outer_n(self, n):
        grid = FrequencyGrid(2, n)
        n1, n2 = grid.components
        for i in range(n):
            for j in range(n):
                mode = np.array([n1[i, j], n2[i, j]])
                np.testing.assert_array_equal(grid.mandel_nn[i, j], sym_to_mandel(np.outer(mode, mode)))


def full_spectrum_residual(j_hat, grid):
    """sqrt(sum over active n of |n.J_hat.n|^2) / |J_hat(0)| on the full fftn spectrum."""
    s = (grid.mandel_nn * j_hat).sum(axis=-1)
    num = math.sqrt(float((np.abs(s) ** 2)[grid.inv_norm4 > 0].sum()))
    return num / float(np.linalg.norm(j_hat[0, 0]))


def forward(op, values):
    """op.forward into a fresh NaN-filled buffer, so a mode the pass skips shows."""
    out = np.full((3, op.n, op.n // 2 + 1), np.nan, dtype=complex)
    op.forward(values, out)
    return out


def apply(op, coeffs):
    """Gamma's output and s from op.apply on a copy of coeffs, s starting as NaN."""
    gamma_hat, s = coeffs.copy(), np.full(coeffs.shape[1:], np.nan, dtype=complex)
    op.apply(gamma_hat, s)
    return gamma_hat, s


def inverse(op, coeffs):
    """op.inverse of a copy of coeffs (the pass overwrites its input) into a fresh NaN-filled buffer."""
    out = np.full((3, op.n, op.n), np.nan)
    op.inverse(coeffs.copy(), out)
    return out


class TestGreenOperator:
    @pytest.mark.parametrize("n", [8, 9])
    def test_half_spectrum_residual_matches_full_spectrum(self, n):
        rng = np.random.default_rng(700 + n)
        grid = FrequencyGrid(2, n)
        op = GreenOperator(grid, 1.5)
        for _ in range(5):
            j = rng.standard_normal((n, n, 3)) + rng.standard_normal(3)
            want = full_spectrum_residual(np.fft.fftn(j, axes=(0, 1)), grid)
            j_hat = forward(op, np.moveaxis(j, -1, 0))
            _, s = apply(op, j_hat)  # s = n.J_hat.n
            assert op.equilibrium_residual(s, j_hat[:, 0, 0]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 9])
    def test_half_spectrum_gamma_matches_full_spectrum(self, n):
        rng = np.random.default_rng(800 + n)
        p = rng.standard_normal((n, n, 3))
        op = GreenOperator(FrequencyGrid(2, n), 1.5)
        want = gamma_apply(SpectralField.from_real(p), 1.5).to_real()
        got = inverse(op, apply(op, forward(op, np.moveaxis(p, -1, 0)))[0])
        np.testing.assert_allclose(np.moveaxis(got, 0, -1), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [8, 9])
    def test_scalar_step_is_equilibrium_contraction(self, n):
        # With E_{k+1} = E0 + Gamma (dC:E_k) and dC = C - lam0 Id, the moment J = C:E_{k+1}
        # has n.J_hat.n = s_{k+1} - s_k on the active modes and J_hat(0) = p_hat(0) + N^2 lam0 E0.
        rng = np.random.default_rng(900 + n)
        lam = 2.0
        a = rng.standard_normal((n, n, 3, 3))
        c = a @ a.transpose(0, 1, 3, 2) + 0.5 * np.eye(3)
        dc = c - lam * np.eye(3)
        op = GreenOperator(FrequencyGrid(2, n), lam)
        active = op.weights > 0

        def spectrum(mat, values):
            return forward(op, np.einsum("xyab,bxy->axy", mat, values))

        e0 = rng.standard_normal(3)
        e_hat, s = apply(op, spectrum(dc, np.moveaxis(np.broadcast_to(e0, (n, n, 3)), -1, 0)))
        for _ in range(3):
            e_hat[:, 0, 0] = n * n * e0
            e = inverse(op, e_hat)
            p_hat = spectrum(dc, e)
            e_hat, s_new = apply(op, p_hat)
            j_hat = spectrum(c, e)
            _, want = apply(op, j_hat)
            atol = 1e-13 * np.abs(s_new).max()
            np.testing.assert_allclose((s_new - s)[active], want[active], rtol=0, atol=atol)
            np.testing.assert_allclose(p_hat[:, 0, 0] + n * n * lam * e0, j_hat[:, 0, 0], rtol=1e-13)
            s = s_new

    @pytest.mark.parametrize("n", [8, 9])
    def test_split_passes_equal_unsplit_bit_for_bit(self, n, monkeypatch):
        # the split is forced, so a one-CPU host runs it too; odd N halves the rows and columns unevenly.
        # Every pass writes into a buffer that starts as NaN, so a row or column a half misses stays NaN.
        x = np.random.default_rng(1000 + n).standard_normal((3, n, n))
        matrix, disc = StiffTensor4(np.diag([1.0, 2.0, 1.5])), StiffTensor4(np.diag([10.0, 12.0, 8.0]))
        inclusion = generate_inclusion(matrix, disc, 0.3, n)
        results = []
        monkeypatch.setattr(green, "_CPUS", 2)
        for split in (False, True):
            monkeypatch.setattr(green, "_SPLIT_MIN_N", n if split else n + 1)
            step = _NeumannStep(inclusion, 5.0)
            assert step.green.split is split
            step.p.fill(np.nan)
            step.spec.fill(np.nan)
            s = np.full((n, n // 2 + 1), np.nan, dtype=complex)
            p_hat0 = step(x, s)
            op = step.green
            x_hat = forward(op, x)
            inverses = [inverse(op, step.spec), inverse(op, x_hat)]
            results.append([step.p, p_hat0, step.spec, s, x_hat, *apply(op, x_hat), *inverses])
        for unsplit, split in zip(*results):
            assert not np.isnan(split).any() and not np.isnan(unsplit).any()
            assert split.dtype == unsplit.dtype and split.tobytes() == unsplit.tobytes()

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(half=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), lam=st.floats(0.1, 10.0))
    def test_potential_projector_idempotent_and_self_adjoint(self, parity, half, seed, lam):
        # P = -lam0 Gamma on the half spectrum; random fields fill the Nyquist rows of even grids
        n = 2 * half + parity
        op = GreenOperator(FrequencyGrid(2, n), lam)

        def project(values):
            return -lam * inverse(op, apply(op, forward(op, values))[0])

        x, y = np.moveaxis(np.random.default_rng(seed).standard_normal((2, n, n, 3)), -1, 1)
        px, py = project(x), project(y)
        scale = math.sqrt(float(np.vdot(x, x) * np.vdot(y, y)))
        assert abs(float(np.vdot(px, y) - np.vdot(x, py))) <= 1e-13 * scale
        np.testing.assert_allclose(project(px), px, rtol=0, atol=1e-13 * np.abs(x).max())
