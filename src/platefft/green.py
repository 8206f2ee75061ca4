"""Fourier-space machinery: the periodic biharmonic fundamental solution, the
Green operator of the reference medium lam0 * Id, the solenoidal/potential
splitting of tensor fields, and lattice Sobolev partial sums.

Conventions
-----------
Periodic functions on [0,1)^2 are expanded in modes exp(2*pi*i*n.y) with
integer frequency vectors n.  The discrete transform is the unnormalized
forward DFT (numpy.fft.fftn) with the 1/N^2 factor on the inverse; all
contracts below compare transformed quantities with transformed quantities,
so they are independent of that scaling.

The Green operator maps polarizations to curvature corrections through the
frequency multiplier

    P_hat  ->  -(n (x) n) (n . P_hat . n) / (lam0 |n|^4),    n != 0,

i.e. -1/lam0 times the orthogonal projector onto the potential direction
mandel(n (x) n): the Green operator of lam0 * Lap^2, which both C0 = lam0 * Id
and the paper's trace reference xi -> lam0 * Tr(xi) * I give.  The zero
frequency is annihilated (zero-mean convention).

One kernel, _gamma_multiply, forms s = n . P_hat . n and its projection; its one
parameter is the mode set, a 1/|n|^4 table of FrequencyGrid, 0 off the set.
inv_norm4 holds the resolved modes, for Gamma and the fixed point: on even N it
drops the Nyquist rows (a component equal to -N/2), where -N/2 and +N/2 alias to
one stored mode, which makes the odd (shear-coupling) part of the symbol
ill-defined and, if kept, injects spurious eigenmodes above the physical
spectral radius; band-limited fields never touch them.  inv_norm4_all holds
every nonzero mode, for weyl_decompose and build_skew_potential, so that a
solenoidal part has n . g_hat . n = 0 on the Nyquist rows too.
"""
from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass

import numpy as np

from .mandel import SQRT2, M, SymTensor2, mandel_to_sym, sym_to_mandel


def green_fourier_coefficient(n):
    """Fourier coefficient -(2 pi)^-4 |n|^-4 of the periodic biharmonic fundamental solution, 0 at n = 0 (mean zero).

    A float for one frequency, an array for frequencies stacked along the last axis.
    """
    n = np.asarray(n, dtype=float)
    norm4 = np.einsum("...i,...i->...", n, n) ** 2
    coeff = np.divide(-((2.0 * np.pi) ** -4), norm4, out=np.zeros_like(norm4), where=norm4 > 0)
    return float(coeff) if coeff.ndim == 0 else coeff


def _lattice(d: int, cutoff: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The integer modes 0 < |n|_inf <= cutoff, as d coordinate arrays, and their |n|^2."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    axes = np.arange(-cutoff, cutoff + 1)
    grids = np.meshgrid(*([axes] * d), indexing="ij")
    nsq = sum(g.astype(float) ** 2 for g in grids)
    mask = nsq > 0
    return [g[mask] for g in grids], nsq[mask]


def green_evaluate(y, cutoff: int) -> float:
    """Truncated series of the periodic biharmonic fundamental solution at y.

    Sums the modes with 0 < |n|_inf <= cutoff; the result is real because the
    coefficients are even in n.
    """
    y = np.asarray(y, dtype=float)
    modes, _ = _lattice(y.shape[0], cutoff)
    phase = sum(g * yk for g, yk in zip(modes, y))
    coeff = green_fourier_coefficient(np.stack(modes, axis=-1))
    return float((coeff * np.exp(2j * np.pi * phase)).sum().real)


def _dyad(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """n (x) n per mode, shape (..., 2, 2), from the frequency components."""
    nvec = np.stack([n1, n2], axis=-1)
    return nvec[..., :, None] * nvec[..., None, :]


@dataclass(frozen=True)
class FrequencyGrid:
    """Integer DFT frequencies for an N x N grid, with cached symbol arrays.

    inv_norm4 is 1/|n|^4 on the resolved modes (no Nyquist rows on even N), for Gamma and the fixed point;
    inv_norm4_all is 1/|n|^4 on every nonzero mode, for weyl_decompose and build_skew_potential; both 0 elsewhere.
    """

    d: int
    n: int

    def __post_init__(self):
        if self.d != 2:
            raise ValueError("grid operators are implemented for d = 2")
        if self.n < 2:
            raise ValueError(f"grid must have N >= 2 points per axis, got {self.n}")
        f = np.rint(np.fft.fftfreq(self.n) * self.n).astype(int)
        n1 = np.broadcast_to(f[:, None], (self.n, self.n)).astype(float)
        n2 = np.broadcast_to(f[None, :], (self.n, self.n)).astype(float)
        nn = np.stack([n1 * n1, n2 * n2, SQRT2 * (n1 * n2)], axis=-1)  # mandel(n (x) n)
        norm4 = (n1**2 + n2**2) ** 2
        inv_norm4_all = np.divide(1.0, norm4, out=np.zeros_like(norm4), where=norm4 > 0)
        inv_norm4 = np.where((n1 == -self.n / 2) | (n2 == -self.n / 2), 0.0, inv_norm4_all)  # Nyquist rows, even N only
        for name, arr in (
            ("components", (n1, n2)),
            ("mandel_nn", nn),
            ("inv_norm4", inv_norm4),
            ("inv_norm4_all", inv_norm4_all),
        ):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a Mandel-vector-valued periodic field.

    Layout: shape (N, N, M), unnormalized forward DFT over the two grid axes.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim != 3 or c.shape != (c.shape[0], c.shape[0], M):
            raise ValueError(f"coefficient array shape {c.shape} is not (N, N, {M})")
        object.__setattr__(self, "coeffs", np.ascontiguousarray(c, dtype=complex))

    @classmethod
    def from_real(cls, values: np.ndarray) -> "SpectralField":
        return cls(np.fft.fftn(np.asarray(values, dtype=float), axes=(0, 1)))

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def to_real(self) -> np.ndarray:
        return np.real(np.fft.ifftn(self.coeffs, axes=(0, 1)))

    def mean(self) -> SymTensor2:
        """Mean value of the field (zero-frequency coefficient / N^2)."""
        return SymTensor2(np.real(self.coeffs[0, 0]) / self.n**2)


def l2_inner(a: SpectralField, b: SpectralField) -> float:
    """L2(Y') inner product <a : b> of two real fields via the Parseval sum.

    Re sum conj(a) b, summed by einsum: np.vdot's BLAS sum takes another order on each thread count.
    """
    if a.coeffs.shape != b.coeffs.shape:
        raise ValueError("fields live on different grids")
    total = np.einsum("xya,xya->", a.coeffs.real, b.coeffs.real) + np.einsum("xya,xya->", a.coeffs.imag, b.coeffs.imag)
    return float(total) / a.n**4


def _contract(coeffs: np.ndarray, nn: np.ndarray, s: np.ndarray) -> None:
    """s = n.P_hat.n into s, from an (M, ...) spectrum and nn = mandel(n (x) n); build_skew_potential's check runs it alone."""
    np.multiply(nn[0], coeffs[0], out=s)
    s += nn[1] * coeffs[1]
    s += nn[2] * coeffs[2]


def _gamma_multiply(coeffs: np.ndarray, nn: np.ndarray, nn_scale: np.ndarray, gamma_hat: np.ndarray, s: np.ndarray) -> None:
    """s = n.P_hat.n, then nn_scale * s into gamma_hat, which may be coeffs, on (M, ...) spectra; nn_scale = c nn/|n|^4 on a mode set, 0 off it."""
    _contract(coeffs, nn, s)
    np.multiply(nn_scale, s, out=gamma_hat)


def _project(coeffs: np.ndarray, grid: FrequencyGrid, inv_norm4: np.ndarray, c: float) -> np.ndarray:
    """_gamma_multiply on a full (N, N, M) spectrum: c nn s / |n|^4 on the modes of the table inv_norm4, s = n.P_hat.n."""
    nn = np.moveaxis(grid.mandel_nn, -1, 0)
    out, s = np.empty(coeffs.shape, dtype=complex), np.empty(coeffs.shape[:-1], dtype=complex)
    _gamma_multiply(np.moveaxis(coeffs, -1, 0), nn, nn * (inv_norm4 * c), np.moveaxis(out, -1, 0), s)
    return out


def _gamma_scale(lambda0: float) -> float:
    """-1/lam0, the scale of Gamma; the one check of the range of lam0: positive, finite, and with a finite reciprocal."""
    lam = float(lambda0)  # a numpy scalar would warn where the division overflows
    if not 0 < lam < math.inf:
        raise ValueError(f"reference coefficient must be positive and finite, got {lam}")
    scale = -1.0 / lam
    if math.isinf(scale):
        raise ValueError(f"reference coefficient {lam} is too small: its reciprocal overflows")
    return scale


def apply_gamma_coeffs(p_hat: np.ndarray, grid: FrequencyGrid, lambda0: float) -> np.ndarray:
    """Multiply coefficient array (N, N, M) by the Green-operator symbol.

    Modes off the resolved set (zero frequency; Nyquist rows on even grids) map to zero.
    """
    return _project(p_hat, grid, grid.inv_norm4, _gamma_scale(lambda0))


def gamma_apply(field: SpectralField, lambda0: float) -> SpectralField:
    """Apply the Green operator frequency-wise to a spectral field.

    The output has exactly zero mean and is conjugate-symmetric whenever the
    input is.
    """
    grid = FrequencyGrid(2, field.n)
    return SpectralField(apply_gamma_coeffs(field.coeffs, grid, lambda0))


# One inclusion-solve iteration on a 2-vCPU host, unsplit vs split, in ms: 1.8 vs 3.2 at N = 128 (hand-offs
# dominate), 2.9 vs 3.1 at 160, 4.8 vs 4.3 at 192, 6.7 vs 5.0 at 224, 8.3 vs 6.2 at 256, 39 vs 29 at 512.
_SPLIT_MIN_N = 224
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1  # CPUs this process may run on
_worker = None  # the one-thread executor of the first halves, created by the first split


class GreenOperator:
    """The Green operator of one reference lam0 on real component-major (M, N, N) fields, in buffers its caller owns.

    It works on the rfft2 half spectrum over the last two axes, shape (M, N, N//2 + 1):
    column j holds n2 = j, and n2 = -j is left implicit as its conjugate.  On even grids
    the last column is the Nyquist column (+N/2 here, -N/2 in fftn), inactive either way.
    With _CPUS >= 2 and N >= _SPLIT_MIN_N (no setting), each pass runs on two halves of its independent
    rows or columns, one on a worker thread; bit-identical to one core, as under `taskset -c 0`.
    """

    def __init__(self, grid: FrequencyGrid, lambda0: float):
        scale = _gamma_scale(lambda0)
        self.n = grid.n
        self.split = grid.n >= _SPLIT_MIN_N and _CPUS >= 2
        half = np.s_[:, : grid.n // 2 + 1]
        self.nn = np.ascontiguousarray(np.moveaxis(grid.mandel_nn[half], -1, 0))
        self.nn_scale = self.nn * (grid.inv_norm4[half] * scale)
        # Parseval multiplicity of the active modes: 1 in the columns that hold
        # their own conjugates (column 0; column N/2 of even grids), 2 elsewhere
        col = np.arange(grid.n // 2 + 1)
        self.weights = np.where((col == 0) | (2 * col == grid.n), 1.0, 2.0) * (grid.inv_norm4[half] > 0)
        # |(Gamma P)^| = |nn s| / (lam0 |n|^4) = |s| / (lam0 |n|^2): |amp s| is the mode's part of Gamma P's RMS
        # (Parseval); rms() scales s before squaring, as s^2 and (lam0 N^2)^2 overflow where Gamma P does not
        self.amp = np.sqrt(self.weights * grid.inv_norm4[half]) / lambda0 / grid.n**2

    def halves(self, fn, length: int) -> None:
        """fn(lo, hi) on both halves of range(length), one on the worker in the caller's context (np.errstate), else fn(0, length)."""
        global _worker
        if not self.split:
            fn(0, length)
            return
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(1)
        first = _worker.submit(contextvars.copy_context().run, fn, 0, length // 2)
        try:
            fn(length // 2, length)
        finally:
            first.result()

    def forward(self, values: np.ndarray, out: np.ndarray) -> None:
        """Half spectrum of a real (M, N, N) field into out: rfft along each row, then fft along each column in place."""
        self.halves(lambda lo, hi: np.fft.rfft(values[:, lo:hi], axis=-1, out=out[:, lo:hi]), self.n)
        self.halves(lambda lo, hi: np.fft.fft(out[..., lo:hi], axis=-2, out=out[..., lo:hi]), self.n // 2 + 1)

    def inverse(self, coeffs: np.ndarray, out: np.ndarray) -> None:
        """Real (M, N, N) field with the half spectrum coeffs into out; overwrites coeffs, whose columns it inverts in place."""
        self.halves(lambda lo, hi: np.fft.ifft(coeffs[..., lo:hi], axis=-2, out=coeffs[..., lo:hi]), self.n // 2 + 1)
        self.halves(lambda lo, hi: np.fft.irfft(coeffs[:, lo:hi], n=self.n, axis=-1, out=out[:, lo:hi]), self.n)

    def apply(self, coeffs: np.ndarray, s: np.ndarray) -> None:
        """Gamma * P's half spectrum in place of P's (coeffs), and the scalars s = n . P_hat . n into s, shape (N, N//2 + 1)."""
        self.halves(lambda lo, hi: _gamma_multiply(*(a[:, lo:hi] for a in (coeffs, self.nn, self.nn_scale, coeffs)), s[lo:hi]), self.n)

    def rms(self, s: np.ndarray) -> float:
        """RMS of the real field Gamma * P, from its scalars s = n . P_hat . n: sqrt(sum over active n of |amp s|^2)."""
        a = (self.amp * s).view(float)  # real and imaginary parts, interleaved
        return math.sqrt(float(np.einsum("xy,xy->", a, a)))

    def equilibrium_residual(self, ds: np.ndarray, j0: np.ndarray) -> float:
        """sqrt(sum over active n of |n.J_hat.n|^2) / |J_hat(0)|, from ds = +-n.J_hat.n and j0 = J_hat(0)."""
        num = math.sqrt(float((self.weights * (ds.real**2 + ds.imag**2)).sum()))
        den = float(np.linalg.norm(j0))
        if den == 0.0:
            return 0.0 if num == 0.0 else math.inf
        return num / den


def weyl_decompose(field: SpectralField) -> tuple[SpectralField, SpectralField, SymTensor2]:
    """Split a field into potential, zero-mean solenoidal, and constant parts.

    The potential part projects each nonzero mode, the Nyquist rows of even
    grids included, onto mandel(n (x) n); the constant part is the field mean;
    the solenoidal remainder is whatever is left.  The three parts are mutually
    L2-orthogonal and reconstruct the input exactly.
    """
    grid = FrequencyGrid(2, field.n)
    pot = _project(field.coeffs, grid, grid.inv_norm4_all, 1.0)
    sol = field.coeffs - pot
    sol[0, 0] = 0.0
    return SpectralField(pot), SpectralField(sol), field.mean()


def build_skew_potential(field: SpectralField) -> np.ndarray:
    """Fourth-order potential whose double divergence reproduces a solenoidal field.

    Requires |n . g_hat(n) . n| / |n|^2, the size of the mode's potential part,
    and |g_hat(0)| to be at most 1e-10 max |g_hat| on every mode.  Returns the
    per-frequency potential Gamma^{sh}_{ij} as a complex (N, N, 2, 2, 2, 2) array
    with index order (s, h, i, j), symmetric in (i, j) and skew between the index
    pairs; per nonzero mode

        Gamma^{sh}_{ij,n} = (-g^{ij}_n n_s n_h + g^{sh}_n n_i n_j)
                            |n|^-4 (-4 pi^2)^-1.
    """
    tol = 1e-10
    grid = FrequencyGrid(2, field.n)
    scale = max(float(np.abs(field.coeffs).max()), 1e-300)
    contraction = np.empty(field.coeffs.shape[:-1], dtype=complex)
    _contract(np.moveaxis(field.coeffs, -1, 0), np.moveaxis(grid.mandel_nn, -1, 0), contraction)
    if (np.abs(contraction) * np.sqrt(grid.inv_norm4_all)).max() > tol * scale:
        raise ValueError("input is not solenoidal: n . g_hat(n) . n != 0")
    if np.abs(field.coeffs[0, 0]).max() > tol * scale:
        raise ValueError("input has a nonzero mean")
    g = mandel_to_sym(field.coeffs)  # g^{ij}_n
    outer = _dyad(*grid.components)  # n_i n_j
    factor = grid.inv_norm4_all * (-1.0 / (4.0 * np.pi**2))
    # index order (s, h, i, j): -n_s n_h g^{ij} + g^{sh} n_i n_j, per mode
    term1 = outer[..., :, :, None, None] * g[..., None, None, :, :]
    term2 = g[..., :, :, None, None] * outer[..., None, None, :, :]
    return (-term1 + term2) * factor[..., None, None, None, None]


def reconstruct_from_skew(skew: np.ndarray) -> SpectralField:
    """Apply the double divergence D* over the (i, j) indices of a skew potential, mode by mode.

    Exact inverse of build_skew_potential on its admissible inputs.
    """
    grid = FrequencyGrid(2, skew.shape[0])
    # D* on the mode: (2 pi i)^2 n_i n_j Gamma^{sh}_{ij}
    dense = -4.0 * np.pi**2 * np.einsum("xyshij,xyij->xysh", skew, _dyad(*grid.components).astype(complex))
    return SpectralField(sym_to_mandel(dense))


def dirac_sobolev_partial_sum(s: float, d: int, cutoff: int) -> float:
    """Lattice partial sum of the H^s norm density of the Dirac comb.

    Sums (1 + |2 pi n|^2)^s / (2 pi)^d over 0 < |n|_inf <= cutoff.  The sums
    converge as cutoff grows exactly when s < -d/2.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    _, nsq = _lattice(d, cutoff)
    terms = (1.0 + 4.0 * np.pi**2 * nsq) ** s
    return float(terms.sum() / (2.0 * np.pi) ** d)
