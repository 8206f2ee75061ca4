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

On grids with even N the Nyquist rows (any frequency component equal to -N/2)
are deactivated in the grid operator: -N/2 and +N/2 alias to the same stored
mode, which makes the odd (shear-coupling) part of the symbol ill-defined
there and, if kept, injects spurious eigenmodes above the physical spectral
radius.  Band-limited fields never touch those rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mandel import M, SQRT2, SymTensor2, sym_to_mandel


def green_fourier_coefficient(n) -> float:
    """Fourier coefficient of the periodic biharmonic fundamental solution.

    Returns -(2 pi)^-4 |n|^-4 for n != 0 and 0 for n = 0 (mean-zero
    convention).
    """
    n = np.asarray(n, dtype=float)
    norm4 = float((n @ n) ** 2)
    if norm4 == 0.0:
        return 0.0
    return -((2.0 * np.pi) ** -4) / norm4


def green_evaluate(y, cutoff: int) -> float:
    """Truncated series of the periodic biharmonic fundamental solution at y.

    Sums the modes with 0 < |n|_inf <= cutoff; the result is real because the
    coefficients are even in n.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    y = np.asarray(y, dtype=float)
    d = y.shape[0]
    axes = np.arange(-cutoff, cutoff + 1)
    grids = np.meshgrid(*([axes] * d), indexing="ij")
    nsq = sum(g.astype(float) ** 2 for g in grids)
    phase = sum(g * yk for g, yk in zip(grids, y))
    mask = nsq > 0
    coeff = np.zeros_like(nsq)
    coeff[mask] = -((2.0 * np.pi) ** -4) / nsq[mask] ** 2
    total = (coeff * np.exp(2j * np.pi * phase))[mask].sum()
    return float(total.real)


def gamma_symbol(n, lambda0: float) -> np.ndarray:
    """Green-operator symbol at one integer frequency, as an M x M Mandel matrix.

    For n != 0 this is the rank-one operator
    P_hat -> -(n (x) n)(n . P_hat . n) / (lambda0 |n|^4); for n = 0 the zero
    operator.
    """
    if lambda0 <= 0:
        raise ValueError(f"reference coefficient must be positive, got {lambda0}")
    n = np.asarray(n, dtype=float)
    norm4 = float((n @ n) ** 2)
    if norm4 == 0.0:
        return np.zeros((M, M))
    nn = sym_to_mandel(np.outer(n, n))
    return -np.outer(nn, nn) / (lambda0 * norm4)


@dataclass(frozen=True)
class FrequencyGrid:
    """Integer DFT frequencies for an N x N grid, with cached symbol arrays.

    inv_norm4 is 1/|n|^4 on the active modes and 0 on the inactive ones.
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
        nn = np.stack([n1**2, n2**2, SQRT2 * n1 * n2], axis=-1)
        norm4 = (n1**2 + n2**2) ** 2
        nyquist = np.zeros((self.n, self.n), dtype=bool)
        if self.n % 2 == 0:
            nyquist = (n1 == -self.n // 2) | (n2 == -self.n // 2)
        active = (norm4 > 0) & ~nyquist
        inv_norm4 = np.zeros_like(norm4)
        inv_norm4[active] = 1.0 / norm4[active]
        for name, arr in (
            ("components", (n1, n2)),
            ("mandel_nn", nn),
            ("norm4", norm4),
            ("active_mask", active),
            ("inv_norm4", inv_norm4),
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
    """L2(Y') inner product <a : b> of two real fields via the Parseval sum."""
    if a.coeffs.shape != b.coeffs.shape:
        raise ValueError("fields live on different grids")
    total = np.vdot(a.coeffs, b.coeffs)
    return float(total.real) / a.n**4


def _gamma_multiply(coeffs: np.ndarray, nn: np.ndarray, nn_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma's symbol on (M, ...) spectra, nn_scale = -nn/(lam0 |n|^4) or 0 if inactive, and s = n.P_hat.n."""
    s = nn[0] * coeffs[0]
    s += nn[1] * coeffs[1]
    s += nn[2] * coeffs[2]
    return nn_scale * s, s


def apply_gamma_coeffs(p_hat: np.ndarray, grid: FrequencyGrid, lambda0: float) -> np.ndarray:
    """Multiply coefficient array (N, N, M) by the Green-operator symbol.

    Inactive modes (zero frequency; Nyquist rows on even grids) map to zero.
    """
    if lambda0 <= 0:
        raise ValueError(f"reference coefficient must be positive, got {lambda0}")
    nn = np.moveaxis(grid.mandel_nn, -1, 0)
    gamma_hat, _ = _gamma_multiply(np.moveaxis(p_hat, -1, 0), nn, nn * (grid.inv_norm4 * (-1.0 / lambda0)))
    return np.moveaxis(gamma_hat, 0, -1)


def gamma_apply(field: SpectralField, lambda0: float) -> SpectralField:
    """Apply the Green operator frequency-wise to a spectral field.

    The output has exactly zero mean and is conjugate-symmetric whenever the
    input is.
    """
    grid = FrequencyGrid(2, field.n)
    return SpectralField(apply_gamma_coeffs(field.coeffs, grid, lambda0))


class GreenOperator:
    """The Green operator of one reference lam0, acting on real component-major (M, N, N) fields.

    It works on the rfft2 half spectrum over the last two axes, shape (M, N, N//2 + 1):
    column j holds n2 = j, and n2 = -j is left implicit as its conjugate.  On even grids
    the last column is the Nyquist column (+N/2 here, -N/2 in fftn), inactive either way.
    """

    def __init__(self, grid: FrequencyGrid, lambda0: float):
        if lambda0 <= 0:
            raise ValueError(f"reference coefficient must be positive, got {lambda0}")
        self.n = grid.n
        half = np.s_[:, : grid.n // 2 + 1]
        self.nn = np.ascontiguousarray(np.moveaxis(grid.mandel_nn[half], -1, 0))
        self.nn_scale = self.nn * (grid.inv_norm4[half] * (-1.0 / lambda0))
        # Parseval multiplicity of the active modes: 1 in the columns that hold
        # their own conjugates (column 0; column N/2 of even grids), 2 elsewhere
        col = np.arange(grid.n // 2 + 1)
        self.weights = np.where((col == 0) | (2 * col == grid.n), 1.0, 2.0) * grid.active_mask[half]

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Half spectrum of a real (M, N, N) field."""
        return np.fft.rfft2(values)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Real (M, N, N) field with the given half spectrum."""
        return np.fft.irfft2(coeffs, s=(self.n, self.n))

    def apply(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Half spectrum of Gamma * P and the scalars s = n . P_hat . n, from the half spectrum of P."""
        return _gamma_multiply(coeffs, self.nn, self.nn_scale)

    def equilibrium_residual(self, ds: np.ndarray, j0: np.ndarray) -> float:
        """sqrt(sum over active n of |n.J_hat.n|^2) / |J_hat(0)|, from ds = n.J_hat.n and j0 = J_hat(0)."""
        num = math.sqrt(float((self.weights * (ds.real**2 + ds.imag**2)).sum()))
        den = float(np.linalg.norm(j0))
        if den == 0.0:
            return 0.0 if num == 0.0 else math.inf
        return num / den


def weyl_decompose(field: SpectralField) -> tuple[SpectralField, SpectralField, SymTensor2]:
    """Split a field into potential, zero-mean solenoidal, and constant parts.

    The potential part projects each nonzero mode onto mandel(n (x) n); the
    constant part is the field mean; the solenoidal remainder is whatever is
    left.  The three parts are mutually L2-orthogonal and reconstruct the
    input exactly.
    """
    grid = FrequencyGrid(2, field.n)
    nn = grid.mandel_nn
    norm4 = np.where(grid.norm4 == 0, 1.0, grid.norm4)
    s = (nn * field.coeffs).sum(axis=-1)
    pot = nn * (s / norm4)[..., None]
    pot[0, 0] = 0.0
    sol = field.coeffs - pot
    sol[0, 0] = 0.0
    return SpectralField(pot), SpectralField(sol), field.mean()


@dataclass(frozen=True)
class SkewPotential:
    """Per-frequency potential Gamma^{sh}_{ij} of a solenoidal field.

    Stored as a complex array of shape (N, N, 2, 2, 2, 2) with index order
    (s, h, i, j); symmetric in (i, j) and skew between the index pairs.
    """

    coeffs: np.ndarray

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]


def build_skew_potential(field: SpectralField, tol: float = 1e-10) -> SkewPotential:
    """Fourth-order potential whose double divergence reproduces a solenoidal field.

    Requires n . g_hat(n) . n = 0 for every mode and g_hat(0) = 0 (relative
    tolerance `tol`); per nonzero mode the coefficients are

        Gamma^{sh}_{ij,n} = (-g^{ij}_n n_s n_h + g^{sh}_n n_i n_j)
                            |n|^-4 (-4 pi^2)^-1.
    """
    grid = FrequencyGrid(2, field.n)
    nn = grid.mandel_nn
    scale = max(float(np.abs(field.coeffs).max()), 1e-300)
    contraction = (nn * field.coeffs).sum(axis=-1)
    if np.abs(contraction).max() > tol * scale * max(grid.norm4.max() ** 0.5, 1.0):
        raise ValueError("input is not solenoidal: n . g_hat(n) . n != 0")
    if np.abs(field.coeffs[0, 0]).max() > tol * scale:
        raise ValueError("input has a nonzero mean")
    n1, n2 = grid.components
    # dense 2 x 2 coefficients g^{ij}_n from the Mandel layout
    g = np.empty(field.coeffs.shape[:-1] + (2, 2), dtype=complex)
    g[..., 0, 0] = field.coeffs[..., 0]
    g[..., 1, 1] = field.coeffs[..., 1]
    g[..., 0, 1] = g[..., 1, 0] = field.coeffs[..., 2] / SQRT2
    nvec = np.stack([n1, n2], axis=-1)
    outer = nvec[..., :, None] * nvec[..., None, :]  # n_i n_j
    norm4 = np.where(grid.norm4 == 0, 1.0, grid.norm4)
    factor = 1.0 / (norm4 * (-4.0 * np.pi**2))
    # index order (s, h, i, j): -n_s n_h g^{ij} + g^{sh} n_i n_j, per mode
    term1 = outer[..., :, :, None, None] * g[..., None, None, :, :]
    term2 = g[..., :, :, None, None] * outer[..., None, None, :, :]
    gamma = (-term1 + term2) * factor[..., None, None, None, None]
    gamma[0, 0] = 0.0
    return SkewPotential(gamma)


def reconstruct_from_skew(skew: SkewPotential) -> SpectralField:
    """Apply the double divergence D* over the (i, j) indices, mode by mode.

    Exact inverse of build_skew_potential on its admissible inputs.
    """
    grid = FrequencyGrid(2, skew.n)
    n1, n2 = grid.components
    nvec = np.stack([n1, n2], axis=-1)
    outer = nvec[..., :, None] * nvec[..., None, :]
    # D* on the mode: (2 pi i)^2 n_i n_j Gamma^{sh}_{ij}
    dense = -4.0 * np.pi**2 * np.einsum("xyshij,xyij->xysh", skew.coeffs, outer.astype(complex))
    out = np.empty(skew.coeffs.shape[:2] + (M,), dtype=complex)
    out[..., 0] = dense[..., 0, 0]
    out[..., 1] = dense[..., 1, 1]
    out[..., 2] = SQRT2 * 0.5 * (dense[..., 0, 1] + dense[..., 1, 0])
    return SpectralField(out)


def dirac_sobolev_partial_sum(s: float, d: int, cutoff: int) -> float:
    """Lattice partial sum of the H^s norm density of the Dirac comb.

    Sums (1 + |2 pi n|^2)^s / (2 pi)^d over 0 < |n|_inf <= cutoff.  The sums
    converge as cutoff grows exactly when s < -d/2.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    axes = np.arange(-cutoff, cutoff + 1)
    grids = np.meshgrid(*([axes] * d), indexing="ij")
    nsq = sum(g.astype(float) ** 2 for g in grids)
    mask = nsq > 0
    terms = (1.0 + 4.0 * np.pi**2 * nsq[mask]) ** s
    return float(terms.sum() / (2.0 * np.pi) ** d)
