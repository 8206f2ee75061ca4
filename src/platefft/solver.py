"""Operator-perturbation cell solver.

The periodic bending problem D*(C(y):(E0 + Dw)) = 0 is rewritten around the
constant reference medium C0 = lam0 * Id and solved by the fixed point

    E_{k+1} = E0 + Gamma * (dC : E_k),        dC(y) = C(y) - C0,

whose iterates are the partial sums of the Neumann series of the resolvent
(I - Gamma dC)^-1 E0.  Gamma is the Green operator of lam0 * Lap^2, as for the
paper's trace reference xi -> lam0 * Tr(xi) * I, which gives the same iterates.
Gamma annihilates means, so <E_k> = E0 at every step.  Convergence is monitored
through the equilibrium residual, the discrete form of D*(C:E) = 0:

    residual = sqrt( sum_{n != 0} |n . J_hat(n) . n|^2 ) / |J_hat(0)|,

with J = C:E and the sum restricted to unambiguous frequencies (on even grids
the Nyquist rows are excluded, matching the modes the grid operator resolves).

An iteration costs two real FFTs and Gamma's one contraction s = n . p_hat . n of
p = dC:E.  As n . J_hat_{k+1} . n = s_{k+1} - s_k on the active modes, the residual
comes from Gamma's scalars; so do delta, the RMS of E_k - E_{k-1} = Gamma (p_{k-1} - p_{k-2}),
and the power iteration's ratio |B x|, as Gamma's output on a mode has size |s| / (lam0 |n|^2)
(GreenOperator.rms).  The loop holds one (M, N, N) iterate, the six distinct (N, N) planes of the symmetric dC
(CoefficientField.mandel_grid) and the step's buffers.

The fixed point is Richardson iteration preconditioned by the reference medium; conjugate gradients
with the same preconditioner (_ConjugateGradientStep) reach the same solution in far fewer iterations
of the same FFT cost.  solve_cell runs CG under the arithmetic rule and the fixed point under the
geometric and manual rules, where lam0 is the user's choice of series; both write the same history
columns, and one loop holds the stop, history and overflow rules of both.
With >= 2 usable CPUs and N >= green._SPLIT_MIN_N, the contractions, the FFTs and Gamma run on two threads,
with results bit-identical to one core (`taskset -c 0`); there is no setting.
The reports' series_factor (apriori_bound) is the paper's trace-reference estimate.
"""
from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .green import FrequencyGrid, GreenOperator, HalfSpectrum, _gamma_scale
from .mandel import M, PLANES, SymTensor2, trace_dyad
from .microstructure import CoefficientField

STRATEGIES = ("arithmetic", "geometric", "manual")


@dataclass(frozen=True)
class ReferenceMedium:
    """Scalar reference coefficient lam0 with the eigen-range it came from."""

    lambda0: float
    strategy: str
    mu_min: float
    mu_max: float

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        _gamma_scale(self.lambda0)
        if self.strategy == "arithmetic" and not self.lambda0 > self.mu_max / 2.0 > 0:
            raise ValueError(
                "arithmetic reference must satisfy lambda0 > mu_max/2 > 0, "
                f"got lambda0 {self.lambda0:g} for the eigen-range [{self.mu_min:g}, {self.mu_max:g}]"
            )


@dataclass(frozen=True)
class SolverConfig:
    """Stopping controls and the macroscopic curvature load."""

    e0: SymTensor2 | None = None
    tolerance: float = 1e-8
    max_iterations: int = 5000

    def __post_init__(self):
        if self.e0 is not None and not np.isfinite(self.e0.mandel).all():
            raise ValueError(f"e0 must be finite, got {self.e0.mandel}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class ConvergenceHistory:
    """Per-iteration diagnostics of one cell solve."""

    iterations: list[int] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)

    def append(self, iteration: int, residual: float, delta: float, energy: float) -> None:
        self.iterations.append(iteration)
        self.residuals.append(residual)
        self.deltas.append(delta)
        self.energies.append(energy)


@dataclass
class CellSolution:
    """Converged (or flagged non-converged) corrector state.

    curvature and moment are real (N, N, M) grids of Mandel vectors, views of the (M, N, N) iterates;
    energy <E : C : E> and mean_moment <C : E> are the last iteration's, as the loop formed them (under CG,
    mean_moment is the mean of the returned moment).
    """

    curvature: np.ndarray
    moment: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    history: ConvergenceHistory
    energy: float
    mean_moment: SymTensor2


def select_reference(
    field: CoefficientField, strategy: str, lambda0: float | None = None
) -> ReferenceMedium:
    """Choose the scalar reference coefficient from the coefficient eigen-range.

    arithmetic: lam0 = (mu_min + mu_max) / 2 (midpoint rule);
    geometric:  lam0 = sqrt(mu_min * mu_max), or sqrt(mu_min) sqrt(mu_max) if the product is not a normal float;
    manual:     pass-through of `lambda0`, which must be positive and finite; ReferenceMedium rejects other names.
    """
    mu_min, mu_max = field.eigen_range()
    if strategy == "manual":
        if lambda0 is None:
            raise ValueError("manual strategy requires an explicit lambda0")
        lam = float(lambda0)
    elif strategy == "geometric":
        product = mu_min * mu_max
        lam = math.sqrt(product) if sys.float_info.min <= product < math.inf else math.sqrt(mu_min) * math.sqrt(mu_max)
    else:
        lam = 0.5 * (mu_min + mu_max)
    return ReferenceMedium(lam, strategy, mu_min, mu_max)


def spectral_bound(mu_min: float, mu_max: float) -> float:
    """Upper bound on the contraction factor under the arithmetic midpoint rule."""
    if not 0 < mu_min <= mu_max:
        raise ValueError(f"invalid eigen-range ({mu_min}, {mu_max})")
    return (mu_max - mu_min) / (mu_max + mu_min)


def series_factor(q: float) -> float:
    """Geometric-series factor 1/(1-q); inf is the divergence flag for q >= 1."""
    if q < 0:
        raise ValueError(f"contrast ratio must be nonnegative, got {q}")
    if q >= 1.0:
        return math.inf
    return 1.0 / (1.0 - q)


def apriori_bound(field: CoefficientField, ref: ReferenceMedium) -> float:
    """Series factor of the a-priori estimate: 1/(1 - q) with q = |dC|_inf / lam0.

    q takes the max over voxels of the Mandel operator norm of dC; math.inf is
    the divergence flag when the series condition q < 1 fails.  The kernel
    factor of the estimate is normalized to 1, so this is a series factor, not
    an error bound.
    """
    c0 = ref.lambda0 * trace_dyad()
    q = 0.0
    for pid in field.present_phases():
        dc = field.table.phases[pid].mandel_matrix - c0
        q = max(q, float(np.abs(np.linalg.eigvalsh(dc)).max()))
    return series_factor(q / ref.lambda0)


def _stiffness_product(c: np.ndarray, x: np.ndarray, out: np.ndarray, spec: np.ndarray, lo: int, hi: int) -> None:
    """out = C:x on the rows lo:hi of (M, N, N) fields, for the planes c of a symmetric C (CoefficientField.mandel_grid).

    The products pass through rows lo:hi of spec's storage as real (N, N) scratch, so spec must be free, and two
    halves of the rows may run at once.  out_a sums c_a0 x_0, c_a1 x_1 and c_a2 x_2 in that order, as
    np.einsum("abxy,bxy->axy") does over the full (M, M, N, N) grid, with its bits: einsum starts each sum
    from +0.0, which turns a sum of three -0.0 into +0.0, and so does the final += 0.0.
    """
    n = x.shape[-1]
    scratch = spec.reshape(-1).view(float)[lo * n : hi * n].reshape(hi - lo, n)
    x, out = x[:, lo:hi], out[:, lo:hi]
    for a, planes in enumerate(PLANES):
        np.multiply(c[planes[0], lo:hi], x[0], out=out[a])
        for b in range(1, M):
            np.multiply(c[planes[b], lo:hi], x[b], out=scratch)
            out[a] += scratch
    out += 0.0


class _NeumannStep:
    """B = Gamma * (dC : .), the operator of the fixed point, for one field and lam0.

    Built once per solve: dC = C - C0, mandel_grid's six planes with lam0 taken off the three diagonal ones in place, is
    the only coefficient grid, and the Green operator holds its scale with the inactive modes zeroed; every call
    rewrites p and spec.
    """

    def __init__(self, field: CoefficientField, lambda0: float):
        self.dc = field.mandel_grid()
        for a in range(M):
            self.dc[PLANES[a, a]] -= lambda0
        self.lam = lambda0
        self.green = GreenOperator(FrequencyGrid(2, field.n), lambda0)
        self.p, self.spec = np.empty((M, field.n, field.n)), np.empty((M, field.n, field.n // 2 + 1), dtype=complex)

    def __call__(self, e: np.ndarray, s: np.ndarray) -> np.ndarray:
        """p = dC:E, Gamma's output in spec and its scalars in s; returns a copy of p_hat(0), which Gamma zeroes."""
        self.green.halves(lambda lo, hi: _stiffness_product(self.dc, e, self.p, self.spec, lo, hi), self.green.n)
        self.green.forward(self.p, self.spec)
        p_hat0 = self.spec[:, 0, 0].copy()
        self.green.apply(self.spec, s)
        return p_hat0

    def iterate(self, e0: np.ndarray):
        """Rows (residual, delta, energy) of E_1, E_2, ... from the constant field E0; e holds the last row's iterate."""
        n, lam = self.green.n, self.lam
        self.e = np.broadcast_to(e0[:, None, None], (M, n, n)).copy()  # the one iterate, rewritten in place
        s, s_new = np.empty((2, n, n // 2 + 1), dtype=complex)
        self(self.e, s)
        delta = self.green.rms(s)  # |E_1 - E_0|: E_1 - E_0 = Gamma (dC:E_0), whose scalars are s_0
        while True:
            self.spec[:, 0, 0] = n * n * e0  # Gamma zeroes the mean mode; E0 fills it
            self.green.inverse(self.spec, self.e)
            self.j0 = self(self.e, s_new) + n * n * lam * e0
            s -= s_new  # s_{k-1} - s_k = -n.J_hat_k.n, and the scalars of E_k - E_{k+1}
            self.residual = self.green.equilibrium_residual(s, self.j0)
            yield self.residual, delta, (_inner(self.e, self.p) + lam * _inner(self.e, self.e)) / (n * n)
            delta = self.green.rms(s)  # the next row's |E_{k+1} - E_k|
            s, s_new = s_new, s

    def solution(self) -> tuple[np.ndarray, np.ndarray, SymTensor2, float]:
        """Curvature E and moment C:E of the last row, as (M, N, N) grids, the mean moment and the row's residual."""
        for a in range(M):  # the moment C:E = dC:E + lam0 E in p's buffer, one component's temporary at a time
            self.p[a] += self.lam * self.e[a]
        return self.e, self.p, SymTensor2(self.j0.real / self.green.n**2), self.residual


class _ConjugateGradientStep:
    """Conjugate gradients on the scalar potential w_hat of E = E0 + IFFT(nn w_hat), preconditioned by lam0 Lap^2.

    The fixed point is Richardson iteration w_hat += r / (lam0 |n|^4) on A w_hat = b, with r = b - A w_hat =
    -n.J_hat.n on the active modes, J = C:E and A w_hat = n.(C : IFFT(nn w_hat))^.n; CG takes the same
    preconditioner.  Its iterates do not depend on lam0, but lam0 keeps d and A d at the size of r, as the
    fixed point's vectors are, for coefficients near the ends of the float range.  One iteration is one
    application of A: nn d into spec, the inverse pass, C:X, the forward pass and n.q_hat.n.
    Inner products sum the half spectrum with its Parseval multiplicities, by einsum on the calling thread.
    Built once per solve: C is mandel_grid's six planes themselves, and the step holds the half-spectrum vectors
    w_hat, r and d; spec's planes hold q and z in turn, and the products of C:X while it is free.

    The loop updates r and J_hat(0) by recursion, which rounding parts from the fields' own below about
    1e-12; so once the recursive residual meets the tolerance, _settle forms the fields and their residual,
    and that residual is the row's.  Above the tolerance, CG restarts from it, and ends when a restart
    did not lower it (the rounding floor).  The solve runs on E0 scaled exactly by a power of two, to
    lam0 max|E0|^2 in [1/8, 2): <r, z> is of that size, and neither underflows for tiny loads nor
    overflows for large ones or stiff cells; rows and fields are scaled back.
    """

    def __init__(self, field: CoefficientField, lambda0: float, tolerance: float):
        n = field.n
        self.c = field.mandel_grid()
        grid = FrequencyGrid(2, n)
        self.half = HalfSpectrum(grid)
        self.precondition = grid.inv_norm4[:, : n // 2 + 1] / lambda0
        self.own_conjugates = (0, n // 2) if n % 2 == 0 else (0,)
        self.tolerance = tolerance
        self.lam_exponent = math.frexp(lambda0)[1]

    def _moment(self) -> None:
        """p = C:x."""
        self.half.halves(lambda lo, hi: _stiffness_product(self.c, self.x, self.p, self.spec, lo, hi), self.half.n)

    def _dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Re sum over the full spectrum of conj(a) b, for half spectra a and b of real fields, one of them 0 off the active modes.

        A stored mode stands for itself and its conjugate, except in the columns that hold their own conjugates
        (0, and N/2 of even N); counting those columns once more than the rest needs no (N, N//2 + 1) weight table.
        """
        total = 2.0 * float(np.einsum("xy,xy->", a.view(float), b.view(float)))
        for col in self.own_conjugates:
            total -= float(np.einsum("xy,xy->", a[:, col : col + 1].view(float), b[:, col : col + 1].view(float)))
        return total

    def _settle(self) -> float:
        """E = E0 + IFFT(nn w_hat) into x and C:E into p, with r and j0 formed from them; returns their residual.

        fields_residual keeps it until the next iteration overwrites x and p.
        """
        half = self.half
        half.potential(self.w, self.spec)
        half.inverse(self.spec, self.x)
        self.x += self.e0[:, None, None]
        self._moment()
        half.forward(self.p, self.spec)
        self.j0[:] = self.spec[:, 0, 0]
        half.contract(self.spec, self.r)
        np.negative(self.r, out=self.r)
        _conjugate_symmetric(self.r)
        self.fields_residual = half.equilibrium_residual(self.r, self.j0)
        return self.fields_residual

    def iterate(self, e0: np.ndarray):
        """Rows (residual, delta, energy) of E_1, E_2, ... from the constant field E0.

        The rows end when <d, A d> is 0 or <r, z> is below the normal range (r = 0, or a residual near 1e-155),
        or when a restart did not lower the fields' residual.

        energy is E0.<C>E0 + 2 phi / N^4, with phi = (w_hat, A w_hat)/2 - (b, w_hat) updated per step; delta is
        |alpha| RMS(X), the RMS of E_k - E_{k-1}; J_hat(0) is updated as alpha q_hat(0).
        """
        n, half = self.half.n, self.half
        scale = self.scale = math.frexp(float(np.abs(e0).max()))[1] + self.lam_exponent // 2
        self.e0 = np.ldexp(e0, -scale)
        # One array each: at N = 512 a single (2, M, N, N) block and a single (3, N, N//2 + 1) block, which do
        # not fit the holes the freed FrequencyGrid leaves, raised the solve's peak RSS by 5 MiB.
        self.x, self.p = np.empty((M, n, n)), np.empty((M, n, n))  # X = IFFT(nn d) and C:X; E and C:E at the end
        spec = self.spec = np.empty((M, n, n // 2 + 1), dtype=complex)
        w, r, d = self.w, self.r, self.d = [np.zeros((n, n // 2 + 1), dtype=complex) for _ in range(3)]
        j0 = self.j0 = np.empty(M, dtype=complex)
        self._settle()  # r and j0 of the constant field E0, as w_hat = 0
        energy0 = float(np.einsum("a,a->", self.e0, j0.real)) / (n * n)  # E0.<C>E0

        def row(residual: float, delta: float, phi: float) -> tuple[float, float, float]:
            return residual, float(np.ldexp(delta, scale)), float(np.ldexp(energy0 + 2.0 * phi / n**4, 2 * scale))

        np.multiply(r, self.precondition, out=d)
        rz = self._dot(r, d)  # 0 for a homogeneous cell: d = 0 and the first step leaves w_hat = 0, E = E0
        phi, floor = 0.0, math.inf
        while True:
            self.fields_residual = None
            half.potential(d, spec)
            half.inverse(spec, self.x)
            size = math.sqrt(_inner(self.x, self.x) / (n * n))
            self._moment()
            half.forward(self.p, spec)
            q0 = spec[:, 0, 0].copy()
            q, scratch = spec[0], spec[1]
            half.contract(spec, q)
            dq, dr = self._dot(d, q), self._dot(d, r)
            alpha = rz / dq if dq else 0.0  # dq = 0: A d vanishes, and the step below is the last
            np.multiply(d, alpha, out=scratch)
            w += scratch
            q *= alpha
            r -= q
            _conjugate_symmetric(r)
            j0 += alpha * q0
            phi += alpha * (0.5 * alpha * dq - dr)
            residual = half.equilibrium_residual(r, j0)
            restart = residual <= self.tolerance
            if restart:
                residual = self._settle()
            yield row(residual, abs(alpha) * size, phi)
            if restart:  # the fields missed the tolerance: restart from their residual while that falls
                if not residual < floor:
                    return
                floor = residual
            z = scratch
            np.multiply(r, self.precondition, out=z)
            rz_new = self._dot(r, z)
            if not (dq and rz_new >= sys.float_info.min):  # r = 0, or <r, z> is subnormal and its ratios noise
                return
            if restart:
                d[:] = z
            else:
                d *= rz_new / rz
                d += z
            rz = rz_new

    def solution(self) -> tuple[np.ndarray, np.ndarray, SymTensor2, float]:
        """Curvature E = E0 + IFFT(nn w_hat) and moment C:E, as (M, N, N) grids, the mean moment <C:E> and their residual."""
        residual = self._settle() if self.fields_residual is None else self.fields_residual
        for a in (self.x, self.p):
            np.ldexp(a, self.scale, out=a)
        return self.x, self.p, SymTensor2(self.p.sum(axis=(1, 2)) / self.half.n**2), residual


def _conjugate_symmetric(v: np.ndarray) -> None:
    """Make column 0 of a half spectrum v, shape (N, N//2 + 1), conjugate-symmetric in place, as a real field's is.

    Column 0 stores both (n1, 0) and (-n1, 0).  FFT rounding leaves an antisymmetric part there that no real field
    has: the inverse pass drops it, so A cannot reduce it, and CG diverges once the residual reaches its size.
    """
    col = v[:, 0]
    col[1:] = 0.5 * (col[1:] + col[:0:-1].conj())


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """<a : b> summed over an (M, N, N) grid; einsum, as BLAS dot threads would spin through the loop."""
    return float(np.einsum("axy,axy->", a, b))


def solve_cell(
    field: CoefficientField, ref: ReferenceMedium, config: SolverConfig
) -> CellSolution:
    """Iterate from the constant field E0 until equilibrium: CG under the arithmetic rule, else the fixed point.

    final_residual is the residual of the returned fields; under CG it may differ from the last history row's
    when the loop ends short of the tolerance.  On success it is <= tolerance; if the budget is exhausted
    (or the iterates blow up), it is flagged non-converged with the full history.
    A first iteration whose residual, delta or energy overflows (e0 or lam0 near the
    float range) raises ValueError.
    """
    if config.e0 is None:
        raise ValueError("solver config has no macroscopic curvature e0")
    n = field.n
    e0 = config.e0.mandel
    history = ConvergenceHistory()
    if not e0.any():
        # zero load: the unique solution is the zero field
        zero = np.zeros((n, n, M))
        return CellSolution(zero, zero, 0, 0.0, True, history, 0.0, SymTensor2(np.zeros(M)))

    if ref.strategy == "arithmetic":
        step = _ConjugateGradientStep(field, ref.lambda0, config.tolerance)
    else:
        step = _NeumannStep(field, ref.lambda0)
    # divergent references overflow before their residual turns non-finite and ends the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (residual, delta, energy) in zip(range(1, config.max_iterations + 1), step.iterate(e0)):
            history.append(k, residual, delta, energy)
            if k == 1 and not all(map(math.isfinite, (residual, delta, energy))):
                raise ValueError(f"the first iteration overflows: e0 {e0.tolist()} or lambda0 {ref.lambda0:g} is too large")
            if residual <= config.tolerance or not math.isfinite(residual):
                break
        curvature, moment, mean, residual = step.solution()
    converged = residual <= config.tolerance
    return CellSolution(np.moveaxis(curvature, 0, -1), np.moveaxis(moment, 0, -1), k, residual, converged, history, energy, mean)


def estimate_spectral_radius(
    field: CoefficientField, ref: ReferenceMedium, iterations: int, seed: int
) -> float:
    """Power-iteration estimate of the contraction factor of the fixed point.

    Runs B: E -> -Gamma*(dC:E) on a seeded random zero-mean field and returns
    the geometric mean of the last five norm ratios; returns 0.0 if the
    iterate underflows (B vanishes on the relevant subspace).
    """
    if iterations < 10:
        raise ValueError(f"need at least 10 power iterations, got {iterations}")
    n = field.n
    step = _NeumannStep(field, ref.lambda0)
    rng = np.random.default_rng(seed)
    x = np.moveaxis(rng.standard_normal((n, n, M)), -1, 0)  # the draw of the (N, N, M) layout
    x -= x.mean(axis=(1, 2), keepdims=True)
    x /= math.sqrt(_inner(x, x) / (n * n))
    s = np.empty((n, n // 2 + 1), dtype=complex)
    ratios = deque(maxlen=5)  # the last five ratios, which the estimate averages
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            step(x, s)
            r = step.green.rms(s)  # |B x|, from Gamma's scalars
            if not math.isfinite(r):
                raise ValueError(f"the power iteration overflows: lambda0 {ref.lambda0:g} is too large")
            if r < 1e-13:
                return 0.0
            ratios.append(r)
            step.green.inverse(step.spec, x)
            x /= -r  # B x / |B x|
    return float(np.exp(np.log(ratios).sum() / len(ratios)))
