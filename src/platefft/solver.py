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
(GreenOperator.rms).  The loop holds one (M, N, N) iterate, an (M, M, N, N) dC and the step's buffers.
With >= 2 usable CPUs and N >= green._SPLIT_MIN_N, dC:E, the FFTs and Gamma run on two threads, with
results bit-identical to one core (`taskset -c 0`); there is no setting.
The reports' series_factor (apriori_bound) is the paper's trace-reference estimate.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .green import FrequencyGrid, GreenOperator, _gamma_scale
from .mandel import M, SymTensor2, trace_dyad
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
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
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
    energy <E : C : E> and mean_moment <C : E> are the last iteration's, as the loop formed them.
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


class _NeumannStep:
    """B = Gamma * (dC : .), the operator of the fixed point, for one field and lam0.

    Built once per solve: dC = C - C0, mandel_grid's contiguous (M, M, N, N) grid less lam0 on its diagonal, is the only
    coefficient grid, and the Green operator holds its scale with the inactive modes zeroed; every call rewrites p and spec.
    """

    def __init__(self, field: CoefficientField, lambda0: float):
        self.dc = field.mandel_grid().transpose(2, 3, 0, 1)
        self.dc[np.diag_indices(M)] -= lambda0
        self.green = GreenOperator(FrequencyGrid(2, field.n), lambda0)
        self.p, self.spec = np.empty((M, field.n, field.n)), np.empty((M, field.n, field.n // 2 + 1), dtype=complex)

    def __call__(self, e: np.ndarray, s: np.ndarray) -> np.ndarray:
        """p = dC:E, Gamma's output in spec and its scalars in s; returns a copy of p_hat(0), which Gamma zeroes."""
        self.green.halves(lambda lo, hi: np.einsum("abxy,bxy->axy", self.dc[:, :, lo:hi], e[:, lo:hi], out=self.p[:, lo:hi]), self.green.n)
        self.green.forward(self.p, self.spec)
        p_hat0 = self.spec[:, 0, 0].copy()
        self.green.apply(self.spec, s)
        return p_hat0


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """<a : b> summed over an (M, N, N) grid; einsum, as BLAS dot threads would spin through the loop."""
    return float(np.einsum("axy,axy->", a, b))


def solve_cell(
    field: CoefficientField, ref: ReferenceMedium, config: SolverConfig
) -> CellSolution:
    """Iterate the fixed point from the constant field E0 until equilibrium.

    On success the solution has residual <= tolerance; if the budget is exhausted
    (or the iterates blow up), it is flagged non-converged with the full history.
    A first iteration whose residual or energy overflows (e0 or lam0 near the float
    range) raises ValueError.
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

    lam = ref.lambda0
    step = _NeumannStep(field, lam)
    e = np.broadcast_to(e0[:, None, None], (M, n, n)).copy()  # the one iterate, rewritten in place
    s, s_new = np.empty((2, n, n // 2 + 1), dtype=complex)
    # divergent references overflow before their residual turns non-finite and ends the loop
    with np.errstate(over="ignore", invalid="ignore"):
        step(e, s)
        delta = step.green.rms(s)  # |E_1 - E_0|: E_1 - E_0 = Gamma (dC:E_0), whose scalars are s_0
        for k in range(1, config.max_iterations + 1):
            step.spec[:, 0, 0] = n * n * e0  # Gamma zeroes the mean mode; E0 fills it
            step.green.inverse(step.spec, e)
            j0 = step(e, s_new) + n * n * lam * e0
            s -= s_new  # s_{k-1} - s_k = -n.J_hat_k.n, and the scalars of E_k - E_{k+1}
            residual = step.green.equilibrium_residual(s, j0)
            energy = (_inner(e, step.p) + lam * _inner(e, e)) / (n * n)
            history.append(k, residual, delta, energy)
            if k == 1 and not (math.isfinite(residual) and math.isfinite(energy)):
                raise ValueError(f"the first iteration overflows: e0 {e0.tolist()} or lambda0 {lam:g} is too large")
            if residual <= config.tolerance or not math.isfinite(residual):
                break
            delta = step.green.rms(s)  # the next row's |E_{k+1} - E_k|
            s, s_new = s_new, s
        converged = residual <= config.tolerance
        for a in range(M):  # the moment C:E = dC:E + lam0 E in p's buffer, one component's temporary at a time
            step.p[a] += lam * e[a]
        moment = np.moveaxis(step.p, 0, -1)
        mean = SymTensor2(j0.real / (n * n))
        return CellSolution(np.moveaxis(e, 0, -1), moment, k, residual, converged, history, energy, mean)


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
    ratios = []
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
    return float(np.exp(np.log(ratios[-5:]).sum() / len(ratios[-5:])))
