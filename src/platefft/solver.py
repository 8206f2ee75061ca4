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
comes from Gamma's scalars; the loop runs on (M, N, N) iterates and an (M, M, N, N) dC.
The reports' series_factor (apriori_bound) is the paper's trace-reference estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .green import FrequencyGrid, GreenOperator
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
        if not 0 < self.lambda0 < math.inf:
            raise ValueError(f"reference coefficient must be positive and finite, got {self.lambda0}")
        if self.strategy == "arithmetic" and not self.lambda0 > self.mu_max / 2.0 > 0:
            raise ValueError("arithmetic reference must satisfy lambda0 > mu_max/2 > 0")


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

    def __len__(self) -> int:
        return len(self.iterations)


@dataclass
class CellSolution:
    """Converged (or flagged non-converged) corrector state.

    curvature and moment are real (N, N, M) grids of Mandel vectors, views of the (M, N, N) iterates.
    """

    curvature: np.ndarray
    moment: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    history: ConvergenceHistory

    def mean_moment(self) -> SymTensor2:
        return SymTensor2(self.moment.mean(axis=(0, 1)))

    def energy(self) -> float:
        """<E : C : E> over the cell."""
        return float((self.curvature * self.moment).sum(axis=-1).mean())


def select_reference(
    field: CoefficientField, strategy: str, lambda0: float | None = None
) -> ReferenceMedium:
    """Choose the scalar reference coefficient from the coefficient eigen-range.

    arithmetic: lam0 = (mu_min + mu_max) / 2 (midpoint rule);
    geometric:  lam0 = sqrt(mu_min * mu_max), intended for high contrast;
    manual:     pass-through of `lambda0`, which must be positive and finite.
    """
    mu_min, mu_max = field.eigen_range()
    if strategy == "arithmetic":
        lam = 0.5 * (mu_min + mu_max)
    elif strategy == "geometric":
        lam = math.sqrt(mu_min * mu_max)
    elif strategy == "manual":
        if lambda0 is None:
            raise ValueError("manual strategy requires an explicit lambda0")
        lam = float(lambda0)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
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

    Built once per solve: dC = C - C0, contiguous (M, M, N, N), is the only coefficient
    grid, and the Green operator holds its scale with the inactive modes zeroed.
    """

    def __init__(self, field: CoefficientField, lambda0: float):
        self.dc = np.subtract(field.mandel_grid().transpose(2, 3, 0, 1), lambda0 * np.eye(M)[..., None, None], order="C")
        self.green = GreenOperator(FrequencyGrid(2, field.n), lambda0)

    def __call__(self, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """dC:E, its spectrum's mean mode (copied: a view keeps the spectrum alive), Gamma's output and s."""
        p = np.einsum("abxy,bxy->axy", self.dc, e)
        p_hat = self.green.forward(p)
        return p, p_hat[:, 0, 0].copy(), *self.green.apply(p_hat)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """<a : b> summed over an (M, N, N) grid; einsum, as BLAS dot threads would spin through the loop."""
    return float(np.einsum("axy,axy->", a, b))


def solve_cell(
    field: CoefficientField, ref: ReferenceMedium, config: SolverConfig
) -> CellSolution:
    """Iterate the fixed point from the constant field E0 until equilibrium.

    On success the solution has residual <= tolerance; if the budget is exhausted
    (or the iterates blow up), it is flagged non-converged with the full history.
    A first step that overflows (e0 or lam0 near the float range) raises ValueError.
    """
    if config.e0 is None:
        raise ValueError("solver config has no macroscopic curvature e0")
    n = field.n
    e0 = config.e0.mandel
    history = ConvergenceHistory()
    if not e0.any():
        # zero load: the unique solution is the zero field
        zero = np.zeros((n, n, M))
        return CellSolution(zero, zero, 0, 0.0, True, history)

    lam = ref.lambda0
    step = _NeumannStep(field, lam)
    e = np.broadcast_to(e0[:, None, None], (M, n, n))
    # divergent references overflow before their residual turns non-finite and ends the loop
    with np.errstate(over="ignore", invalid="ignore"):
        p_hat0, e_hat, s = step(e)[1:]
        if not (np.isfinite(p_hat0).all() and np.isfinite(s).all()):
            raise ValueError(f"the first iteration overflows: e0 {e0.tolist()} or lambda0 {lam:g} is too large")
        for k in range(1, config.max_iterations + 1):
            e_hat[:, 0, 0] = n * n * e0  # Gamma zeroes the mean mode; E0 fills it
            e_new = step.green.inverse(e_hat)
            del e_hat  # the spectrum is dead: free it before step() allocates the next
            p, p_hat0, gamma_hat, s_new = step(e_new)
            residual = step.green.equilibrium_residual(s_new - s, p_hat0 + n * n * lam * e0)
            d = e_new - e
            delta = math.sqrt(_inner(d, d) / (n * n))
            energy = (_inner(e_new, p) + lam * _inner(e_new, e_new)) / (n * n)
            history.append(k, residual, delta, energy)
            e, e_hat, s = e_new, gamma_hat, s_new
            if residual <= config.tolerance or not math.isfinite(residual):
                break
        converged = residual <= config.tolerance
        return CellSolution(np.moveaxis(e, 0, -1), np.moveaxis(p + lam * e, 0, -1), k, residual, converged, history)


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
    ratios = []
    for _ in range(iterations):
        y = -step.green.inverse(step(x)[2])
        r = math.sqrt(_inner(y, y) / (n * n))
        if r < 1e-13:
            return 0.0
        ratios.append(r)
        x = y / r
    return float(np.exp(np.log(ratios[-5:]).sum() / len(ratios[-5:])))
