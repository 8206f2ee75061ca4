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

with J = C:E and the sum over the active modes (on even grids the Nyquist rows are excluded) of the rfft2 half
spectrum, whose storage green.HalfSpectrum alone knows: restrict zeroes a vector off those modes, inner sums it.

On the potentials E = E0 + IFFT(nn w_hat) the fixed point is Richardson iteration on the scalar w_hat,
preconditioned by the reference medium: w_hat += r / (lam0 |n|^4), with r = -n.J_hat.n on the active modes.
Conjugate gradients with the same preconditioner reach the same solution in far fewer iterations of the
same cost.  One step class (_PotentialStep) runs both: CG under the arithmetic rule, and the fixed point
under the geometric and manual rules, where lam0 is the user's choice of series; the power iteration
(estimate_spectral_radius) applies its operator too.  One loop, _PotentialStep.solve, appends the history
rows and decides every stop: the first-row overflow, the tolerance, a non-finite residual, the rounding
floor, an underflowing <r, z> and the budget.
An iteration costs two real FFTs and one contraction n . q_hat . n of q = C:X, X = IFFT(nn d) for the step d;
the residual, delta (the RMS of E_k - E_{k-1}) and the energy follow from it and from HalfSpectrum.inner.
The loop holds one (M, N, N) field, in which C:X overwrites X, the (N, N) planes of the symmetric C that vary
over the phases (CoefficientField.mandel_grid; planes with equal bits share one, a constant plane is a view of its
one value, and a zero one no term of C:X), one (M, N, N//2 + 1) half spectrum, which is C:X's scratch while it is
free, and three (N, N//2 + 1) vectors.  With >= 2 usable CPUs and
N >= green._SPLIT_MIN_N, the contractions and the FFTs run on two threads, bit-identical to one core (`taskset -c 0`).
The reports' series_factor (apriori_bound) is the paper's trace-reference estimate.
"""
from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .green import FrequencyGrid, HalfSpectrum, _gamma_scale
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

    def stopped(self) -> str:
        """Where the loop stopped, for a non-convergence message: 'after k iteration(s) (residual r)'."""
        return f"after {self.iterations} iteration{'s' * (self.iterations != 1)} (residual {self.final_residual:.3e})"


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


def _stiffness_product(terms: list, x: np.ndarray, spec: np.ndarray, lo: int, hi: int) -> None:
    """x = C:x in place on the rows lo:hi of an (M, N, N) field, for the terms of _PotentialStep.terms.

    The scratch is rows lo:hi of spec's storage read as M real (N, N) planes, so spec must be free, and two halves
    may run at once.  Rows 1..M-1 sum in scratch planes 1..M-1, the products go to plane 0, and row 0, whose
    first term is its diagonal, sums in x[0] after the other rows read it.  Row a sums c_ab x_b in b order, as
    np.einsum("abxy,bxy->axy") does over the full (M, M, N, N) grid, with its bits: a dropped zero plane's
    product is +-0, which leaves a nonzero sum as it is, and einsum starts each sum from +0.0, which turns a sum
    of -0.0 into +0.0, and so does the final + 0.0.
    """
    n = x.shape[-1]
    scratch = spec.reshape(-1).view(float)[: M * n * n].reshape(M, n, n)[:, lo:hi]
    x = x[:, lo:hi]
    for a in (*range(1, M), 0):
        (b, c), *rest = terms[a]
        out = scratch[a] if a else x[0]
        np.multiply(c[lo:hi], x[b], out=out)
        for b, c in rest:
            np.multiply(c[lo:hi], x[b], out=scratch[0])
            out += scratch[0]
    np.add(scratch[1:], 0.0, out=x[1:])
    x[0] += 0.0


class _PotentialStep:
    """The fixed point or CG on the scalar potential w_hat of E = E0 + IFFT(nn w_hat), preconditioned by lam0 Lap^2.

    With r = b - A w_hat = -n.J_hat.n on the active modes, J = C:E and A w_hat = n.(C : IFFT(nn w_hat))^.n, an
    iteration steps w_hat += alpha d from z = r / (lam0 |n|^4).  Under the geometric and manual rules it runs the
    fixed point E_{k+1} = E0 + Gamma (dC : E_k), which is Richardson iteration: alpha = 1 and d = z.  Under the
    arithmetic rule it runs CG: alpha = <r, z> / <d, A d> and d = z + beta d.  CG's iterates do not depend on
    lam0, but lam0 keeps d and A d at the size of r, as the fixed point's vectors are, for coefficients near
    the ends of the float range.  One iteration is one application of A: _curvature, then _contraction.
    Built once per solve: C is mandel_grid's planes themselves, as each row's terms of C:x, and the step holds
    M^-1 on the half spectrum's columns, one real field x, which holds X and then C:X, formed in place, and one
    half spectrum, whose planes hold q and z in turn and the scratch of C:X while it is free; solve adds the
    half-spectrum vectors w_hat, r and d.

    solve's one loop updates r and J_hat(0) by recursion, which rounding parts from the fields' own below about
    1e-12; so once the recursive residual meets the tolerance, _settle forms the fields and their residual,
    and that residual is the row's.  Above the tolerance, the loop restarts from it, and stops when a restart
    did not lower it (the rounding floor).  The solve runs on E0 scaled exactly by a power of two, to
    mu_max max|E0|^2 in [1/8, 2) for the cell's largest stiffness mu_max: <r, z> is of the size of mu_max / lam0,
    near 1 under the arithmetic rule, and underflows neither for tiny loads or a lam0 far above the stiffness
    nor overflows for large loads or stiff cells; rows and fields are scaled back.
    """

    def __init__(self, field: CoefficientField, ref: ReferenceMedium):
        n = field.n
        c = field.mandel_grid()
        # out_a's terms (b, C_ab) for C:x; a zero plane adds only +-0 and has none.  Every row keeps its diagonal
        # term, as a positive definite phase has C_aa > 0.
        self.terms = [[(b, c[p]) for b, p in enumerate(planes) if c[p].any()] for planes in PLANES]
        grid = FrequencyGrid(2, n)
        self.half = HalfSpectrum(grid)
        self.precondition = grid.inv_norm4(n // 2 + 1) / ref.lambda0
        self.ref = ref
        self.x = np.empty((M, n, n))  # X = IFFT(nn d), then C:X in place
        self.spec = np.empty((M, n, n // 2 + 1), dtype=complex)
        self.q0 = np.empty(M, dtype=complex)  # (C:X)^(0), which the contraction overwrites

    def _curvature(self, d: np.ndarray) -> None:
        """X = IFFT(nn d) of a potential d into x, through spec."""
        self.half.potential(d, self.spec)
        self.half.inverse(self.spec, self.x)

    def _contraction(self) -> np.ndarray:
        """n.(C:x)^.n into spec[0], which it returns, with C:x in x and its mean mode (C:x)^(0) in q0.

        spec's planes 1 and 2 are free afterwards.
        """
        half = self.half
        half.halves(lambda lo, hi: _stiffness_product(self.terms, self.x, self.spec, lo, hi), half.n)
        half.forward(self.x, self.spec)
        self.q0[:] = self.spec[:, 0, 0]
        half.contract(self.spec, self.spec[0])
        return self.spec[0]

    def _settle(self) -> float:
        """r and j0 of E = E0 + IFFT(nn w_hat), from C:E formed in x; returns their residual."""
        self._curvature(self.w)
        self.x += self.e0[:, None, None]
        np.negative(self._contraction(), out=self.r)
        self.j0[:] = self.q0
        return self.half.equilibrium_residual(self.r, self.j0)

    def solve(
        self, e0: np.ndarray, config: SolverConfig, history: ConvergenceHistory
    ) -> tuple[np.ndarray, np.ndarray, SymTensor2, float]:
        """Iterate from the constant field E0; returns E and C:E as (M, N, N) grids, <C:E> and their residual.

        Each iteration k appends its row (k, residual, delta, energy) to history, and the loop stops, in this
        order: on a first row that is not finite, which raises ValueError; when the residual meets the tolerance;
        when it is not finite; when a restart did not lower the fields' residual; when <d, A d> is 0 or <r, z> is
        below the normal range (r = 0, or a residual near 1e-155); and when the budget is spent.  Their residual
        is formed after the loop, unless its last row formed it; then E is formed again in x, and C:E in a new
        array once w_hat, r and d are released, so the end of a solve holds no more than the loop.

        energy is E0.<C>E0 + 2 phi / N^4, with phi = (w_hat, A w_hat)/2 - (b, w_hat) updated per step; delta is
        |alpha| RMS(X), the RMS of E_k - E_{k-1}; J_hat(0) is updated as alpha q_hat(0).
        """
        n, half, ref = self.half.n, self.half, self.ref
        conjugate = ref.strategy == "arithmetic"
        scale = math.frexp(float(np.abs(e0).max()))[1] + math.frexp(ref.mu_max)[1] // 2
        self.e0 = np.ldexp(e0, -scale)
        w, r, d = self.w, self.r, self.d = [np.zeros((n, n // 2 + 1), dtype=complex) for _ in range(3)]
        j0 = self.j0 = np.empty(M, dtype=complex)
        self._settle()  # r and j0 of the constant field E0, as w_hat = 0
        energy0 = float(np.einsum("a,a->", self.e0, j0.real)) / (n * n)  # E0.<C>E0
        np.multiply(r, self.precondition, out=d)
        rz = half.inner(r, d)  # 0 for a homogeneous cell: d = 0 and the first step leaves w_hat = 0, E = E0
        phi, floor = 0.0, math.inf
        for k in range(1, config.max_iterations + 1):
            self._curvature(d)
            size = math.sqrt(_inner(self.x, self.x) / (n * n))
            q, scratch = self._contraction(), self.spec[1]
            dq, dr = half.inner(d, q), half.inner(d, r)
            if conjugate:
                alpha = rz / dq if dq else 0.0  # dq = 0: A d vanishes, and the step below is the last
            else:
                alpha = 1.0
            np.multiply(d, alpha, out=scratch)
            w += scratch
            q *= alpha
            r -= q
            j0 += alpha * self.q0
            phi += alpha * (0.5 * alpha * dq - dr)
            residual = half.equilibrium_residual(r, j0)
            settled = residual <= config.tolerance  # the recursive residual: form the fields, and take theirs
            if settled:
                residual = self._settle()
            delta = float(np.ldexp(abs(alpha) * size, scale))
            energy = float(np.ldexp(energy0 + 2.0 * phi / n**4, 2 * scale))
            history.append(k, residual, delta, energy)
            if k == 1 and not all(map(math.isfinite, (residual, delta, energy))):
                raise ValueError(
                    f"the first iteration overflows: e0 {e0.tolist()} is too large, "
                    f"or lambda0 {ref.lambda0:g} too far below the stiffness {ref.mu_max:g}"
                )
            if residual <= config.tolerance or not math.isfinite(residual):
                break
            if settled:  # the fields missed the tolerance: restart from their residual while that falls
                if not residual < floor:
                    break
                floor = residual
            z = scratch
            np.multiply(r, self.precondition, out=z)
            rz_new = half.inner(r, z)
            if not (dq and rz_new >= sys.float_info.min):  # r = 0, or <r, z> is subnormal and its ratios noise
                break
            if conjugate and not settled:
                d *= rz_new / rz
                d += z
            else:
                d[:] = z
            rz = rz_new
        if not settled:
            residual = self._settle()
        self._curvature(w)
        self.x += self.e0[:, None, None]
        del w, r, d, self.w, self.r, self.d  # C:E takes their place
        moment = self.x.copy()
        half.halves(lambda lo, hi: _stiffness_product(self.terms, moment, self.spec, lo, hi), n)
        for a in (self.x, moment):
            np.ldexp(a, scale, out=a)
        return self.x, moment, SymTensor2(moment.sum(axis=(1, 2)) / n**2), residual


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """<a : b> summed over an (M, N, N) grid; einsum, as BLAS dot threads would spin through the loop."""
    return float(np.einsum("axy,axy->", a, b))


def solve_cell(
    field: CoefficientField, ref: ReferenceMedium, config: SolverConfig
) -> CellSolution:
    """Iterate from the constant field E0 until equilibrium: CG under the arithmetic rule, else the fixed point.

    _PotentialStep.solve runs the loop and decides its stops.  final_residual is the residual of the returned
    fields; it may differ from the last history row's when the loop ends short of the tolerance.  On success it
    is <= tolerance; if the budget is exhausted (or the iterates blow up), it is flagged non-converged with the
    full history.  A first iteration whose residual, delta or energy overflows (e0 near the float range, or lam0
    so far below the stiffness that the energy of E_1 leaves it) raises ValueError.
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

    # divergent references overflow before their residual turns non-finite and ends the loop
    with np.errstate(over="ignore", invalid="ignore"):
        curvature, moment, mean, residual = _PotentialStep(field, ref).solve(e0, config, history)
    curvature, moment = np.moveaxis(curvature, 0, -1), np.moveaxis(moment, 0, -1)
    k, energy = history.iterations[-1], history.energies[-1]
    return CellSolution(curvature, moment, k, residual, residual <= config.tolerance, history, energy, mean)


def estimate_spectral_radius(
    field: CoefficientField, ref: ReferenceMedium, iterations: int, seed: int
) -> float:
    """Power-iteration estimate of the contraction factor of the fixed point.

    Runs B: E -> -Gamma*(dC:E) on a seeded random zero-mean field and returns
    the geometric mean of the last five norm ratios; returns 0.0 once a ratio
    |B x| / |x| falls below 1e-13 (B all but vanishes on the relevant subspace,
    as on a homogeneous cell), far above the underflow range.  B runs on the
    solver's step, on potentials v of X = IFFT(nn v): B v = M^-1 A v - v, with
    M = lam0 |n|^4 the preconditioner, and |B v| is the RMS of the X that the
    next application of A starts from.  The drawn field x is not a potential:
    the first v is lam0 M^-1 n.x_hat.n, the potential of its projection.
    """
    if iterations < 10:
        raise ValueError(f"need at least 10 power iterations, got {iterations}")
    n = field.n
    step = _PotentialStep(field, ref)
    rng = np.random.default_rng(seed)
    x = np.moveaxis(rng.standard_normal((n, n, M)), -1, 0)  # the draw of the (N, N, M) layout
    x -= x.mean(axis=(1, 2), keepdims=True)
    x /= math.sqrt(_inner(x, x) / (n * n))
    step.x[:] = x
    x = step.x
    ratios = deque(maxlen=5)  # the last five ratios, which the estimate averages
    with np.errstate(over="ignore", invalid="ignore"):
        step.half.forward(x, step.spec)
        step.half.contract(step.spec, step.spec[0])
        v = ref.lambda0 * step.spec[0] * step.precondition  # overflows for lam0 near the float range, and r is not finite
        for _ in range(iterations):
            q = step._contraction()
            q *= step.precondition
            np.subtract(q, v, out=v)  # B x, as a potential
            step.half.restrict(v)
            step._curvature(v)
            r = math.sqrt(_inner(x, x) / (n * n))  # |B x|
            if not math.isfinite(r):
                why = "too large" if ref.lambda0 >= ref.mu_max else f"too far below the stiffness {ref.mu_max:g}"
                raise ValueError(f"the power iteration overflows: lambda0 {ref.lambda0:g} is {why}")
            if r < 1e-13:
                return 0.0
            ratios.append(r)
            x /= r  # B x / |B x|, and its potential
            v /= r
    return float(np.exp(np.log(ratios).sum() / len(ratios)))
