"""Effective stiffness assembly, Voigt-Reuss bounds, and analytic anchors.

The effective tensor is assembled column by column from the M cell problems
loaded with the Mandel basis tensors: column j collects the Mandel coordinates
of the mean moment <C(y):E^(j)(y)>.  For elliptic coefficients the result is
bracketed by the Reuss (harmonic) and Voigt (arithmetic) averages in the sense
of quadratic forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mandel import M, StiffTensor4, SymTensor2
from .microstructure import CoefficientField
from .solver import ConvergenceHistory, ReferenceMedium, SolverConfig, solve_cell


class NonConvergenceError(RuntimeError):
    """Raised when a load case of the effective-tensor assembly does not converge."""


@dataclass
class LoadCase:
    """Per-load-case convergence metadata of one effective-tensor assembly."""

    index: int
    iterations: int
    history: ConvergenceHistory


@dataclass
class EffectiveTensor:
    """Effective stiffness with assembly diagnostics."""

    tensor: StiffTensor4
    asymmetry: float
    load_cases: list[LoadCase]


@dataclass
class BoundsReport:
    """Voigt (arithmetic) and Reuss (harmonic) averages of the phase tensors."""

    voigt: StiffTensor4
    reuss: StiffTensor4


@dataclass
class BracketVerdict:
    """Eigenvalue slacks of the Voigt-Reuss bracketing of a computed tensor."""

    upper_slack: np.ndarray  # eigenvalues of voigt - c_hom
    lower_slack: np.ndarray  # eigenvalues of c_hom - reuss
    bracketed: bool


def effective_tensor(
    field: CoefficientField, ref: ReferenceMedium, config: SolverConfig | None = None
) -> EffectiveTensor:
    """Solve the M basis load cases and assemble the effective Mandel matrix.

    The raw column matrix is symmetrized; the relative pre-symmetrization
    asymmetry is kept as a diagnostic.  A non-convergent load case aborts the
    assembly with the offending basis tensor named.
    """
    if config is None:
        config = SolverConfig()
    columns = np.zeros((M, M))
    cases: list[LoadCase] = []
    for j in range(M):
        solution = solve_cell(field, ref, replace(config, e0=SymTensor2.basis(j)))
        if not solution.converged:
            raise NonConvergenceError(f"load case {j} (E0 = Mandel basis {j}) did not converge {solution.stopped()}")
        columns[:, j] = solution.mean_moment.mandel
        cases.append(LoadCase(j, solution.iterations, solution.history))
    sym = 0.5 * (columns + columns.T)
    scale = max(float(np.abs(columns).max()), 1e-300)
    asymmetry = float(np.abs(columns - columns.T).max()) / scale
    return EffectiveTensor(StiffTensor4(sym), asymmetry, cases)


def voigt_reuss_bounds(field: CoefficientField) -> BoundsReport:
    """Volume-weighted arithmetic mean <C> and harmonic mean <C^-1>^-1."""
    voigt = np.zeros((M, M))
    reuss_inv = np.zeros((M, M))
    for pid, fraction in field.volume_fractions().items():
        tensor = field.table.phases[pid]
        voigt += fraction * tensor.mandel_matrix
        reuss_inv += fraction * tensor.inverse().mandel_matrix
    return BoundsReport(StiffTensor4(voigt), StiffTensor4(reuss_inv).inverse())


def bracket_check(bounds: BoundsReport, c_hom: StiffTensor4) -> BracketVerdict:
    """Check Reuss <= C_hom <= Voigt in the positive-semidefinite order.

    Slack eigenvalues may dip below zero by 1e-8 * |Voigt| before the verdict
    flips.
    """
    upper = np.linalg.eigvalsh(bounds.voigt.mandel_matrix - c_hom.mandel_matrix)
    lower = np.linalg.eigvalsh(c_hom.mandel_matrix - bounds.reuss.mandel_matrix)
    slack = 1e-8 * bounds.voigt.operator_norm()
    ok = bool(upper.min() >= -slack and lower.min() >= -slack)
    return BracketVerdict(upper, lower, ok)


def analytic_laminate(alpha: float, beta: float, fraction: float) -> tuple[float, float]:
    """Two-phase laminate: (arithmetic mean along, harmonic mean across layers).

    `fraction` is the volume fraction of the alpha phase.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("phase coefficients must be positive")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"volume fraction must lie in (0,1), got {fraction}")
    along = fraction * alpha + (1.0 - fraction) * beta
    across = 1.0 / (fraction / alpha + (1.0 - fraction) / beta)
    return along, across


def analytic_chessboard(alpha: float, beta: float) -> float:
    """Geometric-mean reference value for the two-phase chessboard.

    Quoted from second-order homogenization; used as a sanity anchor only,
    never asserted against the fourth-order computation.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("phase coefficients must be positive")
    return math.sqrt(alpha * beta)
