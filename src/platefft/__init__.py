"""Fourier-space homogenization of periodic plate-bending problems."""

import os

# OpenBLAS reads its thread count once, when numpy loads it.  platefft calls BLAS on 3x3 operands only, so
# unless the caller set a count, numpy loads with one thread and no idle pool; os.environ is then as it was.
if os.environ.keys().isdisjoint(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .fieldio import read_field, write_field
from .green import (
    FrequencyGrid,
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
from .homogenize import (
    BoundsReport,
    BracketVerdict,
    EffectiveTensor,
    NonConvergenceError,
    analytic_chessboard,
    analytic_laminate,
    bracket_check,
    effective_tensor,
    voigt_reuss_bounds,
)
from .mandel import StiffTensor4, SymTensor2
from .microstructure import (
    CoefficientField,
    PhaseTable,
    generate_chessboard,
    generate_inclusion,
    generate_laminate,
    load_microstructure,
    save_microstructure,
)
from .solver import (
    CellSolution,
    ConvergenceHistory,
    ReferenceMedium,
    SolverConfig,
    apriori_bound,
    estimate_spectral_radius,
    select_reference,
    series_factor,
    solve_cell,
    spectral_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BracketVerdict",
    "CellSolution",
    "CoefficientField",
    "ConvergenceHistory",
    "EffectiveTensor",
    "FrequencyGrid",
    "NonConvergenceError",
    "PhaseTable",
    "ReferenceMedium",
    "SolverConfig",
    "SpectralField",
    "StiffTensor4",
    "SymTensor2",
    "analytic_chessboard",
    "analytic_laminate",
    "apriori_bound",
    "bracket_check",
    "build_skew_potential",
    "dirac_sobolev_partial_sum",
    "effective_tensor",
    "estimate_spectral_radius",
    "gamma_apply",
    "generate_chessboard",
    "generate_inclusion",
    "generate_laminate",
    "green_evaluate",
    "green_fourier_coefficient",
    "l2_inner",
    "load_microstructure",
    "read_field",
    "reconstruct_from_skew",
    "save_microstructure",
    "select_reference",
    "series_factor",
    "solve_cell",
    "spectral_bound",
    "voigt_reuss_bounds",
    "weyl_decompose",
    "write_field",
]
