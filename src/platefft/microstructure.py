"""Periodic voxel microstructures: generators, statistics, and file ingestion.

The unit cell [0,1)^2 is discretized into N voxels per axis; voxel (i1, i2)
is sampled at its center ((i1+1/2)/N, (i2+1/2)/N).  Coefficients are stored as
an N x N phase map (integer id per voxel, row-major with axis 0 slowest) plus a
table mapping ids to stiffness tensors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .mandel import M, StiffTensor4

_FRACTION_TOL = 1e-6

MICRO_MAGIC = "plate-micro v1"


class MicrostructureFormatError(ValueError):
    """Raised for malformed microstructure files."""


@dataclass(frozen=True)
class PhaseTable:
    """Map from phase id to stiffness tensor, with a declared ellipticity constant."""

    phases: Mapping[int, StiffTensor4]
    alpha: float

    def __post_init__(self):
        phases = dict(self.phases)
        if not phases:
            raise ValueError("phase table must contain at least one phase")
        if not self.alpha > 0:
            raise ValueError(f"ellipticity constant must be positive, got {self.alpha}")
        for pid, tensor in phases.items():
            if not tensor.is_elliptic(self.alpha):
                raise ValueError(
                    f"phase {pid} violates the ellipticity bounds "
                    f"[{self.alpha}, {1.0 / self.alpha}]"
                )
        object.__setattr__(self, "phases", phases)

    @classmethod
    def with_auto_alpha(cls, phases: Mapping[int, StiffTensor4]) -> "PhaseTable":
        """Declare the largest alpha consistent with the given phases."""
        eigs = np.concatenate([t.eigenvalues() for t in phases.values()])
        if eigs.min() <= 0:
            raise ValueError("phases must be positive definite")
        return cls(phases, min(eigs.min(), 1.0 / eigs.max()))


@dataclass(frozen=True)
class CoefficientField:
    """Periodic voxel grid of stiffness tensors (phase map + phase table)."""

    phase_map: np.ndarray
    table: PhaseTable

    def __post_init__(self):
        pm = np.array(self.phase_map, dtype=int)
        if pm.ndim != 2 or pm.shape[0] != pm.shape[1]:
            raise ValueError(f"phase map must be N x N, got shape {pm.shape}")
        n = pm.shape[0]
        if n < 2:
            raise ValueError(f"grid must have N >= 2 points per axis, got {n}")
        unknown = set(np.unique(pm)) - set(self.table.phases)
        if unknown:
            raise ValueError(f"phase map references unknown phase ids {sorted(unknown)}")
        pm.flags.writeable = False
        object.__setattr__(self, "phase_map", pm)

    @property
    def n(self) -> int:
        return self.phase_map.shape[0]

    def present_phases(self) -> list[int]:
        return [int(p) for p in np.unique(self.phase_map)]

    def volume_fractions(self) -> dict[int, float]:
        ids, counts = np.unique(self.phase_map, return_counts=True)
        total = self.phase_map.size
        return {int(i): float(c) / total for i, c in zip(ids, counts)}

    def mandel_grid(self) -> np.ndarray:
        """Per-voxel Mandel matrices, shape (N, N, M, M)."""
        ids = np.array(sorted(self.table.phases))
        mats = np.stack([self.table.phases[pid].mandel_matrix for pid in ids])
        return mats[np.searchsorted(ids, self.phase_map)]

    def eigen_range(self) -> tuple[float, float]:
        """(mu_min, mu_max) over all voxels and all Mandel eigenvalues."""
        eigs = np.concatenate(
            [self.table.phases[pid].eigenvalues() for pid in self.present_phases()]
        )
        return float(eigs.min()), float(eigs.max())


def _two_phase_table(phase_a: StiffTensor4, phase_b: StiffTensor4) -> PhaseTable:
    return PhaseTable.with_auto_alpha({0: phase_a, 1: phase_b})


def generate_laminate(
    phase_a: StiffTensor4,
    phase_b: StiffTensor4,
    volume_fraction: float,
    axis: int,
    n: int,
) -> CoefficientField:
    """Two-phase laminate: phase a fills the first fraction*N slabs along `axis`.

    The fraction must be exactly representable on the grid (fraction*N within
    1e-6 of an integer), so that reported volume fractions are exact.
    """
    if n < 2:
        raise ValueError(f"grid must have N >= 2 points per axis, got {n}")
    if not 0.0 < volume_fraction < 1.0:
        raise ValueError(f"volume fraction must lie in (0,1), got {volume_fraction}")
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    slabs = volume_fraction * n
    if abs(slabs - round(slabs)) > _FRACTION_TOL:
        raise ValueError(
            f"volume fraction {volume_fraction} is not representable on an N={n} grid "
            f"({slabs} slabs is not an integer)"
        )
    k = int(round(slabs))
    pm = np.ones((n, n), dtype=int)
    if axis == 0:
        pm[:k, :] = 0
    else:
        pm[:, :k] = 0
    return CoefficientField(pm, _two_phase_table(phase_a, phase_b))


def generate_chessboard(
    phase_a: StiffTensor4, phase_b: StiffTensor4, n: int
) -> CoefficientField:
    """Chessboard of 2x2 macro-cells per period (even N required)."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"chessboard requires an even N >= 2, got {n}")
    i = np.arange(n)
    parity = (2 * i[:, None] // n + 2 * i[None, :] // n) % 2
    return CoefficientField(parity.astype(int), _two_phase_table(phase_a, phase_b))


def generate_inclusion(
    phase_matrix: StiffTensor4,
    phase_inclusion: StiffTensor4,
    radius: float,
    n: int,
) -> CoefficientField:
    """Circular inclusion of given radius centered in the cell.

    A voxel belongs to the inclusion iff its center lies within periodic
    distance `radius` of the cell center (1/2, 1/2).
    """
    if not 0.0 < radius < 0.5:
        raise ValueError(f"radius must lie in (0, 0.5), got {radius}")
    if n < 2:
        raise ValueError(f"grid must have N >= 2 points per axis, got {n}")
    y = (np.arange(n) + 0.5) / n - 0.5
    y -= np.rint(y)  # periodic image nearest to the center
    dist2 = y[:, None] ** 2 + y[None, :] ** 2
    pm = (dist2 < radius**2).astype(int)
    return CoefficientField(pm, _two_phase_table(phase_matrix, phase_inclusion))


def _upper_triangle(matrix: np.ndarray) -> list[float]:
    return [float(matrix[i, j]) for i in range(M) for j in range(i, M)]


def _from_upper_triangle(values: list[float]) -> np.ndarray:
    out = np.zeros((M, M))
    it = iter(values)
    for i in range(M):
        for j in range(i, M):
            out[i, j] = out[j, i] = next(it)
    return out


def save_microstructure(field: CoefficientField, path) -> None:
    """Write the line-oriented text format (17 significant digits)."""
    lines = [MICRO_MAGIC]
    ids = sorted(field.table.phases)
    lines.append(f"d 2 N {field.n} phases {len(ids)}")
    for pid in ids:
        tri = _upper_triangle(field.table.phases[pid].mandel_matrix)
        lines.append("phase " + str(pid) + " " + " ".join(f"{v:.17g}" for v in tri))
    flat = field.phase_map.reshape(-1)
    for row in flat.reshape(-1, field.n):
        lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_microstructure(path) -> CoefficientField:
    """Read a microstructure file; inverse of save_microstructure."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens_by_line = [line.split() for line in fh]
    lines = [t for t in tokens_by_line if t]
    if not lines or " ".join(lines[0]) != MICRO_MAGIC:
        raise MicrostructureFormatError(f"missing '{MICRO_MAGIC}' header line")
    header = lines[1] if len(lines) > 1 else []
    if len(header) != 6 or header[0] != "d" or header[2] != "N" or header[4] != "phases":
        raise MicrostructureFormatError("malformed size header (expected 'd _ N _ phases _')")
    try:
        d, n, n_phases = int(header[1]), int(header[3]), int(header[5])
    except ValueError as exc:
        raise MicrostructureFormatError(f"non-integer size header: {exc}") from None
    if d != 2:
        raise MicrostructureFormatError(f"unsupported dimension d={d}; platefft is two-dimensional")
    n_tri = M * (M + 1) // 2
    phases: dict[int, StiffTensor4] = {}
    for row in lines[2 : 2 + n_phases]:
        if len(row) != 2 + n_tri or row[0] != "phase":
            raise MicrostructureFormatError(
                f"malformed phase row (expected 'phase <id> <{n_tri} reals>'): {' '.join(row[:3])}..."
            )
        try:
            pid = int(row[1])
            tri = [float(v) for v in row[2:]]
        except ValueError as exc:
            raise MicrostructureFormatError(f"bad phase row: {exc}") from None
        phases[pid] = StiffTensor4(_from_upper_triangle(tri))
    if len(phases) != n_phases:
        raise MicrostructureFormatError("duplicate or missing phase ids")
    flat: list[int] = []
    for row in lines[2 + n_phases :]:
        try:
            flat.extend(int(v) for v in row)
        except ValueError as exc:
            raise MicrostructureFormatError(f"bad phase-map entry: {exc}") from None
    if len(flat) != n * n:
        raise MicrostructureFormatError(
            f"phase map has {len(flat)} entries, expected N^2 = {n * n}"
        )
    pm = np.array(flat, dtype=int).reshape(n, n)
    unknown = set(np.unique(pm)) - set(phases)
    if unknown:
        raise MicrostructureFormatError(
            f"phase map references unknown phase ids {sorted(unknown)}"
        )
    return CoefficientField(pm, PhaseTable.with_auto_alpha(phases))
