"""Periodic voxel microstructures: generators, statistics, and file ingestion.

The unit cell [0,1)^2 is discretized into N voxels per axis; voxel (i1, i2)
is sampled at its center ((i1+1/2)/N, (i2+1/2)/N).  Coefficients are stored as
an N x N phase map (integer id per voxel, row-major with axis 0 slowest) plus a
table mapping ids to stiffness tensors.
"""
from __future__ import annotations

import sys
from itertools import islice
from typing import Mapping

import numpy as np

from .fieldio import FLOAT_FMT, _read_sizes
from .mandel import M, UPPER, StiffTensor4

_FRACTION_TOL = 1e-6

MICRO_MAGIC = "plate-micro v1"


class PhaseTable:
    """Map from phase id to a positive definite stiffness tensor."""

    def __init__(self, phases: Mapping[int, StiffTensor4]):
        phases = dict(phases)
        if not phases:
            raise ValueError("phase table must contain at least one phase")
        if min(t.eigenvalues()[0] for t in phases.values()) <= 0:
            raise ValueError("phases must be positive definite")
        self.phases = phases


class CoefficientField:
    """Periodic voxel grid of stiffness tensors (phase map + phase table)."""

    def __init__(self, phase_map: np.ndarray, table: PhaseTable):
        pm = np.array(phase_map, dtype=int)
        if pm.ndim != 2 or pm.shape[0] != pm.shape[1]:
            raise ValueError(f"phase map must be N x N, got shape {pm.shape}")
        n = pm.shape[0]
        if n < 2:
            raise ValueError(f"grid must have N >= 2 points per axis, got {n}")
        ids, counts = np.unique(pm, return_counts=True)  # the one scan of the map: its phases and their voxel counts
        unknown = set(ids.tolist()) - set(table.phases)
        if unknown:
            raise ValueError(f"phase map references unknown phase ids {sorted(unknown)}")
        pm.flags.writeable = False
        self.phase_map = pm
        self.table = table
        self._fractions = {int(i): float(c) / pm.size for i, c in zip(ids, counts)}

    @property
    def n(self) -> int:
        return self.phase_map.shape[0]

    def present_phases(self) -> list[int]:
        return list(self._fractions)

    def volume_fractions(self) -> dict[int, float]:
        return dict(self._fractions)

    def mandel_grid(self) -> tuple[np.ndarray, ...]:
        """The six distinct planes of the per-voxel Mandel matrices, each (N, N), in mandel.UPPER order.

        The phases' matrices are symmetric, so plane mandel.PLANES[a, b] holds C_ab = C_ba of every voxel.  A plane
        with one value (the same bits) in every present phase is a read-only zero-stride view of that value; the
        planes that vary are views of one contiguous (k, N, N) array, gathered without a six-plane temporary, with
        one row per bit pattern over the present phases, which the planes with those bits share.
        """
        ids = self.present_phases()
        entries = np.stack([self.table.phases[pid].mandel_matrix[UPPER] for pid in ids], axis=-1)  # (6, phases)
        bits = entries.view(np.uint64)
        varies = (bits != bits[:, :1]).any(axis=1)
        distinct, rows = np.unique(bits[varies], axis=0, return_inverse=True)
        stored = np.take(distinct.view(float), np.searchsorted(ids, self.phase_map), axis=-1)
        rows = iter(rows.reshape(-1))
        return tuple(stored[next(rows)] if v else np.broadcast_to(e[0], self.phase_map.shape) for v, e in zip(varies, entries))

    def eigen_range(self) -> tuple[float, float]:
        """(mu_min, mu_max) over all voxels and all Mandel eigenvalues."""
        eigs = np.concatenate(
            [self.table.phases[pid].eigenvalues() for pid in self.present_phases()]
        )
        return float(eigs.min()), float(eigs.max())


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
    return CoefficientField(pm, PhaseTable({0: phase_a, 1: phase_b}))


def generate_chessboard(
    phase_a: StiffTensor4, phase_b: StiffTensor4, n: int
) -> CoefficientField:
    """Chessboard of 2x2 macro-cells per period (even N required)."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"chessboard requires an even N >= 2, got {n}")
    i = np.arange(n)
    parity = (2 * i[:, None] // n + 2 * i[None, :] // n) % 2
    return CoefficientField(parity.astype(int), PhaseTable({0: phase_a, 1: phase_b}))


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
    return CoefficientField(pm, PhaseTable({0: phase_matrix, 1: phase_inclusion}))


def save_microstructure(field: CoefficientField, path) -> None:
    """Write the line-oriented text format (17 significant digits)."""
    ids = sorted(field.table.phases)
    tri = np.stack([field.table.phases[pid].mandel_matrix[UPPER] for pid in ids])
    # An object column keeps every digit of an id; float64 would round ids beyond 2**53.
    phase_rows = np.column_stack([np.array(ids, dtype=object), tri])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MICRO_MAGIC}\nd 2 N {field.n} phases {len(ids)}\n")
        np.savetxt(fh, phase_rows, fmt="phase %d" + f" {FLOAT_FMT}" * tri.shape[1])
        np.savetxt(fh, field.phase_map, fmt="%d")


def load_microstructure(path) -> CoefficientField:
    """Read a microstructure file; inverse of save_microstructure."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = filter(None, map(str.split, fh))
        if next(lines, None) != MICRO_MAGIC.split():
            raise ValueError(f"missing '{MICRO_MAGIC}' header line")
        n, n_phases = _read_sizes(next(lines, []), "phases")
        if not 1 <= n_phases <= sys.maxsize:  # islice takes at most sys.maxsize rows
            raise ValueError(f"need between 1 and {sys.maxsize} phases, got phases {n_phases}")
        rows = np.array(list(islice(lines, n_phases)), dtype=object)
        if rows.shape != (n_phases, 2 + len(UPPER[0])) or (rows[:, 0] != "phase").any():
            raise ValueError(
                f"malformed phase rows (expected 'phase <id> <{len(UPPER[0])} reals>')"
            )
        map_tokens = fh.read().split()
    mats = np.zeros((n_phases, M, M))
    try:
        mats[:, UPPER[0], UPPER[1]] = mats[:, UPPER[1], UPPER[0]] = rows[:, 2:].astype(float)
        phases = {int(pid): StiffTensor4(mat) for pid, mat in zip(rows[:, 1], mats)}
    except ValueError as exc:
        raise ValueError(f"bad phase row: {exc}") from None
    if len(phases) != n_phases:
        raise ValueError("duplicate or missing phase ids")
    try:
        flat = np.array(map_tokens, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"bad phase-map entry: {exc}") from None
    if flat.size != n * n:
        raise ValueError(
            f"phase map has {flat.size} entries, expected N^2 = {n * n}"
        )
    return CoefficientField(flat.reshape(n, n), PhaseTable(phases))
