"""Seeded input generator of the benchmark.

Writes `plate-micro v1` microstructures and `plate-field v1` fields with the
benchmark's own writers, so that a change to the program's writers cannot
change the inputs, and reads the program's field outputs with its own
parser. Every generator returns a record of what it wrote (grid size, volume
fractions, eigen-range, file bytes, sha256); the benchmark keeps that record
with its results, so a change of seed or generator shows there.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np


def file_record(path: Path) -> dict:
    data = path.read_bytes()
    return {"file": path.name, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def disc_phase_map(rng, n: int, fraction: float, radii: tuple[float, float], labels) -> np.ndarray:
    """Periodic random discs on a matrix of phase 0 until `fraction` is covered.

    Disc centres are uniform on the unit cell, radii uniform in `radii`, and
    each disc takes a phase drawn uniformly from `labels`; later discs
    overwrite earlier ones where they overlap.
    """
    y = (np.arange(n) + 0.5) / n
    pm = np.zeros((n, n), dtype=np.int64)
    while (pm > 0).mean() < fraction:
        cx, cy = rng.random(2)
        r = rng.uniform(*radii)
        dx = y - cx
        dx -= np.rint(dx)  # nearest periodic image
        dy = y - cy
        dy -= np.rint(dy)
        pm[dx[:, None] ** 2 + dy[None, :] ** 2 < r * r] = rng.choice(labels)
    return pm


def random_anisotropic(rng, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Mandel matrix Q diag(eig) Q^T with log-uniform eigenvalues in [lo, hi)."""
    eig = np.exp(rng.uniform(np.log(lo), np.log(hi), 3))
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))  # Haar-distributed rotation
    matrix = q @ np.diag(eig) @ q.T
    return 0.5 * (matrix + matrix.T), np.sort(eig)


def write_micro(path: Path, phases: dict[int, np.ndarray], pm: np.ndarray) -> dict:
    """Write a `plate-micro v1` file and return its record."""
    n = pm.shape[0]
    lines = ["plate-micro v1", f"d 2 N {n} phases {len(phases)}"]
    for pid in sorted(phases):
        mat = phases[pid]
        tri = [mat[i, j] for i in range(3) for j in range(i, 3)]
        lines.append(f"phase {pid} " + " ".join(f"{v:.17g}" for v in tri))
    lines += [" ".join(map(str, row)) for row in pm.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ids, counts = np.unique(pm, return_counts=True)
    eigs = np.concatenate([np.linalg.eigvalsh(phases[int(p)]) for p in ids])
    return {
        "n": n,
        "phases": {str(pid): phases[pid].tolist() for pid in sorted(phases)},
        "volume_fractions": {str(int(i)): float(c) / pm.size for i, c in zip(ids, counts)},
        "eigen_range": [float(eigs.min()), float(eigs.max())],
        **file_record(path),
    }


def inclusion_micro(path: Path, rng, n: int, contrast: float) -> dict:
    """Two isotropic phases, random discs of `contrast`x stiffness over ~30 %."""
    pm = disc_phase_map(rng, n, 0.3, (0.02, 0.06), [1])
    phases = {0: np.eye(3), 1: contrast * np.eye(3)}
    return write_micro(path, phases, pm)


def three_phase_micro(path: Path, rng, n: int, contrast: float) -> dict:
    """Matrix, an isotropic phase at `contrast`x, and a random anisotropic phase.

    The anisotropic phase's eigenvalues lie in [1, contrast), so the field's
    eigen-range is [1, contrast] and the arithmetic reference sits at its
    midpoint.
    """
    pm = disc_phase_map(rng, n, 0.3, (0.05, 0.12), [1, 2])
    aniso, eig = random_anisotropic(rng, 1.0, contrast)
    phases = {0: np.eye(3), 1: contrast * np.eye(3), 2: aniso}
    record = write_micro(path, phases, pm)
    record["anisotropic_eigenvalues"] = eig.tolist()
    return record


def gaussian_field(path: Path, rng, n: int) -> dict:
    """Write an N x N field of independent N(0, 1) Mandel 3-vectors."""
    values = rng.standard_normal((n * n, 3))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"plate-field v1 d 2 N {n} m 3\n")
        np.savetxt(fh, values, fmt="%.17g")
    return {
        "n": n,
        "m": 3,
        "mean_square": float((values**2).sum(axis=1).mean()),
        **file_record(path),
    }


def read_field(path: Path) -> np.ndarray:
    """Parse a `plate-field v1` file into an (N, N, m) array."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        body = fh.read()
    n, m = int(header[5]), int(header[7])
    return np.array(body.split(), dtype=float).reshape(n, n, m)
