"""Symmetric tensor algebra in the orthonormal Mandel (Kelvin) representation.

platefft is two-dimensional: a symmetric 2 x 2 tensor is stored as a vector of
M = 3 components (11, 22, 12) with the off-diagonal entry scaled by sqrt(2),
and a fourth-order tensor with minor and major symmetries becomes a symmetric
3 x 3 matrix.  The scaling makes the representation orthonormal: Mandel dot
products equal full double contractions, and the eigenvalues of the Mandel
matrix are the eigenvalues of the fourth-order tensor itself (a Voigt
encoding would distort them).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# Independent index pairs: the diagonal (11, 22), then the shear entry (12).
_PAIRS = ((0, 0), (1, 1), (0, 1))
M = len(_PAIRS)


class SingularTensorError(ValueError):
    """Raised when a stiffness tensor has no usable inverse."""


def sym_to_mandel(matrix: np.ndarray) -> np.ndarray:
    """Encode symmetric 2 x 2 matrices, shape (..., 2, 2), as Mandel vectors (..., M)."""
    matrix = np.asarray(matrix)
    if matrix.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {matrix.shape}")
    out = np.empty(matrix.shape[:-2] + (M,), dtype=np.result_type(matrix, float))
    for a, (i, j) in enumerate(_PAIRS):
        out[..., a] = matrix[..., i, j] if i == j else SQRT2 * 0.5 * (matrix[..., i, j] + matrix[..., j, i])
    return out


def mandel_to_sym(vec: np.ndarray) -> np.ndarray:
    """Decode Mandel vectors, shape (..., M), back into dense symmetric matrices (..., 2, 2)."""
    vec = np.asarray(vec)
    if vec.shape[-1] != M:
        raise ValueError(f"invalid Mandel component count {vec.shape[-1]} (expected {M})")
    out = np.zeros(vec.shape[:-1] + (2, 2), dtype=vec.dtype)
    for a, (i, j) in enumerate(_PAIRS):
        if i == j:
            out[..., i, j] = vec[..., a]
        else:
            out[..., i, j] = vec[..., a] / SQRT2
            out[..., j, i] = vec[..., a] / SQRT2
    return out


def stiff_to_mandel(dense: np.ndarray) -> np.ndarray:
    """Encode a minor+major symmetric fourth-order tensor as an M x M matrix."""
    dense = np.asarray(dense, dtype=float)
    if dense.shape != (2, 2, 2, 2):
        raise ValueError(f"expected shape (2,2,2,2), got {dense.shape}")
    columns = sym_to_mandel(dense)  # the pair (k, l) encoded: [i, j, b]
    return sym_to_mandel(np.moveaxis(columns, -1, 0)).T  # then the pair (i, j): [b, a], transposed


def mandel_to_stiff(matrix: np.ndarray) -> np.ndarray:
    """Decode an M x M Mandel matrix into the dense (2,2,2,2) tensor."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (M, M):
        raise ValueError(f"expected a {M}x{M} Mandel matrix, got shape {matrix.shape}")
    rows = mandel_to_sym(matrix.T)  # the index a decoded: [b, i, j]
    return mandel_to_sym(np.moveaxis(rows, 0, -1))  # then the index b: [i, j, k, l]


def identity_vector() -> np.ndarray:
    """Mandel encoding of the 2 x 2 identity matrix."""
    return np.array([1.0, 1.0, 0.0])


def trace_dyad() -> np.ndarray:
    """Mandel matrix of the map xi -> Tr(xi) * I (rank one, singular)."""
    iv = identity_vector()
    return np.outer(iv, iv)


@dataclass(frozen=True)
class SymTensor2:
    """Symmetric second-order tensor stored as a Mandel vector."""

    mandel: np.ndarray

    def __post_init__(self):
        vec = np.array(self.mandel, dtype=float)
        if vec.shape != (M,):
            raise ValueError(f"Mandel vector must have shape ({M},), got {vec.shape}")
        vec.flags.writeable = False
        object.__setattr__(self, "mandel", vec)

    @classmethod
    def basis(cls, index: int) -> "SymTensor2":
        """k-th Mandel basis tensor (unit Mandel vector)."""
        v = np.zeros(M)
        v[index] = 1.0
        return cls(v)


@dataclass(frozen=True)
class StiffTensor4:
    """Fourth-order stiffness tensor with minor+major symmetries (Mandel matrix)."""

    mandel_matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mandel_matrix, dtype=float)
        if mat.shape != (M, M):
            raise ValueError(f"Mandel matrix must have shape ({M}, {M}), got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("Mandel matrix has non-finite entries")
        scale = max(1.0, float(abs(mat).max()))
        half = 0.5 * mat  # mat - mat.T and mat + mat.T would overflow above about 9e307
        if abs(half - half.T).max() > 0.5e-10 * scale:
            raise ValueError("Mandel matrix is not symmetric (major symmetry violated)")
        mat = np.where(mat == mat.T, mat, half + half.T)  # halving rounds a subnormal's last bit away
        mat.flags.writeable = False
        object.__setattr__(self, "mandel_matrix", mat)

    @classmethod
    def identity(cls) -> "StiffTensor4":
        """Symmetric fourth-order identity: C:e = e for every symmetric e."""
        return cls(np.eye(M))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the Mandel matrix, ascending."""
        return np.linalg.eigvalsh(self.mandel_matrix)

    def inverse(self) -> "StiffTensor4":
        """Inverse tensor; raises SingularTensorError near singularity."""
        eig = np.abs(self.eigenvalues())
        if eig.min() <= 1e-12 * max(eig.max(), 1e-300):
            raise SingularTensorError(
                "stiffness tensor is singular (smallest |eigenvalue| below 1e-12 of largest)"
            )
        return StiffTensor4(np.linalg.inv(self.mandel_matrix))

    def operator_norm(self) -> float:
        """Spectral norm max |eigenvalue| of the Mandel matrix."""
        return float(np.abs(self.eigenvalues()).max())

    def __mul__(self, scalar: float) -> "StiffTensor4":
        return StiffTensor4(self.mandel_matrix * float(scalar))

    __rmul__ = __mul__

