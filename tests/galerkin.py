"""A direct Galerkin solve of the periodic cell problem on small grids, built from numpy alone, for the tests.

On an N x N grid the solver's curvatures lie in E0 + V, where V holds the real potential fields
IFFT(mandel(n (x) n) w_hat) on the active modes: n != 0 and, on even N, no component equal to -N/2
(the Nyquist rows, which -N/2 and +N/2 share).  The solution minimises <E : C : E> over E0 + V, so in an
orthonormal basis Q of V it solves one symmetric positive definite system, A a = -Q^T C E0 with
A = Q^T C Q, the Galerkin form of the scheme.  The matrices have M N^2 rows: keep N <= 8.
"""
import functools

import numpy as np

from platefft.mandel import M, SQRT2


@functools.cache  # one SVD per grid size; callers only read the basis
def potential_basis(n: int) -> np.ndarray:
    """Orthonormal basis of V as columns, each a real (N, N, M) field flattened; N^2 - 1 of them on odd N, (N - 1)^2 - 1 on even N."""
    freqs = np.rint(np.fft.fftfreq(n) * n).astype(int)
    y = np.arange(n) / n
    fields = []
    for n1 in freqs:
        for n2 in freqs:
            if (n1, n2) == (0, 0) or (n % 2 == 0 and -(n // 2) in (n1, n2)):
                continue
            phase = 2.0 * np.pi * (n1 * y[:, None] + n2 * y[None, :])
            direction = np.array([n1 * n1, n2 * n2, SQRT2 * n1 * n2], dtype=float)  # mandel(n (x) n)
            fields += [(wave[..., None] * direction).ravel() for wave in (np.cos(phase), np.sin(phase))]
    u, s, _ = np.linalg.svd(np.reshape(fields, (-1, n * n * M)).T, full_matrices=False)  # n and -n: the same two fields
    return u[:, s > 1e-8 * s.max(initial=0.0)]  # none at N = 2, where every mode has a Nyquist component


def direct_effective_tensor(field) -> np.ndarray:
    """The Mandel matrix of C_hom, column j the mean moment <C : E> of the Galerkin solution for E0 = basis j.

    <C (E0 + Q a)> with a = -A^-1 Q^T C E0 gives C_hom = <C> - B^T A^-1 B / N^2, where column j of B is Q^T C E0_j.
    """
    n = field.n
    c = np.array([[field.table.phases[p].mandel_matrix for p in row] for row in field.phase_map])  # (N, N, M, M)
    q = potential_basis(n)
    cq = np.einsum("xyab,xybk->xyak", c, q.reshape(n, n, M, -1)).reshape(q.shape)
    b = cq.reshape(n * n, M, -1).sum(axis=0).T  # Q^T C E0_j = sum over voxels of (C Q)_j, as C is symmetric
    return c.mean(axis=(0, 1)) - b.T @ np.linalg.solve(q.T @ cq, b) / n**2
