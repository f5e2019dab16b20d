"""Hot numeric kernels, in numpy with LAPACK for the eigensolver.

Kernels:

- ``hermitian_eigvals``        ascending eigenvalues of a complex Hermitian
                               matrix (LAPACK through ``np.linalg.eigvalsh``)
- ``transfer_power_average``   sum_i w_i * M(theta_i)^m for the 3x3 single-step
                               Bloch transfer matrix M
- ``series_convolve``          product of matrix-valued trigonometric
                               polynomials (coefficient convolution)
- ``walk_run``                 m steps of the coined walk recursion from the
                               origin
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

# Kept because run manifests and the oracle report record it as "backend".
BACKEND = "numpy"
# Kept because benchmark machine records read it; there is no numba backend.
HAVE_NUMBA = False


def hermitian_eigvals(H) -> np.ndarray:
    """Ascending eigenvalues of a complex Hermitian matrix; only the lower
    triangle is read.  A LAPACK convergence failure raises ``NumericError``."""
    try:
        return np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc


# Kept because benchmark tracing looks the eigensolver layer up by this name.
jacobi_eigvals = hermitian_eigvals


def transfer_power_average(thetas, weights, alpha, beta, m):
    thetas = np.asarray(thetas, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    c = np.cos(thetas)
    s = np.sin(thetas)
    n = thetas.shape[0]
    M = np.empty((n, 3, 3))
    M[:, 0, 0] = -beta * c
    M[:, 0, 1] = -s
    M[:, 0, 2] = alpha * c
    M[:, 1, 0] = beta * s
    M[:, 1, 1] = -c
    M[:, 1, 2] = -alpha * s
    M[:, 2, 0] = alpha
    M[:, 2, 1] = 0.0
    M[:, 2, 2] = beta
    P = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    for _ in range(int(m)):
        P = P @ M
    return np.einsum("n,nij->ij", weights, P)


def series_convolve(a, b):
    """Coefficients of the product of two (n, 3, 3) coefficient stacks: one
    (3 na, 3) x (3, 3) matrix product per coefficient of ``b``."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    na, nb = a.shape[0], b.shape[0]
    rows = a.reshape(3 * na, 3)
    out = np.zeros((na + nb - 1, 3, 3), dtype=np.complex128)
    for j in range(nb):
        out[j:j + na] += (rows @ b[j]).reshape(na, 3, 3)
    return out


def walk_run(c_l0, c_r0, m):
    m = int(m)
    P = 2 * m + 1
    cl = np.zeros(P, dtype=np.complex128)
    cr = np.zeros(P, dtype=np.complex128)
    cl[m] = c_l0
    cr[m] = c_r0
    h = 1.0 / np.sqrt(2.0)
    for _ in range(m):
        tl = h * (cl + cr)
        tr = h * (cl - cr)
        cl = np.roll(tl, -1)
        cl[-1] = 0.0
        cr = np.roll(tr, 1)
        cr[0] = 0.0
    return cl, cr
