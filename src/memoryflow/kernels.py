"""Hot numeric kernels, in numpy with LAPACK for the eigensolver.

Kernels:

- ``hermitian_eigvals``        ascending eigenvalues of a complex Hermitian
                               matrix (LAPACK through ``np.linalg.eigvalsh``)
- ``composite_gauss_legendre`` nodes and weights of an order-n Gauss-Legendre
                               rule on each of equal panels over [lo, hi]; the
                               reference rule is built once per order
- ``transfer_power_average``   sum_i w_i * M(theta_i)^k for k = 0..m and the
                               3x3 single-step Bloch transfer matrix M, from
                               one walk P <- P M with the nodes last
- ``series_convolve``          product of matrix-valued trigonometric
                               polynomials (coefficient convolution)
- ``walk_run``                 m steps of the coined walk recursion from the
                               origin
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=128)
def gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the order-n Gauss-Legendre rule on [-1, 1],
    built once per order and shared by every caller."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def composite_gauss_legendre(lo, hi, panels, order):
    """Nodes and weights of the order-n Gauss-Legendre rule applied to each of
    ``panels`` equal panels over [lo, hi], flattened panel by panel."""
    x, w = gauss_legendre_rule(int(order))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def transfer_power_average(thetas, weights, alpha, beta, m):
    """Weighted averages sum_i w_i M(theta_i)^k for every power k = 0..m, as an
    (m + 1, 3, 3) stack.  One walk P <- P M over the nodes serves every power,
    so the k-th average does not depend on m.  M and P are stored node-last,
    (3, 3, nodes), so each product is 27 vector operations over the nodes and
    each average one matrix-vector product with the weights."""
    thetas = np.asarray(thetas, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    c = np.cos(thetas)
    s = np.sin(thetas)
    M = np.empty((3, 3, thetas.shape[0]))
    M[0, 0] = -beta * c
    M[0, 1] = -s
    M[0, 2] = alpha * c
    M[1, 0] = beta * s
    M[1, 1] = -c
    M[1, 2] = -alpha * s
    M[2, 0] = alpha
    M[2, 1] = 0.0
    M[2, 2] = beta
    P = np.zeros_like(M)
    P[0, 0] = P[1, 1] = P[2, 2] = 1.0
    out = np.empty((int(m) + 1, 3, 3))
    out[0] = P @ weights
    for k in range(1, len(out)):
        P = np.einsum("iln,ljn->ijn", P, M)
        out[k] = P @ weights
    return out


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
