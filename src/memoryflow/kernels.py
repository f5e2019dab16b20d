"""Hot numeric kernels, in numpy with LAPACK for the eigensolver.

Kernels:

- ``hermitian_eigvals``        ascending eigenvalues of complex Hermitian
                               matrices, the one ``np.linalg.eigvalsh`` call;
                               a non-finite stack is refused before LAPACK
- ``trace_distances``          1/2 sum |lambda| of each matrix of a stack: the
                               one trace distance behind both models
- ``eigensolve_bytes``         the bytes one eigensolve of a stack holds, the
                               one count behind every eigensolver cap
- ``composite_gauss_legendre`` nodes and weights of an order-n Gauss-Legendre
                               rule on each of equal panels over [lo, hi]; the
                               reference rule is built once per order
- ``transfer_power_average``   sum_i w_i * M(theta_i)^k for k = 0..m and the
                               3x3 single-step Bloch transfer matrix M, for
                               stacks of controls and weight rows: the one
                               walk P <- P M behind every qubit engine
- ``series_convolve``          product of two matrix-valued trigonometric
                               polynomials (coefficient convolution), one
                               (3 na, 3) x (3, 3) product per coefficient, the
                               reference route to the series coefficients
- ``coin_shift``               one coin-and-shift step of the Hadamard walk,
                               over the occupied sites with any trailing axes;
                               the one walk step that every walk route takes
- ``walk_run``                 m ``coin_shift`` steps from the origin
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, NumericError

# Kept because run manifests and the oracle report record it as "backend".
BACKEND = "numpy"
# Kept because benchmark machine records read it; there is no numba backend.
HAVE_NUMBA = False

def hermitian_eigvals(H) -> np.ndarray:
    """Ascending eigenvalues of a complex Hermitian matrix, or of each matrix
    of a (..., d, d) stack; only the lower triangle is read.  A stack with a
    non-finite entry raises ``DomainError``, since LAPACK can return finite
    eigenvalues for it; a LAPACK convergence failure raises ``NumericError``."""
    if not np.all(np.isfinite(H)):
        raise DomainError("matrix has non-finite entries")
    try:
        return np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc


def trace_distances(H) -> np.ndarray:
    """Half the trace norm, 1/2 sum |lambda|, of each Hermitian matrix of a
    (..., d, d) stack, from one ``hermitian_eigvals`` call; shape (...)."""
    return 0.5 * np.abs(hermitian_eigvals(H)).sum(axis=-1)


def eigensolve_bytes(shape) -> int:
    """Bytes an eigensolve of a (..., d, d) stack holds, counted at 64 per
    entry: the stack, its complex copy and LAPACK's copy with the checks made
    on them (tracemalloc measures 2.0-2.2 x the complex stack's bytes, and
    3.1 x for a real input).  One matrix within ``errors.MAX_GRID_BYTES`` has
    d <= 2048."""
    return 64 * math.prod(shape)


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
    """Weighted averages sum_i w_i M(theta_i)^k for every power k = 0..m of the
    3x3 single-step Bloch transfer matrix M, from one walk P <- P M over the
    nodes, so the k-th average does not depend on m; M and P are node-last.
    Scalar controls and a weight vector give an (m + 1, 3, 3) stack.  Control
    arrays, shape (controls,), and weight rows, shape (rows, nodes), give
    (m + 1, rows, controls, 3, 3).  Each control is walked on its own slab
    and each row applied as its own vector, so every entry keeps the bits of
    its own one-control, one-vector call."""
    thetas = np.asarray(thetas, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)[..., None]
    beta = np.asarray(beta, dtype=np.float64)[..., None]
    c = np.cos(thetas)
    s = np.sin(thetas)
    M = np.empty(alpha.shape[:-1] + (3, 3, thetas.shape[0]))
    M[..., 0, 0, :] = -beta * c
    M[..., 0, 1, :] = -s
    M[..., 0, 2, :] = alpha * c
    M[..., 1, 0, :] = beta * s
    M[..., 1, 1, :] = -c
    M[..., 1, 2, :] = -alpha * s
    M[..., 2, 0, :] = alpha
    M[..., 2, 1, :] = 0.0
    M[..., 2, 2, :] = beta
    P = np.zeros_like(M)
    P[..., 0, 0, :] = P[..., 1, 1, :] = P[..., 2, 2, :] = 1.0
    rows = [(row, weights[row]) for row in np.ndindex(weights.shape[:-1])]
    out = np.empty((int(m) + 1,) + weights.shape[:-1] + P.shape[:-1])
    for k, averages in enumerate(out):
        if k:
            P = np.einsum("...iln,...ljn->...ijn", P, M)
        for row, w in rows:
            averages[row] = P @ w
    return out


def series_convolve(a, b):
    """Coefficients of the product of two coefficient stacks (na, 3, 3) and
    (nb, 3, 3): one (3 na, 3) x (3, 3) matrix product per coefficient of
    ``b``, added in coefficient order, so a long product holds one (na, 3, 3)
    block at a time.  Returns (na + nb - 1, 3, 3)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    na = len(a)
    out = np.zeros((na + len(b) - 1, 3, 3), dtype=np.complex128)
    rows = a.reshape(3 * na, 3)
    for j, coeff in enumerate(b):
        out[j:j + na] += (rows @ coeff).reshape(na, 3, 3)
    return out


def coin_shift(left, right):
    """One coin-and-shift step of the amplitudes (left, right) over the n + 1
    occupied sites -n, -n + 2, ..., n, axis 0, with any trailing axes: the
    balanced coin mixes each site's pair, and the coined pair at site x sends
    its L part to x - 1 and its R part to x + 1.  Returns the new pair over the
    n + 2 sites -n - 1, -n + 1, ..., n + 1."""
    h = 1.0 / math.sqrt(2.0)
    shape = (left.shape[0] + 1,) + left.shape[1:]
    new_l = np.zeros(shape, dtype=np.complex128)
    new_r = np.zeros(shape, dtype=np.complex128)
    new_l[:-1] = h * (left + right)
    new_r[1:] = h * (left - right)
    return new_l, new_r


def walk_run(c_l0, c_r0, m):
    """Amplitudes (left, right) over the m + 1 sites -m, -m + 2, ..., m after m
    ``coin_shift`` steps from the coin pair (c_l0, c_r0) at the origin."""
    cl = np.array([c_l0], dtype=np.complex128)
    cr = np.array([c_r0], dtype=np.complex128)
    for _ in range(int(m)):
        cl, cr = coin_shift(cl, cr)
    return cl, cr
