"""Open quantum walk: coin dephasing as a positional coherence filter, the
explicit system-environment dilation oracle, the strong-dephasing block form,
and the Hermitian eigenvalue machinery used for trace distances.

Density matrices are stored dense in a position-major layout: the row index
of (site x, coin sigma) is 2 (x + n) + sigma, so the 2x2 coin block for the
site pair (x, y) is the contiguous submatrix at (2(x+n), 2(y+n)).

Filter normalization.  After any number of steps, the environment phase
attached at frequency omega to a branch sitting at site x is
exp(-i omega delta_t delta_n x / 2) times a site-independent factor: a path
ending at x has (n - x)/2 left moves and (n + x)/2 right moves, and each move
contributes the refraction phase of its coin side.  A coherence between sites
x and y therefore picks up exp(i omega delta_t delta_n (y - x)/2), and the
spectral average multiplies the (x, y) block by kappa((y - x) delta_t / 2).
``dilation_oracle`` pins this normalization exactly; walk support separations
are always even, so the filter only ever samples kappa at whole multiples of
the step duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, ResourceLimitError
from .spectra import DephasingConfig, SpectrumParams, decoherence_function
from .walk import WalkState, walk_evolve

HERMITICITY_TOL = 1e-10
MAX_EIG_DIM = 256
DILATION_MAX_STEPS = 6
DILATION_MAX_FREQS = 64


@dataclass
class WalkDensity:
    """Coin (x) position density matrix after ``steps`` steps."""

    steps: int
    matrix: np.ndarray
    block_diagonal: bool = False

    def __post_init__(self):
        dim = 2 * (2 * self.steps + 1)
        if self.matrix.shape != (dim, dim):
            raise DomainError("density matrix shape must match the step count")

    def positions(self) -> np.ndarray:
        return np.arange(-self.steps, self.steps + 1)

    def block(self, x: int, y: int) -> np.ndarray:
        if abs(x) > self.steps or abs(y) > self.steps:
            raise DomainError("site index outside the state's support")
        i = 2 * (x + self.steps)
        j = 2 * (y + self.steps)
        return self.matrix[i:i + 2, j:j + 2]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(hermitian_eigenvalues(self.matrix)[0])

    def position_distribution(self) -> dict[int, float]:
        diag = np.real(np.diag(self.matrix))
        probs = diag[0::2] + diag[1::2]
        return {int(x): float(p) for x, p in zip(self.positions(), probs)}


def state_vector(state: WalkState) -> np.ndarray:
    """Position-major pure-state vector of a walk state."""
    v = np.empty(2 * (2 * state.steps + 1), dtype=complex)
    v[0::2] = state.amp_left
    v[1::2] = state.amp_right
    return v


def pure_walk_density(state: WalkState) -> WalkDensity:
    v = state_vector(state)
    return WalkDensity(state.steps, np.outer(v, v.conj()))


@dataclass(frozen=True)
class DephasingFilter:
    """Multiplier f(d) applied to coherences between sites separated by d."""

    spectrum: SpectrumParams
    config: DephasingConfig

    def __call__(self, d):
        delta = np.asarray(d, dtype=float)
        return decoherence_function(
            self.spectrum, self.config.index_contrast, delta * self.config.step_duration / 2.0
        )

    def gram(self, steps: int) -> np.ndarray:
        """Matrix [f(y - x)] over the support of an n-step state; positive
        semidefinite because f is a characteristic function."""
        xs = np.arange(-steps, steps + 1, dtype=float)
        sep = xs[None, :] - xs[:, None]
        return np.atleast_2d(self(sep))


def _apply_site_filter(density: WalkDensity, gram: np.ndarray) -> WalkDensity:
    full = np.kron(gram, np.ones((2, 2)))
    return WalkDensity(density.steps, density.matrix * full)


def open_walk_evolve(
    c_left: complex,
    c_right: complex,
    n: int,
    spectrum: SpectrumParams,
    config: DephasingConfig,
) -> WalkDensity:
    """n coin-dephased walk steps from the origin.

    The unitary walk is evolved first; dephasing then multiplies the (x, y)
    coherence block by f(y - x) and leaves diagonal blocks (and hence the
    position distribution) untouched.
    """
    if n < 0:
        raise DomainError("step count must be non-negative")
    pure = pure_walk_density(walk_evolve(c_left, c_right, n))
    gram = DephasingFilter(spectrum, config).gram(n)
    return _apply_site_filter(pure, gram)


# ---------------------------------------------------------------------------
# explicit dilation oracle
# ---------------------------------------------------------------------------

def _normal_quantile(p: float) -> float:
    """Inverse standard normal CDF by Newton iteration on math.erf."""
    if not 0.0 < p < 1.0:
        raise DomainError("quantile argument must lie in (0, 1)")
    # Crude logistic start, then Newton with the exact density.
    z = math.copysign(math.sqrt(max(-2.0 * math.log(min(p, 1.0 - p)), 1e-12)), p - 0.5)
    for _ in range(60):
        cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        if pdf == 0.0:
            break
        step = (cdf - p) / pdf
        z -= step
        if abs(step) < 1e-14:
            break
    return z


def discretize_spectrum(spectrum: SpectrumParams, n_freqs: int):
    """Equal-probability-weight frequency nodes per Gaussian peak.

    Each peak is stratified by its inverse CDF at midpoints (j + 1/2)/K_peak;
    node weights are the peak weight split evenly.  Returns (omegas, weights).
    """
    if n_freqs < 1:
        raise DomainError("need at least one environment frequency")
    a = spectrum.amplitude_ratio
    if a == 0.0:
        split = [(spectrum.mu1, 1.0, n_freqs)]
    else:
        if n_freqs < 2:
            raise DomainError("a two-peak spectrum needs at least two frequencies")
        k1 = n_freqs // 2
        split = [
            (spectrum.mu1, 1.0 / (1.0 + a), k1),
            (spectrum.mu2, a / (1.0 + a), n_freqs - k1),
        ]
    omegas = []
    weights = []
    for center, weight, count in split:
        for j in range(count):
            q = (j + 0.5) / count
            omegas.append(center + spectrum.sigma * _normal_quantile(q))
            weights.append(weight / count)
    return np.array(omegas), np.array(weights)


def discrete_decoherence(omegas, weights, delta_n: float, tau):
    """Characteristic function of a discrete spectrum: sum_j w_j e^(i omega_j delta_n tau)."""
    tau = np.asarray(tau, dtype=float)
    out = np.sum(
        weights[:, None] * np.exp(1j * np.outer(omegas, delta_n * np.ravel(tau))), axis=0
    ).reshape(tau.shape)
    if out.ndim == 0:
        return complex(out)
    return out


def open_walk_evolve_discrete(
    c_left: complex,
    c_right: complex,
    n: int,
    omegas,
    weights,
    config: DephasingConfig,
) -> WalkDensity:
    """Filter-route evolution with the discrete decoherence function of the
    given frequency nodes (the quantity the dilation oracle must reproduce)."""
    pure = pure_walk_density(walk_evolve(c_left, c_right, n))
    xs = np.arange(-n, n + 1, dtype=float)
    sep = xs[None, :] - xs[:, None]
    gram = np.atleast_2d(
        discrete_decoherence(omegas, weights, config.index_contrast, sep * config.step_duration / 2.0)
    )
    return _apply_site_filter(pure, gram)


def dilation_oracle(
    c_left: complex,
    c_right: complex,
    n: int,
    spectrum: SpectrumParams,
    config: DephasingConfig,
    n_freqs: int,
):
    """Brute-force evolution on the full coin (x) position (x) environment space.

    The environment is a discrete superposition sqrt(w_j)|omega_j>; each step
    applies the walk unitary and then the frequency-diagonal dephasing phases.
    Tracing out the environment must reproduce the filter route computed with
    the same discrete spectrum, entrywise.

    Returns (WalkDensity, omegas, weights).
    """
    if n < 0:
        raise DomainError("step count must be non-negative")
    if n > DILATION_MAX_STEPS or n_freqs > DILATION_MAX_FREQS:
        raise ResourceLimitError(
            f"dilation oracle capped at n <= {DILATION_MAX_STEPS}, "
            f"K <= {DILATION_MAX_FREQS}"
        )
    total = abs(c_left) ** 2 + abs(c_right) ** 2
    if abs(total - 1.0) > 1e-12:
        raise DomainError("initial coin amplitudes must be normalized")
    omegas, weights = discretize_spectrum(spectrum, n_freqs)
    n_sites = 2 * n + 1
    psi = np.zeros((2, n_sites, n_freqs), dtype=complex)
    amp = np.sqrt(weights)
    psi[0, n, :] = c_left * amp
    psi[1, n, :] = c_right * amp
    h = 1.0 / math.sqrt(2.0)
    # refraction indices (delta_n, 0): only the contrast matters after tracing
    phase_left = np.exp(1j * config.index_contrast * omegas * config.step_duration)
    for _ in range(n):
        tl = h * (psi[0] + psi[1])
        tr = h * (psi[0] - psi[1])
        psi[0] = np.roll(tl, -1, axis=0)
        psi[0][-1, :] = 0.0
        psi[1] = np.roll(tr, 1, axis=0)
        psi[1][0, :] = 0.0
        psi[0] *= phase_left[None, :]
    # position-major system vector per environment branch
    v = np.empty((2 * n_sites, n_freqs), dtype=complex)
    v[0::2] = psi[0]
    v[1::2] = psi[1]
    rho = v @ v.conj().T
    return WalkDensity(n, rho), omegas, weights


def strong_dephasing_blocks(c_left: complex, c_right: complex, m: int) -> WalkDensity:
    """Diagonal site blocks of the unitary walk density: the f(d) -> delta_d0
    limit of the coin-dephased walk."""
    pure = pure_walk_density(walk_evolve(c_left, c_right, m))
    gram = np.eye(2 * m + 1)
    out = _apply_site_filter(pure, gram)
    out.block_diagonal = True
    return out


# ---------------------------------------------------------------------------
# Hermitian eigenvalue machinery
# ---------------------------------------------------------------------------

def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Sorted eigenvalues of a finite complex Hermitian matrix by LAPACK
    (dimension capped at 256)."""
    H = np.asarray(matrix, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DomainError("matrix must be square")
    dim = H.shape[0]
    if dim > MAX_EIG_DIM:
        raise ResourceLimitError(f"eigensolver capped at dimension {MAX_EIG_DIM}")
    if not np.all(np.isfinite(H)):
        raise DomainError("matrix has non-finite entries")
    if dim == 0:
        return np.empty(0)
    scale = float(np.max(np.abs(H)))
    if np.max(np.abs(H - H.conj().T)) > HERMITICITY_TOL * max(scale, 1.0):
        raise DomainError("matrix is not Hermitian")
    return kernels.hermitian_eigvals(H)


def eigensolver_identity_deviation(seed: int) -> tuple[float, str]:
    """Largest deviation from sum(lambda) = tr H and sum(lambda^2) = ||H||_F^2 over
    seeded random Hermitian matrices of dimension 2 to 32, and where it occurred."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    where = ""
    for trial in range(20):
        dim = int(rng.integers(2, 33))
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (x + x.conj().T) / 2.0
        vals = hermitian_eigenvalues(h)
        dev = max(
            abs(float(np.sum(vals)) - float(np.trace(h).real)),
            abs(float(np.sum(vals ** 2)) - float(np.sum(np.abs(h) ** 2))),
        )
        if dev > worst:
            worst, where = dev, f"trial={trial}, dim={dim}"
    return worst, where


def eigvals_2x2_hermitian(a, b, c):
    """Closed-form eigenvalues of [[a, b], [conj(b), c]]:
    (a + c)/2 -/+ sqrt((a - c)^2 + 4 |b|^2)/2, vectorized."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=complex)
    half_sum = 0.5 * (a + c)
    half_disc = 0.5 * np.sqrt((a - c) ** 2 + 4.0 * np.abs(b) ** 2)
    return half_sum - half_disc, half_sum + half_disc


def _pad_to_steps(density: WalkDensity, steps: int) -> np.ndarray:
    if density.steps == steps:
        return density.matrix
    dim = 2 * (2 * steps + 1)
    out = np.zeros((dim, dim), dtype=complex)
    off = 2 * (steps - density.steps)
    size = density.matrix.shape[0]
    out[off:off + size, off:off + size] = density.matrix
    return out


def trace_distance_walk(rho1: WalkDensity, rho2: WalkDensity) -> float:
    """Half the trace norm of the difference, on the union support.

    Block-diagonal pairs use the per-site 2x2 closed form; general pairs go
    through the LAPACK eigensolver.
    """
    steps = max(rho1.steps, rho2.steps)
    m1 = _pad_to_steps(rho1, steps)
    m2 = _pad_to_steps(rho2, steps)
    diff = m1 - m2
    if rho1.block_diagonal and rho2.block_diagonal:
        idx = 2 * np.arange(2 * steps + 1)
        a = np.real(diff[idx, idx])
        c = np.real(diff[idx + 1, idx + 1])
        b = diff[idx, idx + 1]
        lo, hi = eigvals_2x2_hermitian(a, b, c)
        return 0.5 * float(np.sum(np.abs(lo)) + np.sum(np.abs(hi)))
    vals = hermitian_eigenvalues(diff)
    return 0.5 * float(np.sum(np.abs(vals)))
