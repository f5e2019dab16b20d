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

Trace distances.  ``trace_distance_walk`` is the dense reference: it takes two
densities after equal step counts and solves their full 2(2n + 1)-dimensional
difference in one eigensolve.  The memory measure takes a faster route
(``nonmarkov.walk_trace_distances``): only the n + 1 sites of the parity of n
are occupied after n steps, so it keeps the difference on those sites
(d = 2(n + 1)) and hands the filtered matrices of every filter to
``hermitian_eigenvalues`` as one (filters, d, d) stack per step.  The
eigensolver checks each matrix of a stack for finiteness and for Hermiticity
against its own largest entry, and caps d at ``MAX_EIG_DIM`` = 256: 127 walk
steps on the compressed route, 63 on the full one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, ResourceLimitError, exceeds
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
        return np.atleast_2d(self(_separations(steps)))


def _separations(steps: int) -> np.ndarray:
    """Matrix [y - x] of site separations over the support of an n-step state."""
    xs = np.arange(-steps, steps + 1, dtype=float)
    return xs[None, :] - xs[:, None]


def filtered_density(state: WalkState, kappa) -> WalkDensity:
    """The pure density of a walk state with its (x, y) coin block multiplied
    by kappa(y - x)."""
    n = state.steps
    pure = pure_walk_density(state).matrix
    gram = np.atleast_2d(kappa(_separations(n)))
    return WalkDensity(n, pure * np.kron(gram, np.ones((2, 2))))


def open_walk_evolve(
    c_left: complex,
    c_right: complex,
    n: int,
    spectrum: SpectrumParams,
    config: DephasingConfig,
) -> WalkDensity:
    """n coin-dephased walk steps from the origin: the dense per-n reference.

    The unitary walk is evolved first; dephasing then multiplies the (x, y)
    coherence block by f(y - x) and leaves diagonal blocks (and hence the
    position distribution) untouched.
    """
    return filtered_density(walk_evolve(c_left, c_right, n), DephasingFilter(spectrum, config))


# ---------------------------------------------------------------------------
# explicit dilation oracle
# ---------------------------------------------------------------------------

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
    # imported here, not with the module: statistics loads decimal and
    # fractions, about 4 ms of start-up that only the oracle would use
    from statistics import NormalDist

    standard = NormalDist()
    omegas = []
    weights = []
    for center, weight, count in split:
        for j in range(count):
            q = (j + 0.5) / count
            omegas.append(center + spectrum.sigma * standard.inv_cdf(q))
            weights.append(weight / count)
    if not all(map(math.isfinite, omegas)):
        raise ResourceLimitError(
            f"environment frequencies overflow float64 at sigma = {spectrum.sigma:g}")
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


def discrete_filter(omegas, weights, config: DephasingConfig):
    """The coherence filter f(d) of the discrete spectrum with the given
    frequency nodes, in the normalization of ``DephasingFilter``."""
    return lambda d: discrete_decoherence(
        omegas, weights, config.index_contrast, d * config.step_duration / 2.0)


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
    return filtered_density(walk_evolve(c_left, c_right, n), discrete_filter(omegas, weights, config))


def dilation_densities(
    c_left: complex,
    c_right: complex,
    steps: int,
    spectrum: SpectrumParams,
    config: DephasingConfig,
    n_freqs: int,
):
    """Brute-force evolution on the full coin (x) position (x) environment space.

    The environment is a discrete superposition sqrt(w_j)|omega_j> of the
    ``n_freqs`` nodes of ``discretize_spectrum``; each step applies the walk
    unitary and then the frequency-diagonal dephasing phases.  Tracing out the
    environment must reproduce the filter route computed with the same
    discrete spectrum, entrywise.

    The spectrum is discretized once and one (2, 2 steps + 1, K) buffer is
    stepped once: yields (WalkDensity, omegas, weights) after n = 0, 1, ...,
    steps steps, each density traced from the central 2n + 1 sites.  The caps
    are checked where a run reaches them: K before the first density, and n
    before each density, so a run past ``DILATION_MAX_STEPS`` yields every
    density up to the cap before it raises ``ResourceLimitError``.
    """
    if steps < 0:
        raise DomainError("step count must be non-negative")
    cap = ResourceLimitError(
        f"dilation oracle capped at n <= {DILATION_MAX_STEPS}, K <= {DILATION_MAX_FREQS}")
    if n_freqs > DILATION_MAX_FREQS:
        raise cap
    total = abs(c_left) ** 2 + abs(c_right) ** 2
    if abs(total - 1.0) > 1e-12:
        raise DomainError("initial coin amplitudes must be normalized")
    omegas, weights = discretize_spectrum(spectrum, n_freqs)
    last = min(steps, DILATION_MAX_STEPS)
    psi = np.zeros((2, 2 * last + 1, n_freqs), dtype=complex)
    amp = np.sqrt(weights)
    psi[0, last, :] = c_left * amp
    psi[1, last, :] = c_right * amp
    h = 1.0 / math.sqrt(2.0)
    # refraction indices (delta_n, 0): only the contrast matters after tracing
    phase_left = np.exp(1j * config.index_contrast * omegas * config.step_duration)
    for n in range(steps + 1):
        if n > DILATION_MAX_STEPS:
            raise cap
        if n:
            tl = h * (psi[0] + psi[1])
            tr = h * (psi[0] - psi[1])
            psi[0] = np.roll(tl, -1, axis=0)
            psi[0][-1, :] = 0.0
            psi[1] = np.roll(tr, 1, axis=0)
            psi[1][0, :] = 0.0
            psi[0] *= phase_left[None, :]
        # position-major system vector per environment branch
        support = slice(last - n, last + n + 1)
        v = np.empty((2 * (2 * n + 1), n_freqs), dtype=complex)
        v[0::2] = psi[0, support]
        v[1::2] = psi[1, support]
        yield WalkDensity(n, v @ v.conj().T), omegas, weights


def dilation_oracle(
    c_left: complex,
    c_right: complex,
    n: int,
    spectrum: SpectrumParams,
    config: DephasingConfig,
    n_freqs: int,
):
    """The traced dilation after n steps: the last entry of
    ``dilation_densities(c_left, c_right, n, ...)``, the dense per-n reference.

    Returns (WalkDensity, omegas, weights).
    """
    for entry in dilation_densities(c_left, c_right, n, spectrum, config, n_freqs):
        pass
    return entry


def strong_dephasing_blocks(c_left: complex, c_right: complex, m: int) -> WalkDensity:
    """Diagonal site blocks of the unitary walk density: the f(d) -> delta_d0
    limit of the coin-dephased walk."""
    return filtered_density(walk_evolve(c_left, c_right, m), lambda d: d == 0)


# ---------------------------------------------------------------------------
# Hermitian eigenvalue machinery
# ---------------------------------------------------------------------------

def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Sorted eigenvalues of a finite complex Hermitian matrix, or of each
    matrix of a (..., d, d) stack, by LAPACK (d capped at ``MAX_EIG_DIM``).
    Each matrix is checked for Hermiticity against its own largest entry."""
    H = np.asarray(matrix, dtype=complex)
    if H.ndim < 2 or H.shape[-2] != H.shape[-1]:
        raise DomainError("matrix must be square")
    if H.shape[-1] > MAX_EIG_DIM:
        raise ResourceLimitError(f"eigensolver capped at dimension {MAX_EIG_DIM}")
    if not np.all(np.isfinite(H)):
        raise DomainError("matrix has non-finite entries")
    if H.size == 0:
        return np.empty(H.shape[:-1])
    scale = np.max(np.abs(H), axis=(-2, -1))
    defect = np.max(np.abs(H - np.swapaxes(H, -2, -1).conj()), axis=(-2, -1))
    if np.any(defect > HERMITICITY_TOL * np.maximum(scale, 1.0)):
        raise DomainError("matrix is not Hermitian")
    return kernels.hermitian_eigvals(H)


def eigensolver_identity_deviation(seed: int) -> tuple[float, str]:
    """Largest deviation from sum(lambda) = tr H and sum(lambda^2) = ||H||_F^2 over
    seeded random Hermitian matrices of dimension 2 to 32, and where it
    occurred; a NaN deviation is kept as the worst (``errors.exceeds``)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    where = ""
    for trial in range(20):
        dim = int(rng.integers(2, 33))
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (x + x.conj().T) / 2.0
        vals = hermitian_eigenvalues(h)
        dev = float(np.max([
            abs(float(np.sum(vals)) - float(np.trace(h).real)),
            abs(float(np.sum(vals ** 2)) - float(np.sum(np.abs(h) ** 2))),
        ]))
        if exceeds(dev, worst):
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


def trace_distance_walk(rho1: WalkDensity, rho2: WalkDensity) -> float:
    """Half the trace norm of the difference of two densities after the same
    number of steps, from one full LAPACK eigensolve."""
    if rho1.steps != rho2.steps:
        raise DomainError("trace distance needs densities after equal step counts")
    vals = hermitian_eigenvalues(rho1.matrix - rho2.matrix)
    return 0.5 * float(np.sum(np.abs(vals)))
