"""Qubit states, the biased-beam-splitter control unitary, the pure dephasing
map, the single-step Bloch transfer matrix and its exact special cases.

Conventions: basis |L> = (1, 0), |R> = (0, 1); sigma_z |L> = +|L>.  The
dephasing step multiplies the |L><R| coherence by exp(i theta) with
theta = delta_n * delta_t * omega, and the transfer matrix below is the Bloch
form of (phase step) o (control conjugation), orthogonal for every (eta, theta).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .spectra import DephasingConfig, SpectrumParams, decoherence_function

STATE_TOL = 1e-12

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def control_alpha_beta(eta: float) -> tuple[float, float]:
    """(alpha, beta) = (2 sqrt((1-eta) eta), 2 eta - 1); alpha^2 + beta^2 = 1."""
    if not math.isfinite(eta) or not 0.0 <= eta <= 1.0:
        raise DomainError("eta must lie in [0, 1]")
    return 2.0 * math.sqrt((1.0 - eta) * eta), 2.0 * eta - 1.0


def coin_operator(eta: float) -> np.ndarray:
    """Biased beam-splitter unitary: sqrt(eta) on the diagonal (with a sign
    flip on |R>) and sqrt(1-eta) off the diagonal.

    eta = 1 gives sigma_z, eta = 0 gives sigma_x, eta = 1/2 the Hadamard.
    """
    control_alpha_beta(eta)  # refuses an eta outside [0, 1]
    d = math.sqrt(eta)
    o = math.sqrt(1.0 - eta)
    return np.array([[d, o], [o, -d]], dtype=complex)


def bloch_to_density(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    rho = 0.5 * np.eye(2, dtype=complex)
    for i in range(3):
        rho = rho + 0.5 * r[i] * PAULI[i]
    return rho


def density_to_bloch(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(rho @ PAULI[i]).real for i in range(3)])


def validate_density(rho, tol: float = STATE_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DomainError("density matrix must be 2x2")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise DomainError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise DomainError("density matrix must have unit trace")
    a = rho[0, 0].real
    c = rho[1, 1].real
    disc = math.sqrt((a - c) ** 2 + 4.0 * abs(rho[0, 1]) ** 2)
    if 0.5 * ((a + c) - disc) < -tol:
        raise DomainError("density matrix has a negative eigenvalue")
    return rho


def pure_dephasing_map(kappa: complex, rho) -> np.ndarray:
    """Multiply the |L><R| coherence by kappa (and |R><L| by its conjugate)."""
    if abs(kappa) > 1.0 + STATE_TOL:
        raise DomainError("|kappa| > 1 would violate positivity")
    rho = np.asarray(rho, dtype=complex)
    out = rho.copy()
    out[0, 1] = kappa * rho[0, 1]
    out[1, 0] = np.conj(kappa) * rho[1, 0]
    return out


def bloch_transfer_matrix(eta: float, theta: float) -> np.ndarray:
    """Single-step 3x3 Bloch transfer matrix at dephasing phase angle theta.

    Composition of the control conjugation (a pi rotation about the axis
    (sqrt(1-eta), 0, sqrt(eta))) with the dephasing phase rotation about z.
    """
    alpha, beta = control_alpha_beta(eta)
    c = math.cos(theta)
    s = math.sin(theta)
    return np.array([
        [-beta * c, -s, alpha * c],
        [beta * s, -c, -alpha * s],
        [alpha, 0.0, beta],
    ])


def as_bloch_vector(r) -> np.ndarray:
    """``r`` as a float array of shape (3,); any other shape is a ``DomainError``."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise DomainError("Bloch vector must have three components")
    return r


def transfer_map_stack(
    spectrum: SpectrumParams,
    config: DephasingConfig,
    etas,
    steps: int,
    engine: str = "series",
) -> np.ndarray:
    """Spectrum-averaged m-step Bloch transfer matrices for every control in
    ``etas`` and m = 0..steps, shape (etas, steps + 1, 3, 3); the m = 0 maps
    are the identity.

    engine: "series" (exact Fourier-coefficient evaluation, default),
    "quadrature" (per-period oscillatory quadrature cross-check), or
    "strong-limit" (single-period average, no spectrum dependence): the one
    stack of ``transfer_map_stacks`` for ``config`` alone.
    """
    return next(transfer_map_stacks(spectrum, (config,), etas, steps, engine))


def transfer_map_stacks(spectrum: SpectrumParams, configs, etas, steps: int,
                        engine: str = "series"):
    """``transfer_map_stack`` for each dephasing step in ``configs``, one at a
    time, counted on entry: a run whose later step exceeds the budget is
    refused before any map is made.  A None step is the strong limit on every
    engine, and the strong-limit engine takes every step as None.  This is
    the one place an engine is chosen.  Each engine averages every eta in one
    walk per step: ``harmonic.series_map_stacks`` for the series and
    strong-limit engines, whose count is the same for every step, and
    ``harmonic.quadrature_map_stacks`` for the quadrature engine, which counts
    every step first.
    """
    from . import harmonic  # deferred to avoid an import cycle

    if steps < 0 or len(etas) == 0:
        raise DomainError("transfer_map_stack needs non-negative steps and at least one eta")
    if engine not in ("series", "quadrature", "strong-limit"):
        raise DomainError(f"unknown engine {engine!r}")
    tables = [None if config is None or engine == "strong-limit" else (spectrum, config)
              for config in configs]
    if engine == "quadrature":
        for maps in harmonic.quadrature_map_stacks(etas, steps, tables):
            maps[:, 0] = np.eye(3)  # exact, not the quadrature of the density
            yield maps
    else:
        for table in tables:
            yield harmonic.series_map_stacks(etas, steps, [table])[0]


def evolve_qubit(
    spectrum: SpectrumParams,
    config: DephasingConfig,
    eta: float,
    r0,
    steps: int,
    engine: str = "series",
) -> np.ndarray:
    """Bloch trajectory [r(0), r(1), ..., r(steps)] of the controlled dephasing
    dynamics, spectrum-averaged exactly: the one-eta ``transfer_map_stack``
    applied to r0."""
    if steps < 0:
        raise DomainError("steps must be non-negative")
    r0 = as_bloch_vector(r0)
    return transfer_map_stack(spectrum, config, (eta,), steps, engine)[0] @ r0


def special_map_eta1(m: int, spectrum: SpectrumParams, config: DephasingConfig, rho) -> np.ndarray:
    """Exact m-step map for eta = 1 (control = sigma_z): populations fixed,
    |L><R| coherence scaled by kappa(m delta_t) times (-1)^m."""
    if m < 0:
        raise DomainError("m must be non-negative")
    kappa = decoherence_function(spectrum, config.index_contrast, m * config.step_duration)
    sign = -1.0 if m % 2 else 1.0
    return pure_dephasing_map(sign * kappa, rho)


def special_map_eta0(m: int, spectrum: SpectrumParams, config: DephasingConfig, rho) -> np.ndarray:
    """Exact m-step map for eta = 0 (control = sigma_x): identity after any
    even number of steps; after any odd number the populations swap and the
    coherences cross over with a single kappa(delta_t) factor."""
    if m < 0:
        raise DomainError("m must be non-negative")
    rho = np.asarray(rho, dtype=complex)
    if m % 2 == 0:
        return rho.copy()
    kappa = decoherence_function(spectrum, config.index_contrast, config.step_duration)
    out = np.empty_like(rho)
    out[0, 0] = rho[1, 1]
    out[1, 1] = rho[0, 0]
    out[0, 1] = kappa * rho[1, 0]
    out[1, 0] = np.conj(kappa) * rho[0, 1]
    return out


def trace_distance_qubit(rho1, rho2) -> float:
    """Half the trace norm of the difference; for qubits this is exactly half
    the Euclidean distance of the Bloch vectors."""
    return trace_distance_bloch(density_to_bloch(validate_density(rho1)),
                                density_to_bloch(validate_density(rho2)))


def trace_distance_bloch(r1, r2) -> float:
    return 0.5 * float(np.linalg.norm(np.asarray(r1, dtype=float) - np.asarray(r2, dtype=float)))
