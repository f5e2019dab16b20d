"""Environment spectral model: two-Gaussian population distribution, its exact
decoherence (characteristic) function, and the theta-function flatness
diagnostic for the strong-dephasing regime.

The population distribution is

    rho(omega) = [N(omega; mu1, sigma) + A * N(omega; mu2, sigma)] / (1 + A)

with N the normalized Gaussian density, mu2 = mu1 + delta_omega and
A in [0, 1].  (The first peak carries weight 1/(1+A), the second A/(1+A).)
The distribution is integrated over the whole real line; for the parameter
regimes of interest (mu1 >> sigma) the omega < 0 tail is below 1e-30, so the
normalization over [0, inf) holds to far better than the 1e-9 test tolerance.

The decoherence function is the characteristic function of the distribution
evaluated at delta_n * tau:

    kappa(tau) = exp(-sigma^2 (delta_n tau)^2 / 2)
                 * (exp(i mu1 delta_n tau) + A exp(i mu2 delta_n tau)) / (1+A)

``decoherence_by_quadrature`` integrates the defining integral directly and is
the independence oracle for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, UnsupportedCaseError, require_bytes

#: a theta_3 series is truncated once the next term drops below this
THETA3_TERM_TOL = 1e-15


@dataclass(frozen=True)
class SpectrumParams:
    """Two-Gaussian environment population distribution.

    amplitude_ratio : A in [0, 1], relative weight of the second peak
    sigma           : common peak width (angular frequency), > 0
    mu1             : center of the first peak
    delta_omega     : peak separation >= 0, so mu2 = mu1 + delta_omega
    """

    amplitude_ratio: float
    sigma: float
    mu1: float
    delta_omega: float

    def __post_init__(self):
        vals = (self.amplitude_ratio, self.sigma, self.mu1, self.delta_omega)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("spectrum parameters must be finite")
        if not 0.0 <= self.amplitude_ratio <= 1.0:
            raise DomainError("amplitude_ratio must lie in [0, 1]")
        if self.sigma <= 0.0:
            raise DomainError("sigma must be positive")
        if self.delta_omega < 0.0:
            raise DomainError("delta_omega must be non-negative")
        if not math.isfinite(self.mu2):
            raise DomainError("mu2 = mu1 + delta_omega must be finite")

    @property
    def mu2(self) -> float:
        return self.mu1 + self.delta_omega

    @property
    def separation_frequency(self) -> float:
        """Peak separation expressed as an ordinary frequency, delta_omega / 2 pi."""
        return self.delta_omega / (2.0 * math.pi)


@dataclass(frozen=True)
class DephasingConfig:
    """Per-step dephasing interaction.

    index_contrast : delta_n, difference of the two refraction indices
    step_duration  : delta_t > 0, duration (thickness) of one dephasing unit
    """

    index_contrast: float
    step_duration: float

    def __post_init__(self):
        if not (math.isfinite(self.index_contrast) and math.isfinite(self.step_duration)):
            raise DomainError("dephasing parameters must be finite")
        if self.step_duration <= 0.0:
            raise DomainError("step_duration must be positive")

    @property
    def period_omega(self) -> float:
        """Frequency period of the single-step transfer matrix, 2 pi / (delta_t delta_n)."""
        dn = abs(self.index_contrast)
        if dn == 0.0:
            return math.inf
        return 2.0 * math.pi / (self.step_duration * dn)

    def phase(self, omega):
        """Dephasing phase angle theta(omega) = delta_n * delta_t * omega."""
        return self.index_contrast * self.step_duration * np.asarray(omega, dtype=float)


def dimensionless_interaction_time(spectrum: SpectrumParams, config: DephasingConfig) -> float:
    """delta_t * (delta_omega / 2 pi) * delta_n, the sweep coordinate of the walk runs."""
    return config.step_duration * spectrum.separation_frequency * config.index_contrast


def spectral_density(params: SpectrumParams, omega):
    """Population density at angular frequency omega (scalar or array), >= 0."""
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise DomainError("omega must be finite")
    norm = 1.0 / (params.sigma * math.sqrt(2.0 * math.pi))
    if not math.isfinite(norm):
        raise DomainError(
            f"sigma = {params.sigma!r} is so small that the density's peak "
            "1/(sigma sqrt(2 pi)) overflows")
    with np.errstate(over="ignore"):  # an overflowing square only means a zero Gaussian
        g1 = np.exp(-0.5 * ((omega - params.mu1) / params.sigma) ** 2)
        g2 = np.exp(-0.5 * ((omega - params.mu2) / params.sigma) ** 2)
    out = norm * (g1 + params.amplitude_ratio * g2) / (1.0 + params.amplitude_ratio)
    if out.ndim == 0:
        return float(out)
    return out


def decoherence_function(params: SpectrumParams, delta_n: float, tau):
    """Closed-form characteristic function kappa(tau) of the spectrum at delta_n * tau.

    Coherences of a dephasing step of duration tau are multiplied by this
    value; kappa(0) = 1 and |kappa| <= 1.
    """
    tau = np.asarray(tau, dtype=float)
    if not (math.isfinite(delta_n) and np.all(np.isfinite(tau))):
        raise DomainError("delta_n and tau must be finite")
    a = params.amplitude_ratio
    phase_arg = delta_n * tau
    # an overflowing exponent only means a zero envelope; an overflowing
    # phase would make exp(1j * phase) NaN, so it is refused
    with np.errstate(over="ignore"):
        envelope = np.exp(-0.5 * (params.sigma * phase_arg) ** 2)
        phase1 = params.mu1 * phase_arg
        phase2 = params.mu2 * phase_arg
    if not (np.all(np.isfinite(phase1)) and np.all(np.isfinite(phase2))):
        raise DomainError(
            "the decoherence phase mu1 * delta_n * tau or mu2 * delta_n * tau overflows "
            f"(mu1 = {params.mu1!r}, mu2 = {params.mu2!r}, delta_n = {delta_n!r}, "
            f"max |tau| = {float(np.max(np.abs(tau))):g})")
    out = envelope * (np.exp(1j * phase1) + a * np.exp(1j * phase2)) / (1.0 + a)
    if out.ndim == 0:
        return complex(out)
    return out


def decoherence_by_quadrature(params: SpectrumParams, delta_n: float, tau: float) -> complex:
    """Direct quadrature of integral d_omega exp(i delta_n omega tau) rho(omega).

    Independent oracle for ``decoherence_function``: composite Gauss-Legendre
    panels sized so that each panel spans at most one sigma and at most half
    an oscillation of the phase factor.  Its 24 nodes per panel are counted
    at 64 bytes each against ``errors.MAX_GRID_BYTES`` (tracemalloc measures
    56 B per node at 10 000 to 200 000 panels), so one call takes at most
    174 762 panels, which bounds |delta_n tau| to about
    174 762 pi / (mu2 - mu1 + 20 sigma).  The panel count stays a float until
    ``errors.require_bytes`` has passed it: an extreme delta_n tau makes it
    infinite or too large for an int.  No command calls it; it is an
    independent reference for tests.
    """
    if not (math.isfinite(delta_n) and math.isfinite(tau)):
        raise DomainError("delta_n and tau must be finite")
    lo = params.mu1 - 10.0 * params.sigma
    hi = params.mu2 + 10.0 * params.sigma
    width = hi - lo
    rate = abs(delta_n * tau)
    n_panels = max(float(np.ceil(width / params.sigma)), float(np.ceil(width * rate / math.pi)), 1.0)
    require_bytes(64 * 24 * n_panels, f"{n_panels:.6g} panels of decoherence quadrature")
    nodes, weights = kernels.composite_gauss_legendre(lo, hi, int(n_panels), 24)
    vals = spectral_density(params, nodes) * np.exp(1j * delta_n * nodes * tau)
    return complex(np.sum(weights * vals))


def theta3(u: float, q: float) -> float:
    """Jacobi theta function theta_3(u, q) = 1 + 2 sum_{n>=1} q^(n^2) cos(2 n u).

    The series is truncated at the first term whose magnitude bound
    2 q^(n^2) falls below ``THETA3_TERM_TOL``.  Requires 0 <= q < 1.  The
    terms are counted at 40 bytes each against ``errors.MAX_GRID_BYTES``
    (tracemalloc measures 32 B per term at 10^5 and 10^6 terms), so q so close
    to 1 that the series needs more than 6 710 886 terms (1 - q below about
    8e-13) is refused rather than silently truncated.  No command calls it;
    ``flatness_factor`` is library-only.
    """
    if not (math.isfinite(u) and math.isfinite(q)):
        raise DomainError("theta3 arguments must be finite")
    if q < 0.0 or q >= 1.0:
        raise DomainError("theta3 requires 0 <= q < 1")
    if q == 0.0:
        return 1.0
    # smallest n with 2 q^(n^2) < tol, straight from the term formula
    n_stop = math.sqrt(math.log(THETA3_TERM_TOL / 2.0) / math.log(q))
    require_bytes(40 * n_stop, f"theta3 at q = {q!r} ({n_stop:.6g} terms)")
    n = np.arange(1, int(math.floor(n_stop)) + 1)
    if n.size == 0:
        return 1.0
    terms = 2.0 * q ** (n * n) * np.cos(2.0 * n * u)
    return 1.0 + float(np.sum(terms))


def flatness_factor(params: SpectrumParams, config: DephasingConfig) -> float:
    """How flat the (single-Gaussian) spectrum looks over one transfer-matrix period.

    Returns theta_3(pi (1/2 - mu1/period), exp(-2 pi^2 sigma^2 / period^2)),
    which tends to 1 as sigma grows past the period: the regime where the
    single-period average of the dynamics becomes exact.  Only defined for a
    single peak (A = 0).
    """
    if params.amplitude_ratio != 0.0:
        raise UnsupportedCaseError(
            "flatness_factor is derived for a single-Gaussian spectrum (A = 0)"
        )
    period = config.period_omega
    if not math.isfinite(period):
        raise DomainError("flatness_factor requires a non-zero index contrast")
    u = math.pi * (0.5 - params.mu1 / period)
    q = math.exp(-2.0 * math.pi ** 2 * params.sigma ** 2 / period ** 2)
    return theta3(u, q)
