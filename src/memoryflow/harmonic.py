"""Spectrum-averaged powers of the single-step Bloch transfer matrix.

Three routes to the m-step dynamical map are provided and cross-checked:

- series engine: M(theta)^m is represented exactly as a matrix-valued
  trigonometric polynomial (coefficients by convolution); averaging against
  the spectrum then reduces to evaluating the closed-form decoherence
  function at integer multiples of the step duration.
- quadrature engine: direct per-period composite Gauss-Legendre integration
  of the highly oscillatory integrand; ``quadrature_maps`` walks
  P <- P M(theta) once over the nodes of the largest order a run needs and
  averages every power on the way.
- strong-dephasing limit: the zeroth Fourier coefficient, i.e. the average of
  M(theta)^m over a single period.  For the balanced control (eta = 1/2) this
  has a closed form built from Catalan-number partial sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, NumericError, ResourceLimitError
from .qubit import PAULI, control_alpha_beta
from .spectra import DephasingConfig, SpectrumParams, decoherence_function, spectral_density

#: maximum trigonometric degree a series power may reach
SERIES_DEGREE_CAP = 4096

#: maximum total node count (intervals x order) the quadrature engine may use
QUADRATURE_NODE_CAP = 2_000_000

#: required agreement between the series and quadrature engines
ENGINE_AGREEMENT_TOL = 1e-8

#: residual imaginary part allowed when a series average is cast to real
REALITY_TOL = 1e-10

SQRT2 = math.sqrt(2.0)

#: limits of the Catalan coefficient sequences (values of the alternating
#: series; the partial sums approach them only algebraically, ~k^(-1/2) for a
#: and ~k^(-3/2) for b; the Euler transform of the finite partial sums
#: reaches these limits, to 1e-16 from k <= 60)
CATALAN_LIMIT_A = 1.0 - 1.0 / SQRT2
CATALAN_LIMIT_B = SQRT2 - 1.0


@dataclass(frozen=True)
class TrigMatrixSeries:
    """M(theta) = sum_{l=-d..d} coeffs[d+l] e^(i l theta) with 3x3 matrix coefficients.

    Reality of the represented matrix for real theta is encoded as
    c_{-l} = conj(c_l).
    """

    degree: int
    coeffs: np.ndarray  # shape (2*degree + 1, 3, 3), complex

    def __post_init__(self):
        if self.degree < 0 or self.coeffs.shape != (2 * self.degree + 1, 3, 3):
            raise DomainError("inconsistent series degree and coefficient block")

    def coefficient(self, l: int) -> np.ndarray:
        if abs(l) > self.degree:
            return np.zeros((3, 3), dtype=complex)
        return self.coeffs[self.degree + l]

    def evaluate(self, theta: float) -> np.ndarray:
        ls = np.arange(-self.degree, self.degree + 1)
        phases = np.exp(1j * ls * theta)
        val = np.einsum("l,lij->ij", phases, self.coeffs)
        if np.max(np.abs(val.imag)) > REALITY_TOL:
            raise NumericError("series evaluation produced a non-real matrix")
        return val.real

    def reality_defect(self) -> float:
        flipped = np.conj(self.coeffs[::-1])
        return float(np.max(np.abs(self.coeffs - flipped)))

    def period_average(self) -> np.ndarray:
        """Average over one full period: the zeroth coefficient, which must be real."""
        c0 = self.coefficient(0)
        if np.max(np.abs(c0.imag)) > REALITY_TOL:
            raise NumericError("period average has a non-real residue")
        return c0.real


def identity_series() -> TrigMatrixSeries:
    return TrigMatrixSeries(0, np.eye(3, dtype=complex)[None, :, :].copy())


def series_from_transfer(eta: float) -> TrigMatrixSeries:
    """Degree-1 series of the single-step transfer matrix.

    The theta-independent entries (alpha, 0, beta bottom row) sit in the
    zeroth coefficient; the cos/sin entries split evenly between l = +/-1.
    """
    alpha, beta = control_alpha_beta(eta)
    c0 = np.zeros((3, 3), dtype=complex)
    c0[2] = (alpha, 0.0, beta)
    # cos -> (e^{i t} + e^{-i t})/2,  -sin -> (i/2)(e^{i t} - e^{-i t})
    c1 = np.array([
        [-beta / 2.0, 0.5j, alpha / 2.0],
        [-0.5j * beta, -0.5, 0.5j * alpha],
        [0.0, 0.0, 0.0],
    ], dtype=complex)
    coeffs = np.stack([np.conj(c1), c0, c1])
    return TrigMatrixSeries(1, coeffs)


def series_multiply(a: TrigMatrixSeries, b: TrigMatrixSeries) -> TrigMatrixSeries:
    degree = a.degree + b.degree
    if degree > SERIES_DEGREE_CAP:
        raise ResourceLimitError(
            f"series degree {degree} exceeds cap {SERIES_DEGREE_CAP}"
        )
    return TrigMatrixSeries(degree, kernels.series_convolve(a.coeffs, b.coeffs))


def series_powers(series: TrigMatrixSeries, steps: int):
    """Yield the powers series^0 (the identity), series^1, ..., series^steps,
    one product per power."""
    if steps < 0:
        raise DomainError("power must be non-negative")
    power = identity_series()
    yield power
    for _ in range(steps):
        power = series_multiply(power, series)
        yield power


def series_power(series: TrigMatrixSeries, m: int) -> TrigMatrixSeries:
    """m-fold product of the series with itself (m = 0 gives the identity)."""
    for power in series_powers(series, m):
        pass
    return power


def integrate_series_against_spectrum(
    series: TrigMatrixSeries, spectrum: SpectrumParams, config: DephasingConfig
) -> np.ndarray:
    """Average the represented matrix over the spectrum, exactly.

    With theta(omega) = delta_n delta_t omega, the spectral average of
    e^(i l theta) is the decoherence function at l * delta_t, so the result is
    sum_l c_l kappa(l delta_t).  The imaginary residue must vanish.
    """
    ls = np.arange(-series.degree, series.degree + 1)
    kappas = decoherence_function(spectrum, config.index_contrast, ls * config.step_duration)
    kappas = np.atleast_1d(kappas)
    acc = np.einsum("l,lij->ij", kappas, series.coeffs)
    if np.max(np.abs(acc.imag)) > REALITY_TOL:
        raise NumericError(
            f"spectral average has imaginary residue {np.max(np.abs(acc.imag)):.3e}"
        )
    return acc.real


def _quadrature_nodes(spectrum: SpectrumParams, config: DephasingConfig, order: int):
    """Composite Gauss-Legendre grid over the spectral support.

    The support [mu1 - 8 sigma, mu2 + 8 sigma] is cut into one interval per
    period of the transfer matrix (the integrand oscillates with up to m full
    cycles per period), and any interval longer than two sigma is subdivided
    so the Gaussian factor is always well resolved.  The panel counts stay
    floats until the node cap has passed them: an extreme spectrum makes
    them infinite or too large for an int.
    """
    lo = spectrum.mu1 - 8.0 * spectrum.sigma
    hi = spectrum.mu2 + 8.0 * spectrum.sigma
    period = config.period_omega
    width = hi - lo
    n_periods = max(1.0, float(np.ceil(width / period))) if math.isfinite(period) else 1.0
    per_len = width / n_periods
    sub = max(1.0, float(np.ceil(per_len / (2.0 * spectrum.sigma))))
    panels = n_periods * sub
    if not panels * order <= QUADRATURE_NODE_CAP:
        raise ResourceLimitError(
            f"quadrature budget exceeded: {panels:.6g} panels x order {order}"
        )
    return kernels.composite_gauss_legendre(lo, hi, int(panels), order)


def quadrature_maps(
    eta: float, steps: int, spectrum: SpectrumParams, config: DephasingConfig
) -> np.ndarray:
    """Maps for m = 0..steps by direct oscillatory quadrature of the spectral
    average, shape (steps + 1, 3, 3): the quadrature counterpart of
    ``series_powers``.

    Gauss-Legendre order max(16, 2 steps + 8) per panel: the integrand of the
    m-th map carries harmonics up to degree m per period, and an n-point rule
    resolves them superexponentially once n exceeds about pi m / 2.  The
    order the largest power needs serves every power, and one walk
    P <- P M over its nodes yields them all.  The m = 0 entry is the
    quadrature of the spectral density alone, 1 up to the rule's error.
    """
    if steps < 0:
        raise DomainError("steps must be non-negative")
    alpha, beta = control_alpha_beta(eta)
    order = max(16, 2 * steps + 8)
    nodes, weights = _quadrature_nodes(spectrum, config, order)
    thetas = config.index_contrast * config.step_duration * nodes
    weights = weights * spectral_density(spectrum, nodes)
    return kernels.transfer_power_average(thetas, weights, alpha, beta, steps)


def quadrature_map(
    eta: float, m: int, spectrum: SpectrumParams, config: DephasingConfig
) -> np.ndarray:
    """m-step map by direct oscillatory quadrature: the last of
    ``quadrature_maps(eta, m, ...)``, at order max(16, 2m + 8)."""
    return quadrature_maps(eta, m, spectrum, config)[m]


def strong_limit_map(eta: float, m: int) -> np.ndarray:
    """Average of M(theta)^m over one full period: the zeroth Fourier
    coefficient of the series power.  Exact, spectrum-free."""
    return series_power(series_from_transfer(eta), m).period_average()


def catalan(k: int) -> int:
    """Catalan number C(k) = binom(2k, k) / (k + 1), exact integer."""
    if k < 0:
        raise DomainError("Catalan numbers need k >= 0")
    return math.comb(2 * k, k) // (k + 1)


@dataclass(frozen=True)
class CatalanCoeffs:
    """Partial sums a_k, b_k entering the closed-form period-average maps."""

    k: int
    a: float
    b: float


def catalan_coeffs(k: int) -> CatalanCoeffs:
    """a_k = 1/2 sum_{i<=k} (2i+1) C(i)/(-4)^i, b_k = 1/2 sum_{i<=k} C(i)/(-4)^i.

    By convention a_k = b_k = 0 for k < 0.  These are the unique coefficients
    consistent with the period-average oracle ``strong_limit_map``; computed
    with a stable term recurrence (C(i+1)/4^(i+1) = C(i)/4^i * (2i+1)/(2i+4)).
    """
    if k < 0:
        return CatalanCoeffs(k, 0.0, 0.0)
    a = 0.0
    b = 0.0
    term = 1.0  # C(i)/4^i with alternating sign folded in below
    sign = 1.0
    for i in range(k + 1):
        a += 0.5 * sign * (2 * i + 1) * term
        b += 0.5 * sign * term
        term *= (2.0 * i + 1.0) / (2.0 * i + 4.0)
        sign = -sign
    return CatalanCoeffs(k, a, b)


def strong_limit_closed_form(m: int, infinite: bool = False) -> np.ndarray:
    """Closed form of the period-average map for the balanced control (eta = 1/2).

    ``infinite=True`` returns the limiting map, whose entries are the analytic
    limits of the coefficient sequences.
    """
    if infinite:
        a = CATALAN_LIMIT_A
        b = CATALAN_LIMIT_B
        return np.array([[a, 0.0, a], [0.0, b, 0.0], [a, 0.0, a]])
    if m < 0:
        raise DomainError("m must be non-negative")
    if m == 0:
        return np.eye(3)
    if m == 1:
        return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    if m % 2 == 0:
        j = m // 2
        a2 = catalan_coeffs(j - 2).a
        a1 = catalan_coeffs(j - 1).a
        b1 = catalan_coeffs(j - 1).b
        return np.array([[a2, 0.0, a1], [0.0, b1, 0.0], [a2, 0.0, a2]])
    j = (m + 1) // 2
    a2 = catalan_coeffs(j - 2).a
    a3 = catalan_coeffs(j - 3).a
    b2 = catalan_coeffs(j - 2).b
    return np.array([[a2, 0.0, a2], [0.0, b2, 0.0], [a3, 0.0, a2]])


#: sigma_i (x) sigma_k^T for i, k over x, y, z
_CHOI_BASIS = np.array([[np.kron(p, q.T) for q in PAULI] for p in PAULI])


def channel_choi(transfer: np.ndarray) -> np.ndarray:
    """Choi matrix of the unital qubit channel with Bloch transfer matrix T:
    (1/4)(I (x) I + sum_ik T_ik sigma_i (x) sigma_k^T)."""
    return 0.25 * np.eye(4, dtype=complex) + np.tensordot(0.25 * np.asarray(transfer), _CHOI_BASIS, 2)


def channel_distance(t1: np.ndarray, t2: np.ndarray) -> float:
    """Half the trace norm of the Choi-matrix difference: a metric on unital
    qubit channels, zero iff the transfer matrices coincide."""
    d = np.asarray(t1, dtype=float) - np.asarray(t2, dtype=float)
    vals = kernels.hermitian_eigvals(np.tensordot(0.25 * d, _CHOI_BASIS, 2))
    return 0.5 * float(np.sum(np.abs(vals)))


def _exact_maps(engine: str, eta: float, steps: int, spectrum: SpectrumParams,
                config: DephasingConfig):
    """The engine's exact spectrum-averaged map of a power m <= steps, as a
    function of (m, power); the quadrature engine walks its powers once here."""
    if engine == "series":
        return lambda m, power: integrate_series_against_spectrum(power, spectrum, config)
    if engine == "quadrature":
        quad = quadrature_maps(eta, steps, spectrum, config)
        return lambda m, power: quad[m]
    raise DomainError(f"unknown engine {engine!r}")


def approximation_errors(eta: float, steps: int, spectrum: SpectrumParams,
                         config: DephasingConfig, engine: str = "series") -> np.ndarray:
    """``approximation_error`` for m = 0..steps from one walk of the series
    power (and one quadrature walk for the quadrature engine)."""
    exact = _exact_maps(engine, eta, steps, spectrum, config)
    powers = enumerate(series_powers(series_from_transfer(eta), steps))
    return np.array([channel_distance(exact(m, p), p.period_average()) for m, p in powers])


def approximation_error(eta: float, m: int, spectrum: SpectrumParams,
                        config: DephasingConfig, engine: str = "series") -> float:
    """Channel distance between the exact spectrum-averaged m-step map and the
    single-period-average map, the power's zeroth coefficient."""
    power = series_power(series_from_transfer(eta), m)
    exact = _exact_maps(engine, eta, m, spectrum, config)
    return channel_distance(exact(m, power), power.period_average())
