"""Spectrum-averaged powers of the single-step Bloch transfer matrix.

Three routes to the m-step dynamical map are provided and cross-checked:

- series engine: M(theta)^m is represented exactly as a matrix-valued
  trigonometric polynomial (coefficients by convolution); averaging against
  the spectrum then reduces to evaluating the closed-form decoherence
  function at integer multiples of the step duration.
  ``series_map_stacks`` evaluates it once per (spectrum, step) pair and
  advances the powers 0..steps of every eta together against those tables.
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

#: most powers of the transfer series held at once, in a ring of full-width
#: bands, so that their spectral averages are contracted in one call; a ring
#: holds as many as fit in ``kernels.CACHE_BYTES``, and at least two
RING_POWERS = 8

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
        return _real(val, "series evaluation")

    def reality_defect(self) -> float:
        flipped = np.conj(self.coeffs[::-1])
        return float(np.max(np.abs(self.coeffs - flipped)))

    def period_average(self) -> np.ndarray:
        """Average over one full period: the zeroth coefficient, which must be real."""
        return _real(self.coefficient(0), "period average")


def _real(values: np.ndarray, what: str) -> np.ndarray:
    """The real part of ``values``, once every imaginary residue is within
    ``REALITY_TOL``."""
    residue = float(abs(values.imag).max())
    if residue > REALITY_TOL:
        raise NumericError(f"{what} has imaginary residue {residue:.3e}")
    return values.real


def identity_series() -> TrigMatrixSeries:
    return TrigMatrixSeries(0, np.eye(3, dtype=complex)[None, :, :].copy())


def series_from_transfer(eta: float) -> TrigMatrixSeries:
    """Degree-1 series of the single-step transfer matrix."""
    return TrigMatrixSeries(1, _transfer_coeffs(eta))


def _transfer_coeffs(eta: float) -> np.ndarray:
    """Coefficients c_-1, c_0, c_1 of the single-step transfer matrix, (3, 3, 3).

    The theta-independent entries (alpha, 0, beta bottom row) sit in the
    zeroth coefficient; the cos/sin entries split evenly between l = +/-1.
    """
    alpha, beta = control_alpha_beta(eta)
    # cos -> (e^{i t} + e^{-i t})/2,  -sin -> (i/2)(e^{i t} - e^{-i t})
    c1 = np.array([
        [-beta / 2.0, 0.5j, alpha / 2.0],
        [-0.5j * beta, -0.5, 0.5j * alpha],
        [0.0, 0.0, 0.0],
    ], dtype=complex)
    coeffs = np.zeros((3, 3, 3), dtype=complex)
    coeffs[0] = c1.conj()
    coeffs[1, 2] = (alpha, 0.0, beta)
    coeffs[2] = c1
    return coeffs


def series_multiply(a: TrigMatrixSeries, b: TrigMatrixSeries) -> TrigMatrixSeries:
    degree = a.degree + b.degree
    if degree > SERIES_DEGREE_CAP:
        raise ResourceLimitError(
            f"series degree {degree} exceeds cap {SERIES_DEGREE_CAP}"
        )
    return TrigMatrixSeries(degree, kernels.series_convolve(a.coeffs, b.coeffs))


def _check_powers(steps: int, degree: int) -> None:
    """Refuse a negative power count, or powers of a degree-``degree`` series
    that would pass ``SERIES_DEGREE_CAP``."""
    if steps < 0:
        raise DomainError("power must be non-negative")
    if steps * degree > SERIES_DEGREE_CAP:
        raise ResourceLimitError(f"series degree {steps * degree} exceeds cap {SERIES_DEGREE_CAP}")


def _power_rings(factors: np.ndarray, steps: int, size: int = 2):
    """Yield (m0, ring) for the powers factors^0 (the identity), ...,
    factors^steps of a stack of coefficient blocks (stack, 2 d + 1, 3, 3),
    one batched convolution per power.  ``ring[i]`` holds the powers m0 + i as
    full-width (stack, 2 steps d + 1, 3, 3) bands centred on l = 0 and zero
    outside their degree; each ring holds ``size`` consecutive powers (the
    last one the rest) and is overwritten once iteration resumes, so memory
    stays linear in ``steps``.  The arguments are checked before any power is
    formed."""
    d = (factors.shape[-3] - 1) // 2
    _check_powers(steps, d)
    degree = steps * d
    width = 2 * degree + 1
    ring = np.zeros((size, len(factors), width, 3, 3), dtype=complex)
    band = ring[0, :, degree:degree + 1]
    band[...] = np.eye(3)
    for m in range(1, steps + 1):
        slot = m % size
        if slot == 0:
            yield m - size, ring
        lo = degree - m * d
        band = kernels.series_convolve(band, factors, out=ring[slot, :, lo:width - lo])
    yield steps - steps % size, ring[:steps % size + 1]


def series_powers(series: TrigMatrixSeries, steps: int):
    """Yield the powers series^0 (the identity), series^1, ..., series^steps,
    one product per power."""
    d = series.degree
    for m0, ring in _power_rings(series.coeffs[None], steps):
        for m, band in enumerate(ring[:, 0], start=m0):
            yield TrigMatrixSeries(m * d, band[(steps - m) * d:(steps + m) * d + 1].copy())


def series_power(series: TrigMatrixSeries, m: int) -> TrigMatrixSeries:
    """m-fold product of the series with itself (m = 0 gives the identity)."""
    for _, ring in _power_rings(series.coeffs[None], m):
        pass
    return TrigMatrixSeries(m * series.degree, ring[-1, 0].copy())


def _kappa_table(spectrum: SpectrumParams, config: DephasingConfig, degree: int) -> np.ndarray:
    """kappa(l delta_t) for l = -degree..degree: the spectral average of
    e^(i l theta) for theta(omega) = delta_n delta_t omega."""
    ls = np.arange(-degree, degree + 1)
    return np.atleast_1d(
        decoherence_function(spectrum, config.index_contrast, ls * config.step_duration))


def integrate_series_against_spectrum(
    series: TrigMatrixSeries, spectrum: SpectrumParams, config: DephasingConfig
) -> np.ndarray:
    """Average the represented matrix over the spectrum, exactly.

    With theta(omega) = delta_n delta_t omega, the spectral average of
    e^(i l theta) is the decoherence function at l * delta_t, so the result is
    sum_l c_l kappa(l delta_t).  The imaginary residue must vanish.
    """
    kappas = _kappa_table(spectrum, config, series.degree)
    return _real(np.einsum("l,lij->ij", kappas, series.coeffs), "spectral average")


def series_map_stacks(etas, steps: int, tables=()):
    """Exact spectrum-averaged maps and single-period averages for every
    control in ``etas`` and m = 0..steps: the maps of every (spectrum, step)
    pair in ``tables`` as one (tables, etas, steps + 1, 3, 3) stack, or None
    without tables (the strong limit is spectrum-free), and the period
    averages as one (etas, steps + 1, 3, 3) stack.

    The decoherence function is evaluated once per table, on l delta_t for
    l = -steps..steps.  The powers of every eta's transfer series advance
    together, one batched convolution per power, and each ring of up to
    ``RING_POWERS`` powers is contracted with every table in one call, over
    the central entries the ring's highest power needs.  The lower powers
    add only exact zeros beyond their degree, and a sum that starts from +0
    is unchanged by them, so every map has the bits of its own per-power
    contraction.  The eta axis is split in chunks so that a ring of two
    powers stays within ``kernels.CACHE_BYTES`` where one eta allows it:
    batching saves call overhead on short bands, and a long band is worked
    on alone, as the per-eta route did.  Both stacks are the real parts of
    complex stacks, strided views: ``maps @ r0`` then takes numpy's non-BLAS
    loop, the loop that a single map's own ``.real`` view takes, so a
    trajectory has the same bits whether its maps are stacked or applied one
    by one.
    """
    factors = np.array([_transfer_coeffs(eta) for eta in etas]).reshape(-1, 3, 3, 3)
    if len(factors) == 0:
        raise DomainError("series_map_stacks needs at least one eta")
    _check_powers(steps, 1)
    tables = list(tables)
    kappas = np.array([_kappa_table(spectrum, config, steps) for spectrum, config in tables])
    exact = np.empty((len(kappas), len(factors), steps + 1, 3, 3), dtype=complex)
    averages = np.empty((len(factors), steps + 1, 3, 3), dtype=complex)
    band_bytes = (2 * steps + 1) * 9 * 16
    chunk = max(1, kernels.CACHE_BYTES // (2 * band_bytes))
    for lo in range(0, len(factors), chunk):
        part = factors[lo:lo + chunk]
        size = min(RING_POWERS, max(2, kernels.CACHE_BYTES // (len(part) * band_bytes)))
        for m0, ring in _power_rings(part, steps, size):
            top = m0 + len(ring)
            averages[lo:lo + chunk, m0:top] = ring[:, :, steps].swapaxes(0, 1)
            if tables:
                central = slice(steps + 1 - top, steps + top)
                np.einsum("cl,kelij->cekij", kappas[:, central], ring[:, :, central],
                          out=exact[:, lo:lo + chunk, m0:top])
    averages = _real(averages, "period average")
    if not tables:
        return None, averages
    return _real(exact, "spectral average"), averages


def series_maps(eta: float, steps: int, spectrum: SpectrumParams | None = None,
                config: DephasingConfig | None = None):
    """Exact spectrum-averaged maps and single-period averages for
    m = 0..steps, as two (steps + 1, 3, 3) stacks: the series counterpart of
    ``quadrature_maps`` and the one-eta entry of ``series_map_stacks``.
    Without a spectrum only the period averages are formed and the exact
    stack is None."""
    if (spectrum is None) != (config is None):
        raise DomainError("series_maps needs both a spectrum and a dephasing step, or neither")
    tables = () if spectrum is None else ((spectrum, config),)
    exact, averages = series_map_stacks((eta,), steps, tables)
    return (None if exact is None else exact[0, 0]), averages[0]


def _quadrature_nodes(spectrum: SpectrumParams, config: DephasingConfig, order: int):
    """Composite Gauss-Legendre grid over the spectral support.

    The support [mu1 - 8 sigma, mu2 + 8 sigma] is cut into one interval per
    period of the transfer matrix (the integrand oscillates with up to m full
    cycles per period), and any interval longer than two sigma is subdivided
    so the Gaussian factor is always well resolved.  The panel counts stay
    floats until the node cap has passed them: an extreme spectrum makes
    them infinite or too large for an int.  A support within the budget whose
    panel midpoints (the sum of two edges) or phases delta_n delta_t omega
    overflow is refused by name.
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
    scale = config.index_contrast * config.step_duration
    if not all(math.isfinite(v) for v in (lo + lo, hi + hi, scale * lo, scale * hi)):
        raise DomainError(
            "the quadrature support [mu1 - 8 sigma, mu2 + 8 sigma] or its phase "
            f"delta_n * delta_t * omega overflows (mu1 = {spectrum.mu1!r}, "
            f"mu2 = {spectrum.mu2!r}, sigma = {spectrum.sigma!r}, "
            f"delta_n = {config.index_contrast!r}, delta_t = {config.step_duration!r})")
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
    A spectrum whose decoherence phase overflows over the run is refused
    before any node is built, by the same error as on the series engine.
    """
    if steps < 0:
        raise DomainError("steps must be non-negative")
    alpha, beta = control_alpha_beta(eta)
    decoherence_function(spectrum, config.index_contrast, steps * config.step_duration)
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
    return series_maps(eta, m)[1][m]


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


def _catalan_sums(k: int) -> tuple[list[float], list[float]]:
    """a_i and b_i for i = 0..k from one running pass (empty for k < 0), with
    a stable term recurrence (C(i+1)/4^(i+1) = C(i)/4^i * (2i+1)/(2i+4))."""
    a_sums = []
    b_sums = []
    a = 0.0
    b = 0.0
    term = 1.0  # C(i)/4^i with alternating sign folded in below
    sign = 1.0
    for i in range(k + 1):
        a += 0.5 * sign * (2 * i + 1) * term
        b += 0.5 * sign * term
        a_sums.append(a)
        b_sums.append(b)
        term *= (2.0 * i + 1.0) / (2.0 * i + 4.0)
        sign = -sign
    return a_sums, b_sums


def catalan_coeffs(k: int) -> CatalanCoeffs:
    """a_k = 1/2 sum_{i<=k} (2i+1) C(i)/(-4)^i, b_k = 1/2 sum_{i<=k} C(i)/(-4)^i.

    By convention a_k = b_k = 0 for k < 0.  These are the unique coefficients
    consistent with the period-average oracle ``strong_limit_map``; they are
    the last partial sums of ``_catalan_sums(k)``.
    """
    if k < 0:
        return CatalanCoeffs(k, 0.0, 0.0)
    a_sums, b_sums = _catalan_sums(k)
    return CatalanCoeffs(k, a_sums[-1], b_sums[-1])


def strong_limit_closed_forms(steps: int) -> np.ndarray:
    """Closed forms of the period-average maps for the balanced control
    (eta = 1/2) at every m = 0..steps, as a (steps + 1, 3, 3) stack, from one
    pass of Catalan partial sums.

    With j = ceil(m / 2), an even m >= 2 gives [[a_{j-2}, 0, a_{j-1}],
    [0, b_{j-1}, 0], [a_{j-2}, 0, a_{j-2}]] and an odd m >= 3 gives
    [[a_{j-2}, 0, a_{j-2}], [0, b_{j-2}, 0], [a_{j-3}, 0, a_{j-2}]].
    """
    if steps < 0:
        raise DomainError("m must be non-negative")
    a_sums, b_sums = _catalan_sums(steps // 2 - 1)
    # three leading zeros: a_k = b_k = 0 for k = -3, -2, -1
    a = np.array([0.0, 0.0, 0.0, *a_sums])
    b = np.array([0.0, 0.0, 0.0, *b_sums])
    m = np.arange(steps + 1)
    j = (m + 1) // 2 + 3  # ceil(m / 2), offset past the leading zeros
    odd = m % 2
    out = np.zeros((steps + 1, 3, 3))
    out[:, 0, 0] = out[:, 2, 2] = a[j - 2]
    out[:, 0, 2] = a[j - 1 - odd]
    out[:, 1, 1] = b[j - 1 - odd]
    out[:, 2, 0] = a[j - 2 - odd]
    out[0] = np.eye(3)
    if steps >= 1:
        out[1] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    return out


def strong_limit_closed_form(m: int, infinite: bool = False) -> np.ndarray:
    """Closed form of the period-average map for the balanced control (eta = 1/2):
    the last of ``strong_limit_closed_forms(m)``.

    ``infinite=True`` returns the limiting map, whose entries are the analytic
    limits of the coefficient sequences.
    """
    if infinite:
        a = CATALAN_LIMIT_A
        b = CATALAN_LIMIT_B
        return np.array([[a, 0.0, a], [0.0, b, 0.0], [a, 0.0, a]])
    return strong_limit_closed_forms(m)[m]


#: sigma_i (x) sigma_k^T for i, k over x, y, z
_CHOI_BASIS = np.array([[np.kron(p, q.T) for q in PAULI] for p in PAULI])


def channel_choi(transfer: np.ndarray) -> np.ndarray:
    """Choi matrix of the unital qubit channel with Bloch transfer matrix T:
    (1/4)(I (x) I + sum_ik T_ik sigma_i (x) sigma_k^T)."""
    return 0.25 * np.eye(4, dtype=complex) + np.tensordot(0.25 * np.asarray(transfer), _CHOI_BASIS, 2)


def channel_distance(t1: np.ndarray, t2: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of the Choi-matrix difference: a metric on unital
    qubit channels, zero iff the transfer matrices coincide.  Stacks of
    transfer matrices, shape (..., 3, 3), are solved in one eigensolve and
    give an array of distances; one pair gives a float."""
    d = np.asarray(t1, dtype=float) - np.asarray(t2, dtype=float)
    vals = kernels.hermitian_eigvals(np.tensordot(0.25 * d, _CHOI_BASIS, 2))
    distances = 0.5 * np.sum(np.abs(vals), axis=-1)
    return float(distances) if distances.ndim == 0 else distances


def approximation_error_stack(etas, steps: int, spectrum: SpectrumParams, configs,
                              engine: str = "series") -> np.ndarray:
    """``approximation_errors`` for every dephasing step in ``configs`` and
    control in ``etas``, shape (configs, etas, steps + 1), from one
    ``series_map_stacks`` call (plus one quadrature walk per pair for the
    quadrature engine) and one stacked channel distance."""
    if engine == "series":
        exact, averages = series_map_stacks(etas, steps, [(spectrum, config) for config in configs])
    elif engine == "quadrature":
        exact = np.array([[quadrature_maps(eta, steps, spectrum, config) for eta in etas]
                          for config in configs])
        averages = series_map_stacks(etas, steps)[1]
    else:
        raise DomainError(f"unknown engine {engine!r}")
    return channel_distance(exact, averages)


def approximation_errors(eta: float, steps: int, spectrum: SpectrumParams,
                         config: DephasingConfig, engine: str = "series") -> np.ndarray:
    """``approximation_error`` for m = 0..steps: the one-eta, one-step entry
    of ``approximation_error_stack``."""
    return approximation_error_stack((eta,), steps, spectrum, (config,), engine)[0, 0]


def approximation_error(eta: float, m: int, spectrum: SpectrumParams,
                        config: DephasingConfig, engine: str = "series") -> float:
    """Channel distance between the exact spectrum-averaged m-step map and the
    single-period-average map, the power's zeroth coefficient."""
    return float(approximation_errors(eta, m, spectrum, config, engine)[m])
