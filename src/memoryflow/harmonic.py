"""Spectrum-averaged powers of the single-step Bloch transfer matrix.

Three routes to the m-step dynamical map are provided and cross-checked.  All
three are weighted sums of M(theta)^m over nodes, walked by one kernel,
``kernels.transfer_power_average``; they differ only in their nodes and weights:

- series engine: M(theta)^m is a trigonometric polynomial of degree m, so its
  spectral average sum_l c_l kappa(l delta_t), with kappa the closed-form
  decoherence function, is exact on the 2 steps + 1 equispaced period nodes
  with one weight row per table, from the kappa table of a (spectrum, step)
  pair.  ``series_map_stacks`` walks every eta, power and table at once.
  ``TrigMatrixSeries`` and ``series_multiply`` keep the coefficients
  themselves, as an independent reference.
- quadrature engine: direct composite Gauss-Legendre integration of the
  highly oscillatory integrand over the peaks that carry weight, each panel
  at most one period long and at the order the phase it spans needs for the
  largest power; ``quadrature_map_stacks`` walks P <- P M(theta) for every
  eta once over those nodes and averages every power on the way.
- strong-dephasing limit: the zeroth Fourier coefficient, i.e. the average of
  M(theta)^m over a single period: the period nodes with equal weights, the
  None table of either engine.  For the balanced control (eta = 1/2) this
  has a closed form built from Catalan-number partial sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, NumericError, ResourceLimitError, require_bytes
from .qubit import PAULI, control_alpha_beta, transfer_map_stacks
from .spectra import DephasingConfig, SpectrumParams, decoherence_function, spectral_density

#: maximum trigonometric degree a series power may reach: a work cap, not a
#: memory one.  ``series_map_stacks`` at 4096 steps and three eta values takes
#: about 2.2 s and 6.5 MB with one entry (2.7 s and 7.4 MB with two); its
#: memory grows linearly with the degree, its time quadratically
SERIES_DEGREE_CAP = 4096

#: bytes a qubit engine holds per node and eta: the nodes, their phases and
#: weights, cos and sin, and three node-last 3x3 float64 matrices per eta in
#: ``kernels.transfer_power_average`` (M, the running power and its next
#: value), 32 float64 in all.  tracemalloc measures 256 B per node over a whole
#: one-eta ``quadrature_map_stacks`` walk at 4 000-250 000 nodes; counted with 4
#: float64 to spare.  ``series_map_bytes`` counts each series walk in it too
NODE_BYTES = 288

#: required agreement between the series and quadrature engines
ENGINE_AGREEMENT_TOL = 1e-8

#: residual imaginary part allowed when a series value or node weight is cast
#: to real
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
    _check_powers(1, degree)
    return TrigMatrixSeries(degree, kernels.series_convolve(a.coeffs, b.coeffs))


def _check_powers(steps: int, degree: int) -> None:
    """Refuse a negative power count, or powers of a degree-``degree`` series
    that would pass ``SERIES_DEGREE_CAP``."""
    if steps < 0:
        raise DomainError("power must be non-negative")
    if steps * degree > SERIES_DEGREE_CAP:
        raise ResourceLimitError(f"series degree {steps * degree} exceeds cap {SERIES_DEGREE_CAP}")


def series_powers(series: TrigMatrixSeries, steps: int):
    """Yield the powers series^0 (the identity), series^1, ..., series^steps,
    one ``series_multiply`` per power."""
    _check_powers(steps, series.degree)
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


def _period_nodes(steps: int, tables) -> tuple[np.ndarray, np.ndarray]:
    """The N = 2 steps + 1 phases theta_j = 2 pi j / N, and one row of weights
    per entry of ``tables`` that averages any trigonometric polynomial of
    degree <= steps exactly: w_j = (1/N) sum_{|l|<=steps} kappa(l delta_t)
    e^(-i l theta_j) for a (spectrum, step) pair, 1/N for None.  The sums are
    one FFT of the pairs' tables with l = 0 moved first; its imaginary
    residue must vanish."""
    n = 2 * steps + 1
    thetas = 2.0 * math.pi / n * np.arange(n)
    weights = np.full((len(tables), n), 1.0 / n)
    pairs = [t for t, table in enumerate(tables) if table is not None]
    if pairs:
        # column l + steps holds kappa(l delta_t); numpy.fft loads on first use
        kappas = np.array([_kappa_table(*tables[t], steps) for t in pairs])
        sums = np.fft.fft(np.fft.ifftshift(kappas, axes=-1))
        weights[pairs] = _real(sums, "spectral weights") / n
    return thetas, weights


def series_map_bytes(etas: int, steps: int, tables: int) -> int:
    """Bytes ``series_map_stacks`` holds for ``etas`` controls, m = 0..steps and
    ``tables`` entries, at ``NODE_BYTES`` per node and eta: the walk over the
    2 steps + 1 period nodes, and the averaged maps of every power and entry
    counted as one node each.  tracemalloc measures, warm, 0.58-0.70 of it
    with one entry at 3-200 etas and 30-1024 steps (5.23 MB at 40 x 256,
    103.4 MB at 200 x 1024), and 0.51 with two entries at 40 x 256."""
    return NODE_BYTES * etas * (2 * steps + 1 + (steps + 1) * tables)


def _require_period_walk(etas: int, steps: int, tables: int) -> None:
    """Refuse a period walk past ``SERIES_DEGREE_CAP`` or the byte budget."""
    _check_powers(steps, 1)
    require_bytes(series_map_bytes(etas, steps, tables),
                  f"{steps} steps x {etas} etas x {tables} tables")


def series_map_stacks(etas, steps: int, tables) -> np.ndarray:
    """Exact maps for every control in ``etas`` and m = 0..steps, one
    (etas, steps + 1, 3, 3) stack per entry of ``tables``, in order: the
    spectrum-averaged maps of a (spectrum, step) pair, or for None, the
    strong limit, the single-period averages.

    M(theta)^m is a trigonometric polynomial of degree m <= steps, so both its
    spectral average sum_l c_l kappa(l delta_t) and its period average c_0 are
    exact weighted sums over the nodes of ``_period_nodes``, and one
    ``kernels.transfer_power_average`` walk averages every control, power and
    entry.  The m = 0 maps, which the weights give up to rounding, are set to
    the identity.  Every eta and entry keeps the bits of its own call, and
    each stack is contiguous, so ``maps @ r0`` takes one loop stacked or
    alone.  A run whose ``series_map_bytes`` exceed ``errors.MAX_GRID_BYTES``
    is refused before any table is built.
    """
    controls = np.array([control_alpha_beta(eta) for eta in etas]).reshape(-1, 2)
    if len(controls) == 0:
        raise DomainError("series_map_stacks needs at least one eta")
    tables = list(tables)
    _require_period_walk(len(controls), steps, len(tables))
    if not tables:
        return np.empty((0, len(controls), steps + 1, 3, 3))
    thetas, weights = _period_nodes(steps, tables)
    stacks = kernels.transfer_power_average(thetas, weights, controls[:, 0], controls[:, 1], steps)
    stacks = np.ascontiguousarray(stacks.transpose(1, 2, 0, 3, 4))
    stacks[:, :, 0] = np.eye(3)
    return stacks


def _quadrature_support(spectrum: SpectrumParams, config: DephasingConfig, steps: int,
                        etas: int) -> tuple[float, float, int, int]:
    """The spectral support (lo, hi) of ``_quadrature_nodes``, its panel count
    and its Gauss-Legendre order per panel for powers m <= ``steps``, once the
    nodes have been counted.

    The support runs from mu1 - 8 sigma to mu2 + 8 sigma, or to mu1 + 8 sigma
    when the second peak has no weight (A = 0).  It is cut into one interval
    per period of the transfer matrix, and any interval longer than two sigma
    is subdivided so the Gaussian factor is always well resolved.  The
    integrand of the m-th power carries harmonics up to degree m per period,
    so a panel spanning the fraction s of a period, in [0, 1] and 0 without
    index contrast, holds at most m s of their cycles: the order
    ceil(2 steps s) + 20 resolves them and the Gaussian factor.  The nodes
    are counted at ``NODE_BYTES`` per node and eta walked on them against
    ``errors.MAX_GRID_BYTES``, with the panel count and the order kept as
    floats until ``errors.require_bytes`` has passed them: an extreme
    spectrum makes them infinite, NaN or too large for an int.  A support
    within the budget whose panel midpoints (the sum of two edges) or phases
    delta_n delta_t omega overflow is refused by name.
    """
    lo = spectrum.mu1 - 8.0 * spectrum.sigma
    hi = (spectrum.mu2 if spectrum.amplitude_ratio else spectrum.mu1) + 8.0 * spectrum.sigma
    period = config.period_omega
    width = hi - lo
    n_periods = max(1.0, float(np.ceil(width / period))) if math.isfinite(period) else 1.0
    per_len = width / n_periods
    sub = max(1.0, float(np.ceil(per_len / (2.0 * spectrum.sigma))))
    panels = n_periods * sub
    # the fraction of a period one panel spans: 1 where an infinite support
    # makes it inf / inf
    span = per_len / sub / period if math.isfinite(period) else 0.0
    span = min(span, 1.0) if math.isfinite(span) else 1.0
    order = float(np.ceil(2.0 * steps * span)) + 20.0
    require_bytes(NODE_BYTES * panels * order * etas,
                  f"the quadrature support of the spectrum and step ({panels:.6g} panels x "
                  f"order {order:.6g} x {etas} etas)")
    scale = config.index_contrast * config.step_duration
    if not all(math.isfinite(v) for v in (lo + lo, hi + hi, scale * lo, scale * hi)):
        raise DomainError(
            f"the quadrature support [{lo!r}, {hi!r}] or its phase "
            f"delta_n * delta_t * omega overflows (mu1 = {spectrum.mu1!r}, "
            f"mu2 = {spectrum.mu2!r}, sigma = {spectrum.sigma!r}, "
            f"delta_n = {config.index_contrast!r}, delta_t = {config.step_duration!r})")
    return lo, hi, int(panels), int(order)


def _quadrature_nodes(spectrum: SpectrumParams, config: DephasingConfig, steps: int, etas: int):
    """Composite Gauss-Legendre grid over the spectral support, at the order
    per panel of ``_quadrature_support`` for powers m <= ``steps``."""
    lo, hi, panels, order = _quadrature_support(spectrum, config, steps, etas)
    return kernels.composite_gauss_legendre(lo, hi, panels, order)


def quadrature_map_stacks(etas, steps: int, tables):
    """One (etas, steps + 1, 3, 3) stack per entry of ``tables``, as
    ``series_map_stacks`` takes them, one at a time: for a (spectrum, step)
    pair the maps of every control in ``etas`` and m = 0..steps by direct
    oscillatory quadrature of the spectral average, one walk P <- P M over
    the nodes of ``_quadrature_support``, whose order the largest power needs
    and every power shares, each eta with the bits of its own call (the m = 0
    entry is the quadrature of the spectral density alone); for None the
    series engine's own stack.  Every entry is counted before any walk: each
    pair's decoherence phase over the run, whose overflow is refused as on
    the series engine, and its ``_quadrature_support``, then the None walk,
    so a run whose later entry exceeds ``errors.MAX_GRID_BYTES`` is refused
    before any map is made."""
    if steps < 0:
        raise DomainError("steps must be non-negative")
    controls = np.array([control_alpha_beta(eta) for eta in etas]).reshape(-1, 2)
    if len(controls) == 0:
        raise DomainError("quadrature_map_stacks needs at least one eta")
    tables = list(tables)
    for spectrum, config in filter(None, tables):
        decoherence_function(spectrum, config.index_contrast, steps * config.step_duration)
        _quadrature_support(spectrum, config, steps, len(controls))
    if None in tables:
        _require_period_walk(len(controls), steps, 1)
    for table in tables:
        yield (series_map_stacks(etas, steps, [None])[0] if table is None
               else _quadrature_walk(controls, steps, *table))


def _quadrature_walk(controls, steps: int, spectrum: SpectrumParams,
                     config: DephasingConfig) -> np.ndarray:
    """One pair's maps of ``quadrature_map_stacks``; its nodes go when it returns."""
    nodes, weights = _quadrature_nodes(spectrum, config, steps, len(controls))
    thetas = config.index_contrast * config.step_duration * nodes
    weights = weights * spectral_density(spectrum, nodes)
    maps = kernels.transfer_power_average(thetas, weights, controls[:, 0], controls[:, 1], steps)
    return np.ascontiguousarray(maps.swapaxes(0, 1))


def quadrature_map(
    eta: float, m: int, spectrum: SpectrumParams, config: DephasingConfig
) -> np.ndarray:
    """m-step map by direct oscillatory quadrature: the last of the one-eta
    ``quadrature_map_stacks`` stack for (spectrum, config), at the order its
    panels need for powers up to m."""
    return next(quadrature_map_stacks((eta,), m, [(spectrum, config)]))[0, m]


def strong_limit_map(eta: float, m: int) -> np.ndarray:
    """Average of M(theta)^m over one full period: the zeroth Fourier
    coefficient of the series power: the None stack.  Exact, spectrum-free."""
    return series_map_stacks((eta,), m, [None])[0, 0, m]


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


#: sigma_i (x) sigma_k^T for i, k over x, y, z: entry (2a + c, 2b + d) of
#: block (i, k) is sigma_i[a, b] sigma_k[d, c]
_CHOI_BASIS = (np.asarray(PAULI)[:, None, :, None, :, None]
               * np.swapaxes(PAULI, 1, 2)[None, :, None, :, None, :]).reshape(3, 3, 4, 4)


def channel_distance(t1: np.ndarray, t2: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of the Choi-matrix difference: a metric on unital
    qubit channels, zero iff the transfer matrices coincide.  Stacks of
    transfer matrices, shape (..., 3, 3), are solved in one eigensolve and
    give an array of distances; one pair gives a float.  The kernel refuses a
    non-finite entry: an inf times the basis's zeros leaves a NaN."""
    d = np.asarray(t1, dtype=float) - np.asarray(t2, dtype=float)
    with np.errstate(invalid="ignore"):
        choi = np.tensordot(0.25 * d, _CHOI_BASIS, 2)
    distances = kernels.trace_distances(choi)
    return float(distances) if distances.ndim == 0 else distances


def approximation_error_stack(etas, steps: int, spectrum: SpectrumParams, configs,
                              engine: str = "series") -> np.ndarray:
    """``approximation_error`` for every dephasing step in ``configs``, control
    in ``etas`` and m = 0..steps, shape (configs, etas, steps + 1): one
    ``transfer_map_stacks`` pass over ``[None, *configs]``, counted on entry,
    whose later stacks are measured one at a time against its first, the
    strong limit, so a run holds one step's maps and Choi stack besides the
    averages and the distances.  The strong-limit engine is refused as
    unknown."""
    if len(configs) == 0:
        raise DomainError("approximation_error_stack needs at least one dephasing step")
    if engine == "strong-limit":
        raise DomainError(f"unknown engine {engine!r}")
    stacks = transfer_map_stacks(spectrum, [None, *configs], etas, steps, engine)
    averages = next(stacks)
    return np.array([channel_distance(exact, averages) for exact in stacks])


def approximation_error(eta: float, m: int, spectrum: SpectrumParams,
                        config: DephasingConfig, engine: str = "series") -> float:
    """Channel distance between the exact spectrum-averaged m-step map and the
    single-period-average map, the power's zeroth coefficient."""
    return float(approximation_error_stack((eta,), m, spectrum, (config,), engine)[0, 0, m])
