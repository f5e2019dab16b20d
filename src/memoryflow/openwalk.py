"""Open quantum walk: coin dephasing as a positional coherence filter, the
strong-dephasing limit as one such filter, the explicit system-environment
dilation oracle, and the checked Hermitian eigenvalues of its dense trace
distances.

After n steps only the n + 1 sites x = -n, -n + 2, ..., n are occupied, and
every state and density is stored over those sites alone.  Density matrices
are dense in a position-major layout: the row index of (site x, coin sigma)
is (x + n) + sigma, so the 2x2 coin block for the site pair (x, y) is the
contiguous submatrix at (x + n, y + n), and a density after n steps has
dimension d = 2(n + 1).

One step.  Every walk route takes the same coin-and-shift step,
``kernels.coin_shift``: the unitary walk (``walk.walk_states``, and
``walk_evolve`` as its last state) steps one (n + 1)-site pair, and the
dilation oracle steps an (n + 1, K) pair, one column per environment branch,
and then multiplies each branch's L amplitudes by its dephasing phase.
``oracle_checks`` builds every check of the oracle on these routes; each
reduces one array of its deviations by one rule, ``errors.largest_deviation``,
to one entry, ``errors.check``.  The position check reads p(x) from the
traced dilation, so it compares the paper's construction against the unitary
walk, and the measure check reads the trace distances of two traced
dilations against the memory measure's route; both can fail.

Memory.  The dilation and every eigensolve count the bytes a run would hold,
``dilation_bytes`` and ``kernels.eigensolve_bytes``, and are refused by
``errors.require_bytes`` against ``errors.MAX_GRID_BYTES`` before anything is
allocated, and ``oracle_checks`` makes the counts of all its checks on entry;
there is no cap on steps, environment size or dimension as such.

Filter normalization.  After any number of steps, the environment phase
attached at frequency omega to a branch sitting at site x is
exp(-i omega delta_t delta_n x / 2) times a site-independent factor: a path
ending at x has (n - x)/2 left moves and (n + x)/2 right moves, and each move
contributes the refraction phase of its coin side.  A coherence between sites
x and y therefore picks up exp(i omega delta_t delta_n (y - x)/2), and the
spectral average multiplies the (x, y) block by kappa((y - x) delta_t / 2).
``dilation_oracle`` pins this normalization exactly; occupied sites are
always an even distance apart, so the filter only ever samples kappa at whole
multiples of the step duration.  A ``DephasingFilter`` is one
``decoherence_function`` call over its own tau = d delta_t / 2 (``_tau``);
every filtered walk density, dense or in the measure, is gathered by
``filter_index`` from a table of its filter over the 2n + 1 even
separations.  In the strong-dephasing limit every coherence between distinct
sites is lost: the filter is ``strong_limit_filter``, f(d) = 1 at d = 0 and 0
elsewhere, and it takes every route a spectral filter takes.

Trace distances.  Every trace distance is ``kernels.trace_distances``, which
refuses a non-finite matrix before LAPACK.  ``trace_distance_walk`` is the
dense reference: it solves the 2(n + 1)-dimensional difference of two
densities after equal step counts in one eigensolve, once
``_checked_hermitian``, as for ``hermitian_eigenvalues``, has counted its
bytes and checked its finiteness and Hermiticity (so one matrix reaches
d = 2048, 1023 steps).  The memory measure takes a faster route
(``nonmarkov.walk_trace_distances``): it steps both coins as one (sites, 2)
array, fills one table with a row per filter, gathers each step's matrices
from it by ``filter_index``, and checks its inputs instead of each matrix:
every filter table must be finite and Hermitian Toeplitz, and each origin coin
pair finite, so every filtered matrix is Hermitian by construction.  A filter
whose table is real up to a phase ramp, f(2 j) = e^(icj) r(j), as a spectrum
symmetric about a centre gives, turns each filtered difference of real coins
into a real symmetric matrix with the same eigenvalues; those are solved in
float64, the rest in complex128, one stack per route and step, each in chunks
of one matrix more than what ``errors.MAX_GRID_BYTES`` leaves after the
measure's count holds; a run over that count is refused before any work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from . import harmonic, kernels
from .errors import DomainError, ResourceLimitError, check, largest_deviation, require_bytes
from .spectra import DephasingConfig, SpectrumParams, decoherence_function
from .walk import (INTEGRAL_RECURSION_TOL, WalkState, initial_state, integral_check_bytes,
                   integral_recursion_deviation, position_distribution, walk_evolve, walk_states)

HERMITICITY_TOL = 1e-10


@dataclass
class WalkDensity:
    """Coin (x) position density matrix after ``steps`` steps."""

    steps: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2 * (self.steps + 1)
        if self.matrix.shape != (dim, dim):
            raise DomainError("density matrix shape must match the step count")

    def positions(self) -> np.ndarray:
        return np.arange(-self.steps, self.steps + 1, 2)

    def block(self, x: int, y: int) -> np.ndarray:
        """The 2x2 coin block of the site pair (x, y); zero where a site is empty."""
        if abs(x) > self.steps or abs(y) > self.steps:
            raise DomainError("site index outside the state's support")
        i, j = x + self.steps, y + self.steps
        if i % 2 or j % 2:
            return np.zeros((2, 2), dtype=self.matrix.dtype)
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


def position_major(left, right) -> np.ndarray:
    """Coin amplitudes over the occupied sites (axis 0, with any trailing axes)
    interleaved into the position-major rows (x + n) + sigma."""
    v = np.empty((2 * left.shape[0],) + left.shape[1:], dtype=complex)
    v[0::2] = left
    v[1::2] = right
    return v


def pure_walk_density(state: WalkState) -> WalkDensity:
    v = position_major(state.amp_left, state.amp_right)
    return WalkDensity(state.steps, np.outer(v, v.conj()))


@dataclass(frozen=True)
class DephasingFilter:
    """Multiplier f(d) applied to coherences between sites separated by d."""

    spectrum: SpectrumParams
    config: DephasingConfig

    def __call__(self, d):
        return decoherence_function(self.spectrum, self.config.index_contrast,
                                    _tau(self.config.step_duration, d))


def strong_limit_filter(d):
    """The coherence filter of the strong-dephasing limit: f(d) = 1 at d = 0
    and 0 elsewhere, so only the diagonal site blocks survive."""
    return np.where(np.asarray(d, dtype=float) == 0.0, 1.0, 0.0)


def _tau(step_durations, separations) -> np.ndarray:
    """tau = d delta_t / 2 for every step duration (leading axes) and site
    separation d: the filter normalization of the module docstring."""
    return np.multiply.outer(step_durations, separations) / 2.0


def filter_index(steps: int) -> np.ndarray:
    """The walk filter layout: a table over the 2n + 1 even separations holds
    f(2 j) in column n + j, and entry (i, k) of an n-step position-major
    density, sites x = 2 (i // 2) - n and y = 2 (k // 2) - n, reads column
    n + k // 2 - i // 2.  The leading 2(m + 1) rows and columns of the index
    gather the m-step matrix from the same table, for every m <= n."""
    site = np.arange(2 * (steps + 1)) // 2
    return steps + site[None, :] - site[:, None]


def filtered_density(state: WalkState, kappa) -> WalkDensity:
    """The pure density of a walk state with its (x, y) coin block multiplied
    by kappa(y - x), gathered from kappa's table by ``filter_index``."""
    n = state.steps
    table = np.asarray(kappa(2 * np.arange(-n, n + 1)), dtype=complex)
    return WalkDensity(n, pure_walk_density(state).matrix * table[filter_index(n)])


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
        omegas, weights, config.index_contrast, _tau(config.step_duration, d))


def dilation_bytes(steps: int, n_freqs: int) -> int:
    """Bytes the heaviest dilation check of ``oracle_checks`` over ``steps``
    steps with ``n_freqs`` environment nodes K holds at its last step: the
    dense 2(steps + 1) densities of two dilation streams, their difference and
    its eigensolve (``measure_vs_dilation``), and each stream's (steps + 1, K)
    branch amplitudes with the discrete filter's (K, 2 steps + 1) table.
    tracemalloc measures, warm, 349-447 B per (steps + 1)^2 at K = 2 and
    20-127 steps (0.70 MB at 40 steps, 5.73 MB at 127), and 168-176 B per
    K (steps + 1) at K >= 1024 (31.8 MB at 10 steps and K = 16384); it is
    counted as 25 (steps + 1)^2 complex values, twelve complex (steps + 1, K)
    arrays and 128 complex values per step for what each step keeps besides,
    which covers those K = 2 peaks by 9-19%, and 10 000 complex values for
    the checks of fixed size, which hold the oracle's peak at a few steps:
    138 kB at 0-10 steps and K = 2 (the engine check at its least power 127
    kB, the eigensolver identities 92 kB)."""
    return 16 * ((steps + 1) * (25 * (steps + 1) + 12 * n_freqs + 128) + 10_000)


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

    The spectrum is discretized once and the coin (x) position amplitudes of
    every environment branch on the occupied sites, an (n + 1, K) pair, take
    one ``kernels.coin_shift`` per step: yields (WalkDensity, omegas, weights)
    after n = 0, 1, ..., steps steps.  A run whose ``dilation_bytes`` exceed
    ``errors.MAX_GRID_BYTES`` is refused on entry, before the spectrum is
    discretized; a run within it yields every density it was asked for.
    """
    if steps < 0:
        raise DomainError("step count must be non-negative")
    require_bytes(dilation_bytes(steps, n_freqs), f"steps = {steps} x n_freqs = {n_freqs}")
    origin = initial_state(c_left, c_right)
    omegas, weights = discretize_spectrum(spectrum, n_freqs)
    amp = np.sqrt(weights)
    left = origin.amp_left[:, None] * amp
    right = origin.amp_right[:, None] * amp
    # refraction indices (delta_n, 0): only the contrast matters after tracing
    phase_left = np.exp(1j * config.index_contrast * omegas * config.step_duration)
    for n in range(steps + 1):
        if n:
            left, right = kernels.coin_shift(left, right)
            left *= phase_left
        v = position_major(left, right)
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


def _step_range(last: int, stride: int = 1) -> dict:
    """The step counts 0, stride, ... up to ``last`` as one report entry."""
    return {"first": 0, "last": last - last % stride, "stride": stride}


def _dilation_check(coin, states: list[WalkState], spectrum: SpectrumParams,
                    dephasing: DephasingConfig, k: int, max_steps: int,
                    position_steps: int | None) -> tuple[dict, dict | None]:
    """The ``dilation_vs_filter_K{k}`` entry of ``oracle_checks``: the traced
    dilation of ``coin`` over K environment frequencies against the coherence
    filter, gathered by ``filter_index`` from one table, of the unitary
    ``states`` at every n <= max_steps.  With ``position_steps``, the stream
    runs on to it, and the ``position_distribution_invariance`` entry of its
    p(x) against the unitary walk's, every third step, comes back too."""
    steps = max_steps if position_steps is None else max(max_steps, position_steps)
    devs, entries = np.empty(max_steps + 1), np.empty(max_steps + 1, dtype=int)
    last = position_steps or 0  # positions[n // 3, x + last], 0 at empty sites
    positions = np.zeros((last // 3 + 1, 2 * last + 1))
    columns = filter_index(max_steps)
    for n, (dil, omegas, weights) in enumerate(
            dilation_densities(coin[0], coin[1], steps, spectrum, dephasing, k)):
        if n == 0:
            table = discrete_filter(omegas, weights, dephasing)(2 * np.arange(-max_steps, max_steps + 1))
        if n <= max_steps:
            flt = pure_walk_density(states[n]).matrix * table[columns[:2 * n + 2, :2 * n + 2]]
            dev = np.abs(dil.matrix - flt).ravel()
            devs[n], entries[n] = dev.max(), dev.argmax()  # the first NaN or largest
        if position_steps is not None and n % 3 == 0 and n <= last:
            p_dil = list(dil.position_distribution().values())
            p = list(position_distribution(states[n]).values())
            positions[n // 3, last - n:last + n + 1:2] = np.abs(np.subtract(p_dil, p))
    entry = check(f"dilation_vs_filter_K{k}", largest_deviation(
        devs, lambda n: "n={}, entry=({},{})".format(n, *divmod(entries[n], 2 * n + 2))),
        1e-10) | {"K": k, "steps": _step_range(max_steps)}
    if position_steps is None:
        return entry, None
    return entry, check("position_distribution_invariance", largest_deviation(
        positions, lambda i: f"n={i // (2 * last + 1) * 3}, x={i % (2 * last + 1) - last}"),
        1e-12) | {"steps": _step_range(position_steps, 3)}


def oracle_checks(spectrum: SpectrumParams, dephasing: DephasingConfig, *, max_steps: int,
                  n_freqs: list[int], walk_steps: int, position_check_steps: int,
                  engine_max_power: int, seed: int) -> list[dict]:
    """Every check of the oracle at one probe point, as ``errors.check``
    entries in report order: the traced dilation against the coherence filter
    for each environment size K in ``n_freqs``, the position distribution of
    the first K's stream, stepped on to ``position_check_steps``, against the
    unitary walk's, the trace distances of ``nonmarkov.DEFAULT_WALK_COINS``
    from two traced dilations at the first K against
    ``nonmarkov.walk_trace_distances`` with the same discrete filter, the
    series engine against quadrature at A = 0 and 1, the Catalan closed
    forms, the quasi-momentum amplitudes against the recursion, and the
    eigensolver identities.  Each dilation entry and the measure entry record
    their K and the step counts they compared, the position entry the step
    counts it sampled, each as a ``_step_range``, and the engine entry its
    etas, A and largest power m.  Every check runs as asked: a run whose
    integral check, dilation streams or walk measure would pass
    ``errors.MAX_GRID_BYTES`` is refused on entry, before any check runs, by
    the counts those routes make, naming the arguments that set them."""
    # imported here: nonmarkov imports this module
    from .nonmarkov import DEFAULT_WALK_COINS, walk_measure_bytes, walk_trace_distances

    if not n_freqs:
        raise DomainError("the oracle needs at least one environment size in n_freqs")
    require_bytes(integral_check_bytes(walk_steps), f"walk_steps = {walk_steps}")
    require_bytes(dilation_bytes(max_steps, max(n_freqs)),
                  f"max_steps = {max_steps} x n_freqs = {max(n_freqs)}")
    require_bytes(dilation_bytes(position_check_steps, n_freqs[0]),
                  f"position_check_steps = {position_check_steps} x n_freqs = {n_freqs[0]}")
    require_bytes(walk_measure_bytes(max_steps, 1), f"max_steps = {max_steps}")
    coin = (1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0))
    checks = []

    # the walk is stepped once; each check reads the states it needs
    states = list(walk_states(coin[0], coin[1], max(max_steps, position_check_steps)))

    # traced dilation vs coherence filter, per environment size: each
    # environment is discretized and stepped once.  Dephasing must not touch
    # the position distribution: p(x) of the first K's stream, stepped on to
    # position_check_steps, against the unitary walk's, every third step
    dilations = [_dilation_check(coin, states, spectrum, dephasing, k, max_steps,
                                 position_check_steps if index == 0 else None)
                 for index, k in enumerate(n_freqs)]
    checks += [entry for entry, _ in dilations] + [dilations[0][1]]

    # the memory measure's route against the paper's construction: trace
    # distances of the default walk pair from two traced dilation streams at
    # the first K, against walk_trace_distances with the same discrete filter
    dilated = []
    for (rho1, omegas, weights), (rho2, _, _) in zip(*(
            dilation_densities(*pair, max_steps, spectrum, dephasing, n_freqs[0])
            for pair in DEFAULT_WALK_COINS)):
        finite = np.all(np.isfinite(rho1.matrix)) and np.all(np.isfinite(rho2.matrix))
        dilated.append(trace_distance_walk(rho1, rho2) if finite else math.nan)
    del rho1, rho2  # the last densities end before the measure's eigensolves
    measured = walk_trace_distances([discrete_filter(omegas, weights, dephasing)], max_steps)[0]
    checks.append(check("measure_vs_dilation", largest_deviation(
        np.abs(np.subtract(dilated, measured)), lambda n: f"n={n}"), 1e-10)
                  | {"K": n_freqs[0], "steps": _step_range(max_steps)})

    # series engine vs oscillatory quadrature: one call per engine over both
    # A, so each engine counts both spectra before it makes any map
    spectra_a = {a: replace(spectrum, amplitude_ratio=a) for a in (0.0, 1.0)}
    tables = [(spec_a, dephasing) for spec_a in spectra_a.values()]
    etas = (0.0, 0.5, 1.0)
    series = harmonic.series_map_stacks(etas, engine_max_power, tables)
    quadrature = np.array(list(harmonic.quadrature_map_stacks(etas, engine_max_power, tables)))
    devs = np.max(np.abs(series - quadrature), axis=(-2, -1)).transpose(1, 2, 0)

    def engine_entry(i):
        e, m, t = np.unravel_index(i, devs.shape)
        return f"eta={etas[e]}, m={m}, A={list(spectra_a)[t]}"

    checks.append(check("series_vs_quadrature", largest_deviation(devs, engine_entry),
                        harmonic.ENGINE_AGREEMENT_TOL)
                  | {"etas": list(etas), "A": list(spectra_a), "m": engine_max_power})

    # closed-form period-average maps vs the series oracle
    averages = harmonic.series_map_stacks((0.5,), 40, [None])[0, 0]
    closed_forms = harmonic.strong_limit_closed_forms(40)
    checks.append(check("catalan_closed_form", largest_deviation(
        np.max(np.abs(averages - closed_forms), axis=(1, 2)), lambda m: f"m={m}"), 1e-12))

    # quasi-momentum amplitudes vs the position recursion
    checks.append(check("walk_integral_vs_recursion", integral_recursion_deviation(
        walk_steps, [(1.0, 0.0), (0.0, 1.0)]), INTEGRAL_RECURSION_TOL))

    checks.append(check("eigensolver_identities", eigensolver_identity_deviation(seed), 1e-10))
    return checks


# ---------------------------------------------------------------------------
# Hermitian eigenvalue machinery
# ---------------------------------------------------------------------------

def _checked_hermitian(matrix) -> np.ndarray:
    """A square matrix, or (..., d, d) stack, as complex, once its bytes, its
    finiteness and each matrix's Hermiticity against its own largest entry
    have been checked.

    The complex copy, its conjugate transpose, their difference and LAPACK's
    own copy are counted by ``kernels.eigensolve_bytes`` against
    ``errors.MAX_GRID_BYTES`` before any of them is made, so one matrix may
    reach d = 2048.  Finiteness is checked first, so that the Hermiticity
    arithmetic never meets inf - inf."""
    shape = np.shape(matrix)
    if len(shape) < 2 or shape[-2] != shape[-1]:
        raise DomainError("matrix must be square")
    require_bytes(kernels.eigensolve_bytes(shape), f"a matrix stack of shape {shape}")
    H = np.asarray(matrix, dtype=complex)
    if not np.all(np.isfinite(H)):
        raise DomainError("matrix has non-finite entries")
    scale = np.max(np.abs(H), axis=(-2, -1), initial=0.0)
    defect = np.max(np.abs(H - np.swapaxes(H, -2, -1).conj()), axis=(-2, -1), initial=0.0)
    if np.any(defect > HERMITICITY_TOL * np.maximum(scale, 1.0)):
        raise DomainError("matrix is not Hermitian")
    return H


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Sorted eigenvalues of a finite complex Hermitian matrix, or of each
    matrix of a (..., d, d) stack, by LAPACK, after ``_checked_hermitian``."""
    return kernels.hermitian_eigvals(_checked_hermitian(matrix))


def eigensolver_identity_deviation(seed: int) -> tuple[float, str]:
    """Largest deviation from sum(lambda) = tr H and sum(lambda^2) = ||H||_F^2 over
    20 seeded random matrices of dimension 2 to 32, each Hermitian to the bit
    and solved by ``kernels.hermitian_eigvals``, and its trial and dimension.

    The draws come from the standard library's ``random.Random(seed)``, which
    ``import numpy`` has already loaded, not from ``numpy.random``, which
    would add about 6 MB to the process: each trial's dimension by
    ``randrange(2, 33)``, then the real and imaginary parts of its entries
    from one ``randbytes`` call, each 64 bits read little-endian and mapped
    by their top 53 to a uniform value in [-1, 1)."""
    rng = random.Random(seed)
    devs, dims = np.empty(20), np.empty(20, dtype=int)
    for trial in range(20):
        dim = dims[trial] = rng.randrange(2, 33)
        bits = np.frombuffer(rng.randbytes(16 * dim * dim), dtype="<u8")
        x = ((bits >> 11) * 2.0 ** -52 - 1.0).view(complex).reshape(dim, dim)
        h = (x + x.conj().T) / 2.0
        vals = kernels.hermitian_eigvals(h)
        devs[trial] = np.maximum(abs(vals.sum() - h.trace().real),
                                 abs((vals ** 2).sum() - (abs(h) ** 2).sum()))
    return largest_deviation(devs, lambda trial: f"trial={trial}, dim={dims[trial]}")


def trace_distance_walk(rho1: WalkDensity, rho2: WalkDensity) -> float:
    """Half the trace norm of the difference of two densities after the same
    number of steps, from one full LAPACK eigensolve after ``_checked_hermitian``."""
    if rho1.steps != rho2.steps:
        raise DomainError("trace distance needs densities after equal step counts")
    return float(kernels.trace_distances(_checked_hermitian(rho1.matrix - rho2.matrix)))

