"""Trace-distance trajectories, their increments, and the accumulated
positive-increment measure of memory effects, for both models.

Each trajectory has one route: the qubit's from one ``transfer_map_stack``
call, the walk's from ``walk_trace_distances``, one row per coherence filter,
the strong-dephasing limit (``openwalk.strong_limit_filter``) included.  That
call builds its filter table with ``openwalk.filter_table`` (one
``decoherence_function`` call per spectrum), gathers each step's filtered
matrices from it by ``openwalk.filter_index``, the one statement of that
layout, and steps the coin pair as one array over the n + 1 occupied sites of
step n, the layout every walk route stores.  Its memory is one count against
the one budget, ``walk_measure_bytes``: each step's stacks are solved in
chunks of as many matrices as ``errors.MAX_GRID_BYTES`` holds
``kernels.eigensolve_bytes``, less one for the step's own arrays, and a run
whose last step does not fit two matrices (724 steps or more) is refused.
``nm_measure`` takes one trajectory or a (rows, steps + 1) stack, each row
with the bits of its own one-trajectory call, so each command's measure is
one stacked route: ``nm_qubit_stack`` for every control of the qubit, of which
``nm_qubit`` is the one-eta call, and ``nm_walk_sweep`` for every (spectrum,
step) filter of the walk and its strong limit.

The measure is evaluated for a fixed initial pair (the default pairs match
the reference parameter sets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors, kernels
from .errors import DomainError, require_bytes
from .openwalk import (HERMITICITY_TOL, DephasingFilter, filter_index, filter_table,
                       position_major, strong_limit_filter)
from .qubit import as_bloch_vector, transfer_map_stack
from .spectra import DephasingConfig, SpectrumParams
from .walk import initial_state

#: increments below this threshold are treated as rounding noise
POSITIVE_INCREMENT_THRESHOLD = 1e-12

#: fixed qubit pair: +/- (1, 0, 1)/sqrt(2)
DEFAULT_QUBIT_DIRECTION = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)

#: fixed walk pair: |L, 0> vs |R, 0>
DEFAULT_WALK_COINS = ((1.0 + 0.0j, 0.0j), (0.0j, 1.0 + 0.0j))

#: filter values below FILTER_CUT / sqrt(n_steps + 1) are set to 0 before the
#: walk measure solves: a Hermitian Toeplitz change of at most eps moves each
#: D(n) by at most sqrt(n + 1) eps, here 2^-64, below one rounding of a value
#: near 1, while LAPACK's eigenvalue-only route can return wrong eigenvalues
#: for matrices that mix coherences near 1e-80 or 1e-160 with their squares
FILTER_CUT = 2.0 ** -64

#: imaginary residue, relative to a filter's largest value, below which a
#: gauged filter table counts as real; rounding leaves about 2e-15 on the fig4
#: filters that are real, and the others keep 1e-7 or more
GAUGE_TOL = 1e-13


@dataclass
class TraceDistanceSeries:
    """Distinguishability trajectory D(0..N)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise DomainError("a trace-distance series needs at least one value")
        if np.any(self.values < -1e-12) or np.any(self.values > 1.0 + 1e-12):
            raise DomainError("trace distances must lie in [0, 1]")


@dataclass
class NMReport:
    """Increments, the running sum of those above ``threshold`` through each
    step, and its total.  A report on a (rows, steps + 1) stack of
    trajectories holds (rows, steps + 1) increments and running sums and a
    (rows,) array of totals."""

    increments: np.ndarray
    cumulative: np.ndarray
    measure: float | np.ndarray
    threshold: float

    @property
    def positive_steps(self) -> np.ndarray | list[np.ndarray]:
        """The steps whose increment counts, or one such array per row."""
        positive = self.increments > self.threshold
        return np.flatnonzero(positive) if positive.ndim == 1 else list(map(np.flatnonzero, positive))


def increments(series) -> np.ndarray:
    """First differences with a leading zero (no increment at step 0), along
    the last axis of a (steps + 1,) series or a (rows, steps + 1) stack."""
    values = series.values if isinstance(series, TraceDistanceSeries) else np.asarray(series, float)
    if values.ndim not in (1, 2) or values.shape[-1] < 1:
        raise DomainError("series must hold at least one value")
    out = np.zeros(values.shape)
    out[..., 1:] = values[..., 1:] - values[..., :-1]
    return out


def nm_measure(series, threshold: float = POSITIVE_INCREMENT_THRESHOLD) -> NMReport:
    """Sum of the strictly positive trace-distance increments above threshold,
    of one series or of each row of a (rows, steps + 1) stack; every row has
    the bits of its own one-series call."""
    inc = increments(series)
    # a left-to-right running sum keeps reruns bit-identical
    cumulative = np.cumsum(np.where(inc > threshold, inc, 0.0), axis=-1)
    measure = float(cumulative[-1]) if inc.ndim == 1 else cumulative[:, -1].copy()
    return NMReport(inc, cumulative, measure, threshold)


def bloch_trace_distances(traj1, traj2) -> np.ndarray:
    """Step-by-step trace distances of two (..., steps, 3) Bloch trajectories,
    half the Euclidean norm of each difference.  The squared norms are one
    batched (1, 3) x (3, 1) product, which has the bits of the per-row
    ``trace_distance_bloch``."""
    d = np.asarray(traj1, dtype=float) - np.asarray(traj2, dtype=float)
    return 0.5 * np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def nm_qubit_stack(etas, spectrum: SpectrumParams, config: DephasingConfig, r1=None, r2=None,
                   n_steps: int = 30, engine: str = "series",
                   threshold: float = POSITIVE_INCREMENT_THRESHOLD):
    """Bloch trajectories of a fixed qubit pair for every control in ``etas``,
    their trace distances and measure: one ``transfer_map_stack`` call applied
    to both initial states, then ``bloch_trace_distances`` and ``nm_measure``.
    Returns (traj1, traj2, distances, report): (etas, n_steps + 1, 3)
    trajectories, (etas, n_steps + 1) distances and their stacked report;
    each eta's rows have the bits of its own ``nm_qubit`` call."""
    if r1 is None:
        r1 = DEFAULT_QUBIT_DIRECTION.copy()
    if r2 is None:
        r2 = -np.asarray(r1, dtype=float)
    maps = transfer_map_stack(spectrum, config, etas, n_steps, engine)
    traj1 = maps @ as_bloch_vector(r1)
    traj2 = maps @ as_bloch_vector(r2)
    distances = bloch_trace_distances(traj1, traj2)
    return traj1, traj2, distances, nm_measure(distances, threshold)


def nm_qubit(eta: float, spectrum: SpectrumParams, config: DephasingConfig, r1=None, r2=None,
             n_steps: int = 30, engine: str = "series", threshold: float = POSITIVE_INCREMENT_THRESHOLD
             ) -> tuple[TraceDistanceSeries, NMReport]:
    """Trace-distance trajectory and measure for a fixed qubit pair: the
    one-eta ``nm_qubit_stack`` call."""
    distances = nm_qubit_stack((eta,), spectrum, config, r1, r2, n_steps, engine)[2]
    series = TraceDistanceSeries(distances[0])
    return series, nm_measure(series, threshold)


def filter_table_gauge(table) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of a walk filter table are real up to a phase ramp, and
    those rows made real.  The table is laid out as ``openwalk.filter_index``
    reads it: column n + j holds f(2 j).

    A spectrum symmetric about a centre gives f(2 j) = e^(icj) r(j) with r
    real.  The phase c is read from the first f(2 k), k >= 1, above
    ``GAUGE_TOL`` of the row's largest value: c = arg f(2 k) / k, so f(4) / 2
    stands in where f(2) is negligible.  A row is real when e^(-icj) f(2 j)
    keeps no imaginary part above ``GAUGE_TOL`` of that largest value.  Returns
    (mask of the real rows, real parts of every gauged row)."""
    n = table.shape[1] // 2
    scale = np.max(np.abs(table), axis=1)
    phase = np.zeros(len(table))
    if n:
        k = 1 + np.argmax(np.abs(table[:, n + 1:]) > GAUGE_TOL * scale[:, None], axis=1)
        phase = np.angle(table[np.arange(len(table)), n + k]) / k
    gauged = table * np.exp(-1j * np.outer(phase, np.arange(-n, n + 1)))
    return np.all(np.abs(gauged.imag) <= GAUGE_TOL * scale[:, None], axis=1), gauged.real


def walk_measure_bytes(n_steps: int) -> int:
    """Bytes ``walk_trace_distances`` over ``n_steps`` steps holds at its last
    step in the fewest chunks: ``kernels.eigensolve_bytes`` of one
    2(n_steps + 1)-square matrix, and of one more for the step's own arrays
    (both pure densities, their difference and the gather index, at most 56 B
    an entry).  One step's chunks fill the budget less that one more matrix."""
    return kernels.eigensolve_bytes((2, 2 * (n_steps + 1), 2 * (n_steps + 1)))


def walk_trace_distances(filters, n_steps: int, coins=DEFAULT_WALK_COINS) -> np.ndarray:
    """Trace distances D(0..n_steps) of a coin-dephased walk pair, one row per
    coherence filter; ``coins`` holds exactly two coin pairs (c_left, c_right).

    The two coins are stepped together, as one (sites, 2) array through
    ``kernels.coin_shift``, so the difference of the two pure densities after
    n steps has d = 2(n + 1).  A filter multiplies the (x, y) block by
    f(y - x), and every separation is one of the 2 n_steps + 1 even ones, so
    ``openwalk.filter_table`` evaluates every filter once into a table, from
    which each step's filtered matrices are gathered by
    ``openwalk.filter_index``.

    The inputs are checked, not the gathered matrices: each table must be
    finite and Hermitian Toeplitz, f(-d) = conj f(d) within ``HERMITICITY_TOL``
    of its largest value, and each origin a finite and normalized
    (``walk.initial_state``) coin pair, which every unitary step keeps finite.
    Table entries below ``FILTER_CUT`` / sqrt(n_steps + 1) are then set to 0.
    Every filtered matrix, a Hermitian Toeplitz table times the Hermitian
    v1 v1† - v2 v2† entry by entry, is then Hermitian by construction; a
    non-finite one would still be refused by the one trace-norm kernel,
    ``kernels.trace_distances``, with a ``DomainError``.

    With real coins the walk amplitudes, and so the differences, are real, and
    a table that ``filter_table_gauge`` finds real, f(2 j) = e^(icj) r(j),
    makes the filtered matrix unitarily similar to the real symmetric
    r((y - x)/2) times the difference, by the site phases e^(icx/2).  Those
    filters are solved in float64, the others in complex128: per step, one
    stack per route, in chunks of as many matrices as
    ``errors.MAX_GRID_BYTES`` holds ``kernels.eigensolve_bytes``, read at call
    time, less one for the step's own arrays.  A run whose
    ``walk_measure_bytes`` exceed the budget is refused before any work."""
    if n_steps < 0:
        raise DomainError("step count must be non-negative")
    if len(coins) != 2 or any(np.shape(coin) != (2,) for coin in coins):
        raise DomainError("the walk measure needs exactly two coin pairs (c_left, c_right)")
    if not np.all(np.isfinite(coins)):
        raise DomainError("walk coin amplitudes must be finite")
    require_bytes(walk_measure_bytes(n_steps), f"'steps' = {n_steps}")
    out = np.empty((len(filters), n_steps + 1))
    if not filters:
        return out
    table = filter_table(filters, 2 * np.arange(-n_steps, n_steps + 1))
    if not np.all(np.isfinite(table)):
        raise DomainError("filter values must be finite")
    scale = np.max(np.abs(table), axis=1)
    defect = np.max(np.abs(table[:, ::-1] - table.conj()), axis=1)
    if np.any(defect > HERMITICITY_TOL * np.maximum(scale, 1.0)):
        raise DomainError("filter must be Hermitian Toeplitz: f(-d) = conj f(d)")
    table = np.where(np.abs(table) < FILTER_CUT / math.sqrt(n_steps + 1), 0.0, table)
    # the amplitudes of both coins over the sites, one column per coin
    origins = [initial_state(*coin) for coin in coins]
    left = np.stack([origin.amp_left for origin in origins], axis=-1)
    right = np.stack([origin.amp_right for origin in origins], axis=-1)
    real_coins = not np.any(np.imag(coins))
    real, gauged = filter_table_gauge(table)
    real &= real_coins
    routes = [(np.flatnonzero(rows), tab[rows]) for rows, tab in
              ((real, gauged), (~real, table)) if np.any(rows)]
    # step n gathers from the leading 2(n + 1) rows and columns
    columns = filter_index(n_steps)
    for n in range(n_steps + 1):
        if n:
            left, right = kernels.coin_shift(left, right)
        v = position_major(left, right)
        if real_coins:
            v = v.real
        pure = v[:, None] * v[None].conj()  # both pure densities, (d, d, 2)
        diff = pure[..., 0] - pure[..., 1]
        step_columns = columns[:len(diff), :len(diff)]
        chunk = errors.MAX_GRID_BYTES // kernels.eigensolve_bytes(diff.shape) - 1
        for rows, tab in routes:
            for start in range(0, len(rows), chunk):
                out[rows[start:start + chunk], n] = kernels.trace_distances(
                    tab[start:start + chunk, step_columns] * diff)
    return out


def nm_walk(
    spectrum: SpectrumParams | None,
    config: DephasingConfig | None,
    n_steps: int = 10,
    mode: str = "filter",
    coin1=None,
    coin2=None,
    threshold: float = POSITIVE_INCREMENT_THRESHOLD,
) -> tuple[TraceDistanceSeries, NMReport]:
    """Trace-distance trajectory and measure for a fixed walk pair.

    Both modes are the one-filter call of ``walk_trace_distances``: mode
    "filter" with the spectral coherence filter, and mode "strong_limit" with
    ``strong_limit_filter``, which keeps only the diagonal site blocks and
    needs no spectrum at all.
    """
    if coin1 is None:
        coin1 = DEFAULT_WALK_COINS[0]
    if coin2 is None:
        coin2 = DEFAULT_WALK_COINS[1]
    mode = mode.replace("-", "_")
    if mode not in ("filter", "strong_limit"):
        raise DomainError(f"unknown walk mode {mode!r}")
    if mode == "filter" and (spectrum is None or config is None):
        raise DomainError("filter mode requires spectrum and dephasing parameters")
    flt = DephasingFilter(spectrum, config) if mode == "filter" else strong_limit_filter
    series = TraceDistanceSeries(walk_trace_distances([flt], n_steps, (coin1, coin2))[0])
    return series, nm_measure(series, threshold)


def nm_walk_sweep(spectra, configs, n_steps: int = 10,
                  threshold: float = POSITIVE_INCREMENT_THRESHOLD) -> tuple[np.ndarray, float]:
    """The walk measure of the fixed pair for every (spectrum, step) of
    ``spectra`` x ``configs``, and in the strong limit, from one
    ``walk_trace_distances`` and one ``nm_measure`` call: the strong limit is
    one more filter, its row the last.  Returns the (spectra, configs) table
    of measures and the strong-limit measure; each value has the bits of its
    own ``nm_walk`` call."""
    filters = [DephasingFilter(spectrum, config) for spectrum in spectra for config in configs]
    measures = nm_measure(walk_trace_distances(filters + [strong_limit_filter], n_steps),
                          threshold).measure
    return measures[:-1].reshape(len(spectra), len(configs)), float(measures[-1])
