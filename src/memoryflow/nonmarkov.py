"""Trace-distance trajectories, their increments, and the accumulated
positive-increment measure of memory effects, for both models.

The measure is evaluated for a fixed initial pair (the default pairs match
the reference parameter sets); ``orthogonal_pair_scan`` optionally searches a
family of antipodal pairs and reports a lower bound on the full supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .openwalk import (
    DephasingFilter,
    hermitian_eigenvalues,
    pure_walk_density,
    strong_dephasing_blocks,
    trace_distance_walk,
)
from .qubit import as_bloch_vector, trace_distance_bloch, transfer_maps
from .spectra import DephasingConfig, SpectrumParams
from .walk import walk_evolve

#: increments below this threshold are treated as rounding noise
POSITIVE_INCREMENT_THRESHOLD = 1e-12

#: fixed qubit pair: +/- (1, 0, 1)/sqrt(2)
DEFAULT_QUBIT_DIRECTION = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)

#: fixed walk pair: |L, 0> vs |R, 0>
DEFAULT_WALK_COINS = ((1.0 + 0.0j, 0.0j), (0.0j, 1.0 + 0.0j))


@dataclass
class TraceDistanceSeries:
    """Distinguishability trajectory D(0..N) plus run metadata."""

    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise DomainError("a trace-distance series needs at least one value")
        if np.any(self.values < -1e-12) or np.any(self.values > 1.0 + 1e-12):
            raise DomainError("trace distances must lie in [0, 1]")


@dataclass
class NMReport:
    """Increments, the steps with positive increments, their running sum
    through each step, and their total."""

    increments: np.ndarray
    positive_steps: np.ndarray
    cumulative: np.ndarray
    measure: float
    threshold: float


def increments(series) -> np.ndarray:
    """First differences with a leading zero (no increment at step 0)."""
    values = series.values if isinstance(series, TraceDistanceSeries) else np.asarray(series, float)
    if values.ndim != 1 or values.size < 1:
        raise DomainError("series must hold at least one value")
    out = np.zeros(values.size)
    out[1:] = values[1:] - values[:-1]
    return out


def nm_measure(series, threshold: float = POSITIVE_INCREMENT_THRESHOLD) -> NMReport:
    """Sum of the strictly positive trace-distance increments above threshold."""
    inc = increments(series)
    positive = inc > threshold
    # a left-to-right running sum keeps reruns bit-identical
    cumulative = np.cumsum(np.where(positive, inc, 0.0))
    return NMReport(inc, np.nonzero(positive)[0], cumulative, float(cumulative[-1]), threshold)


def bloch_trace_distances(traj1, traj2) -> np.ndarray:
    """Step-by-step trace distances of two Bloch trajectories."""
    return np.array([trace_distance_bloch(a, b) for a, b in zip(traj1, traj2)])


def nm_qubit(
    eta: float,
    spectrum: SpectrumParams,
    config: DephasingConfig,
    r1=None,
    r2=None,
    n_steps: int = 30,
    engine: str = "series",
    threshold: float = POSITIVE_INCREMENT_THRESHOLD,
) -> tuple[TraceDistanceSeries, NMReport]:
    """Trace-distance trajectory and measure for a fixed qubit pair."""
    if r1 is None:
        r1 = DEFAULT_QUBIT_DIRECTION.copy()
    if r2 is None:
        r2 = -np.asarray(r1, dtype=float)
    maps = transfer_maps(spectrum, config, eta, n_steps, engine)
    traj1 = maps @ as_bloch_vector(r1)
    traj2 = maps @ as_bloch_vector(r2)
    values = bloch_trace_distances(traj1, traj2)
    series = TraceDistanceSeries(values, metadata={
        "model": "qubit",
        "eta": float(eta),
        "engine": engine,
        "pair": (np.asarray(r1, float).tolist(), np.asarray(r2, float).tolist()),
    })
    return series, nm_measure(series, threshold)


def walk_trace_distances(filters, n_steps: int, coins=DEFAULT_WALK_COINS) -> np.ndarray:
    """Trace distances D(0..n_steps) of a coin-dephased walk pair, one row per
    ``DephasingFilter``.  A filter multiplies both densities entrywise, so each
    step's pure-state difference is built once and shared by every filter."""
    if n_steps < 0:
        raise DomainError("step count must be non-negative")
    out = np.empty((len(filters), n_steps + 1))
    for n in range(n_steps + 1):
        diff = (pure_walk_density(walk_evolve(*coins[0], n)).matrix
                - pure_walk_density(walk_evolve(*coins[1], n)).matrix)
        for row, flt in enumerate(filters):
            filtered = diff * np.kron(flt.gram(n), np.ones((2, 2)))
            out[row, n] = 0.5 * float(np.sum(np.abs(hermitian_eigenvalues(filtered))))
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

    mode "filter" evolves with the spectral coherence filter (full-matrix
    eigenvalues); mode "strong_limit" keeps only diagonal site blocks and
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
    if mode == "filter":
        values = walk_trace_distances([DephasingFilter(spectrum, config)], n_steps, (coin1, coin2))[0]
    else:
        values = np.array([
            trace_distance_walk(strong_dephasing_blocks(*coin1, n), strong_dephasing_blocks(*coin2, n))
            for n in range(n_steps + 1)
        ])
    series = TraceDistanceSeries(values, metadata={
        "model": "walk",
        "mode": mode,
        "pair": (
            [complex(coin1[0]).real, complex(coin1[0]).imag,
             complex(coin1[1]).real, complex(coin1[1]).imag],
            [complex(coin2[0]).real, complex(coin2[0]).imag,
             complex(coin2[1]).real, complex(coin2[1]).imag],
        ),
    })
    return series, nm_measure(series, threshold)


# ---------------------------------------------------------------------------
# antipodal-pair scan
# ---------------------------------------------------------------------------

@dataclass
class ScanResult:
    """Best direction found, its report, and how many pairs were evaluated.

    The scanned family is a fixed anchor set plus a seeded random stream; a
    larger scan with the same seed extends a smaller one, so the reported
    maximum never decreases under refinement.  The result is a lower bound on
    the supremum over all pairs.
    """

    direction: np.ndarray
    report: NMReport
    evaluated: int


_ANCHOR_DIRECTIONS = (
    np.array([0.0, 0.0, 1.0]),
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    DEFAULT_QUBIT_DIRECTION,
)


def scan_directions(n_pairs: int, seed: int = 0) -> list[np.ndarray]:
    """Anchor directions followed by a seeded isotropic stream."""
    dirs = [d.copy() for d in _ANCHOR_DIRECTIONS[:max(0, min(n_pairs, len(_ANCHOR_DIRECTIONS)))]]
    rng = np.random.default_rng(seed)
    while len(dirs) < n_pairs:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        dirs.append(v / norm)
    return dirs


def coin_from_direction(direction) -> tuple[complex, complex]:
    """Coin amplitudes whose Bloch vector is the given unit direction."""
    x, y, z = np.asarray(direction, dtype=float)
    theta = math.acos(max(-1.0, min(1.0, z)))
    phi = math.atan2(y, x)
    return (
        complex(math.cos(theta / 2.0)),
        complex(math.sin(theta / 2.0)) * complex(math.cos(phi), math.sin(phi)),
    )


def orthogonal_pair_scan(
    runner: Callable[[np.ndarray], NMReport],
    n_pairs: int = 16,
    seed: int = 0,
) -> ScanResult:
    """Maximize the measure over antipodal pairs drawn from ``scan_directions``.

    ``runner`` maps a unit direction to the NMReport of the corresponding
    antipodal pair (see ``qubit_pair_runner`` / ``walk_pair_runner``).
    """
    if n_pairs < 1:
        raise DomainError("scan needs at least one pair")
    best_dir = None
    best_report = None
    for direction in scan_directions(n_pairs, seed):
        report = runner(direction)
        if best_report is None or report.measure > best_report.measure:
            best_dir = direction
            best_report = report
    return ScanResult(best_dir, best_report, n_pairs)


def qubit_pair_runner(eta, spectrum, config, n_steps=30, engine="series"):
    def run(direction: np.ndarray) -> NMReport:
        _, report = nm_qubit(
            eta, spectrum, config,
            r1=direction, r2=-direction, n_steps=n_steps, engine=engine,
        )
        return report
    return run


def walk_pair_runner(spectrum, config, n_steps=10, mode="filter"):
    def run(direction: np.ndarray) -> NMReport:
        c1 = coin_from_direction(direction)
        c2 = (-np.conj(c1[1]), np.conj(c1[0]))
        _, report = nm_walk(
            spectrum, config, n_steps=n_steps, mode=mode, coin1=c1, coin2=c2,
        )
        return report
    return run
