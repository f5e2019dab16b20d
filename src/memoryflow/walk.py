"""Unitary discrete-time Hadamard walk on the line.

A step applies the balanced coin to each site's (L, R) amplitude pair and
then shifts L-amplitudes one site left and R-amplitudes one site right.
Position-space evolution is the ground truth; the quasi-momentum integral
representation is assembled to match it (see ``walk_amplitudes_row``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DomainError, NumericError, exceeds

NORM_TOL = 1e-12
INTEGRAL_RECURSION_TOL = 1e-6


@dataclass(frozen=True)
class WalkState:
    """Pure walker state after ``steps`` steps from the origin.

    Amplitudes are dense over positions -steps..steps (index x + steps); sites
    with steps + x odd are exactly zero by construction.
    """

    steps: int
    amp_left: np.ndarray
    amp_right: np.ndarray

    def __post_init__(self):
        n = 2 * self.steps + 1
        if self.steps < 0 or self.amp_left.shape != (n,) or self.amp_right.shape != (n,):
            raise DomainError("amplitude arrays must cover positions -steps..steps")

    def positions(self) -> np.ndarray:
        return np.arange(-self.steps, self.steps + 1)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amp_left) ** 2 + np.abs(self.amp_right) ** 2))

    def coin_pair_at(self, x: int) -> tuple[complex, complex]:
        if abs(x) > self.steps:
            return 0.0 + 0.0j, 0.0 + 0.0j
        i = x + self.steps
        return complex(self.amp_left[i]), complex(self.amp_right[i])


def initial_state(c_left: complex, c_right: complex) -> WalkState:
    total = abs(c_left) ** 2 + abs(c_right) ** 2
    if abs(total - 1.0) > NORM_TOL:
        raise DomainError("initial coin amplitudes must be normalized")
    return WalkState(
        0,
        np.array([c_left], dtype=complex),
        np.array([c_right], dtype=complex),
    )


def walk_step(state: WalkState) -> WalkState:
    """One coin-and-shift step; support grows by one site on each side."""
    h = 1.0 / math.sqrt(2.0)
    new_l = np.zeros(2 * state.steps + 3, dtype=complex)
    new_r = np.zeros(2 * state.steps + 3, dtype=complex)
    # the coined pair at site x sends its L part to x - 1 and its R part to x + 1
    new_l[:-2] = h * (state.amp_left + state.amp_right)
    new_r[2:] = h * (state.amp_left - state.amp_right)
    return WalkState(state.steps + 1, new_l, new_r)


def walk_evolve(c_left: complex, c_right: complex, m: int) -> WalkState:
    """m-fold step from the origin state with the given coin amplitudes."""
    if m < 0:
        raise DomainError("step count must be non-negative")
    total = abs(c_left) ** 2 + abs(c_right) ** 2
    if abs(total - 1.0) > NORM_TOL:
        raise DomainError("initial coin amplitudes must be normalized")
    if m == 0:
        return initial_state(c_left, c_right)
    cl, cr = kernels.walk_run(c_left, c_right, m)
    return WalkState(m, cl, cr)


def walk_states(c_left: complex, c_right: complex, steps: int):
    """Yield the states after 0, 1, ..., steps steps from the origin, one
    ``walk_step`` per state."""
    if steps < 0:
        raise DomainError("step count must be non-negative")
    state = initial_state(c_left, c_right)
    yield state
    for _ in range(steps):
        state = walk_step(state)
        yield state


def position_distribution(state: WalkState) -> dict[int, float]:
    """p(x) = |c_L(x)|^2 + |c_R(x)|^2 over the state's support."""
    probs = np.abs(state.amp_left) ** 2 + np.abs(state.amp_right) ** 2
    return {int(x): float(p) for x, p in zip(state.positions(), probs)}


def dispersion_nu(k) -> np.ndarray | float:
    """Dispersion angle nu(k), principal branch of sin k = sqrt(2) sin nu."""
    out = np.arcsin(np.sin(np.asarray(k, dtype=float)) / math.sqrt(2.0))
    if out.ndim == 0:
        return float(out)
    return out


class WalkAmplitudes(NamedTuple):
    """Channel-resolved transition amplitudes to site x after m steps."""

    a_left: complex    # L -> L
    a_right: complex   # R -> L
    b_left: complex    # L -> R
    b_right: complex   # R -> R


def _amplitude_row(m: int, panels: int, order: int) -> np.ndarray:
    """Amplitudes a_left, a_right, b_left, b_right of every site
    x = -m, -m + 2, ..., m on one composite grid, as a (4, m + 1) array.

    The alpha, beta, gamma quasi-momentum integrals have weights
    {1, cos k, sin k}/sqrt(1 + cos^2 k) against e^(i(kx - m nu(k))); every
    site shares the nodes, so the three are one (3, nodes) x (nodes, sites)
    product."""
    k, weights = kernels.composite_gauss_legendre(-math.pi, math.pi, panels, order)
    weights = weights / (2.0 * math.pi)
    root = np.sqrt(1.0 + np.cos(k) ** 2)
    base = np.stack([weights, weights * np.cos(k) / root, weights * np.sin(k) / root])
    sites = np.arange(-m, m + 1, 2)
    phase = np.exp(1j * (k[:, None] * sites[None, :] - (m * dispersion_nu(k))[:, None]))
    alpha, beta, gamma = base @ phase
    sign = -1.0 if m % 2 else 1.0
    return np.stack([
        sign * (alpha - beta),
        -sign * (beta + 1j * gamma),
        -sign * (beta - 1j * gamma),
        sign * (alpha + beta),
    ])


def walk_amplitudes_row(m: int) -> np.ndarray:
    """Transition amplitudes a_left, a_right, b_left, b_right of every site
    x = -m, -m + 2, ..., m after m steps, by quasi-momentum quadrature, as a
    (4, m + 1) array (column j is site x = 2j - m).

    The two eigenvalue branches e^{i nu} and -e^{-i nu} of the step operator
    fold into a single set of three base integrals: the branch split by
    projector weights (1 +/- cos k / sqrt(1+cos^2 k))/2 combines, after the
    half-Brillouin-zone shift k -> k + pi, into the parity prefactor
    (1 + (-1)^(m+x))/2 and the bracket assembly of ``_amplitude_row``, which
    is validated against the position-space recursion.

    One pair of composite Gauss-Legendre grids per m serves every site: the
    coarse one (m + 1 panels of order 64) is the convergence guard of the
    fine one (m + 2 panels of order 80), site by site.
    """
    if m < 0:
        raise DomainError("m must be non-negative")
    coarse = _amplitude_row(m, panels=m + 1, order=64)
    fine = _amplitude_row(m, panels=m + 2, order=80)
    dev = np.max(np.abs(coarse - fine), axis=0)
    bad = np.flatnonzero(~(dev <= 1e-8))
    if bad.size:
        j = int(bad[0])
        raise NumericError(
            f"amplitude quadrature did not converge at m={m}, x={2 * j - m}: "
            f"grid-refinement deviation {dev[j]:.3e}"
        )
    return fine


def walk_amplitudes_integral(m: int, x: int) -> WalkAmplitudes:
    """Transition amplitudes to site x after m steps by quasi-momentum
    quadrature: column (x + m) / 2 of ``walk_amplitudes_row(m)``, whose one
    grid pair per m is shared by all sites.  Sites of the wrong parity or
    outside |x| <= m are exactly zero."""
    if m < 0:
        raise DomainError("m must be non-negative")
    if (m + x) % 2 != 0 or abs(x) > m:
        return WalkAmplitudes(0.0j, 0.0j, 0.0j, 0.0j)
    return WalkAmplitudes(*(complex(v) for v in walk_amplitudes_row(m)[:, (x + m) // 2]))


def integral_recursion_deviation(steps: int, coins) -> tuple[float, str]:
    """Largest deviation of the quasi-momentum amplitudes from the position
    recursion over m <= steps, every site and every initial coin pair in
    ``coins``, with the (m, x) where it occurred; the first NaN deviation is
    kept as the worst (``errors.exceeds``)."""
    worst = 0.0
    where = ""
    walks = [walk_states(c_left, c_right, steps) for c_left, c_right in coins]
    for m, states in enumerate(zip(*walks)):
        a_left, a_right, b_left, b_right = walk_amplitudes_row(m)
        for (c_left, c_right), state in zip(coins, states):
            # the occupied sites x = -m, -m + 2, ..., m sit at every other index
            dev = np.maximum(abs(c_left * a_left + c_right * a_right - state.amp_left[::2]),
                             abs(c_left * b_left + c_right * b_right - state.amp_right[::2]))
            j = int(np.argmax(dev))
            if exceeds(float(dev[j]), worst):
                worst, where = float(dev[j]), f"m={m}, x={2 * j - m}"
    return worst, where
