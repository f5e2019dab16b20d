"""Unitary discrete-time Hadamard walk on the line.

A step applies the balanced coin to each site's (L, R) amplitude pair and
then shifts L-amplitudes one site left and R-amplitudes one site right.
Position-space evolution is the ground truth; the quasi-momentum integral
representation is assembled to match it (see ``walk_amplitudes_integral``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DomainError, NumericError

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
    cl = np.concatenate([[0.0], state.amp_left, [0.0]])
    cr = np.concatenate([[0.0], state.amp_right, [0.0]])
    tl = h * (cl + cr)
    tr = h * (cl - cr)
    new_l = np.roll(tl, -1)
    new_l[-1] = 0.0
    new_r = np.roll(tr, 1)
    new_r[0] = 0.0
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


def _base_integrals(m: int, x: int, panels: int, order: int):
    """alpha, beta, gamma quasi-momentum integrals with weights
    {1, cos k, sin k}/sqrt(1 + cos^2 k) against e^(i(kx - m nu(k)))."""
    k, weights = kernels.composite_gauss_legendre(-math.pi, math.pi, panels, order)
    weights = weights / (2.0 * math.pi)
    phase = np.exp(1j * (k * x - m * dispersion_nu(k)))
    root = np.sqrt(1.0 + np.cos(k) ** 2)
    alpha = np.sum(weights * phase)
    beta = np.sum(weights * phase * np.cos(k) / root)
    gamma = np.sum(weights * phase * np.sin(k) / root)
    return alpha, beta, gamma


def _assemble(m: int, x: int, panels: int, order: int) -> WalkAmplitudes:
    alpha, beta, gamma = _base_integrals(m, x, panels, order)
    sign = -1.0 if m % 2 else 1.0
    return WalkAmplitudes(
        a_left=complex(sign * (alpha - beta)),
        a_right=complex(-sign * (beta + 1j * gamma)),
        b_left=complex(-sign * (beta - 1j * gamma)),
        b_right=complex(sign * (alpha + beta)),
    )


def walk_amplitudes_integral(m: int, x: int) -> WalkAmplitudes:
    """Transition amplitudes by quasi-momentum quadrature.

    The two eigenvalue branches e^{i nu} and -e^{-i nu} of the step operator
    fold into a single set of three base integrals: the branch split by
    projector weights (1 +/- cos k / sqrt(1+cos^2 k))/2 combines, after the
    half-Brillouin-zone shift k -> k + pi, into the parity prefactor
    (1 + (-1)^(m+x))/2 and the bracket assembly below, which is validated
    against the position-space recursion.

    Composite Gauss-Legendre with 64 (m+1) total nodes; a refined grid is
    evaluated as a convergence guard.
    """
    if m < 0:
        raise DomainError("m must be non-negative")
    if (m + x) % 2 != 0 or abs(x) > m:
        return WalkAmplitudes(0.0j, 0.0j, 0.0j, 0.0j)
    coarse = _assemble(m, x, panels=m + 1, order=64)
    fine = _assemble(m, x, panels=m + 2, order=80)
    dev = max(
        abs(coarse.a_left - fine.a_left),
        abs(coarse.a_right - fine.a_right),
        abs(coarse.b_left - fine.b_left),
        abs(coarse.b_right - fine.b_right),
    )
    if dev > 1e-8:
        raise NumericError(
            f"amplitude quadrature did not converge at m={m}, x={x}: "
            f"grid-refinement deviation {dev:.3e}"
        )
    return fine


def integral_recursion_deviation(steps: int, coins) -> tuple[float, str]:
    """Largest deviation of the quasi-momentum amplitudes from the position
    recursion over m <= steps, every site and every initial coin pair in
    ``coins``, with the (m, x) where it occurred."""
    worst = 0.0
    where = ""
    walks = [walk_states(c_left, c_right, steps) for c_left, c_right in coins]
    for m, states in enumerate(zip(*walks)):
        for x in range(-m, m + 1, 2):  # -m always has the right parity
            amps = walk_amplitudes_integral(m, x)
            for (c_left, c_right), state in zip(coins, states):
                want_l, want_r = state.coin_pair_at(x)
                dev = max(abs(c_left * amps.a_left + c_right * amps.a_right - want_l),
                          abs(c_left * amps.b_left + c_right * amps.b_right - want_r))
                if dev > worst:
                    worst, where = dev, f"m={m}, x={x}"
    return worst, where
