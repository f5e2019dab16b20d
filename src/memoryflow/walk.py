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


def _running_powers(z: np.ndarray, parity: int, out: np.ndarray) -> np.ndarray:
    """Fill row i of ``out`` with z^(parity + 2i), each row the previous one
    times z^2."""
    out[0] = z if parity else 1.0
    step = z * z
    for i in range(1, len(out)):
        np.multiply(out[i - 1], step, out=out[i])
    return out


def _parity_block(base: np.ndarray, e_k: np.ndarray, e_nu: np.ndarray,
                  parity: int, lo: int, top: int) -> np.ndarray:
    """Amplitudes of the step counts m = lo, lo + 2, ..., top of one parity at
    the sites x = -top, -top + 2, ..., top, as a (counts, 4, sites) array,
    from the node weights ``base`` and the phases e^(ik), e^(-i nu(k))."""
    nodes = base.shape[1]
    n_pos = (top - parity) // 2 + 1
    n_neg = n_pos - 1 + parity
    # e^(-i m nu) times each weight: the running powers are dropped before
    # the site phases are built, so that the two tables never coexist
    step_phase = _running_powers(e_nu, parity, np.empty((n_pos, nodes), dtype=complex))
    lhs = (step_phase[(lo - parity) // 2:, None, :] * base).reshape(-1, nodes)
    del step_phase
    # e^(ikx) for the n_neg sites x < 0, then the n_pos sites x >= 0
    phase = np.empty((n_neg + n_pos, nodes), dtype=complex)
    _running_powers(e_k, parity, phase[n_neg:])
    np.conjugate(phase[n_neg + 1 - parity:][::-1], out=phase[:n_neg])
    alpha, beta, gamma = (lhs @ phase.T).reshape(-1, 3, n_neg + n_pos).transpose(1, 0, 2)
    sign = -1.0 if parity else 1.0
    return np.stack([
        sign * (alpha - beta),
        -sign * (beta + 1j * gamma),
        -sign * (beta - 1j * gamma),
        sign * (alpha + beta),
    ], axis=1)


def _amplitude_rows(panels: int, order: int, first: int, last: int) -> dict[int, np.ndarray]:
    """Amplitudes a_left, a_right, b_left, b_right of every site
    x = -m, -m + 2, ..., m on one composite grid, as a (4, m + 1) array for
    each step count m = first..last.

    The alpha, beta, gamma quasi-momentum integrals have weights
    {1, cos k, sin k}/sqrt(1 + cos^2 k) against e^(ikx) e^(-i m nu(k)).  Both
    phases are running products of e^(ik) and e^(-i nu(k)), one exp each per
    node, and e^(-ikx) is the conjugate of e^(ikx).  Step counts of one parity
    occupy the sites of that parity only, so the three integrals of all of
    them at every site are one (3 * counts, nodes) x (nodes, sites) product."""
    k, weights = kernels.composite_gauss_legendre(-math.pi, math.pi, panels, order)
    weights = weights / (2.0 * math.pi)
    root = np.sqrt(1.0 + np.cos(k) ** 2)
    base = np.stack([weights, weights * np.cos(k) / root, weights * np.sin(k) / root])
    e_k = np.exp(1j * k)
    e_nu = np.exp(-1j * dispersion_nu(k))
    rows = {}
    for parity in (0, 1):
        lo = first + (first - parity) % 2
        top = last - (last - parity) % 2
        if lo > top:
            continue
        block = _parity_block(base, e_k, e_nu, parity, lo, top)
        for m, amplitudes in zip(range(lo, top + 1, 2), block):
            j = (top - m) // 2
            rows[m] = amplitudes[:, j:j + m + 1]
    return rows


def _refined(m: int, coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """The fine row of m, once the coarse one agrees with it to 1e-8 at every
    site; a NaN deviation fails too."""
    dev = np.max(np.abs(coarse - fine), axis=0)
    bad = np.flatnonzero(~(dev <= 1e-8))
    if bad.size:
        j = int(bad[0])
        raise NumericError(
            f"amplitude quadrature did not converge at m={m}, x={2 * j - m}: "
            f"grid-refinement deviation {dev[j]:.3e}"
        )
    return fine


def walk_amplitudes_row(m: int) -> np.ndarray:
    """Transition amplitudes a_left, a_right, b_left, b_right of every site
    x = -m, -m + 2, ..., m after m steps, by quasi-momentum quadrature, as a
    (4, m + 1) array (column j is site x = 2j - m).

    The two eigenvalue branches e^{i nu} and -e^{-i nu} of the step operator
    fold into a single set of three base integrals: the branch split by
    projector weights (1 +/- cos k / sqrt(1+cos^2 k))/2 combines, after the
    half-Brillouin-zone shift k -> k + pi, into the parity prefactor
    (1 + (-1)^(m+x))/2 and the bracket assembly of ``_parity_block``, which
    is validated against the position-space recursion.

    One pair of composite Gauss-Legendre grids serves every site: the coarse
    one (m + 1 panels of order 64) is the convergence guard of the fine one
    (m + 2 panels of order 80), site by site.  Only row m is formed; for every
    row up to some m, ``walk_amplitude_rows`` shares one grid pair.
    """
    if m < 0:
        raise DomainError("m must be non-negative")
    coarse = _amplitude_rows(m + 1, 64, m, m)[m]
    fine = _amplitude_rows(m + 2, 80, m, m)[m]
    return _refined(m, coarse, fine)


def integral_check_bytes(steps: int) -> int:
    """Bytes of the largest table ``walk_amplitude_rows(steps)`` builds: on the
    fine grid of (steps + 2) * 80 nodes, the parity block of ``steps`` holds
    its (3 counts, nodes) weight table and its (steps + 1, nodes) site-phase
    table at once, both complex."""
    counts = steps // 2 + 1  # step counts m <= steps with the parity of steps
    return 16 * (steps + 2) * 80 * (3 * counts + steps + 1)


def walk_amplitude_rows(steps: int):
    """Yield the amplitude rows of m = 0, 1, ..., steps, each laid out as
    ``walk_amplitudes_row(m)`` lays it out, all from the one grid pair that
    row ``steps`` uses: steps + 1 panels of order 64 guarding steps + 2 panels
    of order 80.  Each row is guarded site by site before it is yielded, so a
    row that fails the guard raises ``NumericError`` after every earlier row."""
    if steps < 0:
        raise DomainError("step count must be non-negative")
    coarse = _amplitude_rows(steps + 1, 64, 0, steps)
    fine = _amplitude_rows(steps + 2, 80, 0, steps)
    for m in range(steps + 1):
        yield _refined(m, coarse[m], fine[m])


def walk_amplitudes_integral(m: int, x: int) -> WalkAmplitudes:
    """Transition amplitudes to site x after m steps by quasi-momentum
    quadrature: column (x + m) / 2 of ``walk_amplitudes_row(m)``, whose one
    grid pair is shared by all sites.  Sites of the wrong parity or
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
    kept as the worst (``errors.exceeds``).  The rows come from
    ``walk_amplitude_rows``, one grid pair for the whole check."""
    worst = 0.0
    where = ""
    walks = [walk_states(c_left, c_right, steps) for c_left, c_right in coins]
    for m, (states, row) in enumerate(zip(zip(*walks), walk_amplitude_rows(steps))):
        a_left, a_right, b_left, b_right = row
        for (c_left, c_right), state in zip(coins, states):
            # the occupied sites x = -m, -m + 2, ..., m sit at every other index
            dev = np.maximum(abs(c_left * a_left + c_right * a_right - state.amp_left[::2]),
                             abs(c_left * b_left + c_right * b_right - state.amp_right[::2]))
            j = int(np.argmax(dev))
            if exceeds(float(dev[j]), worst):
                worst, where = float(dev[j]), f"m={m}, x={2 * j - m}"
    return worst, where
