"""Unitary discrete-time Hadamard walk on the line.

A step applies the balanced coin to each site's (L, R) amplitude pair and
then shifts L-amplitudes one site left and R-amplitudes one site right, so
after n steps only the n + 1 sites -n, -n + 2, ..., n are occupied; states
store those sites alone.  Position-space evolution is the ground truth; the
quasi-momentum integral representation is assembled to match it (see
``walk_amplitude_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DomainError, NumericError, largest_deviation, require_bytes

NORM_TOL = 1e-12
INTEGRAL_RECURSION_TOL = 1e-6
#: (least panel count, Gauss-Legendre order) of the coarse and the fine
#: quasi-momentum grid; a check over ``steps`` spans [-pi, pi] with at least
#: steps + 1 and steps + 2 panels (see ``walk_amplitude_rows``)
COARSE_GRID = (6, 12)
FINE_GRID = (8, 16)


@dataclass(frozen=True)
class WalkState:
    """Pure walker state after ``steps`` steps from the origin.

    Amplitudes are stored over the steps + 1 occupied sites x = -steps,
    -steps + 2, ..., steps (index (x + steps) / 2); every site of the other
    parity is empty.
    """

    steps: int
    amp_left: np.ndarray
    amp_right: np.ndarray

    def __post_init__(self):
        n = self.steps + 1
        if self.steps < 0 or self.amp_left.shape != (n,) or self.amp_right.shape != (n,):
            raise DomainError("amplitude arrays must cover the occupied sites")

    def positions(self) -> np.ndarray:
        return np.arange(-self.steps, self.steps + 1, 2)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amp_left) ** 2 + np.abs(self.amp_right) ** 2))

    def coin_pair_at(self, x: int) -> tuple[complex, complex]:
        if abs(x) > self.steps or (x + self.steps) % 2:
            return 0.0 + 0.0j, 0.0 + 0.0j
        i = (x + self.steps) // 2
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
    """One coin-and-shift step (``kernels.coin_shift``); the occupied sites
    move to the other parity and grow by one site on each side."""
    return WalkState(state.steps + 1, *kernels.coin_shift(state.amp_left, state.amp_right))


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


def walk_evolve(c_left: complex, c_right: complex, m: int) -> WalkState:
    """m-fold step from the origin state with the given coin amplitudes: the
    last of ``walk_states(c_left, c_right, m)``."""
    for state in walk_states(c_left, c_right, m):
        pass
    return state


def walk_table(c_left: complex, c_right: complex, steps: int, amplitudes: bool = False):
    """One block of columns (step, x, p(x)) per state of ``walk_states``, the
    real and imaginary parts of c_L(x) and c_R(x) after them with
    ``amplitudes``, as an iterator, and the list of the states' norms, which
    grows as the blocks are drawn.  The (steps + 1)(steps + 2)/2 rows of 3
    values, or 7, are counted on the call, 8 B a value, before any step."""
    require_bytes(8 * (7 if amplitudes else 3) * (steps + 1) * (steps + 2) // 2,
                  f"the walk table over steps = {steps}")
    norms = []

    def blocks():
        for m, state in enumerate(walk_states(c_left, c_right, steps)):
            norms.append(state.norm())
            left, right = state.amp_left, state.amp_right
            yield [np.full(m + 1, m), state.positions(), list(position_distribution(state).values()),
                   *((left.real, left.imag, right.real, right.imag) if amplitudes else ())]

    return blocks(), norms


def position_distribution(state: WalkState) -> dict[int, float]:
    """p(x) = |c_L(x)|^2 + |c_R(x)|^2 over the occupied sites.  Each p is
    summed per site in Python: numpy's vectorised abs and square of an array
    can differ from the scalar ones in the last bit."""
    return {x: abs(cl) ** 2 + abs(cr) ** 2 for x, cl, cr in zip(
        state.positions().tolist(), state.amp_left.tolist(), state.amp_right.tolist())}


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


def _running_powers(z: np.ndarray, first: int, out: np.ndarray) -> np.ndarray:
    """Fill row i of ``out`` with z^(first + 2i), each row the previous one
    times z^2."""
    out[0] = z ** first  # exact for first = 0 and 1
    step = z * z
    for i in range(1, len(out)):
        np.multiply(out[i - 1], step, out=out[i])
    return out


def _parity_block(base: np.ndarray, e_k: np.ndarray, e_nu: np.ndarray,
                  low: int, top: int) -> np.ndarray:
    """Amplitudes of the step counts m = low, low + 2, ..., top at the sites
    x = -top, -top + 2, ..., top, as a (counts, 4, sites) array, from the
    node weights ``base`` and the phases e^(ik), e^(-i nu(k))."""
    nodes = base.shape[1]
    parity = low % 2
    n_pos = (top - parity) // 2 + 1
    n_neg = n_pos - 1 + parity
    # e^(-i m nu) times each weight: the running powers are dropped before
    # the site phases are built, so that the two tables never coexist
    counts = (top - low) // 2 + 1
    step_phase = _running_powers(e_nu, low, np.empty((counts, nodes), dtype=complex))
    lhs = (step_phase[:, None, :] * base).reshape(-1, nodes)
    del step_phase
    # e^(ikx) for the n_neg sites x < 0, then the n_pos sites x >= 0
    phase = np.empty((n_neg + n_pos, nodes), dtype=complex)
    _running_powers(e_k, parity, phase[n_neg:])
    np.conjugate(phase[n_neg + 1 - parity:][::-1], out=phase[:n_neg])
    products = lhs @ phase.T
    del lhs, phase  # the node tables end before the rows are assembled
    alpha, beta, gamma = products.reshape(-1, 3, n_neg + n_pos).transpose(1, 0, 2)
    sign = -1.0 if parity else 1.0
    return np.stack([
        sign * (alpha - beta),
        -sign * (beta + 1j * gamma),
        -sign * (beta - 1j * gamma),
        sign * (alpha + beta),
    ], axis=1)


def _amplitude_rows(panels: int, order: int, last: int, first: int = 0) -> dict[int, np.ndarray]:
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
    for low in range(first, min(first + 1, last) + 1):
        top = last - (last - low) % 2
        block = _parity_block(base, e_k, e_nu, low, top)
        for m, amplitudes in zip(range(low, top + 1, 2), block):
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


def grid_pair(steps: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(panels, order) of the coarse and the fine grid of a check over
    ``steps``: steps + 1 and steps + 2 panels, each at least its grid's
    floor, of ``COARSE_GRID``'s and ``FINE_GRID``'s order."""
    (coarse_floor, coarse_order), (fine_floor, fine_order) = COARSE_GRID, FINE_GRID
    return (max(coarse_floor, steps + 1), coarse_order), (max(fine_floor, steps + 2), fine_order)


def _rows_bytes(steps: int, counts: int) -> int:
    """Bytes held at the peak of forming, on the grid pair of ``steps``, the
    rows of ``counts`` step counts of the parity of ``steps`` and of at most
    as many of the other.  The peak comes while the fine grid forms a parity
    block, which holds its (3 counts, nodes) weight table and its
    (steps + 1, nodes) site-phase table while the grid holds its node
    vectors, 5 complex values a node.  Per site and step count, the rows hold
    4 amplitudes in each of the coarse grid's two parity blocks and the fine
    grid's first, and the product being formed 3 integrals.  numpy's ufunc
    loops add up to ``numpy.getbufsize()`` values for each of three operands.
    The count is a twentieth over the tables, its stated headroom: measured
    warm under tracemalloc, ``integral_recursion_deviation`` over two coins
    peaks at 0.51 / 0.78 / 0.91 of ``integral_check_bytes`` at 12 / 40 / 120
    steps, and ``walk_amplitudes_row`` at 0.21 / 0.69 / 0.90 of
    ``amplitude_row_bytes``."""
    nodes = math.prod(grid_pair(steps)[1])
    complex_values = nodes * (3 * counts + steps + 6) + 15 * counts * (steps + 1)
    return 16 * (complex_values * 21 // 20 + 3 * np.getbufsize())


def integral_check_bytes(steps: int) -> int:
    """Bytes held at the peak of ``walk_amplitude_rows(steps)`` (see
    ``_rows_bytes``): the fine grid's parity block of ``steps`` forms the
    steps // 2 + 1 step counts of its parity."""
    return _rows_bytes(steps, steps // 2 + 1)


def amplitude_row_bytes(m: int) -> int:
    """Bytes held at the peak of ``walk_amplitudes_row(m)`` (see
    ``_rows_bytes``): its one parity block forms the step count m alone."""
    return _rows_bytes(m, 1)


def walk_amplitude_rows(steps: int):
    """The transition amplitudes a_left, a_right, b_left, b_right of every
    site x = -m, -m + 2, ..., m after m = 0, 1, ..., steps steps, by
    quasi-momentum quadrature: an iterator of (4, m + 1) arrays, column j of
    row m being site x = 2j - m.

    The two eigenvalue branches e^{i nu} and -e^{-i nu} of the step operator
    fold into a single set of three base integrals: the branch split by
    projector weights (1 +/- cos k / sqrt(1+cos^2 k))/2 combines, after the
    half-Brillouin-zone shift k -> k + pi, into the parity prefactor
    (1 + (-1)^(m+x))/2 and the bracket assembly of ``_parity_block``, which
    is validated against the position-space recursion.

    One pair of composite Gauss-Legendre grids serves every row and site;
    the coarse one is the convergence guard of the fine one, and
    ``grid_pair`` sizes both to the integrand.  Its phase kx - m nu(k)
    changes by at most (1 + 1/sqrt(2)) m per unit k, since |x| <= m and
    |nu'(k)| <= 1/sqrt(2), so on at least steps + 1 equal panels of
    [-pi, pi] no panel spans more than 2 pi (1 + 1/sqrt(2)) = 10.7 rad,
    whatever the step count.  Over that span the Gauss-Legendre rule of
    order 12 integrates e^(i theta) to 4e-14 of the panel's width, well
    inside the 1e-8 guard, and that of order 16 to rounding.  The weight
    1/sqrt(1 + cos^2 k) and nu(k) are singular 0.88 off the real axis; at a
    few steps, panels that wide would bound the rule by that distance, so
    ``COARSE_GRID`` and ``FINE_GRID`` keep at least 6 and 8 panels, where
    those orders reach 3e-14 and 3e-22.  A run whose
    ``integral_check_bytes`` exceed ``errors.MAX_GRID_BYTES`` is refused on
    the call, before either grid is built.  Each row is guarded site by site
    as it is taken, so a row that fails the guard raises ``NumericError``
    after every earlier row."""
    return _guarded_rows(0, steps)


def _guarded_rows(first: int, steps: int):
    """The rows m = first..steps of ``walk_amplitude_rows(steps)``, on its
    grid pair and each with its guard, counted and refused on the call."""
    if steps < 0:
        raise DomainError("step count must be non-negative")
    if first == steps:
        require_bytes(amplitude_row_bytes(steps), f"the amplitude row of m = {steps}")
    else:
        require_bytes(integral_check_bytes(steps), f"the integral check over steps = {steps}")
    coarse, fine = (_amplitude_rows(*grid, steps, first) for grid in grid_pair(steps))
    return (_refined(m, coarse[m], fine[m]) for m in range(first, steps + 1))


def walk_amplitudes_row(m: int) -> np.ndarray:
    """The amplitudes of every site after m steps, (4, m + 1): the last row of
    ``walk_amplitude_rows(m)``, on its grid pair and with its guard, formed
    from the one step count m alone, whose phase e^(-i m nu) is one power of
    e^(-i nu).  A row whose ``amplitude_row_bytes`` exceed
    ``errors.MAX_GRID_BYTES`` is refused before either grid is built."""
    return next(_guarded_rows(m, m))


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
    ``coins``, stepped as one (sites, coins) array, with the (m, x) where it
    occurred, by ``errors.largest_deviation`` over each row's first largest
    entry.  The rows come from ``walk_amplitude_rows``, one grid pair for the
    check, refused on the call when its grids would pass the byte budget."""
    rows = walk_amplitude_rows(steps)
    left, right = np.array([initial_state(*coin).coin_pair_at(0) for coin in coins]).T[:, None]
    c_left, c_right = left.T, right.T  # (coins, 1) columns of the (1, coins) origin rows
    devs, sites = np.empty(steps + 1), np.empty(steps + 1, dtype=int)
    for m, (a_left, a_right, b_left, b_right) in enumerate(rows):
        if m:
            left, right = kernels.coin_shift(left, right)
        dev = np.maximum(abs(c_left * a_left + c_right * a_right - left.T),
                         abs(c_left * b_left + c_right * b_right - right.T))
        devs[m], sites[m] = dev.max(), dev.argmax() % (m + 1)  # the first NaN or largest
    return largest_deviation(devs, lambda m: f"m={m}, x={2 * sites[m] - m}")
