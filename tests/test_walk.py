import math
import tracemalloc

import numpy as np
import pytest

from memoryflow import errors, kernels, openwalk, walk
from memoryflow.errors import DomainError, NumericError, ResourceLimitError
from memoryflow.spectra import DephasingConfig, SpectrumParams
from memoryflow.walk import (
    WalkAmplitudes,
    dispersion_nu,
    initial_state,
    integral_recursion_deviation,
    position_distribution,
    walk_amplitude_rows,
    walk_amplitudes_integral,
    walk_amplitudes_row,
    walk_evolve,
    walk_states,
    walk_step,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
COARSE_ORDER, FINE_ORDER = walk.COARSE_GRID[1], walk.FINE_GRID[1]


def full_lattice_walk(c_left, c_right, n):
    """The L and R amplitudes after n steps from the origin on all 2n + 1
    sites -n..n, every site stored: an independent reference for the
    occupied-site layout."""
    psi = np.zeros((2, 2 * n + 1), dtype=complex)
    psi[:, n] = c_left, c_right
    for _ in range(n):
        coined = INV_SQRT2 * (psi[0] + psi[1]), INV_SQRT2 * (psi[0] - psi[1])
        psi[0] = np.roll(coined[0], -1)
        psi[0][-1] = 0.0
        psi[1] = np.roll(coined[1], 1)
        psi[1][0] = 0.0
    return psi


class TestWalkStep:
    def test_single_step_from_left(self):
        state = walk_step(initial_state(1.0, 0.0))
        assert state.coin_pair_at(-1)[0] == pytest.approx(INV_SQRT2)
        assert state.coin_pair_at(1)[1] == pytest.approx(INV_SQRT2)
        assert state.coin_pair_at(-1)[1] == 0.0
        assert state.coin_pair_at(1)[0] == 0.0

    def test_two_step_distribution(self):
        state = walk_step(walk_step(initial_state(1.0, 0.0)))
        probs = position_distribution(state)
        assert probs[-2] == pytest.approx(0.25, abs=1e-14)
        assert probs[0] == pytest.approx(0.5, abs=1e-14)
        assert probs[2] == pytest.approx(0.25, abs=1e-14)

    def test_norm_preserved_random_state(self):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        state = initial_state(amps[0], amps[1])
        for _ in range(5):
            state = walk_step(state)
            assert state.norm() == pytest.approx(1.0, abs=1e-14)


class TestWalkEvolve:
    def test_zero_steps(self):
        state = walk_evolve(0.6, 0.8j, 0)
        assert state.steps == 0
        assert state.coin_pair_at(0) == (0.6 + 0.0j, 0.8j)

    def test_matches_repeated_steps(self):
        state_a = walk_evolve(INV_SQRT2, 1j * INV_SQRT2, 7)
        state_b = initial_state(INV_SQRT2, 1j * INV_SQRT2)
        for _ in range(7):
            state_b = walk_step(state_b)
        assert np.allclose(state_a.amp_left, state_b.amp_left, atol=1e-14)
        assert np.allclose(state_a.amp_right, state_b.amp_right, atol=1e-14)

    def test_left_chirality_leans_left(self):
        state = walk_evolve(1.0, 0.0, 10)
        probs = position_distribution(state)
        mean = sum(x * p for x, p in probs.items())
        assert mean < -1.0

    def test_symmetric_coin_symmetric_distribution(self):
        for m in (3, 8, 13):
            state = walk_evolve(INV_SQRT2, 1j * INV_SQRT2, m)
            p = np.abs(state.amp_left) ** 2 + np.abs(state.amp_right) ** 2
            assert np.max(np.abs(p - p[::-1])) < 1e-14

    def test_unitarity_over_hundred_steps(self):
        state = walk_evolve(0.6, 0.8j, 100)
        assert abs(state.norm() - 1.0) < 1e-10

    def test_modularity_exact_zeros(self):
        # on the full lattice the sites of the other parity stay exactly
        # empty, and the occupied ones are the stored amplitudes bit for bit
        for coin in ((1.0, 0.0), (0.6, 0.8j)):
            for n, state in enumerate(walk_states(*coin, 9)):
                left, right = full_lattice_walk(*coin, n)
                assert np.all(left[1::2] == 0.0) and np.all(right[1::2] == 0.0)
                assert left[0::2].tobytes() == state.amp_left.tobytes()
                assert right[0::2].tobytes() == state.amp_right.tobytes()

    def test_ballistic_spread(self):
        def sigma_pos(m):
            probs = position_distribution(walk_evolve(1.0, 0.0, m))
            xs = np.array(list(probs))
            ps = np.array([probs[int(x)] for x in xs])
            mean = float(np.sum(xs * ps))
            return math.sqrt(float(np.sum((xs - mean) ** 2 * ps)))

        assert sigma_pos(20) / sigma_pos(10) > math.sqrt(2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            walk_evolve(1.0, 0.0, -1)
        with pytest.raises(DomainError):
            walk_evolve(1.0, 1.0, 3)  # unnormalized


class TestWalkStates:
    def test_each_state_is_walk_evolve_bit_for_bit(self):
        states = list(walk_states(0.6, 0.8j, 120))
        assert [s.steps for s in states] == list(range(121))
        for m in (0, 1, 2, 7, 64, 120):
            want = walk_evolve(0.6, 0.8j, m)
            run_left, run_right = kernels.walk_run(0.6, 0.8j, m)
            for got in (states[m].amp_left, run_left):
                assert got.tobytes() == want.amp_left.tobytes()
            for got in (states[m].amp_right, run_right):
                assert got.tobytes() == want.amp_right.tobytes()

    def test_array_step_is_one_step_per_column(self):
        # a (sites, K) step, as the dilation oracle takes it, is K site steps
        rng = np.random.default_rng(5)
        left = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
        right = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
        new_left, new_right = kernels.coin_shift(left, right)
        assert new_left.shape == new_right.shape == (10, 4)
        for k in range(4):
            one_left, one_right = kernels.coin_shift(left[:, k], right[:, k])
            assert one_left.tobytes() == np.ascontiguousarray(new_left[:, k]).tobytes()
            assert one_right.tobytes() == np.ascontiguousarray(new_right[:, k]).tobytes()

    def test_domain(self):
        with pytest.raises(DomainError):
            next(walk_states(1.0, 0.0, -1))
        with pytest.raises(DomainError):
            next(walk_states(1.0, 1.0, 3))  # unnormalized


class TestDispersion:
    def test_zero(self):
        assert dispersion_nu(0.0) == 0.0

    def test_quarter_pi(self):
        assert dispersion_nu(math.pi / 2.0) == pytest.approx(math.pi / 4.0, abs=1e-14)

    def test_odd(self):
        for k in np.linspace(0.1, 3.0, 7):
            assert dispersion_nu(-k) == pytest.approx(-dispersion_nu(k), abs=1e-15)

    def test_defining_relation(self):
        for k in np.linspace(-3.0, 3.0, 17):
            assert math.sin(k) == pytest.approx(math.sqrt(2.0) * math.sin(dispersion_nu(k)), abs=1e-14)


class TestAmplitudeIntegrals:
    def test_parity_blocked_sites_vanish(self):
        amps = walk_amplitudes_integral(3, 0)
        assert amps == (0.0j, 0.0j, 0.0j, 0.0j)

    def test_one_step_left_channel(self):
        amps = walk_amplitudes_integral(1, -1)
        assert abs(amps.a_left) == pytest.approx(INV_SQRT2, abs=1e-10)

    def test_two_step_origin_matches_recursion(self):
        left = walk_evolve(1.0, 0.0, 2)
        right = walk_evolve(0.0, 1.0, 2)
        amps = walk_amplitudes_integral(2, 0)
        assert amps.a_left == pytest.approx(left.coin_pair_at(0)[0], abs=1e-10)
        assert amps.b_left == pytest.approx(left.coin_pair_at(0)[1], abs=1e-10)
        assert amps.a_right == pytest.approx(right.coin_pair_at(0)[0], abs=1e-10)
        assert amps.b_right == pytest.approx(right.coin_pair_at(0)[1], abs=1e-10)

    @pytest.mark.parametrize("m", range(0, 9))
    def test_all_channels_match_recursion(self, m):
        left = walk_evolve(1.0, 0.0, m)
        right = walk_evolve(0.0, 1.0, m)
        for x in range(-m, m + 1):
            if (m + x) % 2 != 0:
                continue
            amps = walk_amplitudes_integral(m, x)
            al, bl = left.coin_pair_at(x)
            ar, br = right.coin_pair_at(x)
            assert abs(amps.a_left - al) < 1e-6
            assert abs(amps.b_left - bl) < 1e-6
            assert abs(amps.a_right - ar) < 1e-6
            assert abs(amps.b_right - br) < 1e-6


def _base_integrals(m, x, panels, order):
    """alpha, beta, gamma quasi-momentum integrals of one site, each a sum over
    the nodes: the per-site reference for the batched rows."""
    k, weights = kernels.composite_gauss_legendre(-math.pi, math.pi, panels, order)
    weights = weights / (2.0 * math.pi)
    phase = np.exp(1j * (k * x - m * dispersion_nu(k)))
    root = np.sqrt(1.0 + np.cos(k) ** 2)
    alpha = np.sum(weights * phase)
    beta = np.sum(weights * phase * np.cos(k) / root)
    gamma = np.sum(weights * phase * np.sin(k) / root)
    return alpha, beta, gamma


def _assemble(m, x, panels, order):
    alpha, beta, gamma = _base_integrals(m, x, panels, order)
    sign = -1.0 if m % 2 else 1.0
    return WalkAmplitudes(
        a_left=complex(sign * (alpha - beta)),
        a_right=complex(-sign * (beta + 1j * gamma)),
        b_left=complex(-sign * (beta - 1j * gamma)),
        b_right=complex(sign * (alpha + beta)),
    )


class TestAmplitudeRows:
    @pytest.mark.parametrize("m", range(13))
    def test_row_matches_per_site_reference(self, m):
        row = walk_amplitudes_row(m)
        assert row.shape == (4, m + 1)
        for j, x in enumerate(range(-m, m + 1, 2)):
            want = _assemble(m, x, *walk.grid_pair(m)[1])
            assert np.max(np.abs(row[:, j] - np.array(want))) <= 1e-14
            assert walk_amplitudes_integral(m, x) == tuple(complex(v) for v in row[:, j])

    def test_refinement_guard_names_the_site(self, monkeypatch):
        # spoil the coarse grid at one site only: the guard is checked per site
        exact = walk._amplitude_rows

        def spoiled(panels, order, *counts):
            rows = exact(panels, order, *counts)
            if order == COARSE_ORDER and 5 in rows:
                rows[5][1, 3] += 1e-7
            return rows

        monkeypatch.setattr(walk, "_amplitude_rows", spoiled)
        with pytest.raises(NumericError, match=r"m=5, x=1: grid-refinement deviation 1\.000e-07"):
            walk_amplitudes_row(5)
        with pytest.raises(NumericError, match="m=5, x=1"):
            integral_recursion_deviation(5, [(1.0, 0.0)])

    def test_coarse_order_too_low_is_refused(self, monkeypatch):
        exact = walk._amplitude_rows
        monkeypatch.setattr(walk, "_amplitude_rows",
                            lambda panels, order, *counts:
                            exact(panels, 4 if order == COARSE_ORDER else order, *counts))
        # one row is formed and guarded alone; the rows up to 12 are each
        # guarded in turn, and the order-4 guard fails first at m = 1
        with pytest.raises(NumericError, match=r"did not converge at m=12, x="):
            walk_amplitudes_row(12)
        with pytest.raises(NumericError, match=r"did not converge at m=1, x=-1:"):
            list(walk_amplitude_rows(12))

    @pytest.mark.parametrize("m", range(41))
    def test_row_is_the_last_of_the_rows(self, m):
        # the row of m alone, from one power of e^(-i nu), on the same grid pair
        *_, last = walk_amplitude_rows(m)
        assert np.max(np.abs(walk_amplitudes_row(m) - last)) <= 1e-14

    @pytest.mark.parametrize("steps", [0, 1, 12, 40])
    def test_shared_grid_rows_match_single_rows(self, steps):
        rows = list(walk_amplitude_rows(steps))
        assert len(rows) == steps + 1
        for m, row in enumerate(rows):
            assert row.shape == (4, m + 1)
            assert np.max(np.abs(row - walk_amplitudes_row(m))) <= 1e-14
            for j, x in enumerate(range(-m, m + 1, 2)):
                want = _assemble(m, x, *walk.grid_pair(steps)[1])
                assert np.max(np.abs(row[:, j] - np.array(want))) <= 1e-14

    @pytest.mark.parametrize("order", [(COARSE_ORDER,), (FINE_ORDER,), (COARSE_ORDER, FINE_ORDER)],
                             ids=["coarse", "fine", "both"])
    def test_nan_in_one_shared_row_fails_the_check(self, monkeypatch, order):
        # a NaN on either grid, or on both, is a refinement deviation that fails
        exact = walk._amplitude_rows

        def poisoned(panels, grid_order, *counts):
            rows = exact(panels, grid_order, *counts)
            if grid_order in order and 3 in rows:
                rows[3][2, 1] = np.nan
            return rows

        monkeypatch.setattr(walk, "_amplitude_rows", poisoned)
        with pytest.raises(NumericError, match=r"m=3, x=-1: grid-refinement deviation nan"):
            integral_recursion_deviation(6, [(1.0, 0.0), (0.0, 1.0)])

    def test_one_grid_pair_per_check(self, monkeypatch):
        grids = []
        exact = kernels.composite_gauss_legendre

        def counted(*args):
            grids.append(args[2:])
            return exact(*args)

        monkeypatch.setattr(kernels, "composite_gauss_legendre", counted)
        for steps in (0, 5, 12):
            grids.clear()
            integral_recursion_deviation(steps, [(1.0, 0.0), (0.0, 1.0)])
            # (panels, order): steps + 1 and steps + 2 panels, at least each
            # grid's floor, which 0 and 5 steps fall below
            (coarse_floor, _), (fine_floor, _) = walk.COARSE_GRID, walk.FINE_GRID
            assert grids == [(max(coarse_floor, steps + 1), COARSE_ORDER),
                             (max(fine_floor, steps + 2), FINE_ORDER)]

    @pytest.mark.parametrize("steps", [*range(41), 150])
    def test_both_grids_match_the_recursion(self, steps):
        # the fine rows agree with the position recursion to rounding, and the
        # coarse rows, on their own grid, within the 1e-8 refinement guard
        assert integral_recursion_deviation(steps, [(1.0, 0.0), (0.0, 1.0)])[0] <= 1e-14
        coarse = walk._amplitude_rows(*walk.grid_pair(steps)[0], steps)
        for m, left, right in zip(range(steps + 1), walk_states(1.0, 0.0, steps),
                                  walk_states(0.0, 1.0, steps)):
            want = np.array([left.amp_left, right.amp_left, left.amp_right, right.amp_right])
            assert np.max(np.abs(coarse[m] - want)) <= 1e-8

    @pytest.mark.parametrize("steps", [12, 40, 120])
    def test_counts_cover_the_measured_peak(self, steps):
        # the integral check over two coins and the row of one step count hold
        # no more than their counts, with 5% to spare; one untraced call first
        # fills the Gauss rule cache, which a run holds for good, not per call
        for route, count in (
                (lambda: integral_recursion_deviation(steps, [(1.0, 0.0), (0.0, 1.0)]),
                 walk.integral_check_bytes(steps)),
                (lambda: walk_amplitudes_row(steps), walk.amplitude_row_bytes(steps))):
            route()
            tracemalloc.start()
            try:
                route()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 1.05 * peak <= count

    def test_largest_row_within_budget_reaches_its_grids(self, monkeypatch):
        # the row has its own count, not that of the integral check over m:
        # the largest m within MAX_GRID_BYTES reaches its grids, and m + 1 is
        # refused before any grid is built
        edge = max(m for m in range(2000) if walk.amplitude_row_bytes(m) <= errors.MAX_GRID_BYTES)
        assert edge == 992

        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(walk, "_amplitude_rows", reached)
        with pytest.raises(Reached):
            walk_amplitudes_row(edge)
        with pytest.raises(ResourceLimitError, match="amplitude row of m = 993 would exceed"):
            walk_amplitudes_row(edge + 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            walk_amplitudes_row(-1)
        with pytest.raises(DomainError):
            walk_amplitudes_integral(-1, 0)

    def test_deviation_names_its_site(self):
        worst, where = integral_recursion_deviation(6, [(1.0, 0.0), (0.0, 1.0)])
        assert 0.0 < worst < 1e-12
        m, x = (int(part.split("=")[1]) for part in where.split(", "))
        assert 0 <= m <= 6 and (m + x) % 2 == 0 and abs(x) <= m

    def test_nan_recursion_state_is_the_worst_deviation(self, monkeypatch):
        # the first NaN deviation is kept as the worst, with its site
        original = kernels.coin_shift

        def poisoned(left, right):
            left, right = original(left, right)
            if len(left) == 3:
                left[1, 0] = np.nan  # step 2, site x = 0, the first coin
            return left, right

        monkeypatch.setattr(kernels, "coin_shift", poisoned)
        worst, where = integral_recursion_deviation(4, [(1.0, 0.0), (0.0, 1.0)])
        assert math.isnan(worst)
        assert where == "m=2, x=0"


class TestOccupiedSites:
    """Every walk route stores the n + 1 occupied sites -n, -n + 2, ..., n of
    step n, and nothing else; the amplitude rows are pinned in
    ``TestAmplitudeRows`` and the measure's coin pair in ``test_nonmarkov.py``."""

    def test_states(self):
        for n, state in enumerate(walk_states(0.6, 0.8j, 12)):
            assert state.amp_left.shape == state.amp_right.shape == (n + 1,)
            assert state.positions().tolist() == list(range(-n, n + 1, 2))

    def test_dilation_branches(self, monkeypatch):
        shapes = []
        original = kernels.coin_shift

        def recorded(left, right):
            shapes.append(left.shape)
            return original(left, right)

        monkeypatch.setattr(kernels, "coin_shift", recorded)
        spectrum, config = SpectrumParams(0.7, 1.0, 15.0, 9.0), DephasingConfig(0.009, 3.0)
        run = list(openwalk.dilation_densities(0.6, 0.8j, 5, spectrum, config, 8))
        assert shapes == [(n + 1, 8) for n in range(5)]
        assert [rho.matrix.shape for rho, _, _ in run] == [(2 * (n + 1),) * 2 for n in range(6)]

    def test_coin_pair_at_empty_and_outside_sites(self):
        state = walk_evolve(0.6, 0.8j, 5)
        for x in range(-7, 8):
            i = (x + 5) // 2
            want = ((complex(state.amp_left[i]), complex(state.amp_right[i]))
                    if abs(x) <= 5 and (x + 5) % 2 == 0 else (0j, 0j))
            assert state.coin_pair_at(x) == want


class TestPositionDistribution:
    def test_occupied_sites_only(self):
        probs = position_distribution(walk_evolve(0.6, 0.8j, 6))
        assert list(probs) == [-6, -4, -2, 0, 2, 4, 6]

    def test_scalar_sum_per_site(self):
        # walk_distribution.csv keeps its bits only with Python's scalar abs and
        # square: numpy's array versions differ in the last bit at some sites
        for state in walk_states(1.0, 0.0, 300):
            sites = zip(state.positions().tolist(), state.amp_left, state.amp_right)
            want = {x: abs(complex(cl)) ** 2 + abs(complex(cr)) ** 2 for x, cl, cr in sites}
            assert position_distribution(state) == want

    def test_origin(self):
        assert position_distribution(initial_state(1.0, 0.0)) == {0: 1.0}

    def test_one_step(self):
        probs = position_distribution(walk_evolve(1.0, 0.0, 1))
        assert probs[-1] == pytest.approx(0.5, abs=1e-14)
        assert probs[1] == pytest.approx(0.5, abs=1e-14)

    def test_sums_to_one_and_non_negative(self):
        probs = position_distribution(walk_evolve(0.6, 0.8j, 25))
        values = np.array(list(probs.values()))
        assert np.all(values >= 0.0)
        assert float(values.sum()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("steps,left,right", [
    pytest.param(2, 3, 2, id="right-short"),
    pytest.param(2, 2, 3, id="left-short"),
    pytest.param(-1, 0, 0, id="negative-steps"),
])
def test_state_shape_refused(steps, left, right):
    with pytest.raises(DomainError, match="occupied sites"):
        walk.WalkState(steps, np.zeros(left, dtype=complex), np.zeros(right, dtype=complex))
