import math

import numpy as np
import pytest

from memoryflow import kernels, walk
from memoryflow.errors import DomainError, NumericError
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
        state = walk_evolve(1.0, 0.0, 9)
        for x in state.positions():
            if (9 + x) % 2 != 0:
                i = x + 9
                assert state.amp_left[i] == 0.0
                assert state.amp_right[i] == 0.0

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
            assert np.array_equal(states[m].amp_left, want.amp_left)
            assert np.array_equal(states[m].amp_right, want.amp_right)

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
            want = _assemble(m, x, panels=m + 2, order=80)
            assert np.max(np.abs(row[:, j] - np.array(want))) <= 1e-14
            assert walk_amplitudes_integral(m, x) == tuple(complex(v) for v in row[:, j])

    def test_refinement_guard_names_the_site(self, monkeypatch):
        # spoil the coarse grid at one site only: the guard is checked per site
        exact = walk._amplitude_rows

        def spoiled(panels, order, first, last):
            rows = exact(panels, order, first, last)
            if order == 64 and 5 in rows:
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
                            lambda panels, order, *ms: exact(panels, 4 if order == 64 else order, *ms))
        with pytest.raises(NumericError, match=r"did not converge at m=12, x=-12:"):
            walk_amplitudes_row(12)

    @pytest.mark.parametrize("steps", [0, 1, 12, 40])
    def test_shared_grid_rows_match_single_rows(self, steps):
        rows = list(walk_amplitude_rows(steps))
        assert len(rows) == steps + 1
        for m, row in enumerate(rows):
            assert row.shape == (4, m + 1)
            assert np.max(np.abs(row - walk_amplitudes_row(m))) <= 1e-14
            for j, x in enumerate(range(-m, m + 1, 2)):
                want = _assemble(m, x, panels=steps + 2, order=80)
                assert np.max(np.abs(row[:, j] - np.array(want))) <= 1e-14

    @pytest.mark.parametrize("order", [(64,), (80,), (64, 80)], ids=["coarse", "fine", "both"])
    def test_nan_in_one_shared_row_fails_the_check(self, monkeypatch, order):
        # a NaN on either grid, or on both, is a refinement deviation that fails
        exact = walk._amplitude_rows

        def poisoned(panels, grid_order, first, last):
            rows = exact(panels, grid_order, first, last)
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
            # (panels, order): the grids of row m = steps
            assert grids == [(steps + 1, 64), (steps + 2, 80)]

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
        original = walk.walk_states

        def poisoned(c_left, c_right, steps):
            for state in original(c_left, c_right, steps):
                if state.steps == 2 and c_left == 1.0:
                    state.amp_left[2] = np.nan  # site x = 0
                yield state

        monkeypatch.setattr(walk, "walk_states", poisoned)
        worst, where = integral_recursion_deviation(4, [(1.0, 0.0), (0.0, 1.0)])
        assert math.isnan(worst)
        assert where == "m=2, x=0"


class TestPositionDistribution:
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
