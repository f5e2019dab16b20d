import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from memoryflow import errors, kernels, nonmarkov
from memoryflow.errors import DomainError, ResourceLimitError
from memoryflow.nonmarkov import (
    TraceDistanceSeries,
    bloch_trace_distances,
    filter_table_gauge,
    increments,
    nm_measure,
    nm_qubit,
    nm_walk,
    walk_measure_bytes,
    walk_trace_distances,
)
from memoryflow.openwalk import (
    DephasingFilter,
    filtered_density,
    position_major,
    strong_limit_filter,
    trace_distance_walk,
)
from memoryflow.qubit import evolve_qubit, trace_distance_bloch, transfer_map_stack
from memoryflow.spectra import DephasingConfig, SpectrumParams, decoherence_function
from memoryflow.walk import walk_evolve, walk_states

T_REVIVAL = 2.0 * math.pi / (9.0 * 0.009)


def spectrum(a=0.0):
    return SpectrumParams(a, 1.0, 15.0, 9.0)


def dephasing(dt_factor=0.35):
    return DephasingConfig(0.009, dt_factor * T_REVIVAL)


def dense_distances(coins, flt, n_steps):
    """Trace distances of the dense per-n reference densities of ``openwalk``,
    each walked from the origin and filtered by ``flt``."""
    return [trace_distance_walk(filtered_density(walk_evolve(*coins[0], n), flt),
                                filtered_density(walk_evolve(*coins[1], n), flt))
            for n in range(n_steps + 1)]


class TestIncrements:
    def test_constant_series(self):
        assert np.all(increments([0.4, 0.4, 0.4]) == 0.0)

    def test_simple_arithmetic(self):
        out = increments([1.0, 0.5, 0.8])
        assert np.allclose(out, [0.0, -0.5, 0.3])
        report = nm_measure([1.0, 0.5, 0.8, 0.3, 0.9, 0.95])
        assert report.cumulative[0] == 0.0
        assert np.all(np.diff(report.cumulative) >= 0.0)
        assert report.cumulative[-1] == report.measure
        assert np.allclose(report.cumulative, [0.0, 0.0, 0.3, 0.3, 0.9, 0.95])

    def test_monotone_series_has_no_positive(self):
        out = increments([1.0, 0.8, 0.5, 0.1])
        assert np.all(out[1:] <= 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            increments([])


class TestMeasure:
    def test_single_backflow(self):
        report = nm_measure([1.0, 0.5, 0.8, 0.3])
        assert report.measure == pytest.approx(0.3, abs=1e-15)
        assert list(report.positive_steps) == [2]

    def test_markovian_series(self):
        assert nm_measure([1.0, 0.7, 0.4, 0.2]).measure == 0.0

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0.0, 1.0, 25)
        inc = increments(values)
        total = 0.0
        for v in inc:
            total += v
        assert values[-1] - values[0] == pytest.approx(total, abs=1e-12)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 1.0, 40)
        n_small = nm_measure(values, threshold=1e-12).measure
        n_big = nm_measure(values, threshold=1e-2).measure
        assert n_small >= n_big

    def test_series_type_accepted(self):
        series = TraceDistanceSeries(np.array([1.0, 0.2, 0.6]))
        assert nm_measure(series).measure == pytest.approx(0.4)

    @pytest.mark.parametrize("threshold", [0.0, 1e-12, 0.05])
    def test_stack_rows_have_the_bits_of_single_calls(self, threshold):
        rng = np.random.default_rng(7)
        stack = rng.uniform(0.0, 1.0, (5, 13))
        stack[2] = stack[2, 0]  # a constant row: no increment counts
        report = nm_measure(stack, threshold)
        assert report.increments.shape == report.cumulative.shape == stack.shape
        assert report.measure.shape == (5,) and report.threshold == threshold
        for row, values in enumerate(stack):
            single = nm_measure(values, threshold)
            assert report.increments[row].tobytes() == single.increments.tobytes()
            assert report.cumulative[row].tobytes() == single.cumulative.tobytes()
            assert report.measure[row] == single.measure
            assert list(report.positive_steps[row]) == list(single.positive_steps)
        assert report.measure[2] == 0.0 and report.positive_steps[2].size == 0

    @pytest.mark.parametrize("values", [np.zeros((2, 0)), np.zeros((2, 2, 2))])
    def test_stack_shape_checked(self, values):
        with pytest.raises(DomainError):
            nm_measure(values)


class TestBlochTraceDistances:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(0, 60))
    def test_bits_of_per_row_route(self, seed, steps):
        # trajectories as the engines form them: stacked strided maps times r0
        rng = np.random.default_rng(seed)
        maps = (rng.normal(size=(steps + 1, 3, 3)) + 1j * rng.normal(size=(steps + 1, 3, 3))).real
        traj1 = maps @ rng.uniform(-1.0, 1.0, 3)
        traj2 = maps @ rng.uniform(-1.0, 1.0, 3)
        want = np.array([trace_distance_bloch(a, b) for a, b in zip(traj1, traj2)])
        assert np.array_equal(bloch_trace_distances(traj1, traj2), want)

    def test_stack_has_the_bits_of_each_slice(self):
        stack = transfer_map_stack(spectrum(0.5), dephasing(), (0.0, 0.3, 1.0), 12)
        traj1, traj2 = stack @ np.array([0.6, 0.0, 0.8]), stack @ np.array([-0.6, 0.0, -0.8])
        got = bloch_trace_distances(traj1, traj2)
        assert got.shape == (3, 13)
        for row, maps in zip(got, stack):
            want = bloch_trace_distances(maps @ np.array([0.6, 0.0, 0.8]),
                                         maps @ np.array([-0.6, 0.0, -0.8]))
            assert row.tobytes() == want.tobytes()

    def test_engine_trajectories(self):
        maps = transfer_map_stack(spectrum(0.5), dephasing(), (0.3,), 30)[0]
        traj1, traj2 = maps @ np.array([0.6, 0.0, 0.8]), maps @ np.array([-0.6, 0.0, -0.8])
        want = np.array([trace_distance_bloch(a, b) for a, b in zip(traj1, traj2)])
        assert np.array_equal(bloch_trace_distances(traj1, traj2), want)


class TestQubitMeasure:
    def test_sigma_z_control_flat_spectrum_markovian(self):
        _, report = nm_qubit(1.0, spectrum(0.0), dephasing(), n_steps=25)
        assert report.measure == 0.0
        assert np.all(report.increments <= 1e-10)

    def test_sigma_x_control_full_recovery(self):
        series, report = nm_qubit(0.0, spectrum(0.5), dephasing(), n_steps=20)
        assert report.measure > 0.0
        for m in range(0, 21, 2):
            assert series.values[m] == pytest.approx(1.0, abs=1e-10)
        # accumulated measure equals the sum of the even-step recoveries
        expected = sum(
            1.0 - series.values[m] for m in range(1, 20, 2)
        )
        assert report.measure == pytest.approx(expected, abs=1e-10)

    def test_structured_spectrum_alone_induces_backflow(self):
        # half-revival steps sample the dips and peaks of |kappa| alternately
        _, report = nm_qubit(1.0, spectrum(1.0), dephasing(0.5), n_steps=25)
        assert report.measure > 1e-3

    def test_zero_contrast_distance_constant(self):
        cfg = DephasingConfig(0.0, 7.0)
        series, report = nm_qubit(0.7, spectrum(0.8), cfg, n_steps=12)
        assert np.max(np.abs(series.values - series.values[0])) < 1e-12
        assert report.measure == 0.0

    @pytest.mark.parametrize("engine", ["series", "quadrature", "strong-limit"])
    def test_shared_maps_match_separate_trajectories(self, engine):
        sp, cfg = spectrum(0.6), dephasing(1.3)
        r1 = np.array([0.3, -0.5, 0.7])
        r2 = np.array([-0.6, 0.1, 0.2])
        series, _ = nm_qubit(0.3, sp, cfg, r1=r1, r2=r2, n_steps=8, engine=engine)
        traj1 = evolve_qubit(sp, cfg, 0.3, r1, 8, engine=engine)
        traj2 = evolve_qubit(sp, cfg, 0.3, r2, 8, engine=engine)
        want = 0.5 * np.linalg.norm(traj1 - traj2, axis=1)
        assert np.max(np.abs(series.values - want)) <= 1e-15

    def test_pure_dephasing_noise_floor(self):
        # uncontrolled dephasing with a flat spectrum: D(n) = |kappa(n dt)|,
        # monotone; no increment may poke above the rounding floor
        sp, cfg = spectrum(0.0), dephasing()
        taus = np.arange(31) * cfg.step_duration
        values = np.abs(decoherence_function(sp, cfg.index_contrast, taus))
        report = nm_measure(values)
        assert np.all(report.increments <= 1e-10)
        assert report.measure == 0.0


class TestWalkMeasure:
    def test_no_contrast_distance_constant(self):
        cfg = DephasingConfig(0.0, 5.0)
        series, report = nm_walk(spectrum(0.3), cfg, n_steps=6)
        assert np.max(np.abs(series.values - 1.0)) < 1e-12
        assert report.measure == 0.0

    def test_integer_interaction_time_spectrum_independent(self):
        values = []
        for a in (0.0, 0.5, 1.0):
            _, report = nm_walk(spectrum(a), dephasing(1.0), n_steps=6)
            values.append(report.measure)
        assert max(values) - min(values) < 1e-6

    def test_strong_limit_mode_needs_no_spectrum(self):
        series, report = nm_walk(None, None, n_steps=6, mode="strong_limit")
        assert report.measure > 0.0
        assert series.values[0] == pytest.approx(1.0)
        assert series.values[1] == pytest.approx(0.0, abs=1e-12)

    def test_filter_approaches_strong_limit(self):
        _, strong = nm_walk(None, None, n_steps=6, mode="strong_limit")
        _, filt = nm_walk(spectrum(0.0), dephasing(8.0), n_steps=6)
        assert filt.measure == pytest.approx(strong.measure, abs=1e-4)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            nm_walk(spectrum(), dephasing(), mode="bogus")


class TestWalkTraceDistances:
    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_rows_match_filtered_densities(self, a):
        coins = ((0.6, 0.8j), (0.8, -0.6j))
        configs = [dephasing(0.35), dephasing(1.3)]
        filters = [DephasingFilter(spectrum(a), cfg) for cfg in configs]
        got = walk_trace_distances(filters, 6, coins)
        assert got.shape == (2, 7)
        for row, flt in zip(got, filters):
            assert np.max(np.abs(row - dense_distances(coins, flt, 6))) < 1e-12

    def test_negative_steps_rejected(self):
        with pytest.raises(DomainError):
            walk_trace_distances([DephasingFilter(spectrum(), dephasing())], -1)

    def test_no_filters(self):
        assert walk_trace_distances([], 4).shape == (0, 5)

    @pytest.mark.parametrize("coins", [
        pytest.param(nonmarkov.DEFAULT_WALK_COINS, id="real"),
        pytest.param(((0.6, 0.8j), (0.8, -0.6j)), id="complex"),
    ])
    def test_coin_pair_walk_has_the_bits_of_walk_states(self, monkeypatch, coins):
        # the pair is stepped as one (sites, 2) array, one coin_shift per step
        states = [list(walk_states(*coin, 6)) for coin in coins]
        steps = []
        original = kernels.coin_shift

        def recorded(left, right):
            steps.append(original(left, right))
            return steps[-1]

        monkeypatch.setattr(kernels, "coin_shift", recorded)
        walk_trace_distances([strong_limit_filter], 6, coins)
        assert len(steps) == 6
        for n, (left, right) in enumerate(steps, start=1):
            assert left.shape == right.shape == (n + 1, 2)
            for k, walk in enumerate(states):
                assert left[:, k].tobytes() == walk[n].amp_left.tobytes()
                assert right[:, k].tobytes() == walk[n].amp_right.tobytes()

    @pytest.mark.parametrize("coins", [
        pytest.param(((1.0, 0.0),), id="one-coin"),
        pytest.param(((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)), id="three-coins"),
        pytest.param(((1.0, 0.0), (0.0, 1.0, 0.0)), id="coin-of-three"),
        pytest.param(((1.0, 0.0), 1.0), id="scalar-coin"),
    ])
    def test_needs_exactly_two_coin_pairs(self, coins):
        with pytest.raises(DomainError, match="two coin pairs"):
            walk_trace_distances([DephasingFilter(spectrum(), dephasing())], 3, coins)

    @pytest.mark.parametrize("coin1", [(1.0,), (1.0, 0.0, 0.0)], ids=["one-amplitude", "three"])
    def test_nm_walk_refuses_a_malformed_coin(self, coin1):
        with pytest.raises(DomainError, match="two coin pairs"):
            nm_walk(None, None, n_steps=3, mode="strong_limit", coin1=coin1)

    @staticmethod
    def solved_stacks(monkeypatch) -> list:
        """(dtype, shape) of every stack handed to the eigensolver."""
        stacks = []
        original = kernels.hermitian_eigvals

        def recorded(stack):
            stacks.append((stack.dtype, stack.shape))
            return original(stack)

        monkeypatch.setattr(kernels, "hermitian_eigvals", recorded)
        return stacks

    def test_walk_sweep_filters_take_the_real_route(self, monkeypatch):
        # A = 0 and 1 are symmetric spectra; A = 0.5 is real at these times
        # because delta_omega delta_n delta_t is a multiple of pi there
        filters = [DephasingFilter(spectrum(a), dephasing(t))
                   for a in (0.0, 0.5, 1.0) for t in (0.5, 1.0, 1.5, 2.0)]
        stacks = self.solved_stacks(monkeypatch)
        got = walk_trace_distances(filters, 10)
        assert [dtype for dtype, _ in stacks] == [np.float64] * 11
        assert all(shape[0] == 12 for _, shape in stacks)
        coins = nonmarkov.DEFAULT_WALK_COINS
        for row, flt in zip(got, filters):
            assert np.max(np.abs(row - dense_distances(coins, flt, 10))) < 1e-12

    @pytest.mark.parametrize("a,t,coins", [
        pytest.param(0.5, 0.3, nonmarkov.DEFAULT_WALK_COINS, id="asymmetric-spectrum"),
        pytest.param(0.0, 0.3, ((1 / math.sqrt(2), 1j / math.sqrt(2)),
                                (1 / math.sqrt(2), -1j / math.sqrt(2))), id="complex-coins"),
    ])
    def test_complex_route_matches_reference(self, monkeypatch, a, t, coins):
        flt = DephasingFilter(spectrum(a), dephasing(t))
        stacks = self.solved_stacks(monkeypatch)
        got = walk_trace_distances([flt], 8, coins)[0]
        assert [dtype for dtype, _ in stacks] == [np.complex128] * 9
        assert np.max(np.abs(got - dense_distances(coins, flt, 8))) < 1e-12

    def test_gauge_reads_phase_past_a_vanishing_f2(self):
        # A = 1 at interaction time 1/2: f(2) = 0, so the phase comes from f(4)
        flt = DephasingFilter(spectrum(1.0), dephasing(0.5))
        table = flt(2 * np.arange(-6, 7))[None, :]
        assert abs(table[0, 7]) < 1e-15
        real, gauged = nonmarkov.filter_table_gauge(table)
        assert real.tolist() == [True]
        assert np.max(np.abs(np.abs(gauged) - np.abs(table))) < 1e-15

    @pytest.mark.parametrize("flt", [
        pytest.param(lambda d: np.exp(-np.square(d)) * (1.0 + 0.5j), id="non-hermitian"),
        pytest.param(lambda d: np.where(d == 2, np.nan, 1.0), id="non-finite"),
    ])
    def test_bad_filter_table_refused_before_eigensolve(self, monkeypatch, flt):
        stacks = self.solved_stacks(monkeypatch)
        with pytest.raises(DomainError):
            walk_trace_distances([DephasingFilter(spectrum(), dephasing()), flt], 4)
        assert stacks == []

    def test_non_finite_coin_refused_before_eigensolve(self, monkeypatch):
        stacks = self.solved_stacks(monkeypatch)
        with pytest.raises(DomainError):
            walk_trace_distances([DephasingFilter(spectrum(), dephasing())], 4,
                                 ((math.nan, 0.0), (0.0, 1.0)))
        assert stacks == []

    def test_step_cap_is_one_eigensolve_in_the_budget(self, monkeypatch):
        # a budget with room for one 14 x 14 eigensolve and the step's own
        # arrays, counted as one more such matrix: 6 steps run, the last one
        # matrix per chunk, and 7 are refused before any eigensolve
        budget = 2 * kernels.eigensolve_bytes((14, 14))
        assert walk_measure_bytes(6) == budget
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", budget)
        filters = [DephasingFilter(spectrum(0.5), dephasing()),
                   DephasingFilter(spectrum(0.0), dephasing())]
        stacks = self.solved_stacks(monkeypatch)
        assert walk_trace_distances(filters, 6).shape == (2, 7)
        assert all(kernels.eigensolve_bytes((shape[0] + 1,) + shape[1:]) <= budget
                   for _, shape in stacks)
        assert stacks[-1][1] == (1, 14, 14)
        stacks.clear()
        with pytest.raises(ResourceLimitError, match="'steps' = 7.*MAX_GRID_BYTES"):
            walk_trace_distances(filters, 7)
        assert stacks == []

    def test_chunked_peak_stays_within_the_budget(self, monkeypatch):
        # twelve fig4-style filters over 20 steps hold more than the least
        # budget the run allows, two last-step matrices, in one chunk; chunked
        # to that budget, one matrix a chunk at the last step, the run's peak
        # stays within it, with the same bits
        filters = [DephasingFilter(spectrum(a), dephasing(t))
                   for a in (0.0, 0.5, 1.0) for t in (0.3, 0.5, 1.0, 1.7)]
        budget = walk_measure_bytes(20)

        def traced():
            tracemalloc.start()
            try:
                return walk_trace_distances(filters, 20), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole, peak = traced()
        assert peak > budget
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", budget)
        chunked, peak = traced()
        assert peak <= budget
        assert chunked.tobytes() == whole.tobytes()


_parts = st.floats(-1.0, 1.0, allow_nan=False)
_coins = st.tuples(_parts, _parts, _parts, _parts).filter(
    lambda p: sum(x * x for x in p) > 1e-3
).map(lambda p: tuple(np.array([complex(p[0], p[1]), complex(p[2], p[3])])
                      / math.sqrt(sum(x * x for x in p))))


_real_coins = st.tuples(_parts, _parts).filter(lambda p: p[0] ** 2 + p[1] ** 2 > 1e-3).map(
    lambda p: tuple(np.array(p, dtype=complex) / math.hypot(*p)))


class TestWalkRoutesAgree:
    """The stepped, stacked routes of ``nonmarkov`` against the dense densities
    of ``openwalk``, which evolve each step from the origin and solve the
    2(n + 1)-dimensional difference with LAPACK.  The
    strong limit is one more filter, ``strong_limit_filter``, on both sides."""

    @settings(max_examples=60, deadline=None)
    @given(coin1=_coins, coin2=_coins, a=st.floats(0.0, 1.0),
           dt_factor=st.floats(0.01, 3.0), n_steps=st.integers(0, 8))
    def test_filter_rows_match_full_matrices(self, coin1, coin2, a, dt_factor, n_steps):
        self.check_filter_rows(coin1, coin2, a, dt_factor, n_steps)

    @settings(max_examples=60, deadline=None)
    @given(coin1=_real_coins, coin2=_real_coins, a=st.sampled_from([0.0, 0.5, 1.0]),
           dt_factor=st.one_of(st.sampled_from([0.5, 1.0, 1.5]), st.floats(0.01, 3.0)),
           n_steps=st.integers(0, 8))
    def test_real_coin_rows_match_full_matrices(self, coin1, coin2, a, dt_factor, n_steps):
        # real coins with a symmetric spectrum, or A = 0.5 at half-integer
        # interaction times, take the real route; the rest the complex one
        self.check_filter_rows(coin1, coin2, a, dt_factor, n_steps)

    @staticmethod
    def check_filter_rows(coin1, coin2, a, dt_factor, n_steps):
        filters = [DephasingFilter(spectrum(a), dephasing(f)) for f in (dt_factor, dt_factor / 3.0)]
        got = walk_trace_distances(filters, n_steps, (coin1, coin2))
        for row, flt in zip(got, filters):
            assert np.max(np.abs(row - dense_distances((coin1, coin2), flt, n_steps))) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(coins=st.tuples(_coins, _coins) | st.tuples(_real_coins, _real_coins),
           n_steps=st.integers(0, 8))
    def test_strong_limit_matches_site_blocks(self, coins, n_steps):
        # real coin pairs take the float64 route, the others the complex one
        series, _ = nm_walk(None, None, n_steps=n_steps, mode="strong_limit",
                            coin1=coins[0], coin2=coins[1])
        want = dense_distances(coins, strong_limit_filter, n_steps)
        assert np.max(np.abs(series.values - want)) < 1e-12


class TestStrongLimitBound:
    """The strong-dephasing limit as a bound, step by step.  A filter's
    difference F o Delta and the strong limit's S o Delta differ by G o Delta,
    where G holds f(y - x) off the diagonal site blocks and 0 on them.  G is
    an (n + 1)-square site matrix spread over the 2x2 coin blocks, so it has
    rank at most n + 1, and its entries are at most eps_n, the largest |f(d)|
    over 0 < |d| <= 2n.  For a unit vector v, ||G o v v^H||_F <= eps_n, so
    ||G o v v^H||_1 <= sqrt(n + 1) eps_n, and with Delta = v1 v1^H - v2 v2^H,
    |D_f(n) - D_S(n)| <= ||G o Delta||_1 / 2 <= sqrt(n + 1) eps_n, up to the
    rounding of two eigensolves of dimension 2(n + 1)."""

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(a=st.floats(0.0, 1.0), sigma=st.floats(0.3, 3.0), mu1=st.floats(5.0, 20.0),
           delta_omega=st.floats(2.0, 12.0), time=st.floats(0.05, 8.3),
           n_steps=st.integers(1, 39))
    def test_filter_within_its_coherence_of_the_strong_limit(self, a, sigma, mu1, delta_omega,
                                                            time, n_steps):
        # a fig4-style filter: interaction time v gives the step v 2 pi / (delta_omega delta_n)
        config = DephasingConfig(0.009, time * 2.0 * math.pi / (delta_omega * 0.009))
        flt = DephasingFilter(SpectrumParams(a, sigma, mu1, delta_omega), config)
        d_f, d_s = walk_trace_distances([flt, strong_limit_filter], n_steps)
        eps = np.maximum.accumulate(np.abs(flt(2 * np.arange(n_steps + 1))[1:]))
        n = np.arange(n_steps + 1)
        bound = np.sqrt(n + 1) * np.concatenate([[0.0], eps]) + 8 * (n + 1) * 2.0 ** -52
        assert np.all(np.abs(d_f - d_s) <= bound)

    @pytest.mark.parametrize("a,sigma,delta_omega,time", [
        (0.0, 3.0, 6.875, 7.0),      # |f(2)| = 1.0e-80, |f(4)| about 1e-320
        (0.876, 2.5625, 6.125, 7.25),
    ])
    def test_coherences_far_below_rounding_are_cut(self, a, sigma, delta_omega, time):
        # LAPACK's eigenvalue-only route once gave D_f(3) = 0.7096751797 for
        # the first filter, off the strong limit's 0.7071067812 by 2.6e-3;
        # FILTER_CUT sets such coherences to 0 before any eigensolve
        config = DephasingConfig(0.009, time * 2.0 * math.pi / (delta_omega * 0.009))
        flt = DephasingFilter(SpectrumParams(a, sigma, 5.0, delta_omega), config)
        assert 0.0 < np.max(np.abs(flt(2 * np.arange(1, 4)))) < nonmarkov.FILTER_CUT / 2.0
        d_f, d_s = walk_trace_distances([flt, strong_limit_filter], 3)
        assert d_s[3] == pytest.approx(0.7071067812, abs=1e-10)
        assert np.max(np.abs(d_f - d_s)) <= 8 * 4 * 2.0 ** -52


def toeplitz_filter(values):
    """A walk filter from a Hermitian Toeplitz table: f(2 j) = values[j] and
    f(-2 j) = conj values[j] for j >= 0, with values[0] real."""
    values = np.asarray(values)

    def flt(separations):
        j = np.asarray(separations) // 2
        return np.where(j >= 0, values[np.abs(j)], np.conj(values[np.abs(j)]))
    return flt


_tables = st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(_parts, min_size=n + 1, max_size=n + 1)
    | st.lists(st.complex_numbers(max_magnitude=1.0), min_size=n + 1, max_size=n + 1)))


class TestMirrorIdentity:
    """Each filtered difference F o (v1 v1^H - v2 v2^H) that the walk measure
    solves has trace f(0)(|v1|^2 - |v2|^2) = 0, and for the mirror pair |L,0>,
    |R,0> a spectrum symmetric about 0: site reversal times XZ maps v1 to v2,
    and a Hermitian Toeplitz F keeps that relation up to transpose.  Random
    tables on both routes; the eigenvalues are those the route computes.  A
    real symmetric F keeps it exactly, which gives a second formula for the
    trace distance from half the matrix."""

    @settings(max_examples=60, deadline=None)
    @given(table=_tables, coins=st.none() | st.tuples(_coins, _coins)
           | st.tuples(_real_coins, _real_coins))
    @example(table=(4, [1.0, -0.4, 0.3, 0.2, -0.1]), coins=None)
    @example(table=(4, [1.0, 0.4j, 0.3 - 0.2j, 0.2, 0.1j]), coins=None)
    # a complex table wholly below the cut: solved as the real zero table
    @example(table=(2, [0j, 1.557337753483998e-129 + 0j, 1.557337753483998e-129j]), coins=None)
    def test_trace_and_mirror_pairing(self, table, coins):
        n_steps, values = table
        values = np.array(values, dtype=complex)
        values[0] = values[0].real
        mirror = coins is None
        coins = nonmarkov.DEFAULT_WALK_COINS if mirror else coins
        solved = []
        solve = kernels.hermitian_eigvals

        def recorded(stack):
            vals = solve(stack)
            solved.append((stack.dtype, vals))
            return vals

        flt = toeplitz_filter(values)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nonmarkov.kernels, "hermitian_eigvals", recorded)
            walk_trace_distances([flt], n_steps, coins)
        # the route is that of the table the measure solves, after FILTER_CUT
        table = flt(2 * np.arange(-n_steps, n_steps + 1))[None]
        cut = np.abs(table) < nonmarkov.FILTER_CUT / math.sqrt(n_steps + 1)
        real, _ = filter_table_gauge(np.where(cut, 0.0, table))
        route = np.float64 if real[0] and not np.any(np.imag(coins)) else np.complex128
        assert len(solved) == n_steps + 1
        for dtype, vals in solved:
            assert dtype == route
            assert abs(np.sum(vals)) < 1e-12
            if mirror:
                assert np.max(np.abs(vals + vals[..., ::-1])) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(values=st.integers(0, 12).flatmap(
        lambda n: st.lists(_parts, min_size=n + 1, max_size=n + 1)))
    # draws that LAPACK's eigenvalue-only route got wrong at step 2, by 5.3e-5
    # and 4.6e-8, until FILTER_CUT zeroed their tiny coherences
    @example(values=[0.75, 8.376539888361661e-297, 6.5944232172849575e-161])
    @example(values=[0.9375, 5.25e-144, 0.0])
    def test_half_block_formula(self, values):
        # with a real symmetric table, P (F o D) P^T = -(F o D) for the mirror
        # pair, so in the eigenbases of iP (eigenvalues +-1) the filtered
        # difference is [[0, B], [B^H, 0]], and the trace distance is the sum
        # of the singular values of the (n + 1) x (n + 1) block B
        n_steps = len(values) - 1
        got = walk_trace_distances([toeplitz_filter(values)], n_steps)[0]
        coins = nonmarkov.DEFAULT_WALK_COINS
        for n, states in enumerate(zip(*(walk_states(*coin, n_steps) for coin in coins))):
            v1, v2 = (position_major(state.amp_left, state.amp_right) for state in states)
            mirror = np.kron(np.eye(n + 1)[::-1], [[0.0, -1.0], [1.0, 0.0]])
            assert abs(np.vdot(v2, mirror @ v1)) == pytest.approx(1.0, abs=1e-12)
            sites = np.arange(n + 1)
            table = np.kron(np.asarray(values)[np.abs(sites[None, :] - sites[:, None])], np.ones((2, 2)))
            filtered = table * (np.outer(v1, v1.conj()) - np.outer(v2, v2.conj()))
            signs, basis = np.linalg.eigh(1j * mirror)
            block = basis[:, signs > 0].conj().T @ filtered @ basis[:, signs < 0]
            assert block.shape == (n + 1, n + 1)
            assert abs(np.linalg.svd(block, compute_uv=False).sum() - got[n]) < 1e-12

