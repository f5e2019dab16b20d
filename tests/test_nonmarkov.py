import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memoryflow.errors import DomainError
from memoryflow.nonmarkov import (
    TraceDistanceSeries,
    bloch_trace_distances,
    coin_from_direction,
    increments,
    nm_measure,
    nm_qubit,
    nm_walk,
    orthogonal_pair_scan,
    qubit_pair_runner,
    walk_pair_runner,
    walk_trace_distances,
)
from memoryflow.openwalk import (
    DephasingFilter,
    open_walk_evolve,
    strong_dephasing_blocks,
    trace_distance_walk,
)
from memoryflow.qubit import evolve_qubit, trace_distance_bloch, transfer_maps
from memoryflow.spectra import DephasingConfig, SpectrumParams, decoherence_function

T_REVIVAL = 2.0 * math.pi / (9.0 * 0.009)


def spectrum(a=0.0):
    return SpectrumParams(a, 1.0, 15.0, 9.0)


def dephasing(dt_factor=0.35):
    return DephasingConfig(0.009, dt_factor * T_REVIVAL)


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

    def test_engine_trajectories(self):
        maps = transfer_maps(spectrum(0.5), dephasing(), 0.3, 30)
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
        for row, cfg in zip(got, configs):
            want = [
                trace_distance_walk(open_walk_evolve(*coins[0], n, spectrum(a), cfg),
                                    open_walk_evolve(*coins[1], n, spectrum(a), cfg))
                for n in range(7)
            ]
            assert np.max(np.abs(row - want)) < 1e-12

    def test_negative_steps_rejected(self):
        with pytest.raises(DomainError):
            walk_trace_distances([DephasingFilter(spectrum(), dephasing())], -1)

    def test_no_filters(self):
        assert walk_trace_distances([], 4).shape == (0, 5)


_parts = st.floats(-1.0, 1.0, allow_nan=False)
_coins = st.tuples(_parts, _parts, _parts, _parts).filter(
    lambda p: sum(x * x for x in p) > 1e-3
).map(lambda p: tuple(np.array([complex(p[0], p[1]), complex(p[2], p[3])])
                      / math.sqrt(sum(x * x for x in p))))


class TestWalkRoutesAgree:
    """The stepped, parity-compressed, stacked routes of ``nonmarkov`` against
    the full-matrix densities of ``openwalk``, which evolve each step from the
    origin and solve the 2(2n + 1)-dimensional difference with LAPACK.  The
    strong-limit check thus pits the per-site 2x2 closed form against LAPACK."""

    @settings(max_examples=60, deadline=None)
    @given(coin1=_coins, coin2=_coins, a=st.floats(0.0, 1.0),
           dt_factor=st.floats(0.01, 3.0), n_steps=st.integers(0, 8))
    def test_filter_rows_match_full_matrices(self, coin1, coin2, a, dt_factor, n_steps):
        configs = [dephasing(dt_factor), dephasing(dt_factor / 3.0)]
        got = walk_trace_distances([DephasingFilter(spectrum(a), c) for c in configs],
                                   n_steps, (coin1, coin2))
        for row, cfg in zip(got, configs):
            want = [trace_distance_walk(open_walk_evolve(*coin1, n, spectrum(a), cfg),
                                        open_walk_evolve(*coin2, n, spectrum(a), cfg))
                    for n in range(n_steps + 1)]
            assert np.max(np.abs(row - want)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(coin1=_coins, coin2=_coins, n_steps=st.integers(0, 8))
    def test_strong_limit_matches_site_blocks(self, coin1, coin2, n_steps):
        series, _ = nm_walk(None, None, n_steps=n_steps, mode="strong_limit",
                            coin1=coin1, coin2=coin2)
        want = [trace_distance_walk(strong_dephasing_blocks(*coin1, n),
                                    strong_dephasing_blocks(*coin2, n))
                for n in range(n_steps + 1)]
        assert np.max(np.abs(series.values - want)) < 1e-12


class TestPairScan:
    def test_markovian_model_scans_to_zero(self):
        runner = qubit_pair_runner(1.0, spectrum(0.0), dephasing(), n_steps=12)
        result = orthogonal_pair_scan(runner, n_pairs=6, seed=1)
        assert result.report.measure == 0.0

    def test_sigma_x_control_recovers_for_every_pair(self):
        runner = qubit_pair_runner(0.0, spectrum(0.5), dephasing(), n_steps=8)
        result = orthogonal_pair_scan(runner, n_pairs=5, seed=1)
        assert result.report.measure > 0.0

    def test_refinement_never_decreases(self):
        runner = qubit_pair_runner(0.5, spectrum(0.0), dephasing(1.0), n_steps=8)
        small = orthogonal_pair_scan(runner, n_pairs=4, seed=7)
        big = orthogonal_pair_scan(runner, n_pairs=10, seed=7)
        assert big.report.measure >= small.report.measure

    def test_walk_runner(self):
        runner = walk_pair_runner(spectrum(0.0), dephasing(0.5), n_steps=4)
        result = orthogonal_pair_scan(runner, n_pairs=3, seed=0)
        assert result.report.measure >= 0.0

    def test_coin_from_direction_round_trip(self):
        direction = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        c_l, c_r = coin_from_direction(direction)
        # Bloch vector of the coin state
        r = [
            2.0 * (np.conj(c_l) * c_r).real,
            2.0 * (np.conj(c_l) * c_r).imag,
            abs(c_l) ** 2 - abs(c_r) ** 2,
        ]
        assert np.allclose(r, direction, atol=1e-12)
