import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memoryflow import errors, harmonic
from memoryflow.errors import DomainError, NumericError, ResourceLimitError
from memoryflow.harmonic import (
    CATALAN_LIMIT_A,
    CATALAN_LIMIT_B,
    ENGINE_AGREEMENT_TOL,
    NODE_BYTES,
    SERIES_DEGREE_CAP,
    approximation_error,
    approximation_error_stack,
    catalan,
    catalan_coeffs,
    channel_distance,
    identity_series,
    integrate_series_against_spectrum,
    quadrature_map,
    quadrature_map_stacks,
    series_from_transfer,
    series_map_stacks,
    series_multiply,
    series_power,
    series_powers,
    _catalan_sums,
    strong_limit_closed_form,
    strong_limit_closed_forms,
    strong_limit_map,
)
from memoryflow.qubit import bloch_transfer_matrix, transfer_map_stack, transfer_map_stacks
from memoryflow.spectra import DephasingConfig, SpectrumParams

T_REVIVAL = 2.0 * math.pi / (9.0 * 0.009)


def spectrum(a=0.0, sigma=1.0):
    return SpectrumParams(a, sigma, 15.0, 9.0 * sigma)


def dephasing(dt_factor):
    return DephasingConfig(0.009, dt_factor * T_REVIVAL)


class TestSeries:
    def test_structural_zeroth_coefficient_balanced(self):
        s = series_from_transfer(0.5)
        c0 = s.coefficient(0)
        expected = np.zeros((3, 3))
        expected[2, 0] = 1.0
        assert np.allclose(c0, expected, atol=1e-15)

    def test_evaluation_at_zero_matches_transfer(self):
        for eta in (0.0, 0.3, 0.5, 1.0):
            assert np.allclose(
                series_from_transfer(eta).evaluate(0.0),
                bloch_transfer_matrix(eta, 0.0),
                atol=1e-14,
            )

    def test_powers_walk_matches_each_power(self):
        s = series_from_transfer(0.3)
        powers = list(series_powers(s, 6))
        assert [p.degree for p in powers] == list(range(7))
        for m, power in enumerate(powers):
            assert np.array_equal(power.coeffs, series_power(s, m).coeffs)
        with pytest.raises(DomainError):
            next(series_powers(s, -1))

    def test_reality_symmetry(self):
        s = series_from_transfer(0.7)
        assert s.reality_defect() < 1e-15

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 1.0])
    def test_evaluation_matches_direct_product(self, eta):
        rng = np.random.default_rng(3)
        power = series_power(series_from_transfer(eta), 5)
        for theta in rng.uniform(-math.pi, math.pi, 32):
            direct = np.linalg.matrix_power(bloch_transfer_matrix(eta, theta), 5)
            assert np.max(np.abs(power.evaluate(theta) - direct)) < 1e-10

    def test_power_zero_and_one(self):
        s = series_from_transfer(0.4)
        p0 = series_power(s, 0)
        assert p0.degree == 0
        assert np.allclose(p0.coefficient(0), np.eye(3), atol=1e-15)
        p1 = series_power(s, 1)
        assert np.allclose(p1.coeffs, s.coeffs, atol=1e-15)

    def test_balanced_two_step_average(self):
        p2 = series_power(series_from_transfer(0.5), 2)
        expected = 0.5 * np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.allclose(p2.coefficient(0), expected, atol=1e-15)

    def test_degree_cap(self):
        # repeated squaring reaches the cap in 12 products; both sides are pinned
        big = series_from_transfer(0.5)
        while big.degree < SERIES_DEGREE_CAP:
            big = series_multiply(big, big)
        assert big.degree == SERIES_DEGREE_CAP
        with pytest.raises(ResourceLimitError):
            series_multiply(big, series_from_transfer(0.5))
        with pytest.raises(ResourceLimitError):
            series_multiply(big, big)


class TestIntegrateSeries:
    def test_zero_power_is_identity(self):
        out = integrate_series_against_spectrum(identity_series(), spectrum(1.0), dephasing(0.5))
        assert np.allclose(out, np.eye(3), atol=1e-15)

    def test_flat_limit_keeps_only_zeroth(self):
        # sigma so large that every kappa_l (l != 0) underflows to zero
        sp = SpectrumParams(0.0, 5e3, 1e5, 0.0)
        cfg = DephasingConfig(0.009, 10.0)
        power = series_power(series_from_transfer(0.37), 7)
        out = integrate_series_against_spectrum(power, sp, cfg)
        assert np.allclose(out, power.coefficient(0).real, atol=1e-13)

    def test_eta_one_contraction_factor(self):
        from memoryflow.spectra import decoherence_function

        sp, cfg = spectrum(1.0), dephasing(0.8)
        for m in (1, 3, 8):
            power = series_power(series_from_transfer(1.0), m)
            out = integrate_series_against_spectrum(power, sp, cfg)
            kappa = decoherence_function(sp, cfg.index_contrast, m * cfg.step_duration)
            sub = out[:2, :2]
            svals = np.linalg.svd(sub, compute_uv=False)
            assert svals[0] == pytest.approx(abs(kappa), abs=1e-12)
            assert out[2, 2] == pytest.approx(1.0, abs=1e-12)


class TestSeriesMaps:
    @pytest.mark.parametrize("a", [0.0, 1.0])
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 1.0])
    def test_bit_identical_to_per_power_route(self, eta, a):
        # one product and one kappa table per power, within PER_POWER_TOL: the
        # period-node sums and the coefficient route round differently
        tables = [(spectrum(a), dephasing(0.35)), None]
        assert_per_power_route((eta,), 40, tables, series_map_stacks((eta,), 40, tables))

    def test_spectrum_free_averages(self):
        # the strong limit's stack keeps its bits beside a spectrum's
        stacks = series_map_stacks((0.3,), 12, [None])
        assert stacks.shape == (1, 1, 13, 3, 3)
        averages = stacks[0]
        with_table = series_map_stacks((0.3,), 12, [(spectrum(1.0), dephasing(0.5)), None])[1]
        assert np.array_equal(averages, with_table)
        for m, power in enumerate(series_powers(series_from_transfer(0.3), 12)):
            assert np.max(np.abs(averages[0, m] - power.period_average())) <= PER_POWER_TOL * max(1, m)

    def test_arguments_checked_before_any_power(self):
        tables = [(spectrum(), dephasing(0.35))]
        with pytest.raises(DomainError):
            series_map_stacks((0.5,), -1, tables)
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            series_map_stacks((0.5,), SERIES_DEGREE_CAP + 1, tables)

    def test_large_steps_keep_memory_linear(self):
        # a (steps + 1, 2 steps + 1, 3, 3) stack of every band would be 1.15 GB;
        # the streamed maps hold one band (0.58 MB) and a few of its size
        steps = 2000
        band_bytes = (2 * steps + 1) * 9 * 16
        tracemalloc.start()
        try:
            exact, averages = series_map_stacks((0.5,), steps,
                                                [(spectrum(1.0), dephasing(0.35)), None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * band_bytes
        assert np.all(np.isfinite(exact)) and np.all(np.isfinite(averages))
        assert np.max(np.abs(averages[0, steps] - strong_limit_closed_form(steps))) < 1e-12


#: agreement per power of the period-node stacks with the per-power route: the
#: two sum the same exact average in different orders, so rounding grows with m
PER_POWER_TOL = 1e-14


def assert_per_power_route(etas, steps, tables, stacks):
    """Every [t, e] slice of the stacks is, within PER_POWER_TOL * max(1, m),
    one product and one contraction per power: with one kappa table for a
    (spectrum, step) pair, the zeroth coefficient for None; the m = 0 maps
    are exactly the identity."""
    assert stacks.shape == (len(tables), len(etas), steps + 1, 3, 3)
    for e, eta in enumerate(etas):
        step = series_from_transfer(eta)
        power = identity_series()
        for m in range(steps + 1):
            tol = PER_POWER_TOL * max(1, m)
            for t, table in enumerate(tables):
                want = (power.period_average() if table is None
                        else integrate_series_against_spectrum(power, *table))
                assert np.max(np.abs(stacks[t, e, m] - want)) <= tol
            power = series_multiply(power, step)
        assert all(np.array_equal(stacks[t, e, 0], np.eye(3)) for t in range(len(tables)))


class TestSeriesMapStacks:
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(etas=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                         min_size=1, max_size=7),
           steps=st.integers(0, 40),
           tables=st.lists(st.none() | st.tuples(st.sampled_from([0.0, 0.5, 1.0]),
                                                  st.floats(0.01, 3.0)), max_size=3))
    def test_every_slice_matches_per_power_route(self, etas, steps, tables):
        # None, the strong limit, may stand anywhere among the pairs
        tables = [t and (spectrum(t[0]), dephasing(t[1])) for t in tables]
        assert_per_power_route(etas, steps, tables, series_map_stacks(etas, steps, tables))

    def test_duplicate_and_single_eta(self):
        tables = [(spectrum(1.0), dephasing(0.35)), None]
        stacks = series_map_stacks([0.3, 0.3, 0.7, 0.3], 17, tables)
        assert np.array_equal(stacks[:, 0], stacks[:, 1]) and np.array_equal(stacks[:, 0], stacks[:, 3])
        single = series_map_stacks((0.3,), 17, tables)
        assert np.array_equal(stacks[:, 0], single[:, 0])

    def test_arguments_checked_before_any_table(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a kappa table was built")

        monkeypatch.setattr("memoryflow.harmonic.decoherence_function", refused)
        tables = [(spectrum(), dephasing(0.35))]
        with pytest.raises(DomainError):
            series_map_stacks([0.5], -1, tables)
        with pytest.raises(DomainError):
            series_map_stacks([], 3, tables)
        with pytest.raises(DomainError):
            series_map_stacks([0.5, 1.5], 3, tables)
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            series_map_stacks([0.5], 10 ** 12, tables)

    def test_no_entries_return_the_empty_stack_unwalked(self, monkeypatch):
        # the count is made as for any entries, and nothing is walked
        def refused(*args):
            raise AssertionError("the period nodes were walked")

        monkeypatch.setattr(harmonic.kernels, "transfer_power_average", refused)
        stacks = series_map_stacks((0.0, 0.5, 1.0), 1024, [])
        assert stacks.shape == (0, 3, 1025, 3, 3) and stacks.dtype == np.float64
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            series_map_stacks([0.5], 10 ** 12, [])
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", harmonic.series_map_bytes(3, 1024, 0) - 1)
        with pytest.raises(ResourceLimitError, match="1024 steps"):
            series_map_stacks((0.0, 0.5, 1.0), 1024, [])

    @pytest.mark.parametrize("etas,steps,pairs", [(3, 30, 1), (5, 15, 0), (40, 128, 2)])
    def test_walk_counted_in_bytes(self, monkeypatch, etas, steps, pairs):
        # a budget of exactly the run's count passes it; one byte less is
        # refused by name before any table is built
        etas = np.linspace(0.0, 1.0, etas)
        tables = [(spectrum(1.0), dephasing(0.35))] * pairs + [None]
        count = harmonic.series_map_bytes(len(etas), steps, len(tables))
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", count)
        tracemalloc.start()
        try:
            stacks = series_map_stacks(etas, steps, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stacks.shape == (len(tables), len(etas), steps + 1, 3, 3) and peak <= count
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", count - 1)
        monkeypatch.setattr(harmonic, "decoherence_function", None)
        with pytest.raises(ResourceLimitError, match=f"{steps} steps x {len(etas)} etas.* MAX_GRID"):
            series_map_stacks(etas, steps, tables)

    @pytest.mark.parametrize("etas,steps,entry", [
        pytest.param(3, 30, "pair", id="3x30-pair"),
        pytest.param(40, 256, None, id="40x256-None"),
        pytest.param(40, 256, "pair", id="40x256-pair"),
    ])
    def test_count_covers_the_measured_peak(self, etas, steps, entry):
        # one walked row per entry; tracemalloc reads 0.70 of the count at
        # 3 x 30 and 0.59 at 40 x 256.  One untraced call first loads the
        # lazy numpy modules, which a run holds for good
        etas = np.linspace(0.0, 1.0, etas)
        tables = [entry and (spectrum(1.0), dephasing(0.35))]
        series_map_stacks(etas, steps, tables)
        tracemalloc.start()
        try:
            series_map_stacks(etas, steps, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1.05 * peak <= harmonic.series_map_bytes(len(etas), steps, len(tables))

    def test_error_stack_entries_match_per_pair_calls(self):
        sp, etas = spectrum(0.5), [0.0, 0.5, 0.8]
        configs = [dephasing(0.02), dephasing(1.03)]
        for engine in ("series", "quadrature"):
            errors = approximation_error_stack(etas, 9, sp, configs, engine)
            assert errors.shape == (2, 3, 10)
            for c, config in enumerate(configs):
                for e, eta in enumerate(etas):
                    alone = approximation_error_stack((eta,), 9, sp, (config,), engine)[0, 0]
                    assert np.allclose(errors[c, e], alone, rtol=0, atol=1e-14)


class TestEnginesFuzzed:
    """The qubit engines against one another over drawn environments: fig3's
    mu1, delta_omega and delta_n, with sigma over four decades around fig3's,
    any A, step duration (in revival times), control and step count.  A wider
    scan (sigma in [1e-6, 1e6], factors up to 1e3) agreed wherever the
    quadrature budget let that engine run."""

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(sigma=st.floats(1e-2, 1e2), a=st.floats(0.0, 1.0),
           dt_factor=st.floats(0.0, 10.0, exclude_min=True), eta=st.floats(0.0, 1.0),
           steps=st.integers(0, 12))
    def test_series_matches_quadrature_and_reference(self, sigma, a, dt_factor, eta, steps):
        sp = SpectrumParams(a, sigma, 15.0, 9.0)
        cfg = dephasing(dt_factor)
        series = transfer_map_stack(sp, cfg, (eta,), steps, "series")[0]
        quadrature = transfer_map_stack(sp, cfg, (eta,), steps, "quadrature")[0]
        limit = transfer_map_stack(sp, cfg, (eta,), steps, "strong-limit")[0]
        assert np.max(np.abs(series - quadrature)) < ENGINE_AGREEMENT_TOL
        for m, power in enumerate(series_powers(series_from_transfer(eta), steps)):
            tol = PER_POWER_TOL * max(1, m)
            assert np.max(np.abs(series[m] - integrate_series_against_spectrum(power, sp, cfg))) <= tol
            assert np.max(np.abs(limit[m] - power.period_average())) <= tol


class TestQuadratureMap:
    def test_zero_steps_identity(self):
        out = quadrature_map(0.5, 0, spectrum(0.0), dephasing(2.0))
        assert np.max(np.abs(out - np.eye(3))) < 1e-10

    def test_strong_dephasing_single_step_reaches_period_average(self):
        # period much smaller than sigma: quadrature must land on the
        # spectrum-free single-period average
        sp = spectrum(0.0)
        cfg = DephasingConfig(0.009, 40.0 * T_REVIVAL)
        out = quadrature_map(0.5, 1, sp, cfg)
        assert np.max(np.abs(out - strong_limit_map(0.5, 1))) < 1e-6

    @pytest.mark.parametrize("dt_factor", [0.014, 2.0])
    def test_cross_engine_random_cases(self, dt_factor):
        rng = np.random.default_rng(11)
        sp, cfg = spectrum(1.0), dephasing(dt_factor)
        for _ in range(4):
            eta = float(rng.uniform(0.0, 1.0))
            m = int(rng.integers(0, 21))
            power = series_power(series_from_transfer(eta), m)
            exact = integrate_series_against_spectrum(power, sp, cfg)
            quad = quadrature_map(eta, m, sp, cfg)
            assert np.max(np.abs(exact - quad)) < 1e-8

    def test_random_parameter_draws_agree(self):
        # engines must agree well off the reference parameter sets too
        rng = np.random.default_rng(99)
        for _ in range(10):
            sigma = float(rng.uniform(0.3, 3.0))
            sp = SpectrumParams(
                float(rng.uniform(0, 1)),
                sigma,
                float(rng.uniform(5 * sigma, 40 * sigma)),
                float(rng.uniform(0.0, 15 * sigma)),
            )
            dn = float(rng.uniform(0.001, 0.05))
            base = 2.0 * math.pi / ((sp.delta_omega or 9 * sigma) * dn)
            cfg = DephasingConfig(dn, float(rng.uniform(0.01, 3.0)) * base)
            eta = float(rng.uniform(0, 1))
            m = int(rng.integers(0, 25))
            power = series_power(series_from_transfer(eta), m)
            exact = integrate_series_against_spectrum(power, sp, cfg)
            quad = quadrature_map(eta, m, sp, cfg)
            assert np.max(np.abs(exact - quad)) < 1e-8

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
    def test_last_of_stack_is_single_map(self, eta):
        sp, cfg = spectrum(1.0), dephasing(0.35)
        for m in (0, 1, 7, 30):
            assert np.array_equal(quadrature_map(eta, m, sp, cfg),
                                  next(quadrature_map_stacks((eta,), m, [(sp, cfg)]))[0, m])

    @pytest.mark.parametrize("etas,steps,factor", [
        ([0.0, 0.5, 1.0], 30, 2.0),               # fig3
        ([0.0, 0.25, 0.5, 0.75, 1.0], 15, 1.03),  # fig5
        ([0.3, 0.3, 0.7, 0.3], 17, 0.35),         # repeated eta
    ])
    def test_eta_stack_matches_one_eta_calls(self, etas, steps, factor):
        # one walk over the nodes for every eta keeps each eta's bits
        sp, cfg = spectrum(0.0), dephasing(factor)
        maps = next(quadrature_map_stacks(etas, steps, [(sp, cfg)]))
        assert maps.shape == (len(etas), steps + 1, 3, 3) and maps.flags.c_contiguous
        for e, eta in enumerate(etas):
            alone = next(quadrature_map_stacks((eta,), steps, [(sp, cfg)]))[0]
            assert maps[e].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("a", [0.0, 1.0])
    @pytest.mark.parametrize("steps", [0, 1, 30])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
    def test_stack_agrees_with_series_engine(self, eta, steps, a):
        sp, cfg = spectrum(a), dephasing(0.35)
        maps = next(quadrature_map_stacks((eta,), steps, [(sp, cfg)]))[0]
        assert maps.shape == (steps + 1, 3, 3)
        for m, power in enumerate(series_powers(series_from_transfer(eta), steps)):
            exact = integrate_series_against_spectrum(power, sp, cfg)
            assert np.max(np.abs(maps[m] - exact)) < ENGINE_AGREEMENT_TOL

    @pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("factor,steps", [
        (0.005, 40), (0.35, 30), (2.0, 30),
        (5.0, 5),    # a panel spans a whole period: an order of 2m + 8 misses by 1.8e-10
        (5.0, 40), (14.0, 60),
    ])
    def test_maps_agree_with_series_stacks(self, factor, steps, a):
        # the order ceil(2 m s) + 20 resolves every power on every panel
        sp, cfg = spectrum(a), dephasing(factor)
        etas = (0.0, 0.2, 0.5, 0.8, 1.0)
        exact = series_map_stacks(etas, steps, [(sp, cfg)])[0]
        maps = next(quadrature_map_stacks(etas, steps, [(sp, cfg)]))
        assert np.max(np.abs(maps - exact)) <= 1e-12

    @pytest.mark.parametrize("a,peak", [(0.0, "mu1"), (0.3, "mu2"), (1.0, "mu2")])
    def test_support_ends_past_the_last_weighted_peak(self, a, peak):
        sp = spectrum(a)
        lo, hi, _, _ = harmonic._quadrature_support(sp, dephasing(0.35), 10, 1)
        assert lo == sp.mu1 - 8.0 * sp.sigma
        assert hi == getattr(sp, peak) + 8.0 * sp.sigma

    @pytest.mark.parametrize("cfg,steps,panels,order", [
        # fig3: 16 sigma in four periods of 4.5 sigma, each cut in two panels
        # of 4/9 of a period: ceil(60 * 4 / 9) + 20
        (dephasing(2.0), 30, 8, 47),
        # a panel spans 0.99 of a period at factor 5
        (dephasing(5.0), 5, 9, 30),
        # no index contrast: no phase, the Gaussian factor's order alone
        (DephasingConfig(0.0, 1.0), 30, 8, 20),
    ])
    def test_order_follows_the_phase_a_panel_spans(self, cfg, steps, panels, order):
        assert harmonic._quadrature_support(spectrum(0.0), cfg, steps, 1)[2:] == (panels, order)

    def test_negative_steps(self):
        with pytest.raises(DomainError):
            next(quadrature_map_stacks((0.5,), -1, [(spectrum(), dephasing(0.35))]))
        with pytest.raises(DomainError, match="at least one eta"):
            next(quadrature_map_stacks((), 3, [(spectrum(), dephasing(0.35))]))

    def test_node_budget(self):
        # duration so long that the support spans tens of thousands of periods
        sp = spectrum(0.0)
        cfg = DephasingConfig(0.009, 1.0e6)
        with pytest.raises(ResourceLimitError):
            quadrature_map(0.5, 40, sp, cfg)

    @staticmethod
    def node_count(steps, sp, cfg):
        return len(harmonic._quadrature_nodes(sp, cfg, steps, 1)[0])

    def test_node_bytes_cover_the_measured_peak(self):
        # about 230 000 nodes: the run holds at most NODE_BYTES per node and
        # eta, walked for one eta or three
        sp, cfg = spectrum(0.0), dephasing(3000.0)
        nodes = self.node_count(10, sp, cfg)
        assert nodes > 200_000
        for etas in ([0.5], [0.0, 0.5, 1.0]):
            tracemalloc.start()
            try:
                next(quadrature_map_stacks(etas, 10, [(sp, cfg)]))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= NODE_BYTES * nodes * len(etas)

    def test_nodes_counted_in_bytes(self, monkeypatch):
        # a budget of exactly the run's bytes per node and eta passes it; one
        # byte less is refused by name before any node is built
        sp, cfg = spectrum(0.7), dephasing(30.0)
        nodes = self.node_count(6, sp, cfg)
        grid = harmonic.kernels.composite_gauss_legendre
        for etas in ([0.5], [0.0, 0.5, 1.0]):
            need = NODE_BYTES * nodes * len(etas)
            monkeypatch.setattr(errors, "MAX_GRID_BYTES", need)
            monkeypatch.setattr(harmonic.kernels, "composite_gauss_legendre", grid)
            assert next(quadrature_map_stacks(etas, 6, [(sp, cfg)])).shape == (len(etas), 7, 3, 3)
            monkeypatch.setattr(errors, "MAX_GRID_BYTES", need - 1)
            monkeypatch.setattr(harmonic.kernels, "composite_gauss_legendre", None)
            with pytest.raises(ResourceLimitError,
                               match=f"quadrature support .* x {len(etas)} etas.* MAX_GRID_BYTES"):
                next(quadrature_map_stacks(etas, 6, [(sp, cfg)]))


class TestStrongLimit:
    def test_first_maps(self):
        assert np.allclose(strong_limit_map(0.5, 0), np.eye(3), atol=1e-15)
        lam1 = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=float)
        assert np.allclose(strong_limit_map(0.5, 1), lam1, atol=1e-15)
        lam3 = 0.5 * np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]], dtype=float)
        assert np.allclose(strong_limit_map(0.5, 3), lam3, atol=1e-14)

    def test_fourth_power_period_averages(self):
        # <cos^2> = 1/2 and <cos^4> = 3/8 fix these two entries
        lam4 = strong_limit_map(0.5, 4)
        assert lam4[0, 0] == pytest.approx(0.5, abs=1e-13)
        assert lam4[1, 1] == pytest.approx(3.0 / 8.0, abs=1e-13)

    def test_matches_dense_theta_average(self):
        # independent oracle: plain trapezoid average over one period
        thetas = 2.0 * math.pi * np.arange(1024) / 1024
        for m in (2, 5, 9):
            acc = np.zeros((3, 3))
            for theta in thetas:
                acc += np.linalg.matrix_power(bloch_transfer_matrix(0.5, theta), m)
            assert np.max(np.abs(acc / 1024 - strong_limit_map(0.5, m))) < 1e-12


class TestCatalan:
    def test_small_values(self):
        assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_domain(self):
        with pytest.raises(DomainError):
            catalan(-1)

    def test_coeff_b0_matches_third_map(self):
        assert catalan_coeffs(0).b == pytest.approx(0.5, abs=1e-15)
        assert strong_limit_map(0.5, 3)[1, 1] == pytest.approx(0.5, abs=1e-13)

    def test_coeff_a1_matches_sixth_map(self):
        assert catalan_coeffs(1).a == pytest.approx(
            strong_limit_map(0.5, 6)[0, 0], abs=1e-13
        )

    def test_negative_index_vanishes(self):
        cc = catalan_coeffs(-1)
        assert cc.a == 0.0 and cc.b == 0.0

    def test_term_recurrence_against_direct_sum(self):
        for k in (0, 1, 5, 12):
            a_direct = 0.5 * sum((2 * i + 1) * catalan(i) / (-4.0) ** i for i in range(k + 1))
            b_direct = 0.5 * sum(catalan(i) / (-4.0) ** i for i in range(k + 1))
            cc = catalan_coeffs(k)
            assert cc.a == pytest.approx(a_direct, abs=1e-14)
            assert cc.b == pytest.approx(b_direct, abs=1e-14)

    def test_increment_magnitudes_decreasing(self):
        a_prev = None
        for k in range(5, 40):
            diff = abs(catalan_coeffs(k + 1).a - catalan_coeffs(k).a)
            if a_prev is not None:
                assert diff < a_prev
            a_prev = diff

    def test_alternating_partial_sums_bracket_limits(self):
        # consecutive partial sums straddle the alternating-series limits
        for k in range(4, 60, 7):
            b_lo, b_hi = sorted((catalan_coeffs(k).b, catalan_coeffs(k + 1).b))
            assert b_lo <= CATALAN_LIMIT_B <= b_hi
            a_lo, a_hi = sorted((catalan_coeffs(k).a, catalan_coeffs(k + 1).a))
            assert a_lo <= CATALAN_LIMIT_A <= a_hi


def catalan_coeffs_per_k(k):
    """a_k and b_k summed from i = 0 for this k alone: the per-k reference."""
    a = b = 0.0
    term = 1.0
    sign = 1.0
    for i in range(k + 1):
        a += 0.5 * sign * (2 * i + 1) * term
        b += 0.5 * sign * term
        term *= (2.0 * i + 1.0) / (2.0 * i + 4.0)
        sign = -sign
    return a, b


def closed_form_per_m(m):
    """The closed-form period-average map built entry by entry from per-k sums."""
    def a(k):
        return catalan_coeffs_per_k(k)[0] if k >= 0 else 0.0

    def b(k):
        return catalan_coeffs_per_k(k)[1] if k >= 0 else 0.0

    if m == 0:
        return np.eye(3)
    if m == 1:
        return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    j = (m + 1) // 2
    if m % 2 == 0:
        return np.array([[a(j - 2), 0.0, a(j - 1)], [0.0, b(j - 1), 0.0],
                         [a(j - 2), 0.0, a(j - 2)]])
    return np.array([[a(j - 2), 0.0, a(j - 2)], [0.0, b(j - 2), 0.0],
                     [a(j - 3), 0.0, a(j - 2)]])


class TestCatalanPass:
    """One running pass of partial sums serves every k and every closed form,
    bit for bit."""

    def test_running_pass_is_each_per_k_sum(self):
        a_sums, b_sums = _catalan_sums(60)
        assert len(a_sums) == len(b_sums) == 61
        for k in range(61):
            assert (a_sums[k], b_sums[k]) == catalan_coeffs_per_k(k)
            cc = catalan_coeffs(k)
            assert (cc.a, cc.b) == (a_sums[k], b_sums[k])

    def test_empty_below_zero(self):
        assert _catalan_sums(-1) == ([], [])

    def test_stack_is_each_per_m_closed_form(self):
        stack = strong_limit_closed_forms(41)
        assert stack.shape == (42, 3, 3)
        for m in range(42):
            assert np.array_equal(stack[m], closed_form_per_m(m))
            assert np.array_equal(strong_limit_closed_form(m), stack[m])

    @pytest.mark.parametrize("steps", [0, 1, 2, 3])
    def test_short_stacks(self, steps):
        stack = strong_limit_closed_forms(steps)
        assert all(np.array_equal(stack[m], closed_form_per_m(m)) for m in range(steps + 1))

    def test_domain(self):
        with pytest.raises(DomainError):
            strong_limit_closed_forms(-1)


class TestClosedForm:
    def test_printed_maps(self):
        lam2 = 0.5 * np.array([[0, 0, 1], [0, 1, 0], [0, 0, 0]], dtype=float)
        assert np.allclose(strong_limit_closed_form(2), lam2, atol=1e-15)
        lam3 = 0.5 * np.eye(3)
        lam3[0, 2] = 0.5
        assert np.allclose(strong_limit_closed_form(3), lam3, atol=1e-15)

    def test_infinite_map(self):
        lam_inf = strong_limit_closed_form(0, infinite=True)
        a = 1.0 - 1.0 / math.sqrt(2.0)
        b = math.sqrt(2.0) - 1.0
        expected = np.array([[a, 0, a], [0, b, 0], [a, 0, a]])
        assert np.allclose(lam_inf, expected, atol=1e-15)

    def test_matches_oracle_to_forty(self):
        for m in range(41):
            dev = np.max(np.abs(strong_limit_closed_form(m) - strong_limit_map(0.5, m)))
            assert dev < 1e-12, f"m={m}: {dev:.2e}"

    def test_domain(self):
        with pytest.raises(DomainError):
            strong_limit_closed_form(-2)


class TestApproximationError:
    @pytest.mark.parametrize("engine", ["series", "quadrature"])
    @pytest.mark.parametrize("eta", [0.25, 0.5])
    def test_errors_match_per_step_route(self, engine, eta):
        sp, cfg = spectrum(1.0), dephasing(0.35)
        errors = approximation_error_stack((eta,), 8, sp, (cfg,), engine)[0, 0]
        assert errors.shape == (9,)
        for m in range(9):
            if engine == "series":
                exact = integrate_series_against_spectrum(
                    series_power(series_from_transfer(eta), m), sp, cfg)
            else:
                exact = quadrature_map(eta, m, sp, cfg)
            want = channel_distance(exact, strong_limit_map(eta, m))
            assert abs(errors[m] - want) <= 1e-14
        assert approximation_error(eta, 8, sp, cfg, engine) == errors[-1]

    def test_strong_limit_entry_on_every_engine(self):
        # a None step is the single-period average on each engine, bit for
        # bit: at m = steps the same nodes as strong_limit_map's, and within
        # rounding of its closed forms at every m
        sp, cfg, etas, steps = spectrum(1.0), dephasing(0.35), (0.0, 0.25, 0.5, 1.0), 12
        limits = [next(transfer_map_stacks(sp, [None, cfg], etas, steps, engine))
                  for engine in ("series", "quadrature", "strong-limit")]
        assert all(limit.tobytes() == limits[0].tobytes() for limit in limits)
        for e, eta in enumerate(etas):
            assert np.array_equal(limits[0][e, steps], strong_limit_map(eta, steps))
        assert np.max(np.abs(limits[0][2] - strong_limit_closed_forms(steps))) <= 1e-12

    def test_unknown_engine(self):
        with pytest.raises(DomainError):
            approximation_error_stack((0.5,), 3, spectrum(), (dephasing(0.35),), "strong-limit")

    def test_one_step_duration_at_a_time(self):
        # each step duration's maps and Choi stack are dropped before the
        # next are made, so the route's own count on entry covers the run
        etas = np.linspace(0.0, 1.0, 40).tolist()
        configs = [dephasing(factor) for factor in np.linspace(0.02, 1.5, 10)]
        tracemalloc.start()
        try:
            errors = approximation_error_stack(etas, 256, spectrum(0.0), configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert errors.shape == (10, 40, 257)
        assert peak <= harmonic.series_map_bytes(40, 256, 1)

    @pytest.mark.parametrize("engine", ["series", "quadrature", "strong-limit"])
    def test_empty_inputs_refused(self, engine):
        sp, cfg = spectrum(1.0), dephasing(0.35)
        with pytest.raises(DomainError, match="at least one eta"):
            transfer_map_stack(sp, cfg, (), 3, engine)
        with pytest.raises(DomainError, match="at least one dephasing step"):
            approximation_error_stack((0.5,), 3, sp, (), engine)
        # the error stack has no strong-limit engine, and refuses it as unknown
        with pytest.raises(DomainError, match="unknown engine" if engine == "strong-limit"
                           else "at least one eta"):
            approximation_error_stack((), 3, sp, (cfg,), engine)

    def test_zero_steps(self):
        assert approximation_error(0.5, 0, spectrum(0.0), dephasing(0.02)) == pytest.approx(0.0, abs=1e-13)

    def test_vanishes_in_flat_limit(self):
        sp = SpectrumParams(0.0, 5e3, 1e5, 0.0)
        cfg = DephasingConfig(0.009, 10.0)
        assert approximation_error(0.5, 6, sp, cfg) < 1e-12

    def test_intermediate_beats_weak(self):
        sp = spectrum(0.0)
        weak, inter = dephasing(0.02), dephasing(1.03)
        for m in (1, 4, 9):
            assert approximation_error(0.5, m, sp, inter) < approximation_error(0.5, m, sp, weak)

    def test_stacked_distances_equal_per_pair_calls(self):
        rng = np.random.default_rng(11)
        t1 = np.array([bloch_transfer_matrix(eta, th) for eta, th in rng.uniform(0, 1, (12, 2))])
        t2 = rng.normal(size=(12, 3, 3))
        stacked = channel_distance(t1, t2)
        assert stacked.shape == (12,)
        pairs = [channel_distance(a, b) for a, b in zip(t1, t2)]
        assert all(type(d) is float for d in pairs)
        assert np.array_equal(stacked, pairs)
        grid = channel_distance(t1.reshape(3, 4, 3, 3), t2.reshape(3, 4, 3, 3))
        assert np.array_equal(grid, stacked.reshape(3, 4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_map_refused_by_name(self, bad, monkeypatch):
        # LAPACK fails to converge on some such Choi matrices and returns
        # finite eigenvalues for others; either way the fault is the map
        rng = np.random.default_rng(26)
        t1 = np.array([bloch_transfer_matrix(eta, th) for eta, th in rng.uniform(0, 1, (4, 2))])
        t2 = rng.normal(size=(4, 3, 3))
        for i, j in np.ndindex(3, 3):
            planted = t1.copy()
            planted[2, i, j] = bad
            with pytest.raises(DomainError, match="non-finite"):
                channel_distance(planted, t2)

        original = harmonic.series_map_stacks

        def with_planted_map(etas, steps, tables):
            stacks = original(etas, steps, tables)
            if tables[0] is not None:
                stacks[0, 0, 2, 1, 1] = bad
            return stacks

        monkeypatch.setattr(harmonic, "series_map_stacks", with_planted_map)
        with pytest.raises(DomainError, match="non-finite"):
            approximation_error_stack((0.5,), 3, spectrum(1.0), (dephasing(0.35),))

    def test_metric_symmetry_and_identity(self):
        t1 = bloch_transfer_matrix(0.3, 0.4)
        t2 = bloch_transfer_matrix(0.8, -1.1)
        assert channel_distance(t1, t1) == pytest.approx(0.0, abs=1e-14)
        assert channel_distance(t1, t2) == pytest.approx(channel_distance(t2, t1), abs=1e-14)
        assert channel_distance(t1, t2) > 0.0


@pytest.mark.parametrize("call,error,named", [
    pytest.param(lambda: harmonic.TrigMatrixSeries(1, np.zeros((2, 3, 3), dtype=complex)),
                 DomainError, "inconsistent series degree", id="short-block"),
    pytest.param(lambda: harmonic.TrigMatrixSeries(-1, np.zeros((0, 3, 3), dtype=complex)),
                 DomainError, "inconsistent series degree", id="negative-degree"),
    pytest.param(lambda: harmonic.TrigMatrixSeries(0, 1j * np.eye(3)[None]).period_average(),
                 NumericError, "period average has imaginary residue", id="imaginary-average"),
])
def test_refused_arguments(call, error, named):
    with pytest.raises(error, match=named):
        call()


def test_coefficient_beyond_the_degree_is_zero():
    series = series_from_transfer(0.5)
    for l in (series.degree + 1, -series.degree - 1, 7):
        assert np.array_equal(series.coefficient(l), np.zeros((3, 3), dtype=complex))
