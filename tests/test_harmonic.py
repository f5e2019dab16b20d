import math

import numpy as np
import pytest

from memoryflow.errors import DomainError, ResourceLimitError
from memoryflow.harmonic import (
    CATALAN_LIMIT_A,
    CATALAN_LIMIT_B,
    ENGINE_AGREEMENT_TOL,
    SERIES_DEGREE_CAP,
    approximation_error,
    approximation_errors,
    catalan,
    catalan_coeffs,
    channel_distance,
    identity_series,
    integrate_series_against_spectrum,
    quadrature_map,
    quadrature_maps,
    series_from_transfer,
    series_multiply,
    series_power,
    series_powers,
    strong_limit_closed_form,
    strong_limit_map,
)
from memoryflow.qubit import bloch_transfer_matrix
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
            assert np.array_equal(quadrature_map(eta, m, sp, cfg), quadrature_maps(eta, m, sp, cfg)[m])

    @pytest.mark.parametrize("a", [0.0, 1.0])
    @pytest.mark.parametrize("steps", [0, 1, 30])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
    def test_stack_agrees_with_series_engine(self, eta, steps, a):
        sp, cfg = spectrum(a), dephasing(0.35)
        maps = quadrature_maps(eta, steps, sp, cfg)
        assert maps.shape == (steps + 1, 3, 3)
        for m, power in enumerate(series_powers(series_from_transfer(eta), steps)):
            exact = integrate_series_against_spectrum(power, sp, cfg)
            assert np.max(np.abs(maps[m] - exact)) < ENGINE_AGREEMENT_TOL

    def test_negative_steps(self):
        with pytest.raises(DomainError):
            quadrature_maps(0.5, -1, spectrum(), dephasing(0.35))

    def test_node_budget(self):
        # duration so long that the support spans tens of thousands of periods
        sp = spectrum(0.0)
        cfg = DephasingConfig(0.009, 1.0e6)
        with pytest.raises(ResourceLimitError):
            quadrature_map(0.5, 40, sp, cfg)


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
        errors = approximation_errors(eta, 8, sp, cfg, engine)
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

    def test_unknown_engine(self):
        with pytest.raises(DomainError):
            approximation_errors(0.5, 3, spectrum(), dephasing(0.35), "strong-limit")

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

    def test_metric_symmetry_and_identity(self):
        t1 = bloch_transfer_matrix(0.3, 0.4)
        t2 = bloch_transfer_matrix(0.8, -1.1)
        assert channel_distance(t1, t1) == pytest.approx(0.0, abs=1e-14)
        assert channel_distance(t1, t2) == pytest.approx(channel_distance(t2, t1), abs=1e-14)
        assert channel_distance(t1, t2) > 0.0
