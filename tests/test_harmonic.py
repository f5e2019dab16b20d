import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memoryflow import kernels
from memoryflow.errors import DomainError, ResourceLimitError
from memoryflow.harmonic import (
    CATALAN_LIMIT_A,
    CATALAN_LIMIT_B,
    ENGINE_AGREEMENT_TOL,
    SERIES_DEGREE_CAP,
    approximation_error,
    approximation_error_stack,
    approximation_errors,
    catalan,
    catalan_coeffs,
    channel_distance,
    identity_series,
    integrate_series_against_spectrum,
    quadrature_map,
    quadrature_maps,
    series_from_transfer,
    series_map_stacks,
    series_maps,
    series_multiply,
    series_power,
    series_powers,
    _catalan_sums,
    strong_limit_closed_form,
    strong_limit_closed_forms,
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


class TestSeriesMaps:
    @pytest.mark.parametrize("a", [0.0, 1.0])
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 1.0])
    def test_bit_identical_to_per_power_route(self, eta, a):
        # one product and one kappa table per power, as before the streamed maps
        sp, cfg = spectrum(a), dephasing(0.35)
        exact, averages = series_maps(eta, 40, sp, cfg)
        assert exact.shape == averages.shape == (41, 3, 3)
        step = series_from_transfer(eta)
        power = identity_series()
        for m in range(41):
            assert np.array_equal(exact[m], integrate_series_against_spectrum(power, sp, cfg))
            assert np.array_equal(averages[m], power.period_average())
            power = series_multiply(power, step)

    def test_spectrum_free_averages(self):
        exact, averages = series_maps(0.3, 12)
        assert exact is None
        assert np.array_equal(averages, series_maps(0.3, 12, spectrum(1.0), dephasing(0.5))[1])
        for m, power in enumerate(series_powers(series_from_transfer(0.3), 12)):
            assert np.array_equal(averages[m], power.period_average())

    def test_arguments_checked_before_any_power(self):
        with pytest.raises(DomainError):
            series_maps(0.5, -1, spectrum(), dephasing(0.35))
        with pytest.raises(DomainError):
            series_maps(0.5, 3, spectrum())
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            series_maps(0.5, SERIES_DEGREE_CAP + 1, spectrum(), dephasing(0.35))

    def test_large_steps_keep_memory_linear(self):
        # a (steps + 1, 2 steps + 1, 3, 3) stack of every band would be 1.15 GB;
        # the streamed maps hold one band (0.58 MB) and a few of its size
        steps = 2000
        band_bytes = (2 * steps + 1) * 9 * 16
        tracemalloc.start()
        try:
            exact, averages = series_maps(0.5, steps, spectrum(1.0), dephasing(0.35))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * band_bytes
        assert np.all(np.isfinite(exact)) and np.all(np.isfinite(averages))
        assert np.max(np.abs(averages[steps] - strong_limit_closed_form(steps))) < 1e-12


def assert_per_power_route(etas, steps, tables, exact, averages):
    """Every [t, e] slice of the stacks has the bits of one product, one kappa
    table and one contraction per power."""
    assert averages.shape == (len(etas), steps + 1, 3, 3)
    if tables:
        assert exact.shape == (len(tables), len(etas), steps + 1, 3, 3)
    else:
        assert exact is None
    for e, eta in enumerate(etas):
        step = series_from_transfer(eta)
        power = identity_series()
        for m in range(steps + 1):
            assert np.array_equal(averages[e, m], power.period_average())
            for t, (sp, cfg) in enumerate(tables):
                assert np.array_equal(exact[t, e, m], integrate_series_against_spectrum(power, sp, cfg))
            power = series_multiply(power, step)


class TestSeriesMapStacks:
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(etas=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                         min_size=1, max_size=7),
           steps=st.integers(0, 40),
           tables=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.01, 3.0)),
                           max_size=3))
    def test_every_slice_matches_per_power_route(self, etas, steps, tables):
        # an empty table list is the spectrum-free case
        tables = [(spectrum(a), dephasing(f)) for a, f in tables]
        exact, averages = series_map_stacks(etas, steps, tables)
        assert_per_power_route(etas, steps, tables, exact, averages)

    def test_duplicate_and_single_eta(self):
        tables = [(spectrum(1.0), dephasing(0.35))]
        exact, averages = series_map_stacks([0.3, 0.3, 0.7, 0.3], 17, tables)
        assert np.array_equal(exact[0, 0], exact[0, 1]) and np.array_equal(exact[0, 0], exact[0, 3])
        single = series_maps(0.3, 17, *tables[0])
        assert np.array_equal(exact[0, 0], single[0]) and np.array_equal(averages[0], single[1])

    def test_eta_chunks_match_one_chunk(self, monkeypatch):
        # a budget of two etas per two-power ring splits three etas into two chunks
        etas, steps = [0.0, 0.4, 1.0], 20
        tables = [(spectrum(0.0), dephasing(0.35)), (spectrum(1.0), dephasing(2.0))]
        whole = series_map_stacks(etas, steps, tables)
        calls = []
        original = kernels.series_convolve

        def counted(a, b, out=None):
            calls.append(np.shape(b)[0])
            return original(a, b, out)

        monkeypatch.setattr(kernels, "series_convolve", counted)
        monkeypatch.setattr(kernels, "CACHE_BYTES", 2 * 2 * (2 * steps + 1) * 9 * 16)
        exact, averages = series_map_stacks(etas, steps, tables)
        assert calls == [2] * steps + [1] * steps
        assert exact.tobytes() == whole[0].tobytes() and averages.tobytes() == whole[1].tobytes()
        assert_per_power_route(etas, steps, tables, exact, averages)

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

    def test_error_stack_entries_match_per_pair_calls(self):
        sp, etas = spectrum(0.5), [0.0, 0.5, 0.8]
        configs = [dephasing(0.02), dephasing(1.03)]
        for engine in ("series", "quadrature"):
            errors = approximation_error_stack(etas, 9, sp, configs, engine)
            assert errors.shape == (2, 3, 10)
            for c, config in enumerate(configs):
                for e, eta in enumerate(etas):
                    assert np.allclose(errors[c, e], approximation_errors(eta, 9, sp, config, engine),
                                       rtol=0, atol=1e-14)


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

    def test_metric_symmetry_and_identity(self):
        t1 = bloch_transfer_matrix(0.3, 0.4)
        t2 = bloch_transfer_matrix(0.8, -1.1)
        assert channel_distance(t1, t1) == pytest.approx(0.0, abs=1e-14)
        assert channel_distance(t1, t2) == pytest.approx(channel_distance(t2, t1), abs=1e-14)
        assert channel_distance(t1, t2) > 0.0
