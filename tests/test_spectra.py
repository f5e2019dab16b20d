import math

import numpy as np
import pytest

from memoryflow import errors
from memoryflow.errors import DomainError, ResourceLimitError, UnsupportedCaseError
from memoryflow.spectra import (
    THETA3_TERM_TOL,
    DephasingConfig,
    SpectrumParams,
    decoherence_by_quadrature,
    decoherence_function,
    flatness_factor,
    spectral_density,
    theta3,
)

DN = 0.009


def two_peak(a=1.0, sigma=1.0, mu1=15.0, sep=9.0):
    return SpectrumParams(amplitude_ratio=a, sigma=sigma, mu1=mu1, delta_omega=sep)


class TestSpectralDensity:
    def test_single_peak_value_at_center(self):
        sp = two_peak(a=0.0)
        assert spectral_density(sp, sp.mu1) == pytest.approx(
            1.0 / (sp.sigma * math.sqrt(2.0 * math.pi)), abs=1e-15
        )

    def test_symmetric_two_peak(self):
        sp = two_peak(a=1.0)
        assert spectral_density(sp, sp.mu1) == pytest.approx(
            spectral_density(sp, sp.mu2), abs=1e-15
        )

    def test_unit_gaussian_point_value(self):
        sp = SpectrumParams(0.0, 1.0, 0.0, 0.0)
        # exp(-1/2)/sqrt(2 pi)
        assert spectral_density(sp, 1.0) == pytest.approx(0.24197072451914337, abs=1e-12)

    def test_non_negative_everywhere(self):
        sp = two_peak(a=0.3)
        om = np.linspace(sp.mu1 - 10, sp.mu2 + 10, 401)
        assert np.all(spectral_density(sp, om) >= 0.0)

    def test_normalization_by_quadrature(self):
        # kappa(0) computed by quadrature IS the normalization integral
        for a in (0.0, 0.4, 1.0):
            total = decoherence_by_quadrature(two_peak(a=a), DN, 0.0)
            assert abs(total - 1.0) < 1e-9

    def test_rejects_nonfinite_omega(self):
        with pytest.raises(DomainError):
            spectral_density(two_peak(), float("nan"))

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            SpectrumParams(-0.1, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            SpectrumParams(0.5, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            SpectrumParams(0.5, 1.0, 0.0, -1.0)


    def test_rejects_infinite_second_peak(self):
        with pytest.raises(DomainError, match="mu2"):
            SpectrumParams(0.5, 1.0, 1e308, 1e308)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_overflowing_normalisation(self):
        # 1/(sigma sqrt(2 pi)) is inf for a subnormal sigma; inf x 0 would be NaN
        sp = two_peak(sigma=1e-320)
        with pytest.raises(DomainError, match="sigma"):
            spectral_density(sp, np.linspace(14.0, 25.0, 5))


class TestDecoherenceFunction:
    def test_at_zero(self):
        assert decoherence_function(two_peak(), DN, 0.0) == pytest.approx(1.0 + 0.0j)

    def test_single_peak_envelope_monotone(self):
        sp = two_peak(a=0.0)
        taus = np.linspace(0.0, 300.0, 91)
        mags = np.abs(decoherence_function(sp, DN, taus))
        assert np.all(np.diff(mags) < 0.0)
        assert np.allclose(mags, np.exp(-0.5 * (sp.sigma * DN * taus) ** 2))

    def test_first_revival_value(self):
        sp = two_peak(a=1.0)
        t1 = 2.0 * math.pi / (sp.delta_omega * DN)
        val = abs(decoherence_function(sp, DN, t1))
        assert val == pytest.approx(math.exp(-0.5 * (2.0 * math.pi / 9.0) ** 2), abs=1e-12)
        assert abs(decoherence_by_quadrature(sp, DN, t1)) == pytest.approx(val, abs=1e-9)

    def test_magnitude_bounded_by_one(self):
        sp = two_peak(a=0.7)
        taus = np.linspace(0.0, 500.0, 57)
        assert np.all(np.abs(decoherence_function(sp, DN, taus)) <= 1.0 + 1e-12)

    def test_hermitian_symmetry(self):
        sp = two_peak(a=0.3)
        for tau in (0.7, 13.0, 120.0):
            assert decoherence_function(sp, DN, -tau) == pytest.approx(
                np.conj(decoherence_function(sp, DN, tau)), abs=1e-15
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_overflowing_phase(self):
        # mu1 * delta_n * tau overflows to inf, and exp(1j * inf) would be NaN
        sp = two_peak(mu1=1e308, sep=0.0)
        assert np.all(np.isfinite(decoherence_function(sp, DN, [0.0, 1e-3])))
        with pytest.raises(DomainError, match="mu1"):
            decoherence_function(sp, DN, np.array([0.0, 250.0]))
        with pytest.raises(DomainError, match="mu2"):
            decoherence_function(two_peak(mu1=1.0, sep=1e308), DN, 250.0)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_closed_form_matches_quadrature_on_grid(self, a):
        sp = two_peak(a=a)
        t_max = 4.0 * 2.0 * math.pi / (sp.delta_omega * DN)
        for tau in np.linspace(0.0, t_max, 100):
            closed = decoherence_function(sp, DN, tau)
            direct = decoherence_by_quadrature(sp, DN, tau)
            assert abs(closed - direct) < 1e-9

    @pytest.mark.parametrize("delta_n,tau", [(1.0, 1e307), (1e200, 1e200)])
    def test_quadrature_refuses_an_overflowing_panel_count(self, delta_n, tau):
        with pytest.raises(ResourceLimitError, match="inf panels"):
            decoherence_by_quadrature(SpectrumParams(0.5, 1.0, 15.0, 9.0), delta_n, tau)

    def test_panels_counted_in_bytes(self, monkeypatch):
        # 24 nodes of 64 bytes per panel against MAX_GRID_BYTES: at a budget
        # of 100 panels, 100 are integrated and 101 refused by name.  The
        # support is 29 sigma wide, so tau = p pi / 29 needs ceil(p) panels
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", 64 * 24 * 100)
        sp = SpectrumParams(0.5, 1.0, 15.0, 9.0)
        want = decoherence_function(sp, 1.0, 99.5 * math.pi / 29.0)
        assert decoherence_by_quadrature(sp, 1.0, 99.5 * math.pi / 29.0) \
            == pytest.approx(want, abs=1e-9)
        with pytest.raises(ResourceLimitError, match="101 panels .*MAX_GRID_BYTES"):
            decoherence_by_quadrature(sp, 1.0, 100.5 * math.pi / 29.0)


class TestTheta3:
    def test_q_zero_is_one(self):
        for u in np.linspace(-3.0, 3.0, 13):
            assert theta3(u, 0.0) == 1.0

    def test_series_at_origin(self):
        q = 0.2
        expected = 1.0 + 2.0 * sum(q ** (n * n) for n in range(1, 40))
        assert theta3(0.0, q) == pytest.approx(expected, abs=1e-14)

    def test_half_pi_value(self):
        # alternating series 1 - 2q + 2q^4 - 2q^9 + ...
        assert theta3(math.pi / 2.0, 0.1) == pytest.approx(0.800199998, abs=1e-9)

    def test_terms_counted_in_bytes(self, monkeypatch):
        # 40 bytes per term against MAX_GRID_BYTES: at a budget of 1000 terms,
        # q whose series stops after 999.5 terms is summed, and q needing
        # 1000.5 is refused by name rather than truncated
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", 40 * 1000)

        def q_stopping_at(n_stop):
            return math.exp(math.log(THETA3_TERM_TOL / 2.0) / n_stop ** 2)

        q = q_stopping_at(999.5)
        n = np.arange(1, 1000)
        assert theta3(0.3, q) == pytest.approx(
            1.0 + 2.0 * float(np.sum(q ** (n * n) * np.cos(0.6 * n))), rel=1e-15)
        with pytest.raises(ResourceLimitError, match="theta3 .*1000.5 terms.*MAX_GRID_BYTES"):
            theta3(0.3, q_stopping_at(1000.5))

    def test_domain(self):
        with pytest.raises(DomainError):
            theta3(0.0, 1.0)
        with pytest.raises(DomainError):
            theta3(0.0, -0.2)


class TestFlatnessFactor:
    def test_near_one_at_unit_ratio(self):
        sp = SpectrumParams(0.0, 1.0, 15.0, 0.0)
        config = DephasingConfig(index_contrast=DN, step_duration=2.0 * math.pi / DN)
        assert config.period_omega == pytest.approx(1.0)
        assert flatness_factor(sp, config) == pytest.approx(1.0, abs=1e-8)

    def test_diverges_for_narrow_spectrum(self):
        # sigma much smaller than the period, peak centered mid-period
        sp = SpectrumParams(0.0, 0.05, 0.5, 0.0)
        config = DephasingConfig(index_contrast=1.0, step_duration=2.0 * math.pi)
        assert flatness_factor(sp, config) > 2.0

    def test_two_peak_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            flatness_factor(two_peak(a=0.5), DephasingConfig(DN, 1.0))


class TestDephasingConfig:
    def test_phase_periodicity(self):
        config = DephasingConfig(index_contrast=DN, step_duration=17.0)
        omega = 3.7
        lhs = config.phase(omega + config.period_omega)
        assert lhs == pytest.approx(config.phase(omega) + 2.0 * math.pi, abs=1e-12)

    def test_positive_period(self):
        assert DephasingConfig(DN, 1.0).period_omega > 0.0
        assert math.isinf(DephasingConfig(0.0, 1.0).period_omega)

    def test_rejects_bad_duration(self):
        with pytest.raises(DomainError):
            DephasingConfig(DN, 0.0)


NAN = float("nan")


@pytest.mark.parametrize("call,named", [
    pytest.param(lambda: SpectrumParams(NAN, 1.0, 15.0, 9.0), "spectrum parameters must be finite",
                 id="spectrum-nan"),
    pytest.param(lambda: SpectrumParams(0.0, 1.0, math.inf, 9.0),
                 "spectrum parameters must be finite", id="spectrum-inf"),
    pytest.param(lambda: DephasingConfig(NAN, 1.0), "dephasing parameters must be finite",
                 id="dephasing-nan"),
    pytest.param(lambda: DephasingConfig(DN, math.inf), "dephasing parameters must be finite",
                 id="dephasing-inf"),
    pytest.param(lambda: decoherence_function(two_peak(), NAN, 1.0), "must be finite",
                 id="decoherence-delta_n"),
    pytest.param(lambda: decoherence_function(two_peak(), DN, [0.0, math.inf]), "must be finite",
                 id="decoherence-tau"),
    pytest.param(lambda: decoherence_by_quadrature(two_peak(), DN, NAN), "must be finite",
                 id="quadrature-tau"),
    pytest.param(lambda: theta3(math.inf, 0.5), "theta3 arguments must be finite", id="theta3-u"),
    pytest.param(lambda: theta3(0.0, NAN), "theta3 arguments must be finite", id="theta3-q"),
    pytest.param(lambda: flatness_factor(two_peak(a=0.0), DephasingConfig(0.0, 1.0)),
                 "non-zero index contrast", id="flatness-no-contrast"),
])
def test_refused_arguments(call, named):
    with pytest.raises(DomainError, match=named):
        call()


def test_theta3_below_its_first_term_is_one():
    # at q below about 1e-16, 2 q is under THETA3_TERM_TOL: no term is summed
    assert theta3(0.7, 1e-17) == 1.0
