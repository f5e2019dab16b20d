import math

import numpy as np
import pytest

from memoryflow import harmonic
from memoryflow.errors import DomainError
from memoryflow.qubit import (
    bloch_to_density,
    bloch_transfer_matrix,
    coin_operator,
    control_alpha_beta,
    density_to_bloch,
    evolve_qubit,
    pure_dephasing_map,
    special_map_eta0,
    special_map_eta1,
    trace_distance_qubit,
    transfer_map_stack,
    validate_density,
)
from memoryflow.spectra import DephasingConfig, SpectrumParams, decoherence_function

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def one_eta_maps(sp, cfg, eta, steps, engine="series"):
    """The maps of one control: the one-eta entry of ``transfer_map_stack``."""
    return transfer_map_stack(sp, cfg, (eta,), steps, engine)[0]


def spectrum(a=0.0):
    return SpectrumParams(a, 1.0, 15.0, 9.0)


def dephasing(dt_factor=0.35):
    t1 = 2.0 * math.pi / (9.0 * 0.009)
    return DephasingConfig(0.009, dt_factor * t1)


class TestCoinOperator:
    def test_eta_one_is_sigma_z(self):
        assert np.allclose(coin_operator(1.0), SIGMA_Z, atol=1e-15)

    def test_eta_zero_is_sigma_x(self):
        assert np.allclose(coin_operator(0.0), SIGMA_X, atol=1e-15)

    def test_balanced_is_hadamard(self):
        had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert np.allclose(coin_operator(0.5), had, atol=1e-15)

    @pytest.mark.parametrize("eta", [0.0, 0.17, 0.5, 0.83, 1.0])
    def test_unitary(self, eta):
        c = coin_operator(eta)
        assert np.allclose(c @ c.conj().T, np.eye(2), atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            coin_operator(1.5)
        with pytest.raises(DomainError):
            coin_operator(-0.1)

    @pytest.mark.parametrize("eta", [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_alpha_beta_on_unit_circle(self, eta):
        alpha, beta = control_alpha_beta(eta)
        assert alpha * alpha + beta * beta == pytest.approx(1.0, abs=1e-12)


class TestPureDephasing:
    def test_identity_at_kappa_one(self):
        rho = bloch_to_density([0.3, -0.4, 0.5])
        assert np.allclose(pure_dephasing_map(1.0, rho), rho, atol=1e-15)

    def test_full_decoherence(self):
        rho = bloch_to_density([1.0, 0.0, 0.0])
        out = pure_dephasing_map(0.0, rho)
        assert out[0, 1] == 0.0 and out[1, 0] == 0.0
        assert np.allclose(np.diag(out), np.diag(rho))

    def test_half_kappa_on_plus_state(self):
        rho = bloch_to_density([1.0, 0.0, 0.0])
        out = pure_dephasing_map(0.5, rho)
        assert np.allclose(density_to_bloch(out), [0.5, 0.0, 0.0], atol=1e-14)

    def test_rejects_expanding_kappa(self):
        with pytest.raises(DomainError):
            pure_dephasing_map(1.0 + 1e-6, bloch_to_density([0, 0, 1]))


class TestTransferMatrix:
    def test_balanced_form(self):
        theta = 0.83
        expected = np.array([
            [0.0, -math.sin(theta), math.cos(theta)],
            [0.0, -math.cos(theta), -math.sin(theta)],
            [1.0, 0.0, 0.0],
        ])
        assert np.allclose(bloch_transfer_matrix(0.5, theta), expected, atol=1e-15)

    def test_eta_one_theta_zero(self):
        expected = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(bloch_transfer_matrix(1.0, 0.0), expected, atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_orthogonal(self, seed):
        rng = np.random.default_rng(seed)
        eta = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(-10.0, 10.0))
        m = bloch_transfer_matrix(eta, theta)
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-12)

    def test_matches_unitary_conjugation(self):
        # Bloch action must agree with conjugating the density matrix by
        # diag(e^{i theta}, 1) after the coin (direct dilation-style check).
        rng = np.random.default_rng(7)
        for _ in range(5):
            eta = float(rng.uniform(0.0, 1.0))
            theta = float(rng.uniform(-6.0, 6.0))
            r = rng.uniform(-1.0, 1.0, 3)
            r /= max(1.0, np.linalg.norm(r))
            coin = coin_operator(eta)
            phase = np.diag([np.exp(1j * theta), 1.0])
            rho = phase @ coin @ bloch_to_density(r) @ coin.conj().T @ phase.conj().T
            assert np.allclose(
                density_to_bloch(rho), bloch_transfer_matrix(eta, theta) @ r, atol=1e-12
            )


class TestEvolveQubit:
    def test_zero_steps(self):
        r0 = np.array([0.2, 0.1, -0.7])
        out = evolve_qubit(spectrum(), dephasing(), 0.5, r0, 0)
        assert out.shape == (1, 3)
        assert np.allclose(out[0], r0)

    def test_eta_one_in_plane_contraction(self):
        sp, cfg = spectrum(0.6), dephasing()
        r0 = np.array([0.8, -0.3, 0.5])
        traj = evolve_qubit(sp, cfg, 1.0, r0, 12)
        for m in range(13):
            kappa = decoherence_function(sp, cfg.index_contrast, m * cfg.step_duration)
            assert np.hypot(traj[m][0], traj[m][1]) == pytest.approx(
                abs(kappa) * np.hypot(r0[0], r0[1]), abs=1e-10
            )
            assert traj[m][2] == pytest.approx(r0[2], abs=1e-12)

    def test_eta_zero_even_step_recovery(self):
        r0 = np.array([0.3, 0.6, -0.2])
        traj = evolve_qubit(spectrum(0.5), dephasing(), 0.0, r0, 14)
        for m in range(0, 15, 2):
            assert np.allclose(traj[m], r0, atol=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_induced_map_is_contraction(self, eta):
        sp, cfg = spectrum(1.0), dephasing(1.1)
        cols = [evolve_qubit(sp, cfg, eta, e, 9)[9] for e in np.eye(3)]
        transfer = np.column_stack(cols)
        svals = np.linalg.svd(transfer, compute_uv=False)
        assert svals[0] <= 1.0 + 1e-9

    def test_special_map_consistency_eta1(self):
        sp, cfg = spectrum(0.8), dephasing(0.6)
        r0 = np.array([0.4, 0.5, 0.6])
        traj = evolve_qubit(sp, cfg, 1.0, r0, 30)
        rho = bloch_to_density(r0)
        for m in range(31):
            want = density_to_bloch(special_map_eta1(m, sp, cfg, rho))
            assert np.allclose(traj[m], want, atol=1e-10)

    def test_special_map_consistency_eta0(self):
        sp, cfg = spectrum(0.8), dephasing(0.6)
        r0 = np.array([-0.1, 0.7, 0.2])
        traj = evolve_qubit(sp, cfg, 0.0, r0, 30)
        rho = bloch_to_density(r0)
        for m in range(31):
            want = density_to_bloch(special_map_eta0(m, sp, cfg, rho))
            assert np.allclose(traj[m], want, atol=1e-10)

    def test_quadrature_engine_agrees(self):
        sp, cfg = spectrum(1.0), dephasing(2.0)
        r0 = np.array([0.3, -0.5, 0.8]) / 1.1
        a = evolve_qubit(sp, cfg, 0.3, r0, 6, engine="series")
        b = evolve_qubit(sp, cfg, 0.3, r0, 6, engine="quadrature")
        assert np.allclose(a, b, atol=1e-8)


class TestTransferMaps:
    @pytest.mark.parametrize("engine", ["series", "quadrature", "strong-limit"])
    def test_maps_are_each_engines_m_step_map(self, engine):
        sp, cfg = spectrum(0.4), dephasing(1.7)
        maps = one_eta_maps(sp, cfg, 0.3, 5, engine)
        assert maps.shape == (6, 3, 3)
        assert np.array_equal(maps[0], np.eye(3))
        for m, power in enumerate(harmonic.series_powers(harmonic.series_from_transfer(0.3), 5)):
            if engine == "series":
                want = harmonic.integrate_series_against_spectrum(power, sp, cfg)
            elif engine == "quadrature":
                want = harmonic.quadrature_map(0.3, m, sp, cfg)
            else:
                want = power.period_average()
            assert np.max(np.abs(maps[m] - want)) <= 1e-15

    @pytest.mark.parametrize("engine", ["series", "quadrature", "strong-limit"])
    def test_stack_rows_are_each_etas_maps(self, engine):
        # every eta of one stacked call has the bits of its own call, and of
        # its own trajectory
        sp, cfg = spectrum(0.4), dephasing(1.7)
        etas = [0.0, 0.3, 0.3, 1.0]
        stack = transfer_map_stack(sp, cfg, etas, 6, engine)
        assert stack.shape == (4, 7, 3, 3)
        r0 = np.array([0.1, -0.4, 0.6])
        for eta, maps in zip(etas, stack):
            alone = one_eta_maps(sp, cfg, eta, 6, engine)
            assert maps.tobytes() == alone.tobytes()
            assert (maps @ r0).tobytes() == (alone @ r0).tobytes()

    def test_trajectory_is_maps_applied_to_r0(self):
        sp, cfg = spectrum(0.4), dephasing(1.7)
        r0 = np.array([0.1, -0.4, 0.6])
        for engine in ("series", "quadrature", "strong-limit"):
            want = one_eta_maps(sp, cfg, 0.8, 7, engine) @ r0
            assert np.array_equal(evolve_qubit(sp, cfg, 0.8, r0, 7, engine=engine), want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_strong_limit_reads_no_spectrum(self):
        # a spectrum whose decoherence phase overflows stops the series engine,
        # not the spectrum-free single-period average
        sp, cfg = SpectrumParams(0.0, 1.0, 1e308, 0.0), dephasing(1.7)
        with pytest.raises(DomainError, match="overflows"):
            one_eta_maps(sp, cfg, 0.3, 5, "series")
        assert np.array_equal(one_eta_maps(sp, cfg, 0.3, 5, "strong-limit"),
                              one_eta_maps(spectrum(), cfg, 0.3, 5, "strong-limit"))

    def test_domain(self):
        with pytest.raises(DomainError):
            one_eta_maps(spectrum(), dephasing(), 0.5, -1)
        with pytest.raises(DomainError, match="unknown engine"):
            one_eta_maps(spectrum(), dephasing(), 0.5, 3, "bogus")
        with pytest.raises(DomainError, match="three components"):
            evolve_qubit(spectrum(), dephasing(), 0.5, [1.0, 0.0], 3)


class TestSpecialMaps:
    def test_eta1_even_step_sign(self):
        sp, cfg = spectrum(0.0), dephasing()
        rho = bloch_to_density([0.6, 0.0, 0.3])
        out = special_map_eta1(2, sp, cfg, rho)
        kappa = decoherence_function(sp, cfg.index_contrast, 2 * cfg.step_duration)
        assert out[0, 1] == pytest.approx(kappa * rho[0, 1], abs=1e-15)

    def test_eta1_first_step_coherence(self):
        sp, cfg = spectrum(0.0), dephasing()
        rho = bloch_to_density([1.0, 0.0, 0.0])
        out = special_map_eta1(1, sp, cfg, rho)
        dn_dt = cfg.index_contrast * cfg.step_duration
        expected = -np.exp(1j * sp.mu1 * dn_dt) * np.exp(-0.5 * (sp.sigma * dn_dt) ** 2) * rho[0, 1]
        assert out[0, 1] == pytest.approx(expected, abs=1e-14)

    def test_eta1_diagonal_untouched(self):
        sp, cfg = spectrum(0.4), dephasing()
        rho = np.diag([0.7, 0.3]).astype(complex)
        for m in range(6):
            assert np.allclose(special_map_eta1(m, sp, cfg, rho), rho, atol=1e-15)

    def test_eta0_even_identity(self):
        sp, cfg = spectrum(1.0), dephasing()
        rho = bloch_to_density([0.1, 0.2, 0.3])
        assert np.allclose(special_map_eta0(2, sp, cfg, rho), rho, atol=1e-15)

    def test_eta0_population_swap(self):
        sp, cfg = spectrum(1.0), dephasing()
        ket_l = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        out = special_map_eta0(1, sp, cfg, ket_l)
        assert np.allclose(out, np.array([[0.0, 0.0], [0.0, 1.0]]), atol=1e-15)

    def test_eta0_odd_steps_all_equal(self):
        sp, cfg = spectrum(0.3), dephasing()
        rho = bloch_to_density([0.5, -0.2, 0.1])
        first = special_map_eta0(1, sp, cfg, rho)
        for m in (3, 5, 9):
            assert np.allclose(special_map_eta0(m, sp, cfg, rho), first, atol=1e-15)


class TestTraceDistance:
    def test_identical_states(self):
        rho = bloch_to_density([0.2, 0.2, 0.2])
        assert trace_distance_qubit(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = bloch_to_density([0.0, 0.0, 1.0])
        b = bloch_to_density([0.0, 0.0, -1.0])
        assert trace_distance_qubit(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_half_distance(self):
        a = bloch_to_density([1.0, 0.0, 0.0])
        b = bloch_to_density([0.0, 0.0, 0.0])
        assert trace_distance_qubit(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_non_state(self):
        bad = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
        with pytest.raises(DomainError):
            trace_distance_qubit(bad, bloch_to_density([0, 0, 0]))


SPECTRUM = SpectrumParams(0.0, 1.0, 15.0, 9.0)
DEPHASING = DephasingConfig(0.009, 1.0)


@pytest.mark.parametrize("call,named", [
    pytest.param(lambda: validate_density(np.eye(3) / 3.0), "2x2", id="density-3x3"),
    pytest.param(lambda: validate_density([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian",
                 id="density-not-hermitian"),
    pytest.param(lambda: validate_density(np.eye(2)), "unit trace", id="density-trace-two"),
    pytest.param(lambda: evolve_qubit(SPECTRUM, DEPHASING, 0.5, [0.0, 0.0, 1.0], -1),
                 "steps must be non-negative", id="evolve-negative-steps"),
    pytest.param(lambda: special_map_eta1(-1, SPECTRUM, DEPHASING, np.eye(2) / 2.0),
                 "m must be non-negative", id="eta1-negative-m"),
    pytest.param(lambda: special_map_eta0(-1, SPECTRUM, DEPHASING, np.eye(2) / 2.0),
                 "m must be non-negative", id="eta0-negative-m"),
])
def test_refused_arguments(call, named):
    with pytest.raises(DomainError, match=named):
        call()
