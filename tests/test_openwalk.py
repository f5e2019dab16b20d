import math

import numpy as np
import pytest

from memoryflow.errors import DomainError, ResourceLimitError
from memoryflow.openwalk import (
    DephasingFilter,
    WalkDensity,
    dilation_oracle,
    discrete_decoherence,
    discretize_spectrum,
    eigvals_2x2_hermitian,
    hermitian_eigenvalues,
    open_walk_evolve,
    open_walk_evolve_discrete,
    pure_walk_density,
    strong_dephasing_blocks,
    trace_distance_walk,
)
from memoryflow.spectra import DephasingConfig, SpectrumParams, decoherence_function
from memoryflow.walk import walk_evolve

T_REVIVAL = 2.0 * math.pi / (9.0 * 0.009)
COIN = (0.6, 0.8j)


def spectrum(a=0.7):
    return SpectrumParams(a, 1.0, 15.0, 9.0)


def dephasing(dt_factor=0.35):
    return DephasingConfig(0.009, dt_factor * T_REVIVAL)


class TestOpenWalkEvolve:
    def test_zero_steps_is_pure_origin(self):
        rho = open_walk_evolve(*COIN, 0, spectrum(), dephasing())
        pure = pure_walk_density(walk_evolve(*COIN, 0))
        assert np.allclose(rho.matrix, pure.matrix, atol=1e-15)

    def test_no_contrast_reproduces_unitary_walk(self):
        cfg = DephasingConfig(0.0, 10.0)
        for n in (1, 4, 7):
            rho = open_walk_evolve(*COIN, n, spectrum(), cfg)
            pure = pure_walk_density(walk_evolve(*COIN, n))
            assert np.allclose(rho.matrix, pure.matrix, atol=1e-15)

    @pytest.mark.parametrize("n", [0, 3, 8, 12])
    def test_position_distribution_unchanged(self, n):
        rho = open_walk_evolve(*COIN, n, spectrum(), dephasing())
        pure = pure_walk_density(walk_evolve(*COIN, n))
        p1 = rho.position_distribution()
        p2 = pure.position_distribution()
        assert max(abs(p1[x] - p2[x]) for x in p1) < 1e-15

    def test_trace_hermiticity_preserved(self):
        rho = open_walk_evolve(*COIN, 6, spectrum(), dephasing())
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert rho.hermiticity_defect() < 1e-12

    def test_coherence_decay_monotone_entrywise(self):
        n = 5
        rho = open_walk_evolve(*COIN, n, spectrum(), dephasing())
        pure = pure_walk_density(walk_evolve(*COIN, n))
        assert np.all(np.abs(rho.matrix) <= np.abs(pure.matrix) + 1e-15)

    @pytest.mark.parametrize("dt_factor", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_positivity_preserved(self, a, dt_factor):
        for n in (4, 9, 12):
            rho = open_walk_evolve(*COIN, n, spectrum(a), dephasing(dt_factor))
            assert rho.min_eigenvalue() >= -1e-10


class TestDephasingFilter:
    def test_unit_at_zero_and_conjugate_symmetry(self):
        f = DephasingFilter(spectrum(), dephasing())
        assert f(0) == pytest.approx(1.0 + 0.0j)
        assert f(-4) == pytest.approx(np.conj(f(4)), abs=1e-15)
        assert abs(f(6)) <= 1.0 + 1e-12

    def test_even_separations_sample_whole_steps(self):
        sp, cfg = spectrum(0.4), dephasing()
        f = DephasingFilter(sp, cfg)
        for j in (1, 2, 5):
            direct = decoherence_function(sp, cfg.index_contrast, j * cfg.step_duration)
            assert f(2 * j) == pytest.approx(direct, abs=1e-15)

    def test_gram_matrix_positive_semidefinite(self):
        f = DephasingFilter(spectrum(0.9), dephasing(1.3))
        gram = f.gram(6)
        vals = hermitian_eigenvalues(gram)
        assert vals[0] >= -1e-10


class TestDilationOracle:
    def test_single_frequency_cannot_decohere(self):
        rho, omegas, weights = dilation_oracle(*COIN, 3, spectrum(0.0), dephasing(), 1)
        pure = pure_walk_density(walk_evolve(*COIN, 3))
        assert np.allclose(np.abs(rho.matrix), np.abs(pure.matrix), atol=1e-12)

    def test_zero_steps_reduces_to_origin(self):
        rho, _, _ = dilation_oracle(*COIN, 0, spectrum(), dephasing(), 8)
        pure = pure_walk_density(walk_evolve(*COIN, 0))
        assert np.allclose(rho.matrix, pure.matrix, atol=1e-14)

    @pytest.mark.parametrize("n_freqs", [8, 16])
    def test_matches_discrete_filter(self, n_freqs):
        sp, cfg = spectrum(0.7), dephasing(0.4)
        for n in (1, 2, 3):
            dil, omegas, weights = dilation_oracle(*COIN, n, sp, cfg, n_freqs)
            flt = open_walk_evolve_discrete(*COIN, n, omegas, weights, cfg)
            assert np.max(np.abs(dil.matrix - flt.matrix)) < 1e-10

    def test_matches_filter_at_resource_bounds(self):
        sp, cfg = spectrum(0.6), dephasing(0.3)
        dil, omegas, weights = dilation_oracle(*COIN, 6, sp, cfg, 64)
        flt = open_walk_evolve_discrete(*COIN, 6, omegas, weights, cfg)
        assert np.max(np.abs(dil.matrix - flt.matrix)) < 1e-10

    def test_resource_caps(self):
        with pytest.raises(ResourceLimitError):
            dilation_oracle(*COIN, 7, spectrum(), dephasing(), 8)
        with pytest.raises(ResourceLimitError):
            dilation_oracle(*COIN, 2, spectrum(), dephasing(), 128)

    def test_discretization_weights(self):
        omegas, weights = discretize_spectrum(spectrum(1.0), 16)
        assert len(omegas) == 16
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-12)
        kappa0 = discrete_decoherence(omegas, weights, 0.009, 0.0)
        assert kappa0 == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_discrete_kappa_converges_to_closed_form(self):
        sp = spectrum(0.5)
        tau = 0.6 * T_REVIVAL
        errs = []
        for k in (8, 32):
            omegas, weights = discretize_spectrum(sp, k)
            approx = discrete_decoherence(omegas, weights, 0.009, tau)
            errs.append(abs(approx - decoherence_function(sp, 0.009, tau)))
        assert errs[1] < errs[0]


class TestStrongDephasingBlocks:
    def test_one_step_blocks(self):
        rho = strong_dephasing_blocks(1.0, 0.0, 1)
        left = rho.block(-1, -1)
        right = rho.block(1, 1)
        assert np.allclose(left, [[0.5, 0.0], [0.0, 0.0]], atol=1e-14)
        assert np.allclose(right, [[0.0, 0.0], [0.0, 0.5]], atol=1e-14)
        assert np.allclose(rho.block(-1, 1), np.zeros((2, 2)), atol=1e-15)

    def test_unit_trace(self):
        rho = strong_dephasing_blocks(*COIN, 8)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_limit_of_filtered_walk(self):
        # strong per-step dephasing: |kappa(delta_t)| ~ 1e-11 already at d=2
        cfg = dephasing(10.0)
        for n in (2, 5):
            strong = strong_dephasing_blocks(*COIN, n)
            filtered = open_walk_evolve(*COIN, n, spectrum(0.0), cfg)
            assert np.max(np.abs(strong.matrix - filtered.matrix)) < 1e-8


class TestHermitianEigenvalues:
    def test_diagonal(self):
        vals = hermitian_eigenvalues(np.diag([3.0, -1.0]).astype(complex))
        assert np.allclose(vals, [-1.0, 3.0])

    def test_pauli_x(self):
        vals = hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_trace_identities_8x8(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (x + x.conj().T) / 2.0
        vals = hermitian_eigenvalues(h)
        assert float(np.sum(vals)) == pytest.approx(float(np.trace(h).real), abs=1e-10)
        assert float(np.sum(vals ** 2)) == pytest.approx(float(np.sum(np.abs(h) ** 2)), abs=1e-10)

    def test_two_by_two_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, c = rng.normal(size=2)
            b = complex(rng.normal(), rng.normal())
            h = np.array([[a, b], [np.conj(b), c]])
            lo, hi = eigvals_2x2_hermitian(a, b, c)
            assert np.allclose(hermitian_eigenvalues(h), [lo, hi], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_empty_matrix(self):
        vals = hermitian_eigenvalues(np.zeros((0, 0)))
        assert vals.shape == (0,) and vals.dtype == float

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            hermitian_eigenvalues(np.eye(300))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            hermitian_eigenvalues(np.array([[1.0, bad], [bad, 2.0]]))

    def test_block_accessor_bounds(self):
        rho = strong_dephasing_blocks(1.0, 0.0, 2)
        with pytest.raises(DomainError):
            rho.block(3, 0)


class TestTraceDistanceWalk:
    def test_identical(self):
        rho = open_walk_evolve(*COIN, 3, spectrum(), dephasing())
        assert trace_distance_walk(rho, rho) == pytest.approx(0.0, abs=1e-13)

    def test_orthogonal_initial_pair(self):
        a = pure_walk_density(walk_evolve(1.0, 0.0, 0))
        b = pure_walk_density(walk_evolve(0.0, 1.0, 0))
        assert trace_distance_walk(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_block_path_matches_full_solver(self):
        a = strong_dephasing_blocks(1.0, 0.0, 6)
        b = strong_dephasing_blocks(0.0, 1.0, 6)
        fast = trace_distance_walk(a, b)
        slow = trace_distance_walk(
            WalkDensity(a.steps, a.matrix), WalkDensity(b.steps, b.matrix)
        )
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_zero_padding_mismatched_steps(self):
        a = pure_walk_density(walk_evolve(1.0, 0.0, 2))
        b = pure_walk_density(walk_evolve(1.0, 0.0, 4))
        d = trace_distance_walk(a, b)
        assert 0.0 < d <= 1.0 + 1e-12
