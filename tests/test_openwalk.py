import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from memoryflow.cli import _finite_or_null, main, resolve_config
from memoryflow.errors import DomainError, ResourceLimitError
from memoryflow.kernels import hermitian_eigvals
from memoryflow import errors, harmonic, kernels, nonmarkov, openwalk, walk
from memoryflow.openwalk import (
    DephasingFilter,
    dilation_bytes,
    dilation_densities,
    dilation_oracle,
    discrete_decoherence,
    discrete_filter,
    discretize_spectrum,
    eigensolver_identity_deviation,
    filter_index,
    filtered_density,
    hermitian_eigenvalues,
    open_walk_evolve,
    oracle_checks,
    pure_walk_density,
    strong_limit_filter,
    trace_distance_walk,
)
from memoryflow.spectra import DephasingConfig, SpectrumParams, decoherence_function
from memoryflow.walk import walk_evolve, walk_states

T_REVIVAL = 2.0 * math.pi / (9.0 * 0.009)
COIN = (0.6, 0.8j)


def separations(steps: int) -> np.ndarray:
    """Matrix [y - x] of site separations over the occupied sites of an n-step
    state."""
    xs = np.arange(-steps, steps + 1, 2, dtype=float)
    return xs[None, :] - xs[:, None]


def kron_filtered(state, kappa) -> np.ndarray:
    """The filtered density by the full-separation route, independent of the
    table layout: kappa over every site pair, each value spread over its 2x2
    coin block."""
    gram = np.atleast_2d(kappa(separations(state.steps)))
    return pure_walk_density(state).matrix * np.kron(gram, np.ones((2, 2)))


def strong_blocks(c_left, c_right, m):
    """The diagonal site blocks of the unitary walk density after m steps."""
    return filtered_density(walk_evolve(c_left, c_right, m), strong_limit_filter)


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

    def test_density_on_occupied_sites(self):
        # d = 2(n + 1), and the block of a pair with an empty site is zero
        rho = open_walk_evolve(*COIN, 5, spectrum(), dephasing())
        assert rho.matrix.shape == (12, 12)
        assert rho.positions().tolist() == [-5, -3, -1, 1, 3, 5]
        assert np.array_equal(rho.block(-1, 3), rho.matrix[4:6, 8:10])
        assert np.array_equal(rho.block(0, 3), np.zeros((2, 2)))
        assert np.array_equal(rho.block(-1, 4), np.zeros((2, 2)))

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
        gram = f(separations(6))
        vals = hermitian_eigenvalues(gram)
        assert vals[0] >= -1e-10

    @pytest.mark.parametrize("separations", [
        pytest.param(2 * np.arange(-5, 6), id="even-integers"),
        pytest.param(separations(3), id="2d-floats"),
        pytest.param(np.array(4.0), id="scalar"),
    ])
    def test_one_decoherence_function_call(self, monkeypatch, separations):
        # a filter is one call over its own tau = d delta_t / 2, of the
        # separations' shape, and has that call's bits
        sp, cfg = spectrum(0.7), dephasing(0.35)
        calls = []
        original = openwalk.decoherence_function

        def recorded(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(openwalk, "decoherence_function", recorded)
        values = DephasingFilter(sp, cfg)(separations)
        want = original(sp, cfg.index_contrast, separations * cfg.step_duration / 2.0)
        assert bits(values) == bits(want) and np.shape(values) == np.shape(separations)
        assert [np.shape(args[2]) for args in calls] == [np.shape(separations)]

    def test_scalar_call_is_complex(self):
        value = DephasingFilter(spectrum(), dephasing())(2)
        assert type(value) is complex
        assert value == decoherence_function(spectrum(), 0.009, dephasing().step_duration)


def bits(values) -> bytes:
    """The bytes of values as complex128: tells -0.0 from 0.0, as == does not."""
    return np.ascontiguousarray(values, dtype=complex).tobytes()


class TestFilterIndex:
    def test_layout(self):
        for n in range(6):
            i, k = np.indices((2 * (n + 1),) * 2)
            assert np.array_equal(filter_index(n), n + k // 2 - i // 2)

    def test_leading_block_is_the_shorter_walk(self):
        # the m-step matrix is gathered from the n-step table by the leading
        # 2(m + 1) rows and columns of the n-step index
        flt = DephasingFilter(spectrum(0.7), dephasing(0.4))
        n = 7
        big = flt(2 * np.arange(-n, n + 1))[filter_index(n)]
        for m in range(n + 1):
            small = flt(2 * np.arange(-m, m + 1))[filter_index(m)]
            assert bits(big[:2 * (m + 1), :2 * (m + 1)]) == bits(small)

    @pytest.mark.parametrize("kind", ["dephasing", "discrete", "strong", "lambda"])
    def test_filtered_density_is_the_full_separation_route(self, kind):
        sp, cfg = spectrum(0.7), dephasing(0.4)
        omegas, weights = discretize_spectrum(sp, 16)
        kappa = {"dephasing": DephasingFilter(sp, cfg),
                 "discrete": discrete_filter(omegas, weights, cfg),
                 "strong": strong_limit_filter,
                 "lambda": lambda d: np.exp(-0.1 * np.abs(d) + 0.3j * d)}[kind]
        for coin in (COIN, (1.0, 0.0)):
            for state in walk_states(*coin, 12):
                assert bits(filtered_density(state, kappa).matrix) \
                    == bits(kron_filtered(state, kappa))


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
            flt = filtered_density(walk_evolve(*COIN, n), discrete_filter(omegas, weights, cfg))
            assert np.max(np.abs(dil.matrix - flt.matrix)) < 1e-10

    def test_matches_filter_at_resource_bounds(self):
        sp, cfg = spectrum(0.6), dephasing(0.3)
        dil, omegas, weights = dilation_oracle(*COIN, 6, sp, cfg, 64)
        flt = filtered_density(walk_evolve(*COIN, 6), discrete_filter(omegas, weights, cfg))
        assert np.max(np.abs(dil.matrix - flt.matrix)) < 1e-10

    def test_resource_caps(self):
        # the largest step count within MAX_GRID_BYTES at K = 64 and one more
        cap = max(n for n in range(1000) if dilation_bytes(n, 64) <= errors.MAX_GRID_BYTES)
        assert dilation_bytes(cap + 1, 64) > errors.MAX_GRID_BYTES
        with pytest.raises(ResourceLimitError):
            dilation_oracle(*COIN, cap + 1, spectrum(), dephasing(), 64)
        with pytest.raises(ResourceLimitError):
            dilation_oracle(*COIN, 2, spectrum(), dephasing(), 10 ** 8)

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


def dilation_from_origin(c_left, c_right, n, omegas, weights, config):
    """The dilation's L and R amplitudes after n steps on the full lattice of
    2n + 1 sites, every site stored, stepped from the origin: an independent
    per-n reference, shape (2, 2n + 1, K)."""
    psi = np.zeros((2, 2 * n + 1, len(omegas)), dtype=complex)
    psi[0, n] = c_left * np.sqrt(weights)
    psi[1, n] = c_right * np.sqrt(weights)
    h = 1.0 / math.sqrt(2.0)
    phase_left = np.exp(1j * config.index_contrast * omegas * config.step_duration)
    for _ in range(n):
        tl = h * (psi[0] + psi[1])
        tr = h * (psi[0] - psi[1])
        psi[0] = np.roll(tl, -1, axis=0)
        psi[0][-1, :] = 0.0
        psi[1] = np.roll(tr, 1, axis=0)
        psi[1][0, :] = 0.0
        psi[0] *= phase_left[None, :]
    return psi


class TestStreamedRoutes:
    """The oracle steps each environment and the walk once; every streamed
    density is bit-for-bit the per-n one."""

    @pytest.mark.parametrize("a", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("n_freqs", [2, 8, 16, 32, 64])
    def test_dilation_densities_are_the_per_n_ones(self, a, n_freqs):
        sp, cfg = spectrum(a), dephasing(0.4)
        run = list(dilation_densities(*COIN, 6, sp, cfg, n_freqs))
        assert [rho.steps for rho, _, _ in run] == list(range(7))
        for n, (rho, omegas, weights) in enumerate(run):
            want, want_omegas, want_weights = dilation_oracle(*COIN, n, sp, cfg, n_freqs)
            assert np.array_equal(omegas, want_omegas) and np.array_equal(weights, want_weights)
            assert np.array_equal(rho.matrix, want.matrix)
            # on the full lattice the sites of the other parity stay exactly
            # empty, and the occupied ones give the streamed density bit for bit
            psi = dilation_from_origin(*COIN, n, omegas, weights, cfg)
            assert np.all(psi[:, 1::2] == 0.0)
            v = np.empty((2 * (n + 1), n_freqs), dtype=complex)
            v[0::2], v[1::2] = psi[:, 0::2]
            assert np.array_equal(rho.matrix, v @ v.conj().T)

    @pytest.mark.parametrize("a", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("n_freqs", [2, 8, 16, 32, 64])
    def test_filtered_states_are_the_per_n_densities(self, a, n_freqs):
        sp, cfg = spectrum(a), dephasing(0.4)
        omegas, weights = discretize_spectrum(sp, n_freqs)
        discrete, exact = discrete_filter(omegas, weights, cfg), DephasingFilter(sp, cfg)
        for n, state in enumerate(walk_states(*COIN, 6)):
            assert np.array_equal(
                filtered_density(state, discrete).matrix,
                filtered_density(walk_evolve(*COIN, n), discrete).matrix)
            assert np.array_equal(filtered_density(state, exact).matrix,
                                  open_walk_evolve(*COIN, n, sp, cfg).matrix)

    def test_environment_cap_refused_before_discretizing(self, monkeypatch):
        # the byte count of the run is refused on entry, for steps or K alone
        monkeypatch.setattr(openwalk, "discretize_spectrum", None)
        for steps, n_freqs in ((0, 10 ** 7), (3000, 8)):
            with pytest.raises(ResourceLimitError, match=f"steps = {steps} x n_freqs = {n_freqs}"
                               ".* MAX_GRID_BYTES"):
                next(dilation_densities(*COIN, steps, spectrum(), dephasing(), n_freqs))

    @pytest.mark.parametrize("n_freqs", [2, 32, 1024])
    def test_count_covers_the_measured_peak(self, n_freqs):
        # the dilation checks over 10 and 40 steps, and the position stream
        # and the oracle's other checks at their least, hold no more than
        # dilation_bytes counts, with 5% to spare: at 40 steps and K = 2 and
        # 32 the dense densities lead, at K = 1024 the branch amplitudes and
        # the discrete filter's table, and at 10 steps and K = 2 the checks of
        # fixed size.  One untraced call first loads the lazy numpy modules
        # and fills the Gauss rule cache, which a run holds for good, not per
        # call
        for steps in (10, 40):
            args = dict(max_steps=steps, n_freqs=[n_freqs], walk_steps=0, position_check_steps=0,
                        engine_max_power=0, seed=0)
            oracle_checks(spectrum(), dephasing(), **args)
            tracemalloc.start()
            try:
                checks = oracle_checks(spectrum(), dephasing(), **args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(c["pass"] for c in checks)
            assert 1.05 * peak <= dilation_bytes(steps, n_freqs)

    def test_domain(self):
        with pytest.raises(DomainError):
            next(dilation_densities(*COIN, -1, spectrum(), dephasing(), 8))
        with pytest.raises(DomainError):
            next(dilation_densities(1.0, 1.0, 2, spectrum(), dephasing(), 8))


class TestOracleChecks:
    def test_default_checks_are_the_cli_report(self, tmp_path):
        cfg = resolve_config("oracle")
        # the CLI's default probe point: A = 0.7 at 0.35 revival times
        checks = oracle_checks(spectrum(), dephasing(), seed=cfg["seed"], **cfg["oracle"])
        assert main(["oracle", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oracle_report.json").read_text(encoding="utf-8"))
        assert _finite_or_null(checks) == report["checks"]
        assert [c["name"] for c in checks][-4:] == [
            "series_vs_quadrature", "catalan_closed_form", "walk_integral_vs_recursion",
            "eigensolver_identities"]

    @pytest.mark.parametrize("counts,named", [
        ({"walk_steps": 578}, "walk_steps = 578"),
        ({"max_steps": 801, "n_freqs": [8, 64]}, "max_steps = 801 x n_freqs = 64"),
        ({"position_check_steps": 801, "n_freqs": [64, 8]},
         "position_check_steps = 801 x n_freqs = 64"),
        # with the dilation's larger count taken away, the measure's is made too
        ({"max_steps": 724, "dilation_bytes": lambda steps, n_freqs: 0}, "max_steps = 724"),
    ])
    def test_every_count_made_on_entry(self, monkeypatch, counts, named):
        # each check's count is made before any check runs, naming the
        # arguments that set it: nothing is walked or discretized
        args = dict(max_steps=0, n_freqs=[8], walk_steps=0, position_check_steps=0,
                    engine_max_power=0, seed=0)
        args.update(counts)
        if "dilation_bytes" in args:
            monkeypatch.setattr(openwalk, "dilation_bytes", args.pop("dilation_bytes"))
        for name in ("walk_states", "dilation_densities", "integral_recursion_deviation"):
            monkeypatch.setattr(openwalk, name, None)
        with pytest.raises(ResourceLimitError, match=f"{named} would exceed MAX_GRID_BYTES"):
            oracle_checks(spectrum(), dephasing(), **args)

    def test_no_environment_size_refused(self):
        with pytest.raises(DomainError, match="at least one environment size"):
            oracle_checks(spectrum(), dephasing(), max_steps=2, n_freqs=[], walk_steps=2,
                          position_check_steps=2, engine_max_power=2, seed=0)

    @pytest.mark.parametrize("a", [0.0, 0.7, 1.0])
    def test_measure_check_reaches_both_routes(self, monkeypatch, a):
        # the discrete filter is real up to a phase ramp at A = 0 and 1 and
        # complex at A = 0.7, so the check reaches both routes of the measure
        original = nonmarkov.filter_table_gauge
        gauged = []
        monkeypatch.setattr(nonmarkov, "filter_table_gauge",
                            lambda table: gauged.append(original(table)) or gauged[-1])
        checks = oracle_checks(spectrum(a), dephasing(), max_steps=12, n_freqs=[16, 8],
                               walk_steps=0, position_check_steps=0, engine_max_power=0, seed=0)
        (entry,) = [c for c in checks if c["name"] == "measure_vs_dilation"]
        assert entry["pass"] and entry["max_dev"] < 1e-13
        assert entry["K"] == 16 and entry["steps"] == {"first": 0, "last": 12, "stride": 1}
        assert [bool(real[0]) for real, _ in gauged] == [a != 0.7]


class TestPlantedDeviationLocations:
    """Each check reduces one table of deviations by ``errors.largest_deviation``
    and decodes the kept flat index into its location: one deviation planted
    at a known spot must be reported at that spot, which a transposed decode
    of any of these tables misses."""

    SIZES = dict(max_steps=4, n_freqs=[8], walk_steps=6, position_check_steps=12,
                 engine_max_power=6, seed=0)

    def entry(self, name):
        (entry,) = [c for c in oracle_checks(spectrum(), dephasing(), **self.SIZES)
                    if c["name"] == name]
        assert not entry["pass"]
        return entry

    def plant_in_dilation(self, monkeypatch, steps, i, j):
        # the dilation check's own stream, not the measure check's coins
        original = openwalk.dilation_densities

        def planted(c_left, c_right, *args):
            for rho, omegas, weights in original(c_left, c_right, *args):
                if c_right == 1j / math.sqrt(2.0) and rho.steps == steps:
                    rho.matrix[i, j] += 1e-6
                yield rho, omegas, weights

        monkeypatch.setattr(openwalk, "dilation_densities", planted)

    def test_dilation_entry(self, monkeypatch):
        self.plant_in_dilation(monkeypatch, 3, 2, 7)
        assert self.entry("dilation_vs_filter_K8")["location"] == "n=3, entry=(2,7)"

    def test_position_site(self, monkeypatch):
        # row 8 of the 6-step density is coin L at site x = 8 // 2 * 2 - 6 = 2
        self.plant_in_dilation(monkeypatch, 6, 8, 8)
        assert self.entry("position_distribution_invariance")["location"] == "n=6, x=2"

    def test_engine_entry(self, monkeypatch):
        original = harmonic.quadrature_map_stacks

        def planted(*args):
            stacks = [stack.copy() for stack in original(*args)]
            stacks[1][1, 3, 0, 2] += 1e-3  # A = 1.0, eta = 0.5, m = 3
            return stacks

        monkeypatch.setattr(harmonic, "quadrature_map_stacks", planted)
        assert self.entry("series_vs_quadrature")["location"] == "eta=0.5, m=3, A=1.0"

    def test_integral_row_with_two_coins(self, monkeypatch):
        # b_right of site x = 2 after 4 steps reaches the second coin alone
        original = walk.walk_amplitude_rows

        def planted(steps):
            for m, row in enumerate(original(steps)):
                if m == 4:
                    row = row.copy()
                    row[3, 3] += 1e-3
                yield row

        monkeypatch.setattr(walk, "walk_amplitude_rows", planted)
        assert self.entry("walk_integral_vs_recursion")["location"] == "m=4, x=2"

    def test_identity_trial(self, monkeypatch):
        dims = []

        def planted(h):
            vals = hermitian_eigvals(h)
            dims.append(len(h))
            if len(dims) == 13:
                vals[0] += 1e-6
            return vals

        monkeypatch.setattr(kernels, "hermitian_eigvals", planted)
        assert eigensolver_identity_deviation(0)[1] == f"trial=12, dim={dims[12]}"


class TestStrongDephasingBlocks:
    def test_filter_keeps_only_zero_separation(self):
        d = np.array([[-4.0, -2.0, 0.0], [2.0, 4.0, -0.0]])
        assert np.array_equal(strong_limit_filter(d), [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert strong_limit_filter(d).dtype == float
        assert strong_limit_filter(0) == 1.0 and strong_limit_filter(2) == 0.0

    def test_one_step_blocks(self):
        rho = strong_blocks(1.0, 0.0, 1)
        left = rho.block(-1, -1)
        right = rho.block(1, 1)
        assert np.allclose(left, [[0.5, 0.0], [0.0, 0.0]], atol=1e-14)
        assert np.allclose(right, [[0.0, 0.0], [0.0, 0.5]], atol=1e-14)
        assert np.allclose(rho.block(-1, 1), np.zeros((2, 2)), atol=1e-15)

    def test_unit_trace(self):
        rho = strong_blocks(*COIN, 8)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_limit_of_filtered_walk(self):
        # strong per-step dephasing: |kappa(delta_t)| ~ 1e-11 already at d=2
        cfg = dephasing(10.0)
        for n in (2, 5):
            strong = strong_blocks(*COIN, n)
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
            # closed form: (a + c)/2 -/+ sqrt((a - c)^2 + 4 |b|^2)/2
            half_disc = 0.5 * math.sqrt((a - c) ** 2 + 4.0 * abs(b) ** 2)
            want = [0.5 * (a + c) - half_disc, 0.5 * (a + c) + half_disc]
            assert np.allclose(hermitian_eigenvalues(h), want, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_empty_matrix(self):
        vals = hermitian_eigenvalues(np.zeros((0, 0)))
        assert vals.shape == (0,) and vals.dtype == float

    def test_dimension_cap(self, monkeypatch):
        # 64 bytes per entry count against MAX_GRID_BYTES: at 64 x 256^2 a
        # 256 x 256 matrix is solved and a 257 x 257 one refused
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", 64 * 256 * 256)
        assert np.array_equal(hermitian_eigenvalues(np.eye(256)), np.ones(256))
        with pytest.raises(ResourceLimitError, match=r"shape \(257, 257\).*MAX_GRID_BYTES"):
            hermitian_eigenvalues(np.eye(257))

    def test_refused_before_any_copy(self):
        # a 5000 x 5000 view of one number is refused at the default budget
        # before the complex copy or the checks allocate anything
        view = np.broadcast_to(np.float64(1.0), (5000, 5000))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="MAX_GRID_BYTES"):
                hermitian_eigenvalues(view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_count_covers_the_measured_peak(self):
        # the 64 bytes per entry cover what the checks and LAPACK hold, for a
        # real input (copied to complex) and a complex stack
        for stack in (self.random_stack(3, count=4, dim=120).real, self.random_stack(4, dim=160)):
            tracemalloc.start()
            try:
                hermitian_eigenvalues(stack)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * stack.size

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            hermitian_eigenvalues(np.array([[1.0, bad], [bad, 2.0]]))

    @staticmethod
    def random_stack(seed, count=3, dim=12):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
        return (x + np.swapaxes(x, -2, -1).conj()) / 2.0

    def test_stack_matches_each_matrix(self):
        stack = self.random_stack(7)
        vals = hermitian_eigenvalues(stack)
        assert vals.shape == (3, 12)
        for got, h in zip(vals, stack):
            assert np.max(np.abs(got - hermitian_eigenvalues(h))) < 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stack_rejects_one_non_finite_member(self, bad):
        stack = self.random_stack(8)
        stack[1, 2, 3] = stack[1, 3, 2] = bad
        with pytest.raises(DomainError, match="non-finite"):
            hermitian_eigenvalues(stack)

    def test_stack_rejects_one_non_hermitian_member(self):
        stack = self.random_stack(9)
        # a defect far below the largest member's scale but above this member's own
        stack *= np.array([1e6, 1.0, 1.0])[:, None, None]
        stack[2, 0, 5] += 1e-6
        with pytest.raises(DomainError, match="not Hermitian"):
            hermitian_eigenvalues(stack)

    def test_nan_eigenvalue_fails_the_identity_check(self, monkeypatch):
        # the first NaN deviation is kept as the worst, with its trial
        dims = []

        def poisoned(h):
            vals = hermitian_eigvals(h)
            dims.append(len(vals))
            if len(dims) == 4:
                vals[0] = np.nan
            return vals

        monkeypatch.setattr(kernels, "hermitian_eigvals", poisoned)
        worst, where = eigensolver_identity_deviation(0)
        assert math.isnan(worst)
        assert where == f"trial=3, dim={dims[3]}"

    def test_stack_dimension_cap(self, monkeypatch):
        # the whole stack counts: two matrices need twice the bytes of one
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", 64 * 258 * 258)
        assert hermitian_eigenvalues(np.zeros((258, 258))).shape == (258,)
        with pytest.raises(ResourceLimitError, match=r"shape \(2, 258, 258\)"):
            hermitian_eigenvalues(np.zeros((2, 258, 258)))

    def test_block_accessor_bounds(self):
        rho = strong_blocks(1.0, 0.0, 2)
        with pytest.raises(DomainError):
            rho.block(3, 0)


class TestEigensolverIdentities:
    """The oracle's last check draws 20 Hermitian matrices of dimension 2 to 32
    from ``random.Random(seed)``, entries uniform in [-1, 1)."""

    @staticmethod
    def drawn(monkeypatch, seed, shifted=None):
        # the run's matrices, by wrapping the eigensolver as the NaN test does;
        # trial ``shifted`` has 1e-9 added to its largest eigenvalue
        matrices = []

        def recorded(h):
            matrices.append(h.copy())
            vals = hermitian_eigvals(h)
            if len(matrices) - 1 == shifted:
                vals[-1] += 1e-9
            return vals

        monkeypatch.setattr(kernels, "hermitian_eigvals", recorded)
        return eigensolver_identity_deviation(seed), matrices

    def test_same_seed_same_result_in_and_across_processes(self):
        first = eigensolver_identity_deviation(0)
        assert eigensolver_identity_deviation(0) == first
        assert 0.0 < first[0] <= 1e-10
        code = ("import json\n"
                "from memoryflow.openwalk import eigensolver_identity_deviation\n"
                "print(json.dumps(eigensolver_identity_deviation(0)))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        runs = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1]
        assert tuple(json.loads(runs[0])) == first

    def test_seeds_draw_different_matrices(self, monkeypatch):
        _, zero = self.drawn(monkeypatch, 0)
        _, one = self.drawn(monkeypatch, 1)
        assert len(zero) == len(one) == 20
        assert not any(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(zero, one))

    def test_drawn_dimensions_and_entries(self, monkeypatch):
        dims, entries = set(), []
        for seed in range(10):
            (_, where), matrices = self.drawn(monkeypatch, seed)
            assert len(matrices) == 20
            for h in matrices:
                assert h.shape == (len(h), len(h)) and np.array_equal(h, h.conj().T)
                dims.add(len(h))
                entries.append(h.ravel())
            trial = int(where.split(",")[0].removeprefix("trial="))
            assert where == f"trial={trial}, dim={len(matrices[trial])}"
        assert dims <= set(range(2, 33)) and len(dims) > 20
        values = np.concatenate(entries)
        parts = np.concatenate([values.real, values.imag])
        assert -1.0 <= parts.min() < -0.99 and 0.99 < parts.max() < 1.0

    @pytest.mark.parametrize("trial", [0, 7, 19])
    def test_shifted_eigenvalue_fails_at_its_trial(self, monkeypatch, trial):
        (worst, where), matrices = self.drawn(monkeypatch, 0, shifted=trial)
        assert not errors.check("eigensolver_identities", (worst, where), 1e-10)["pass"]
        assert worst >= 0.99e-9
        assert where == f"trial={trial}, dim={len(matrices[trial])}"


class TestTraceDistanceWalk:
    def test_identical(self):
        rho = open_walk_evolve(*COIN, 3, spectrum(), dephasing())
        assert trace_distance_walk(rho, rho) == pytest.approx(0.0, abs=1e-13)

    def test_orthogonal_initial_pair(self):
        a = pure_walk_density(walk_evolve(1.0, 0.0, 0))
        b = pure_walk_density(walk_evolve(0.0, 1.0, 0))
        assert trace_distance_walk(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_dense_route_reaches_127_steps(self, monkeypatch):
        # on the occupied sites d = 2(n + 1), and the eigensolver counts 64
        # bytes per entry: a budget of 64 x 256^2 bytes allows 127 steps (the
        # default one allows 1023)
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", 64 * 256 * 256)

        def pair(n):
            return [open_walk_evolve(*coin, n, spectrum(), dephasing())
                    for coin in ((1.0, 0.0), (0.0, 1.0))]

        far = pair(127)
        assert far[0].matrix.shape == (256, 256)
        assert 0.0 < trace_distance_walk(*far) <= 1.0
        with pytest.raises(ResourceLimitError):
            trace_distance_walk(*pair(128))

    def test_rejects_mismatched_steps(self):
        a = pure_walk_density(walk_evolve(1.0, 0.0, 2))
        b = pure_walk_density(walk_evolve(1.0, 0.0, 4))
        with pytest.raises(DomainError, match="equal step counts"):
            trace_distance_walk(a, b)


@pytest.mark.parametrize("call,named", [
    pytest.param(lambda: openwalk.WalkDensity(2, np.eye(4, dtype=complex)), "shape must match",
                 id="density-shape"),
    pytest.param(lambda: discretize_spectrum(SpectrumParams(0.0, 1.0, 15.0, 9.0), 0),
                 "at least one environment frequency", id="no-frequencies"),
    pytest.param(lambda: discretize_spectrum(SpectrumParams(0.5, 1.0, 15.0, 9.0), 1),
                 "two-peak spectrum needs at least two", id="two-peaks-one-frequency"),
    pytest.param(lambda: hermitian_eigenvalues(np.zeros((2, 3))), "square", id="not-square"),
    pytest.param(lambda: hermitian_eigenvalues(np.zeros(4)), "square", id="one-dimensional"),
])
def test_refused_arguments(call, named):
    with pytest.raises(DomainError, match=named):
        call()
