"""Every memory count covers the warm peak of the route it sizes, with 5% to
spare, at a small and a large size: one row per (count, size).  The walk
measure fills its budget in chunks, so it runs with the budget set to its
count, in the fewest chunks the count allows.  The dephasing command is
held to its route's count, its CSV text included."""

import math
import tempfile
import tracemalloc

import numpy as np
import pytest

from memoryflow import cli, errors, harmonic, kernels, nonmarkov, openwalk, spectra, walk
from memoryflow.presets import PRESETS
from memoryflow.spectra import DephasingConfig, SpectrumParams

HEADROOM = 1.05

FIG = {name: PRESETS[name] for name in ("fig1", "fig4")}
T_REVIVAL = 2.0 * math.pi / (9.0 * 0.009)


def spectrum(a=0.0):
    return SpectrumParams(a, 1.0, 15.0, 9.0)


def dephasing(factor=0.35):
    return DephasingConfig(0.009, factor * T_REVIVAL)


def dephasing_curves(t_steps, omega_count):
    specs = [spectrum(a) for a in FIG["fig1"]["a_values"]]
    count = 120 * (t_steps + 1) + 64 * omega_count

    def route():
        ts, curves = spectra.dephasing_curves(specs, 0.009, T_REVIVAL / 8, t_steps, 5.0,
                                              omega_count)
        for _ in curves:
            pass
    return route, count


def cmd_dephasing(omega_count):
    grid = FIG["fig1"]["t_grid"]

    def route():
        with tempfile.TemporaryDirectory() as out:
            assert cli.main(["dephasing", "--preset", "fig1", "--set",
                             f"omega_grid.count={omega_count}", "--out", out]) == 0
    return route, dephasing_curves(grid["max_revivals"] * grid["points_per_revival"],
                                   omega_count)[1]


def walk_table(steps, amplitudes):
    def route():
        blocks, norms = walk.walk_table(1.0, 0.0, steps, amplitudes)
        for _ in blocks:
            pass
    return route, 8 * (7 if amplitudes else 3) * (steps + 1) * (steps + 2) // 2


def walk_sweep(count, steps):
    specs = [spectrum(a) for a in FIG["fig4"]["a_values"]]
    sweep = (FIG["fig4"]["sweep"]["min"], FIG["fig4"]["sweep"]["max"], count)
    return (lambda: nonmarkov.nm_walk_sweep(specs, 0.009, sweep, steps),
            nonmarkov.walk_measure_bytes(steps, len(specs) * count + 1))


def error_stack(factors, etas, steps):
    configs = [dephasing(f) for f in np.linspace(0.02, 1.5, factors)]
    etas = np.linspace(0.0, 1.0, etas).tolist()
    return (lambda: harmonic.approximation_error_stack(etas, steps, spectrum(), configs),
            harmonic.error_stack_bytes(len(etas), steps, factors))


def eigensolve(count, dim, real):
    rng = np.random.default_rng(count * dim)
    x = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    stack = (x + np.swapaxes(x, -2, -1).conj()) / 2.0
    stack = stack.real.copy() if real else stack
    return lambda: openwalk.hermitian_eigenvalues(stack), kernels.eigensolve_bytes(stack.shape)


def quadrature_nodes(factor, etas):
    sp, cfg = spectrum(), dephasing(factor)
    etas = np.linspace(0.0, 1.0, etas).tolist()
    nodes = len(harmonic._quadrature_nodes(sp, cfg, 10, len(etas))[0])
    return (lambda: next(harmonic.quadrature_map_stacks(etas, 10, [(sp, cfg)])),
            harmonic.NODE_BYTES * nodes * len(etas))


def series_maps(etas, steps):
    etas = np.linspace(0.0, 1.0, etas)
    tables = [(spectrum(1.0), dephasing())]
    return (lambda: harmonic.series_map_stacks(etas, steps, tables),
            harmonic.series_map_bytes(len(etas), steps, 1))


def integral_check(steps):
    return (lambda: walk.integral_recursion_deviation(steps, [(1.0, 0.0), (0.0, 1.0)]),
            walk.integral_check_bytes(steps))


def amplitude_row(m):
    return lambda: walk.walk_amplitudes_row(m), walk.amplitude_row_bytes(m)


def oracle(steps, n_freqs):
    args = dict(max_steps=steps, n_freqs=[n_freqs], walk_steps=0, position_check_steps=0,
                engine_max_power=0, seed=0)
    return (lambda: openwalk.oracle_checks(spectrum(0.7), dephasing(), **args),
            openwalk.dilation_bytes(steps, n_freqs))


#: count -> (its route and value at a small size, at a large size)
COUNTS = {
    "dephasing_curves": (lambda: dephasing_curves(3.2 * 8, 241),
                         lambda: dephasing_curves(200_000, 200_000)),
    # at fig1's own 241 frequencies the command's fixed cost outweighs the count
    "cmd_dephasing": (lambda: cmd_dephasing(2_000), lambda: cmd_dephasing(200_000)),
    "walk_table": (lambda: walk_table(40, False), lambda: walk_table(400, True)),
    "walk_measure_bytes": (lambda: walk_sweep(1, 10), lambda: walk_sweep(2000, 10)),
    "error_stack_bytes": (lambda: error_stack(2, 5, 15), lambda: error_stack(300, 5, 30)),
    "eigensolve_bytes": (lambda: eigensolve(3, 12, False), lambda: eigensolve(3, 160, True)),
    "quadrature_nodes": (lambda: quadrature_nodes(0.35, 3), lambda: quadrature_nodes(600.0, 1)),
    "series_map_bytes": (lambda: series_maps(3, 30), lambda: series_maps(40, 256)),
    "integral_check_bytes": (lambda: integral_check(12), lambda: integral_check(120)),
    "amplitude_row_bytes": (lambda: amplitude_row(40), lambda: amplitude_row(120)),
    "dilation_bytes": (lambda: oracle(10, 2), lambda: oracle(40, 1024)),
}


@pytest.mark.parametrize("name,size", [(name, size) for name in COUNTS
                                       for size in ("small", "large")])
def test_count_covers_the_warm_peak(monkeypatch, name, size):
    # one untraced run first loads the lazy numpy modules and fills the
    # Gauss rule cache, which a process holds for good, not per call
    route, count = COUNTS[name][size == "large"]()
    if name == "walk_measure_bytes":
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", count)
    route()
    tracemalloc.start()
    try:
        route()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert HEADROOM * peak <= count, f"{name} at its {size} size: peak {peak} B, count {count} B"
