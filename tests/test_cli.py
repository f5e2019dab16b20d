import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memoryflow import cli, errors, harmonic, kernels, nonmarkov, openwalk, spectra, walk
from memoryflow.cli import main, resolve_config
from memoryflow.errors import ConfigError, ResourceLimitError
from memoryflow.presets import PRESETS
from memoryflow.qubit import evolve_qubit, transfer_map_stack
from memoryflow.spectra import DephasingConfig

T_REVIVAL = 2.0 * math.pi / (9.0 * 0.009)


def read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def run_cli(*args) -> int:
    return main(list(args))


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def read_strict_json(path: Path):
    """Parse a written JSON file, refusing the NaN and Infinity tokens that
    Python's json module would otherwise accept."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)


def reach(count) -> int:
    """The largest n >= 0 whose ``count(n)``, growing with n, is within
    ``errors.MAX_GRID_BYTES``, by bisection."""
    low, high = 0, 1
    while count(high) <= errors.MAX_GRID_BYTES:
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if count(middle) <= errors.MAX_GRID_BYTES else (low, middle)
    return low


def walk_measure_reaches() -> dict:
    """What ``nonmarkov.walk_measure_bytes`` lets each route reach: the steps
    of one A and one sweep value (two filters with the strong limit) and the
    most filters with that reach; fig4's sweep values at its steps; and the
    oracle's max_steps (one filter) with the most environment nodes K at
    which the dilation's count allows as many steps."""
    fig4 = PRESETS["fig4"]
    steps = reach(lambda n: nonmarkov.walk_measure_bytes(n, 2))
    oracle_steps = reach(lambda n: nonmarkov.walk_measure_bytes(n, 1))
    return {
        "steps": steps,
        "filters": reach(lambda f: nonmarkov.walk_measure_bytes(steps, f)),
        "sweep_values": reach(lambda c: nonmarkov.walk_measure_bytes(
            fig4["steps"], len(fig4["a_values"]) * c + 1)),
        "oracle_steps": oracle_steps,
        "oracle_k": reach(lambda k: openwalk.dilation_bytes(oracle_steps, k)),
    }


def test_readme_states_the_walk_measure_reaches():
    r = walk_measure_reaches()
    text = " ".join((Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split())
    values = f"{r['sweep_values']:,}".replace(",", " ")
    for claim in (
            f"up to K = {r['oracle_k']} the measure's count sets the field's reach, "
            f"{r['oracle_steps']} steps, and from K = {r['oracle_k'] + 1} the dilation's",
            f"allows up to {r['steps']} steps for one `A` and one sweep value; "
            f"`steps = {r['steps'] + 1}` exits 2",
            f"{r['steps']} steps for 1 to {r['filters']} filters; {values} sweep values at "
            "fig4's three A and 10 steps",
            f"`oracle.max_steps` stops at the walk measure's {r['oracle_steps']} up to "
            f"K = {r['oracle_k']}"):
        assert claim in text


def record_calls(monkeypatch, *functions) -> dict:
    """Wrap each function under every name a memoryflow module holds it by;
    returns the argument tuples of its calls, keyed by function name."""
    calls = {fn.__name__: [] for fn in functions}
    for name, module in list(sys.modules.items()):
        if name != "memoryflow" and not name.startswith("memoryflow."):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in functions):
                def recorded(*args, _fn=value, **kwargs):
                    calls[_fn.__name__].append(args)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, attr, recorded)
    return calls


class TestConfigResolution:
    def test_presets_cover_all_figures(self):
        assert set(PRESETS) == {"fig1", "fig2", "fig3", "fig4", "fig5"}

    def test_preset_then_file_then_set(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"steps": 12}), encoding="utf-8")
        cfg = resolve_config(
            "controlled-qubit",
            preset_name="fig2",
            config_path=str(cfg_file),
            overrides=[("eta_values", [0.5])],
        )
        assert cfg["steps"] == 12
        assert cfg["eta_values"] == [0.5]
        assert cfg["delta_t_factor"] == 0.014

    def test_wrong_preset_command(self):
        assert run_cli("walk", "--preset", "fig1") == 1

    def test_unknown_preset_named(self):
        # the CLI's --preset choices refuse it first; the library names it
        with pytest.raises(ConfigError, match="unknown preset 'nope'"):
            resolve_config("dephasing", preset_name="nope")

    @pytest.mark.parametrize("argv,field", [
        pytest.param(["controlled-qubit", "--set", "sigma=-1"], "sigma", id="sigma"),
        pytest.param(["controlled-qubit", "--set", 'eta_values=["a"]'], "eta_values",
                     id="eta_values-string"),
        pytest.param(["open-walk-nm", "--set", 'sweep.count="x"'], "sweep.count",
                     id="sweep.count-string"),
        pytest.param(["dephasing", "--set", "t_grid.points_per_revival=0"],
                     "t_grid.points_per_revival", id="points_per_revival-zero"),
        pytest.param(["walk", "--set", 'initial_coin_1=[["a", 0], [0, 0]]'], "initial_coin_1",
                     id="initial_coin_1-string"),
        pytest.param(["controlled-qubit", "--set", "steps=true"], "steps", id="steps-bool"),
        pytest.param(["oracle", "--set", 'oracle.n_freqs="x"'], "oracle.n_freqs",
                     id="oracle.n_freqs-string"),
        pytest.param(["oracle", "--set", "oracle.n_freqs=[1]"], "oracle.n_freqs",
                     id="oracle.n_freqs-one-peak"),
        pytest.param(["oracle", "--set", 'oracle.max_steps="x"'], "oracle.max_steps",
                     id="oracle.max_steps-string"),
        pytest.param(["controlled-qubit", "--set", 'initial_bloch_1=["a", 0, 0]'],
                     "initial_bloch_1", id="initial_bloch_1-string"),
        pytest.param(["controlled-qubit", "--set", "initial_bloch_1=[2, 0, 0]"],
                     "initial_bloch_1", id="initial_bloch_1-outside-ball"),
        pytest.param(["walk", "--set", 'amplitudes="no"'], "amplitudes", id="amplitudes-string"),
        pytest.param(["walk", "--set", 'check_integrals="no"'], "check_integrals",
                     id="check_integrals-string"),
        pytest.param(["oracle", "--set", 'seed="x"'], "seed", id="seed-string"),
        pytest.param(["controlled-qubit", "--set", "delta_t=-1"], "delta_t", id="delta_t-negative"),
        pytest.param(["controlled-qubit", "--set", 'engine="bogus"'], "engine", id="engine-unknown"),
        pytest.param(["open-walk-nm", "--set", 'sweep.parameter="bogus"'], "sweep.parameter",
                     id="sweep.parameter-unknown"),
        pytest.param(["controlled-qubit", "--set", "stepz=3"], "stepz", id="unknown-stepz"),
        pytest.param(["open-walk-nm", "--set", "sweep.cuont=2"], "sweep.cuont",
                     id="unknown-sweep.cuont"),
        pytest.param(["oracle", "--set", "oracle.bogus=1"], "oracle.bogus", id="unknown-oracle.bogus"),
        pytest.param(["open-walk-nm", "--set", "delta_omega=0"], "delta_omega",
                     id="delta_omega-zero-sweep"),
        pytest.param(["controlled-qubit", "--preset", "fig2", "--set", "delta_n=0"], "delta_n",
                     id="delta_n-zero-revival"),
        pytest.param(["controlled-qubit", "--preset", "fig2", "--set", "delta_omega=0"],
                     "delta_omega", id="delta_omega-zero-revival"),
        pytest.param(["strong-limit-error", "--set", "delta_n=0"], "delta_n",
                     id="delta_n-zero-strong-limit"),
        pytest.param(["dephasing", "--set", "delta_omega=0"], "delta_omega",
                     id="delta_omega-zero-dephasing"),
        pytest.param(["oracle", "--set", "delta_n=0"], "delta_n", id="delta_n-zero-oracle"),
        pytest.param(["controlled-qubit", "--preset", "fig2", "--set", "delta_t_factor=null"],
                     "delta_t_factor", id="delta_t_factor-null"),
        pytest.param(["strong-limit-error", "--engine", "strong-limit"], "engine",
                     id="strong-limit-error-engine"),
        pytest.param(["walk", "--set", "initial_coin_1=[[0, 0], [0, -0.0]]"], "initial_coin_1",
                     id="initial_coin_1-zero"),
        pytest.param(["walk", "--set", "initial_coin_1=[[1.5e308, 0], [0, 1.5e308]]"],
                     "initial_coin_1", id="initial_coin_1-norm-overflow"),
        pytest.param(["dephasing", "--preset", "fig1", "--set", "a_values=[0.1234561,0.1234562]"],
                     "a_values", id="a_values-same-label"),
        pytest.param(["dephasing", "--preset", "fig1", "--set", "a_values=[0.5,0.5]"],
                     "a_values", id="a_values-repeated"),
        pytest.param(["strong-limit-error", "--preset", "fig5",
                      "--set", "delta_t_factors=[1.0000001,1.0000002]"],
                     "delta_t_factors", id="delta_t_factors-same-label"),
        pytest.param(["strong-limit-error", "--preset", "fig5",
                      "--set", "delta_t_factors=[1,0.02,1.0,1.0000001]"],
                     "delta_t_factors", id="delta_t_factors-same-label-among-repeats"),
        pytest.param(["controlled-qubit", "--preset", "fig2", "--set", "mu1=1e308",
                      "--set", "delta_omega=1e308"], "mu1", id="mu2-overflow"),
        pytest.param(["oracle", "--set", "delta_t_factor=1e308", "--set", "delta_omega=1e-300"],
                     "delta_t_factor", id="delta_t-overflow-oracle"),
        pytest.param(["controlled-qubit", "--preset", "fig2", "--set", "delta_t_factor=1e308",
                      "--set", "delta_omega=1e-300"], "delta_t_factor", id="delta_t-overflow"),
        pytest.param(["strong-limit-error", "--preset", "fig5", "--set", "delta_t_factors=[1,1e308]",
                      "--set", "delta_omega=1e-300"], "delta_t_factors",
                     id="delta_t-overflow-strong-limit"),
        pytest.param(["oracle", "--set", "delta_n=1e-300", "--set", "delta_omega=1e-300"],
                     "delta_omega", id="revival-time-underflow-oracle"),
        pytest.param(["oracle", "--set", "delta_n=1e-8", "--set", "delta_omega=1e-300"],
                     "delta_omega", id="revival-time-overflow-oracle-probe"),
        pytest.param(["dephasing", "--preset", "fig1", "--set", "delta_omega=1e-300",
                      "--set", "delta_n=1e-10"], "delta_omega", id="revival-time-overflow-fig1"),
        pytest.param(["dephasing", "--preset", "fig1", "--set", "delta_omega=1e-300",
                      "--set", "delta_n=1e-7"], "t_grid.max_revivals", id="t_grid-overflow-fig1"),
        pytest.param(["dephasing", "--preset", "fig1", "--set", "t_grid.points_per_revival=1e-320"],
                     "t_grid.points_per_revival", id="t_grid-step-overflow-fig1"),
        pytest.param(["open-walk-nm", "--set", "delta_omega=1e-300", "--set", "delta_n=1e-7",
                      "--set", "sweep.max=10"], "sweep.max", id="sweep-duration-overflow"),
        pytest.param(["open-walk-nm", "--set", "delta_n=-0.009"], "sweep.min",
                     id="sweep-duration-negative"),
        pytest.param(["open-walk-nm", "--set", "sweep.min=0"], "sweep.min",
                     id="sweep-duration-zero"),
        pytest.param(["open-walk-nm", "--preset", "fig4", "--set", "sweep.count=4.5"],
                     "sweep.count", id="sweep.count-fraction"),
        pytest.param(["dephasing", "--preset", "fig1", "--set", "omega_grid.count=10.7"],
                     "omega_grid.count", id="omega_grid.count-fraction"),
        pytest.param(["dephasing", "--preset", "fig1", "--set", "omega_grid.pad_sigmas=1e308"],
                     "omega_grid.pad_sigmas", id="omega_grid.pad_sigmas-overflow"),
        pytest.param(["walk", "--check-integrals", "--set", "integral_check_cap=3.9"],
                     "integral_check_cap", id="integral_check_cap-fraction"),
        pytest.param(["controlled-qubit", "--preset", "fig2", "--set", "threshold=-1"],
                     "threshold", id="threshold-negative"),
        pytest.param(["controlled-qubit", "--set", "steps"], "steps", id="set-without-value"),
        # a value that is not JSON is kept as the string it is
        pytest.param(["controlled-qubit", "--set", "steps=ten"], "steps", id="steps-not-json"),
        pytest.param(["dephasing", "--set", "t_grid=3"], "t_grid", id="t_grid-not-an-object"),
    ])
    def test_invalid_field_named_in_error(self, capsys, tmp_path, argv, field):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()  # refused while resolving, before the command ran

    @pytest.mark.parametrize("argv", [
        pytest.param(["open-walk-nm", "--set", "sweep.count=2.0", "--set", "steps=2"], id="sweep.count"),
        pytest.param(["dephasing", "--set", "t_grid.points_per_revival=7.5",
                      "--set", "omega_grid.count=41.0"], id="dephasing-grids"),
        pytest.param(["walk", "--set", "steps=3", "--set", "integral_check_cap=2.0",
                      "--check-integrals"], id="integral_check_cap"),
    ])
    def test_numeric_fields_accept_floats(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("argv,named", [
        pytest.param(["dephasing", "--set", "t_grid.max_revivals=1e300"], "8e+300 time samples",
                     id="t_grid.max_revivals"),
        pytest.param(["dephasing", "--set", "t_grid.points_per_revival=1e12"],
                     "3.2e+12 time samples", id="t_grid.points_per_revival"),
        pytest.param(["dephasing", "--set", "omega_grid.count=1e12"], "1e+12 frequency samples",
                     id="omega_grid.count"),
        pytest.param(["open-walk-nm", "--set", "sweep.count=1e12"], "1e+12 sweep values",
                     id="sweep.count"),
        pytest.param(["open-walk-nm", "--set", "steps=1000000000000"], "'steps' = 1000000000000",
                     id="sweep-steps"),
        # tables that the CLI's old count of 8 bytes a value passed (132 MB
        # and 160 MB), but not the count of the route that holds them
        pytest.param(["open-walk-nm", "--preset", "fig4", "--set", "sweep.count=500000"],
                     "'steps' = 10 x 500000 sweep values x 3 spectra", id="fig4-sweep.count"),
        pytest.param(["dephasing", "--preset", "fig1", "--set", "omega_grid.count=20000000"],
                     "2e+07 frequency samples", id="fig1-omega_grid.count"),
    ])
    def test_grid_refused_before_allocation(self, capsys, tmp_path, argv, named):
        # each grid is counted by the route that builds it, on entry: a grid
        # over MAX_GRID_BYTES exits 2 naming the route's argument before
        # --out exists or the grid is built
        out = tmp_path / "out"
        start = time.perf_counter()
        tracemalloc.start()
        try:
            assert run_cli(*argv, "--out", str(out)) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert named in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1 << 20

    def test_main_module_refuses_a_table_over_the_budget(self, tmp_path):
        # the package runs as python -m memoryflow, through __main__.py
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "memoryflow", "dephasing", "--preset", "fig1",
                               "--set", "omega_grid.count=20000000", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 5.0
        assert done.returncode == 2, done.stderr
        assert "2e+07 frequency samples" in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv,named", [
        # integral_check_cap is cut to steps; a table of 4000 steps fits
        pytest.param(["walk", "--check-integrals", "--set", "steps=4000",
                      "--set", "integral_check_cap=1e300"], "integral check over steps = 4000",
                     id="walk"),
        pytest.param(["walk", "--check-integrals", "--set", "steps=578",
                      "--set", "integral_check_cap=578"], "integral check over steps = 578",
                     id="walk-578"),
        pytest.param(["oracle", "--set", "oracle.walk_steps=1000000000000"],
                     "walk_steps = 1000000000000", id="oracle"),
    ])
    def test_integral_check_refused_before_allocation(self, capsys, tmp_path, monkeypatch,
                                                      argv, named):
        # the largest quasi-momentum table grows as steps^2: a check over
        # MAX_GRID_BYTES is refused by its route, naming its step count,
        # before --out exists or any grid or state
        calls = record_calls(monkeypatch, kernels.composite_gauss_legendre, walk.walk_step)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert run_cli(*argv, "--out", str(out)) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert named in capsys.readouterr().err
        assert not out.exists()
        assert calls == {"composite_gauss_legendre": [], "walk_step": []}
        assert peak < 1 << 20

    def test_integral_check_within_budget_runs(self, capsys, tmp_path, monkeypatch):
        # the largest check within MAX_GRID_BYTES reaches its grids on both
        # commands, and one step more is refused by the route on entry
        cap = max(m for m in range(1000) if walk.integral_check_bytes(m) <= errors.MAX_GRID_BYTES)
        assert cap == 577

        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(walk, "_amplitude_rows", reached)
        for argv, named in (
                (["walk", "--check-integrals", "--set", "integral_check_cap=1000"],
                 "integral check over steps = {}"),
                (["oracle", "--set", "oracle.max_steps=0", "--set", "oracle.position_check_steps=0"],
                 "walk_steps = {}")):
            steps = "oracle.walk_steps" if argv[0] == "oracle" else "steps"
            with pytest.raises(Reached):
                run_cli(*argv, "--set", f"{steps}={cap}", "--out", str(tmp_path / "edge"))
            out = tmp_path / "out"
            assert run_cli(*argv, "--set", f"{steps}={cap + 1}", "--out", str(out)) == 2
            assert named.format(cap + 1) in capsys.readouterr().err
            assert not out.exists()
        # without the check, the cap sizes nothing
        assert resolve_config("walk", overrides=[("steps", 1000), ("integral_check_cap", 10 ** 6)])

    @pytest.mark.parametrize("argv,tables", [
        (["controlled-qubit", "--preset", "fig2"], 1),
        (["controlled-qubit", "--preset", "fig2", "--engine", "strong-limit"], 1),
        (["controlled-qubit", "--preset", "fig3", "--engine", "quadrature"], 0),
        (["strong-limit-error", "--preset", "fig5"], 1),
        (["strong-limit-error", "--preset", "fig5", "--engine", "quadrature"], 0),
    ])
    def test_series_walk_refused_before_out(self, capsys, tmp_path, monkeypatch, argv, tables):
        # the largest series_map_stacks call, its walk and its maps, is
        # counted by the route on entry: one byte short of it exits 2 by name
        # before --out exists or any map is made; the quadrature nodes, which
        # need more, are refused at the same budget by their own count, made
        # before the strong limit's period row.  strong-limit-error's error
        # table and per-step maps count more than any of its walks, and are
        # counted first
        preset = PRESETS[argv[2]]
        etas, steps = len(preset["eta_values"]), preset["steps"]
        count = harmonic.series_map_bytes(etas, steps, tables)
        named = f"{steps} steps x {etas} etas x {tables} tables"
        if argv[0] == "strong-limit-error":
            factors = len(preset["delta_t_factors"])
            assert harmonic.error_stack_bytes(etas, steps, factors) > count
            count = harmonic.error_stack_bytes(etas, steps, factors)
            named = f"{factors} step durations x {etas} etas x {steps} steps"
        elif "quadrature" in argv:
            named = "quadrature support"
        calls = record_calls(monkeypatch, kernels.transfer_power_average,
                             kernels.composite_gauss_legendre)
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", count - 1)
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
        assert calls == {"transfer_power_average": [], "composite_gauss_legendre": []}
        if "quadrature" not in argv:
            monkeypatch.setattr(errors, "MAX_GRID_BYTES", count)
            assert run_cli(*argv, "--out", str(out)) == 0

    def test_many_etas_refused_at_the_budget(self, capsys, tmp_path):
        # 1000 controls over 1024 steps would hold about 1.2 GB of series walk
        etas = json.dumps([i / 999 for i in range(1000)])
        out = tmp_path / "out"
        assert run_cli("controlled-qubit", "--preset", "fig2", "--set", "steps=1024",
                       "--set", f"eta_values={etas}", "--out", str(out)) == 2
        assert "1024 steps x 1000 etas x 1 tables" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        # the oracle's first check, the dilation, meets the overflowing
        # environment frequencies before the quadrature check runs
        pytest.param(["oracle", "--set", "sigma=1e308"],
                     "environment frequencies overflow float64", id="oracle-huge-sigma"),
        pytest.param(["oracle", "--set", "sigma=1e-320"],
                     "quadrature support", id="oracle-subnormal-sigma"),
        pytest.param(["controlled-qubit", "--preset", "fig3", "--engine", "quadrature",
                      "--set", "sigma=1e308"], "quadrature support", id="quadrature-huge-sigma"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_sigma_exceeds_quadrature_budget(self, capsys, tmp_path, argv, message):
        # the quadrature panel count overflows to infinity: a resource limit, not a traceback
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert message in err
        if message == "quadrature support":
            assert "inf panels" in err and "MAX_GRID_BYTES" in err

    def test_strong_limit_error_table_counted(self, capsys, tmp_path, monkeypatch):
        # the error table, with the maps and Choi stack of one step duration,
        # is counted by approximation_error_stack on entry: one byte short
        # exits 2 by name before --out exists, and the count itself runs
        fig5 = PRESETS["fig5"]
        count = harmonic.error_stack_bytes(len(fig5["eta_values"]), fig5["steps"],
                                           len(fig5["delta_t_factors"]))
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", count - 1)
        out = tmp_path / "out"
        assert run_cli("strong-limit-error", "--out", str(out)) == 2
        assert "2 step durations x 5 etas x 15 steps" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", count)
        assert run_cli("strong-limit-error", "--out", str(out)) == 0

    @pytest.mark.parametrize("setting", ["delta_t_factor=1e5", "sigma=1e308"])
    def test_quadrature_nodes_refused_before_out(self, capsys, tmp_path, monkeypatch, setting):
        # the quadrature engine counts its nodes as it is called, after the
        # config is resolved; --out is made only by the first file written
        calls = record_calls(monkeypatch, kernels.transfer_power_average,
                             kernels.composite_gauss_legendre)
        out = tmp_path / "out"
        assert run_cli("controlled-qubit", "--preset", "fig3", "--engine", "quadrature",
                       "--set", setting, "--out", str(out)) == 2
        assert "quadrature support" in capsys.readouterr().err
        assert not out.exists()
        assert calls == {"transfer_power_average": [], "composite_gauss_legendre": []}

    @pytest.mark.parametrize("factors", ["[1.03,1e5]", "[1e5,1.03]"])
    def test_every_quadrature_step_refused_before_any_map(self, capsys, tmp_path, monkeypatch,
                                                          factors):
        # every step duration's nodes are counted on entry, so a later
        # oversized factor is refused before the earlier factors' maps
        calls = record_calls(monkeypatch, kernels.transfer_power_average)
        out = tmp_path / "out"
        assert run_cli("strong-limit-error", "--preset", "fig5", "--engine", "quadrature",
                       "--set", f"delta_t_factors={factors}", "--set", "steps=200",
                       "--out", str(out)) == 2
        assert "quadrature support" in capsys.readouterr().err
        assert not out.exists()
        assert calls == {"transfer_power_average": []}
        # the series engine's count does not depend on the step duration
        assert run_cli("strong-limit-error", "--preset", "fig5", "--set",
                       f"delta_t_factors={factors}", "--set", "steps=200", "--out", str(out)) == 0

    @pytest.mark.parametrize("command,reference", [
        ("dephasing", "fig1"),
        ("controlled-qubit", "fig2"),
        ("strong-limit-error", "fig5"),
        ("open-walk-nm", "fig4"),
    ])
    def test_figure_commands_default_to_reference_preset(self, command, reference):
        assert resolve_config(command) == resolve_config(command, preset_name=reference)

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_resolved_config_shares_no_containers(self, command):
        def clear(value):
            if isinstance(value, (dict, list)):
                for item in list(value.values() if isinstance(value, dict) else value):
                    clear(item)
                value.clear()

        expected = resolve_config(command)
        clear(resolve_config(command))
        assert resolve_config(command) == expected

    def test_readme_lists_every_field_with_its_kind_and_bounds(self):
        lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| field | kind and bounds | commands | default |") + 2
        table = lines[start:lines.index("", start)]
        rows = {cells[0].strip("` "): cells[1:] for cells in
                ([cell.strip() for cell in line.strip("|").split("|")] for line in table)}
        assert list(rows) == list(cli.FIELDS)
        for name, (kind, bounds, commands, *_) in cli.FIELDS.items():
            kinds, listed = rows[name][:2]
            assert kinds == f"{kind}{f' in {bounds}' if bounds else ''}", name
            # "all" stands for every command; otherwise each command is named
            assert (list(cli.COMMANDS) if listed == "all"
                    else [c.strip("` ") for c in listed.split(",")]) == list(commands), name

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("dephasing", "--bogus") == 1

    def test_bad_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run_cli("dephasing", "--config", str(bad)) == 1

    def test_config_file_must_hold_an_object(self, capsys, tmp_path):
        listed = tmp_path / "list.json"
        listed.write_text("[1]", encoding="utf-8")
        assert run_cli("dephasing", "--config", str(listed), "--out", str(tmp_path / "out")) == 1
        assert "config file must hold a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_is_io_error(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("", encoding="utf-8")
        assert run_cli("dephasing", "--preset", "fig1", "--out", str(blocker)) == 3


#: arbitrary JSON: null, booleans, huge integers, nan and infinities, strings, lists, objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, 10**400, -10**400])
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
#: values of each kind, bounds aside, drawn beside arbitrary JSON so that every
#: field also meets values it accepts
OF_KIND = {
    "number": st.floats(-2.0, 2.0) | st.integers(-2, 40),
    "count": st.floats(-1.0, 50.0) | st.integers(-1, 50) | st.integers(-1, 50).map(float),
    "integer": st.integers(-1, 40),
    "number or null": st.none() | st.floats(-1.0, 2.0),
    "numbers": st.lists(st.floats(-0.5, 1.5), max_size=3),
    "integers": st.lists(st.integers(-1, 40), max_size=3),
    "boolean": st.booleans(),
    "string": st.sampled_from(["series", "quadrature", "strong-limit", "dt_omega_dn", "out", ""]),
    "bloch": st.lists(st.floats(-0.7, 0.7), min_size=3, max_size=3),
    "coin": st.lists(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2), min_size=2, max_size=2),
}


def _finite(value) -> bool:
    return not isinstance(value, bool) and math.isfinite(float(value))


def _field(cfg: dict, dotted: str):
    for part in dotted.split("."):
        cfg = cfg[part]
    return cfg


#: what the commands do with an accepted value of each kind; raises or is false if they cannot
USABLE = {
    "number": _finite,
    "count": lambda v: _finite(v) and float(v).is_integer() and v >= 0,
    "integer": lambda v: type(v) is int,
    "number or null": lambda v: v is None or _finite(v),
    "numbers": lambda v: len(v) > 0 and all(map(_finite, v)),
    "integers": lambda v: len(v) > 0 and all(type(n) is int for n in v),
    "boolean": lambda v: type(v) is bool,
    "string": lambda v: type(v) is str,
    "bloch": lambda v: np.asarray(v, dtype=float).shape == (3,) and np.isfinite(v).all(),
    "coin": lambda v: all(math.isfinite(abs(complex(re, im))) for re, im in v) and len(v) == 2,
}


class TestConfigFuzz:
    """Every field of every command, set to arbitrary JSON: resolve_config either
    accepts a value the commands can use or refuses it naming the field."""

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_defaults_usable(self, command):
        cfg = resolve_config(command)
        for name, (kind, _, commands, *_) in cli.FIELDS.items():
            if command in commands:
                assert USABLE[kind](_field(cfg, name)), name

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_value_usable_or_field_named(self, command, data):
        for name, (kind, _, commands, *_) in cli.FIELDS.items():
            if command not in commands:
                continue
            value = data.draw(JSON_VALUES | OF_KIND[kind], label=name)
            try:
                cfg = resolve_config(command, overrides=[(name, value)])
            except (ConfigError, ResourceLimitError) as exc:
                assert f"'{name}'" in str(exc)
                continue
            assert USABLE[kind](_field(cfg, name))


#: per command, a small run whose output each field of the command can change
SMALL_RUN = {
    "dephasing": ["--set", "t_grid.max_revivals=1.5", "--set", "t_grid.points_per_revival=2",
                  "--set", "omega_grid.count=5"],
    "controlled-qubit": ["--set", "steps=4", "--set", "eta_values=[0.0,0.5]"],
    "strong-limit-error": ["--set", "steps=2", "--set", "eta_values=[0.5]"],
    "walk": ["--set", "steps=4", "--set", "check_integrals=true"],
    "open-walk-nm": ["--set", "steps=4", "--set", "sweep.count=2", "--set", "a_values=[0.5]"],
    "oracle": ["--set", "oracle.max_steps=2", "--set", "oracle.n_freqs=[8]",
               "--set", "oracle.walk_steps=2", "--set", "oracle.engine_max_power=2",
               "--set", "oracle.position_check_steps=2"],
}
#: field -> (a second in-bounds value, the fields it needs set beside it)
SECOND_VALUE = {
    "A": (0.5, {}),
    "sigma": (1.5, {}),
    "mu1": (14.0, {}),
    "delta_omega": (8.0, {}),
    "delta_n": (0.01, {}),
    "delta_t": (5.0, {"delta_t_factor": None}),
    "delta_t_factor": (0.5, {}),
    "engine": ("quadrature", {}),
    "seed": (1, {}),
    "threshold": (0.01, {}),
    "steps": (3, {}),
    "a_values": ([0.25], {}),
    "eta_values": ([0.25], {}),
    "t_grid.max_revivals": (1.0, {}),
    "t_grid.points_per_revival": (3, {}),
    "omega_grid.pad_sigmas": (2.0, {}),
    "omega_grid.count": (7, {}),
    "initial_bloch_1": ([0.0, 0.0, 1.0], {}),
    "initial_bloch_2": ([0.0, 0.0, -1.0], {}),
    "delta_t_factors": ([0.5], {}),
    "initial_coin_1": ([[0.0, 0.0], [1.0, 0.0]], {}),
    "amplitudes": (True, {}),
    "check_integrals": (False, {}),
    "integral_check_cap": (2, {"check_integrals": True}),
    "sweep.min": (0.5, {}),
    "sweep.max": (2.0, {}),
    "sweep.count": (1, {}),
    "oracle.max_steps": (3, {}),
    "oracle.position_check_steps": (3, {}),
    "oracle.n_freqs": ([8, 16], {}),
    "oracle.walk_steps": (3, {}),
    "oracle.engine_max_power": (3, {}),
}
#: fields that no output byte can show, and why
UNSHOWN = {
    "jobs": "validated and recorded, but sweeps run serially; kept so that --jobs 4 runs",
    "out_dir": "names the directory the files go to, not what they hold",
}


def outputs_outside_config(out: Path) -> dict:
    """Every file's bytes, with each manifest's config block left out."""
    files = {}
    for path in sorted(out.iterdir()):
        doc = json.loads(path.read_text(encoding="utf-8")) if path.suffix == ".json" else None
        if doc is not None and "config" in doc:
            del doc["config"]
            files[path.name] = doc
        else:
            files[path.name] = path.read_bytes()
    return files


class TestEveryFieldIsRead:
    """A command reads every field that FIELDS lists for it: a second value
    changes its output.  Any other field, or the dedicated flag of one, exits 1
    before --out is made."""

    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        runs = {}

        def run(command):
            if command not in runs:
                out = tmp_path_factory.mktemp("baseline")
                assert run_cli(command, *SMALL_RUN[command], "--out", str(out)) == 0
                runs[command] = outputs_outside_config(out)
            return runs[command]

        return run

    @pytest.mark.parametrize("command,field", [
        (command, name) for name, (_, _, commands, *_) in cli.FIELDS.items()
        for command in commands if name not in UNSHOWN
    ])
    def test_second_value_changes_output(self, tmp_path, baseline, command, field):
        value, needs = SECOND_VALUE[field]
        settings = [f"{name}={json.dumps(v)}" for name, v in {**needs, field: value}.items()]
        argv = [arg for setting in settings for arg in ("--set", setting)]
        assert run_cli(command, *SMALL_RUN[command], *argv, "--out", str(tmp_path)) == 0
        assert outputs_outside_config(tmp_path) != baseline(command)

    @pytest.mark.parametrize("command,field", [
        (command, name) for name in cli.FIELDS for command in cli.COMMANDS
        if command not in cli.FIELDS[name][2]
    ])
    def test_unread_field_refused_by_name(self, capsys, tmp_path, command, field):
        value = SECOND_VALUE[field][0] if field in SECOND_VALUE else 1
        out = tmp_path / "out"
        assert run_cli(command, "--set", f"{field}={json.dumps(value)}", "--out", str(out)) == 1
        # a field of a table the command lacks altogether is named in full too
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @pytest.mark.parametrize("field,flag", [
        ("engine", ["--engine", "quadrature"]), ("jobs", ["--jobs", "2"]),
        ("amplitudes", ["--amplitudes"]), ("check_integrals", ["--check-integrals"]),
    ])
    def test_dedicated_flag_only_where_field_read(self, tmp_path, command, field, flag):
        out = tmp_path / "out"
        if command in cli.FIELDS[field][2]:
            assert vars(cli.build_parser().parse_args([command, *flag]))[field] is not None
        else:
            assert run_cli(command, *flag, "--out", str(out)) == 1
            assert not out.exists()


class TestDephasingCommand:
    def test_fig1_outputs(self, tmp_path):
        assert run_cli("dephasing", "--preset", "fig1", "--out", str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "dephasing_kappa_A1.csv")
        assert header == ["t", "abs_kappa"]
        manifest = json.loads((tmp_path / "dephasing_manifest.json").read_text())
        assert manifest["command"] == "dephasing"
        assert "revival_time" in manifest["derived"]

    def test_flat_spectrum_monotone(self, tmp_path):
        assert run_cli("dephasing", "--preset", "fig1", "--out", str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "dephasing_kappa_A0.csv")
        vals = [float(r[1]) for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_structured_spectrum_revives_on_grid(self, tmp_path):
        assert run_cli("dephasing", "--preset", "fig1", "--out", str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "dephasing_kappa_A1.csv")
        ts = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        step = ts[1] - ts[0]
        peaks = [
            i for i in range(1, len(vals) - 1)
            if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1] and vals[i] > 0.05
        ]
        assert peaks, "no revival maxima found"
        for i in peaks:
            m = round(ts[i] / T_REVIVAL)
            assert m >= 1
            assert abs(ts[i] - m * T_REVIVAL) <= step * (1.0 + 1e-9)

    @pytest.mark.parametrize("setting", ["sigma=1e-300", "delta_omega=1e300"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gaussian_is_silent(self, capsys, tmp_path, setting):
        # the spectrum's Gaussians underflow to exact zeros without a warning
        assert run_cli("dephasing", "--set", setting, "--out", str(tmp_path)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("setting,field", [("sigma=1e-320", "sigma"), ("mu1=1e308", "mu1")])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_value_is_refused(self, capsys, tmp_path, setting, field):
        # an infinite density peak or decoherence phase would write inf and NaN
        assert run_cli("dephasing", "--set", setting, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "overflows" in err
        assert list(tmp_path.iterdir()) == []


class TestControlledQubitCommand:
    @pytest.mark.parametrize("extra", [[], ["--set", "steps=0"]], ids=["fig3", "no-steps"])
    def test_quadrature_refuses_overflowing_mu1(self, capsys, tmp_path, extra):
        # refused by name before any node is built: for fig3 the decoherence
        # phase overflows; at steps=0 it does not, but the panel midpoints would
        argv = ["controlled-qubit", "--preset", "fig3", "--set", "mu1=1e308", *extra]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(*argv, "--engine", "quadrature", "--out", str(tmp_path / "q"))
        assert code == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "mu1 = 1e+308" in err and "overflows" in err
        if not extra:  # the series engine refuses fig3 with the same error
            assert run_cli(*argv, "--engine", "series", "--out", str(tmp_path / "s")) == 1
            assert capsys.readouterr().err == err

    def test_fig2_manifest_ratio(self, tmp_path):
        assert run_cli("controlled-qubit", "--preset", "fig2", "--out", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "controlled_qubit_manifest.json").read_text())
        assert manifest["derived"]["period_over_sigma"] == pytest.approx(642.857, abs=0.01)

    def test_fig3_manifest_ratio(self, tmp_path):
        assert run_cli("controlled-qubit", "--preset", "fig3", "--out", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "controlled_qubit_manifest.json").read_text())
        assert manifest["derived"]["period_over_sigma"] == pytest.approx(4.5, abs=1e-12)

    def test_engine_flag_switches_route(self, tmp_path):
        base = ["controlled-qubit", "--preset", "fig3",
                "--set", "steps=4", "--set", "eta_values=[0.5]"]
        out_series = tmp_path / "series"
        out_quad = tmp_path / "quad"
        assert run_cli(*base, "--out", str(out_series)) == 0
        assert run_cli(*base, "--out", str(out_quad), "--engine", "quadrature") == 0
        _, rows_s = read_csv(out_series / "controlled_qubit.csv")
        _, rows_q = read_csv(out_quad / "controlled_qubit.csv")
        for rs, rq in zip(rows_s, rows_q):
            for a, b in zip(rs[2:], rq[2:]):
                assert float(a) == pytest.approx(float(b), abs=1e-8)

    def test_quadrature_maps_shared_by_both_states(self, tmp_path, monkeypatch):
        # one quadrature walk over one grid serves every eta, every step and
        # both initial states
        calls = record_calls(monkeypatch, harmonic.quadrature_map_stacks,
                             harmonic.quadrature_map, harmonic._quadrature_nodes,
                             harmonic.spectral_density)
        assert run_cli("controlled-qubit", "--preset", "fig3", "--engine", "quadrature",
                       "--out", str(tmp_path)) == 0
        assert [(list(args[0]), len(args[2])) for args in calls["quadrature_map_stacks"]] \
            == [(PRESETS["fig3"]["eta_values"], 1)]
        assert {name: len(made) for name, made in calls.items()} \
            == {"quadrature_map_stacks": 1, "quadrature_map": 0, "_quadrature_nodes": 1,
                "spectral_density": 1}

    def test_fig2_work_pattern(self, tmp_path, monkeypatch):
        # one kappa table per command, shared by every eta; the powers stream
        # through no per-power product
        calls = record_calls(monkeypatch, spectra.decoherence_function, harmonic.series_multiply,
                             harmonic.integrate_series_against_spectrum, nonmarkov.nm_measure)
        assert run_cli("controlled-qubit", "--preset", "fig2", "--out", str(tmp_path)) == 0
        fig2 = PRESETS["fig2"]
        assert [np.size(args[2]) for args in calls["decoherence_function"]] \
            == [2 * fig2["steps"] + 1]
        # one measure call for the (eta, step) stack of trace distances
        assert [np.shape(args[0]) for args in calls["nm_measure"]] \
            == [(len(fig2["eta_values"]), fig2["steps"] + 1)]
        assert len(calls["series_multiply"]) == 0
        assert len(calls["integrate_series_against_spectrum"]) == 0

    def test_quadrature_rule_built_once_per_run(self, tmp_path):
        # every power of every eta shares the rule of the largest order
        kernels.gauss_legendre_rule.cache_clear()
        assert run_cli("controlled-qubit", "--preset", "fig3", "--engine", "quadrature",
                       "--set", "steps=130", "--out", str(tmp_path)) == 0
        assert kernels.gauss_legendre_rule.cache_info().misses == 1

    @pytest.mark.parametrize("engine", ["series", "quadrature", "strong-limit"])
    @pytest.mark.parametrize("fig", ["fig2", "fig3"])
    def test_rows_are_the_library_route(self, tmp_path, fig, engine):
        # every row, bit for bit, is evolve_qubit's trajectories and nm_qubit's
        # D, increment and N_cum for its eta: the CLI computes nothing itself
        assert run_cli("controlled-qubit", "--preset", fig, "--engine", engine,
                       "--out", str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "controlled_qubit.csv")
        cfg = resolve_config("controlled-qubit", preset_name=fig)
        sp, dephasing, steps = cli.build_spectrum(cfg), cli.build_dephasing(cfg), cfg["steps"]
        r1, r2 = cfg["initial_bloch_1"], cfg["initial_bloch_2"]
        want = []
        for eta in sorted(cfg["eta_values"]):
            series, report = nonmarkov.nm_qubit(eta, sp, dephasing, r1, r2, steps, engine)
            columns = np.column_stack([
                evolve_qubit(sp, dephasing, eta, r1, steps, engine),
                evolve_qubit(sp, dephasing, eta, r2, steps, engine),
                series.values, report.increments, report.cumulative])
            want += [[repr(eta), str(m), *map(repr, (row + 0.0).tolist())]
                     for m, row in enumerate(columns)]
        assert rows == want

    def test_sigma_x_rows_recover_at_even_steps(self, tmp_path):
        assert run_cli(
            "controlled-qubit", "--preset", "fig2", "--out", str(tmp_path),
            "--set", "steps=8",
        ) == 0
        header, rows = read_csv(tmp_path / "controlled_qubit.csv")
        d_idx = header.index("D")
        for row in rows:
            if float(row[0]) == 0.0 and int(row[1]) % 2 == 0:
                assert float(row[d_idx]) == pytest.approx(1.0, abs=1e-10)


class TestStrongLimitErrorCommand:
    def test_fig5_run(self, tmp_path):
        assert run_cli(
            "strong-limit-error", "--preset", "fig5", "--out", str(tmp_path),
            "--set", "steps=6", "--set", "eta_values=[0.5]",
        ) == 0
        manifest = json.loads((tmp_path / "strong_limit_error_manifest.json").read_text())
        ratios = manifest["derived"]["period_over_sigma"]
        assert ratios["0.02"] == pytest.approx(450.0, abs=1e-9)
        assert ratios["1.03"] == pytest.approx(8.7379, abs=1e-3)
        header, rows = read_csv(tmp_path / "strong_limit_error.csv")
        err_idx = header.index("error")
        by_factor = {}
        for row in rows:
            by_factor.setdefault(float(row[0]), []).append(float(row[err_idx]))
        for step in range(1, 7):
            assert by_factor[1.03][step] < by_factor[0.02][step]
        assert by_factor[0.02][0] == 0.0

    def test_strong_limit_engine_rejected(self):
        assert run_cli("strong-limit-error", "--engine", "strong-limit") == 1

    @pytest.mark.parametrize("engine", ["series", "quadrature"])
    def test_step_zero_errors_are_exact(self, tmp_path, engine):
        # on both engines the m = 0 map is the identity, as is its strong limit
        assert run_cli("strong-limit-error", "--preset", "fig5", "--engine", engine,
                       "--out", str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "strong_limit_error.csv")
        step, error = header.index("step"), header.index("error")
        errors = [row[error] for row in rows if row[step] == "0"]
        fig5 = PRESETS["fig5"]
        assert errors == ["0.0"] * len(fig5["delta_t_factors"]) * len(fig5["eta_values"])

    def test_fig5_work_pattern(self, tmp_path, monkeypatch):
        # one kappa table per delta_t factor and, one factor at a time, one
        # stacked Choi eigensolve for every (eta, step)
        calls = record_calls(monkeypatch, kernels.hermitian_eigvals, spectra.decoherence_function)
        assert run_cli("strong-limit-error", "--preset", "fig5", "--out", str(tmp_path)) == 0
        fig5 = PRESETS["fig5"]
        factors, etas = len(fig5["delta_t_factors"]), len(fig5["eta_values"])
        assert [np.size(args[2]) for args in calls["decoherence_function"]] \
            == [2 * fig5["steps"] + 1] * factors
        assert [np.shape(args[0]) for args in calls["hermitian_eigvals"]] \
            == [(etas, fig5["steps"] + 1, 4, 4)] * factors

    @pytest.mark.parametrize("argv,walks", [
        pytest.param(["controlled-qubit", "--preset", "fig2"], [(1, 61)], id="fig2-series"),
        pytest.param(["strong-limit-error", "--preset", "fig5"], [(1, 31)] * 3, id="fig5-series"),
        pytest.param(["strong-limit-error", "--preset", "fig5", "--engine", "quadrature"],
                     [(1, 31), "nodes", "nodes"], id="fig5-quadrature"),
        pytest.param(["oracle"], [(2, 21), "nodes", "nodes", (1, 81)], id="oracle"),
    ])
    def test_walks_take_one_weight_row_per_stack(self, tmp_path, monkeypatch, argv, walks):
        # a series walk takes one period-node weight row per stack its caller
        # keeps: fig5's strong limit is walked once, before the factors, and
        # the oracle's engine check walks the two A tables alone; a
        # quadrature walk takes one node vector
        calls = record_calls(monkeypatch, kernels.transfer_power_average)
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        assert [np.shape(args[1]) if np.ndim(args[1]) == 2 else "nodes"
                for args in calls["transfer_power_average"]] == walks


class TestWalkCommand:
    def test_two_step_distribution(self, tmp_path):
        assert run_cli("walk", "--out", str(tmp_path), "--set", "steps=2") == 0
        header, rows = read_csv(tmp_path / "walk_distribution.csv")
        got = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert got[(2, -2)] == pytest.approx(0.25, abs=1e-12)
        assert got[(2, 0)] == pytest.approx(0.5, abs=1e-12)
        assert got[(2, 2)] == pytest.approx(0.25, abs=1e-12)

    def test_rows_obey_parity_and_normalization(self, tmp_path):
        assert run_cli("walk", "--out", str(tmp_path), "--set", "steps=7") == 0
        _, rows = read_csv(tmp_path / "walk_distribution.csv")
        totals = {}
        for r in rows:
            step, x, p = int(r[0]), int(r[1]), float(r[2])
            assert (step + x) % 2 == 0
            totals[step] = totals.get(step, 0.0) + p
        for step, total in totals.items():
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rows_are_the_library_distribution(self, tmp_path):
        # one route for p(x): every row is walk.position_distribution's entry
        assert run_cli("walk", "--out", str(tmp_path), "--set", "steps=9") == 0
        _, rows = read_csv(tmp_path / "walk_distribution.csv")
        want = [(str(m), str(x), repr(p)) for m, state in enumerate(walk.walk_states(1.0, 0.0, 9))
                for x, p in walk.position_distribution(state).items()]
        assert [tuple(r) for r in rows] == want

    @pytest.mark.parametrize("amplitudes,fits", [(False, 4728), (True, 3094)])
    def test_output_table_refused_before_walking(self, capsys, tmp_path, monkeypatch,
                                                 amplitudes, fits):
        # walk_distribution.csv holds (steps + 1)(steps + 2)/2 rows of 3 values,
        # or 7 with the amplitudes, counted by walk.walk_table at 8 bytes a
        # value: the largest table within MAX_GRID_BYTES is accepted, and one
        # step more is refused by name before --out exists, any step is taken
        # or the integral check builds its grids
        flag = ["--amplitudes"] if amplitudes else []
        calls = record_calls(monkeypatch, walk.walk_step, kernels.composite_gauss_legendre)
        walk.walk_table(1.0, 0.0, fits, amplitudes)  # counted, and not yet walked
        out = tmp_path / "out"
        assert run_cli("walk", *flag, "--set", f"steps={fits + 1}", "--check-integrals",
                       "--out", str(out)) == 2
        assert f"walk table over steps = {fits + 1}" in capsys.readouterr().err
        assert not out.exists()
        assert calls == {"walk_step": [], "composite_gauss_legendre": []}

    @pytest.mark.parametrize("amplitudes", [False, True])
    def test_table_count_covers_the_measured_peak(self, tmp_path, monkeypatch, amplitudes):
        # the table's count, 8 bytes a value, is the budget that runs it
        count = 8 * (7 if amplitudes else 3) * 301 * 302 // 2
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", count - 1)
        with pytest.raises(ResourceLimitError, match="steps = 300"):
            walk.walk_table(1.0, 0.0, 300, amplitudes)
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", count)
        cfg = resolve_config("walk", overrides=[("steps", 300), ("amplitudes", amplitudes)])
        tracemalloc.start()
        try:
            assert cli.cmd_walk(cfg, tmp_path) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count

    def test_each_step_evolved_once(self, tmp_path, monkeypatch):
        calls = []
        # the CLI holds no alias of walk_evolve that could evade the count
        assert not hasattr(cli, "walk_evolve")
        for module, name in ((walk, "walk_evolve"), (kernels, "walk_run")):
            original = getattr(module, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        counts = {}
        for steps in (20, 40):
            calls.clear()
            assert run_cli("walk", "--out", str(tmp_path), "--set", f"steps={steps}") == 0
            counts[steps] = len(calls)
        assert counts[40] == counts[20]

    def test_huge_coin_is_normalised(self, tmp_path):
        assert run_cli("walk", "--out", str(tmp_path / "huge"), "--set", "steps=3",
                       "--set", "initial_coin_1=[[1e308, 1e308], [0, 0]]") == 0
        assert run_cli("walk", "--out", str(tmp_path / "unit"), "--set", "steps=3") == 0
        _, huge = read_csv(tmp_path / "huge" / "walk_distribution.csv")
        _, unit = read_csv(tmp_path / "unit" / "walk_distribution.csv")
        assert [float(r[2]) for r in huge] == pytest.approx([float(r[2]) for r in unit], abs=1e-15)

    @pytest.mark.parametrize("where", ["deviation", "route"])
    def test_nan_integral_deviation_fails(self, tmp_path, monkeypatch, capsys, where):
        if where == "deviation":
            monkeypatch.setattr(cli, "integral_recursion_deviation",
                                lambda steps, coins: (math.nan, "m=0, x=0"))
        else:
            original = walk.walk_amplitude_rows

            def poisoned(steps):
                for m, row in enumerate(original(steps)):
                    if m == 1:
                        row[0, 0] = np.nan
                    yield row

            monkeypatch.setattr(walk, "walk_amplitude_rows", poisoned)
        assert run_cli("walk", "--out", str(tmp_path), "--set", "steps=3",
                       "--check-integrals") == 2
        assert "deviate from recursion by nan" in capsys.readouterr().err
        manifest = read_strict_json(tmp_path / "walk_manifest.json")
        assert manifest["derived"]["integral_max_deviation"] is None

    @pytest.mark.parametrize("steps", [5, 12])
    def test_integral_check_builds_one_grid_pair(self, tmp_path, monkeypatch, steps):
        calls = record_calls(monkeypatch, kernels.composite_gauss_legendre)
        assert run_cli("walk", "--out", str(tmp_path), "--set", f"steps={steps}",
                       "--check-integrals") == 0
        assert len(calls["composite_gauss_legendre"]) == 2

    def test_integral_cross_check(self, tmp_path):
        assert run_cli(
            "walk", "--out", str(tmp_path), "--set", "steps=5", "--check-integrals",
        ) == 0
        manifest = json.loads((tmp_path / "walk_manifest.json").read_text())
        assert manifest["derived"]["integral_max_deviation"] < 1e-6


class TestOpenWalkNMCommand:
    def test_small_sweep_structure(self, tmp_path):
        assert run_cli(
            "open-walk-nm", "--preset", "fig4", "--out", str(tmp_path),
            "--set", "sweep.count=8", "--set", "sweep.max=2.0", "--set", "steps=5",
        ) == 0
        header, rows = read_csv(tmp_path / "open_walk_nm.csv")
        assert header == ["A", "dt_omega_dn", "N10", "mode"]
        strong = [r for r in rows if r[3] == "strong_limit"]
        values = {float(r[2]) for r in strong}
        assert len(values) == 1  # constant across A and sweep value

    @pytest.mark.parametrize("threshold", [None, 0.05])
    def test_strong_limit_rows_are_nm_walk(self, tmp_path, threshold):
        # the strong-limit rows take the config's threshold, as the filter rows do
        argv = [] if threshold is None else ["--set", f"threshold={threshold}"]
        assert run_cli("open-walk-nm", "--preset", "fig4", "--out", str(tmp_path), *argv) == 0
        _, rows = read_csv(tmp_path / "open_walk_nm.csv")
        fig4 = PRESETS["fig4"]
        kwargs = {} if threshold is None else {"threshold": threshold}
        want = nonmarkov.nm_walk(None, None, n_steps=fig4["steps"], mode="strong_limit",
                                 **kwargs)[1].measure
        strong = [r[2] for r in rows if r[3] == "strong_limit"]
        assert strong == [repr(want)] * len(fig4["a_values"]) * fig4["sweep"]["count"]
        manifest = json.loads((tmp_path / "open_walk_nm_manifest.json").read_text())
        assert manifest["derived"]["strong_limit_measure"] == want

    def test_rows_are_the_library_route(self, tmp_path):
        # every N10, bit for bit, is nm_walk's measure at its (A, interaction
        # time), and every strong-limit row nm_walk's in the strong limit
        assert run_cli("open-walk-nm", "--preset", "fig4", "--set", "sweep.count=4",
                       "--out", str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "open_walk_nm.csv")
        fig4 = PRESETS["fig4"]
        assert len(rows) == 2 * 4 * len(fig4["a_values"])
        strong = nonmarkov.nm_walk(None, None, n_steps=fig4["steps"], mode="strong_limit")
        for a, value, measure, mode in rows:
            if mode == "strong_limit":
                assert measure == repr(strong[1].measure)
                continue
            duration = float(value) * 2.0 * math.pi / (fig4["delta_omega"] * fig4["delta_n"])
            sp = spectra.SpectrumParams(float(a), fig4["sigma"], fig4["mu1"], fig4["delta_omega"])
            got = nonmarkov.nm_walk(sp, DephasingConfig(fig4["delta_n"], duration),
                                    n_steps=fig4["steps"])
            assert measure == repr(got[1].measure)

    def test_zero_contrast_yields_zero_measure(self, tmp_path):
        assert run_cli(
            "open-walk-nm", "--out", str(tmp_path),
            "--set", "delta_n=0", "--set", "steps=4",
        ) == 0
        _, rows = read_csv(tmp_path / "open_walk_nm.csv")
        filt = [r for r in rows if r[3] == "filter"]
        assert filt
        for r in filt:
            assert float(r[1]) == 0.0
            assert float(r[2]) == 0.0

    @staticmethod
    def fig4_filter_measure(tmp_path, steps):
        assert run_cli("open-walk-nm", "--preset", "fig4", "--out", str(tmp_path),
                       "--set", f"steps={steps}", "--set", "sweep.count=1",
                       "--set", "a_values=[0.0]") == 0
        _, rows = read_csv(tmp_path / "open_walk_nm.csv")
        (row,) = [r for r in rows if r[3] == "filter"]
        return float(row[2])

    def test_parity_compression_lifts_step_cap(self, tmp_path):
        # 64 steps: the dense reference below solves 2 (64 + 1) = 130-dimensional
        # densities on the occupied sites
        steps = 64
        got = self.fig4_filter_measure(tmp_path, steps)
        cfg = resolve_config("open-walk-nm")
        dt = cfg["sweep"]["min"] * 2.0 * math.pi / (cfg["delta_omega"] * cfg["delta_n"])
        flt = openwalk.DephasingFilter(cli.build_spectrum(cfg, 0.0),
                                       DephasingConfig(cfg["delta_n"], dt))
        distances = []
        for n in range(steps + 1):
            diff = (openwalk.pure_walk_density(walk.walk_evolve(1.0, 0.0, n)).matrix
                    - openwalk.pure_walk_density(walk.walk_evolve(0.0, 1.0, n)).matrix)
            # [f(y - x)] over every site pair, spread over the 2x2 coin blocks
            xs = np.arange(-n, n + 1, 2, dtype=float)
            full = diff * np.kron(flt(xs[None, :] - xs[:, None]), np.ones((2, 2)))
            distances.append(0.5 * np.sum(np.abs(np.linalg.eigvalsh(full))))
        want = nonmarkov.nm_measure(np.array(distances), cfg["threshold"]).measure
        assert got == pytest.approx(want, abs=1e-12)

    def test_largest_step_count_under_cap(self, tmp_path):
        assert math.isfinite(self.fig4_filter_measure(tmp_path, 127))

    def test_step_cap_named(self, tmp_path, capsys, monkeypatch):
        # one step past the walk measure's reach for one A and one sweep
        # value (two filters with the strong limit) is refused by name before
        # --out exists and before any walk or eigensolve
        fits = walk_measure_reaches()["steps"]
        calls = record_calls(monkeypatch, walk.walk_step, kernels.hermitian_eigvals)
        out = tmp_path / "out"
        assert run_cli("open-walk-nm", "--preset", "fig4", "--out", str(out),
                       "--set", f"steps={fits + 1}", "--set", "sweep.count=1",
                       "--set", "a_values=[0.0]") == 2
        err = capsys.readouterr().err
        assert f"'steps' = {fits + 1} x 1 sweep values x 1 spectra" in err
        assert "MAX_GRID_BYTES" in err
        assert not out.exists()
        assert calls == {"walk_step": [], "hermitian_eigvals": []}

    @pytest.mark.parametrize("matrices", [0, 1, 3])
    def test_chunked_stacks_match_one_chunk(self, tmp_path, monkeypatch, matrices):
        argv = ["open-walk-nm", "--preset", "fig4", "--set", "sweep.count=5", "--set", "steps=6"]
        stacks = record_calls(monkeypatch, kernels.hermitian_eigvals)["hermitian_eigvals"]
        assert run_cli(*argv, "--out", str(tmp_path / "one")) == 0
        unchunked = len(stacks)
        # a budget with room for the 16 filters' table and, at the last step,
        # d = 14, one eigensolve and the step's own arrays (the least the
        # run allows), plus this many more eigensolves
        matrix = kernels.eigensolve_bytes((14, 14))
        budget = nonmarkov.walk_measure_bytes(6, 16) + matrices * matrix
        table = nonmarkov.walk_measure_bytes(6, 16) - nonmarkov.walk_measure_bytes(6, 0)
        monkeypatch.setattr(errors, "MAX_GRID_BYTES", budget)
        stacks.clear()
        assert run_cli(*argv, "--out", str(tmp_path / "chunked")) == 0
        assert len(stacks) > unchunked  # several chunks per step
        assert {stack.dtype for stack, in stacks} == {np.dtype(float), np.dtype(complex)}
        # each chunk leaves the table and one matrix of its step for the
        # step's own arrays
        assert all(kernels.eigensolve_bytes(stack.shape) + kernels.eigensolve_bytes(stack.shape[1:])
                   <= budget - table for stack, in stacks)
        assert max(len(stack) for stack, in stacks if stack.shape[-1] == 14) == 1 + matrices
        assert ((tmp_path / "chunked" / "open_walk_nm.csv").read_bytes()
                == (tmp_path / "one" / "open_walk_nm.csv").read_bytes())

    def test_fig4_work_pattern(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, kernels.hermitian_eigvals, walk.walk_evolve,
                             kernels.walk_run, spectra.decoherence_function, kernels.coin_shift,
                             nonmarkov.nm_measure)
        assert run_cli("open-walk-nm", "--preset", "fig4", "--out", str(tmp_path)) == 0
        fig4 = PRESETS["fig4"]
        count, steps = fig4["sweep"]["count"], fig4["steps"]
        filters = len(fig4["a_values"]) * count
        # per step at most one stack per route, real and complex, each in one
        # chunk, and every filter and the strong limit solved once
        for n in range(fig4["steps"] + 1):
            step = [stack for stack, in calls["hermitian_eigvals"] if stack.shape[-1] == 2 * (n + 1)]
            assert len({stack.dtype for stack in step}) == len(step) <= 2
            assert sum(len(stack) for stack in step) == filters + 1
        assert len(calls["walk_evolve"]) == 0 and len(calls["walk_run"]) == 0
        # one kappa table per A over every interaction time, the coin pair
        # stepped as one array, and one measure call for every row
        assert [np.shape(args[2]) for args in calls["decoherence_function"]] \
            == [(count, 2 * steps + 1)] * len(fig4["a_values"])
        assert [np.shape(args[0]) for args in calls["coin_shift"]] \
            == [(n + 1, 2) for n in range(steps)]
        assert [np.shape(args[0]) for args in calls["nm_measure"]] == [(filters + 1, steps + 1)]


class TestOracleCommand:
    def test_oracle_work_pattern(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, openwalk.discretize_spectrum, openwalk.dilation_oracle,
                             openwalk.open_walk_evolve, walk.walk_evolve, kernels.walk_run,
                             walk.walk_step, kernels.coin_shift)
        assert run_cli("oracle", "--out", str(tmp_path)) == 0
        opts = resolve_config("oracle")["oracle"]
        # each environment is discretized and stepped once, the first, which
        # the position check reads too, once more per coin of the measure
        # check, and the walk once; the measure's pair and the integral
        # check's two coins each step as one (sites, 2) array
        assert [args[1] for args in calls["discretize_spectrum"]] \
            == opts["n_freqs"] + opts["n_freqs"][:1] * 2
        assert len(calls["walk_step"]) == max(opts["max_steps"], opts["position_check_steps"])
        assert [np.shape(args[0]) for args in calls["coin_shift"] if np.shape(args[0])[1:] == (2,)] \
            == [(n + 1, 2) for steps in (opts["max_steps"], opts["walk_steps"]) for n in range(steps)]
        for name in ("dilation_oracle", "open_walk_evolve", "walk_evolve", "walk_run"):
            assert calls[name] == [], name

    def test_series_vs_quadrature_makes_one_series_stack_call(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, harmonic.series_map_stacks,
                             harmonic.quadrature_map_stacks)
        assert run_cli("oracle", "--out", str(tmp_path)) == 0
        power = resolve_config("oracle")["oracle"]["engine_max_power"]
        with_tables = [args for args in calls["series_map_stacks"]
                       if any(table is not None for table in args[2])]
        assert len(with_tables) == 1
        etas, steps, tables = with_tables[0]
        assert list(etas) == [0.0, 0.5, 1.0] and steps == power
        assert [spectrum.amplitude_ratio for spectrum, _ in tables] == [0.0, 1.0]
        # the quadrature engine counts both A in one call, then walks every
        # eta at once, one walk per A
        [(etas, steps, tables)] = calls["quadrature_map_stacks"]
        assert list(etas) == [0.0, 0.5, 1.0] and steps == power
        assert [spectrum.amplitude_ratio for spectrum, _ in tables] == [0.0, 1.0]

    def test_walk_check_builds_one_grid_pair(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, kernels.composite_gauss_legendre)
        grids = calls["composite_gauss_legendre"]
        checked = openwalk.integral_recursion_deviation
        during = []

        def counted(steps, coins):
            before = len(grids)
            result = checked(steps, coins)
            during.append(len(grids) - before)
            return result

        monkeypatch.setattr(openwalk, "integral_recursion_deviation", counted)
        assert run_cli("oracle", "--out", str(tmp_path)) == 0
        assert during == [2]

    def test_nan_deviation_fails_its_check(self, tmp_path, monkeypatch):
        original = openwalk.dilation_densities

        def poisoned(*args):
            for rho, omegas, weights in original(*args):
                if rho.steps == 1:
                    rho.matrix[0, 0] = np.nan
                yield rho, omegas, weights

        monkeypatch.setattr(openwalk, "dilation_densities", poisoned)
        assert run_cli("oracle", "--out", str(tmp_path), "--set", "oracle.max_steps=2",
                       "--set", "oracle.n_freqs=[8]", "--set", "oracle.walk_steps=2",
                       "--set", "oracle.engine_max_power=2") == 2
        report = read_strict_json(tmp_path / "oracle_report.json")
        # the two checks that read the dilation at n = 1 keep the NaN and fail
        failed = {c["name"]: c for c in report["checks"] if not c["pass"]}
        assert sorted(failed) == ["dilation_vs_filter_K8", "measure_vs_dilation"]
        assert all(c["max_dev"] is None for c in failed.values())
        assert failed["dilation_vs_filter_K8"]["location"] == "n=1, entry=(0,0)"
        assert failed["measure_vs_dilation"]["location"] == "n=1"

    def test_default_checks_pass(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, openwalk.oracle_checks)
        # the probe spectrum is the one the config asks for: A = 0.7 by
        # default, and the one-peak spectrum at A = 0
        for argv, amplitude_ratio in [([], 0.7), (["--set", "A=0"], 0.0)]:
            out = tmp_path / f"A{amplitude_ratio}"
            assert run_cli(
                "oracle", "--out", str(out),
                "--set", "oracle.max_steps=3", "--set", "oracle.n_freqs=[8,16]",
                "--set", "oracle.walk_steps=6", *argv,
            ) == 0
            assert calls["oracle_checks"].pop()[0].amplitude_ratio == amplitude_ratio
            report = json.loads((out / "oracle_report.json").read_text())
            assert report["all_pass"] is True
            for check in report["checks"]:
                assert set(check) >= {"name", "max_dev", "tol", "pass", "location"}

    def test_dilation_runs_at_fig4_steps(self, tmp_path):
        # the paper's construction checked at fig4's 10 steps, K up to 64
        assert run_cli("oracle", "--out", str(tmp_path), "--set", "oracle.max_steps=10",
                       "--set", "oracle.n_freqs=[8,16,32,64]") == 0
        report = read_strict_json(tmp_path / "oracle_report.json")
        assert report["all_pass"] is True
        dilation = [c for c in report["checks"] if c["name"].startswith("dilation_vs_filter")]
        assert [c["K"] for c in dilation] == [8, 16, 32, 64]
        assert all(c["steps"] == {"first": 0, "last": 10, "stride": 1} for c in dilation)

    @pytest.mark.parametrize("field,n_freqs", [
        # the dilation check runs at the largest K, the position stream at the first
        pytest.param("oracle.max_steps", "[8,64]", id="max_steps"),
        pytest.param("oracle.position_check_steps", "[64,8]", id="position_check_steps"),
    ])
    def test_dilation_refused_before_stepping(self, capsys, tmp_path, monkeypatch, field, n_freqs):
        # the largest run within MAX_GRID_BYTES at K = 64 validates; one step
        # more exits 2, naming both of oracle_checks' arguments, before --out
        # exists or any step
        fits = max(n for n in range(1000) if openwalk.dilation_bytes(n, 64) <= errors.MAX_GRID_BYTES)
        assert resolve_config("oracle", overrides=[("oracle.n_freqs", json.loads(n_freqs)),
                                                   (field, fits)])
        calls = record_calls(monkeypatch, kernels.coin_shift)
        out = tmp_path / "out"
        assert run_cli("oracle", "--out", str(out), "--set", f"{field}={fits + 1}",
                       "--set", f"oracle.n_freqs={n_freqs}") == 2
        err = capsys.readouterr().err
        assert f"{field.split('.')[1]} = {fits + 1} x n_freqs = 64" in err
        assert "MAX_GRID_BYTES" in err
        assert not out.exists()
        assert calls == {"coin_shift": []}

    def test_measure_refused_before_stepping(self, capsys, tmp_path, monkeypatch):
        # measure_vs_dilation runs the walk measure of one filter over
        # 'oracle.max_steps'; the dilation's count reaches further at these K
        # (813 steps at K = 8), so the measure's count alone bounds the field
        # there: the edge at each K is within both counts, and one step more
        # exits 2 by name before --out exists or any step
        fits = walk_measure_reaches()["oracle_steps"]
        calls = record_calls(monkeypatch, kernels.coin_shift)
        for k in (8, 32, 64):
            assert openwalk.dilation_bytes(fits + 1, k) <= errors.MAX_GRID_BYTES
            out = tmp_path / f"K{k}"
            assert run_cli("oracle", "--out", str(out), "--set", f"oracle.max_steps={fits + 1}",
                           "--set", f"oracle.n_freqs=[{k}]") == 2
            err = capsys.readouterr().err
            assert f"max_steps = {fits + 1} would exceed" in err and "MAX_GRID_BYTES" in err
            assert not out.exists()
        assert calls == {"coin_shift": []}

    def test_measure_check_reads_the_measure_route(self, tmp_path, monkeypatch):
        # a planted defect in the walk measure's real gauge (every filter
        # taken as real, so the two-peak filter loses its imaginary part)
        # fails measure_vs_dilation alone
        original = nonmarkov.filter_table_gauge

        def all_real(table):
            return np.ones(len(table), dtype=bool), original(table)[1]

        monkeypatch.setattr(nonmarkov, "filter_table_gauge", all_real)
        assert run_cli("oracle", "--out", str(tmp_path), "--set", "oracle.max_steps=6") == 2
        report = read_strict_json(tmp_path / "oracle_report.json")
        (failed,) = [c for c in report["checks"] if not c["pass"]]
        assert failed["name"] == "measure_vs_dilation"
        assert failed["K"] == 8 and failed["steps"] == {"first": 0, "last": 6, "stride": 1}
        assert failed["max_dev"] > 1e-6

    def test_position_check_reads_the_dilation(self, tmp_path, monkeypatch):
        # p(x) comes from the first K's dilation stream, stepped on past
        # max_steps: weight moved between two sites at a step only the
        # position check reads fails that check alone
        original = openwalk.dilation_densities

        def moved(c_left, c_right, steps, *args):
            for rho, omegas, weights in original(c_left, c_right, steps, *args):
                if steps == 7 and rho.steps == 6:
                    rho.matrix[0, 0] += 2e-6
                    rho.matrix[2, 2] -= 1e-6
                    rho.matrix[4, 4] -= 1e-6
                yield rho, omegas, weights

        monkeypatch.setattr(openwalk, "dilation_densities", moved)
        assert run_cli("oracle", "--out", str(tmp_path), "--set", "oracle.max_steps=3",
                       "--set", "oracle.position_check_steps=7") == 2
        report = read_strict_json(tmp_path / "oracle_report.json")
        (failed,) = [c for c in report["checks"] if not c["pass"]]
        assert failed["name"] == "position_distribution_invariance"
        assert failed["location"] == "n=6, x=-6"
        assert failed["max_dev"] == pytest.approx(2e-6, rel=1e-6)

    def test_entries_record_what_they_covered(self, tmp_path):
        # each dilation entry names its K and the steps it compared, and the
        # position entry the steps it sampled, so every step count shows
        reports = []
        for max_steps in (2, 3, 4):
            out = tmp_path / str(max_steps)
            assert run_cli("oracle", "--out", str(out), "--set", "oracle.n_freqs=[8,16]",
                           "--set", "oracle.walk_steps=2", "--set", f"oracle.max_steps={max_steps}",
                           "--set", "oracle.position_check_steps=7") == 0
            reports.append((out / "oracle_report.json").read_bytes())
            checks = {c["name"]: c for c in json.loads(reports[-1])["checks"]}
            for k in (8, 16):
                assert checks[f"dilation_vs_filter_K{k}"]["K"] == k
                assert checks[f"dilation_vs_filter_K{k}"]["steps"] \
                    == {"first": 0, "last": max_steps, "stride": 1}
            assert checks["position_distribution_invariance"]["steps"] \
                == {"first": 0, "last": 6, "stride": 3}
        assert len(set(reports)) == 3

    @pytest.mark.parametrize("power", [3, 6])
    def test_engine_entry_records_what_it_compared(self, tmp_path, power):
        # the engine entry names its controls, amplitude ratios and largest
        # power, and it alone of the non-dilation entries gains keys
        assert run_cli("oracle", "--out", str(tmp_path), "--set", "oracle.n_freqs=[8]",
                       "--set", "oracle.max_steps=2", "--set", "oracle.walk_steps=2",
                       "--set", f"oracle.engine_max_power={power}") == 0
        checks = {c["name"]: c for c in
                  json.loads((tmp_path / "oracle_report.json").read_text())["checks"]}
        engine = checks["series_vs_quadrature"]
        assert (engine["etas"], engine["A"], engine["m"]) == ([0.0, 0.5, 1.0], [0.0, 1.0], power)
        plain = {"name", "max_dev", "tol", "pass", "location"}
        assert set(engine) == plain | {"etas", "A", "m"}
        for name in ("catalan_closed_form", "walk_integral_vs_recursion", "eigensolver_identities"):
            assert set(checks[name]) == plain

    def test_perturbed_filter_reports_failure(self, tmp_path, monkeypatch):
        original = openwalk.discrete_filter

        def perturbed(*args):
            # f(+-4) moves by 1e-4, and the filter stays Hermitian Toeplitz
            exact = original(*args)
            return lambda d: exact(d) + np.where(np.abs(d) == 4, 1e-4, 0.0)

        monkeypatch.setattr(openwalk, "discrete_filter", perturbed)
        assert run_cli(
            "oracle", "--out", str(tmp_path),
            "--set", "oracle.max_steps=2", "--set", "oracle.n_freqs=[8]",
            "--set", "oracle.walk_steps=2",
        ) == 2
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["all_pass"] is False
        failing = [c for c in report["checks"] if not c["pass"]]
        assert failing and failing[0]["name"].startswith("dilation_vs_filter")
        assert failing[0]["location"]


class TestStrictJson:
    @pytest.mark.parametrize("argv", [
        ["dephasing", "--preset", "fig1"],
        ["controlled-qubit", "--preset", "fig2", "--set", "steps=6"],
        ["controlled-qubit", "--preset", "fig3", "--engine", "quadrature", "--set", "steps=4"],
        ["strong-limit-error", "--preset", "fig5", "--set", "steps=6"],
        ["walk", "--set", "steps=4", "--check-integrals"],
        ["open-walk-nm", "--preset", "fig4", "--set", "steps=3", "--set", "sweep.count=2"],
        ["oracle", "--set", "oracle.max_steps=2", "--set", "oracle.n_freqs=[8]"],
    ], ids=lambda argv: "-".join(argv[:3]))
    def test_every_written_json_parses_strictly(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        written = sorted(tmp_path.glob("*.json"))
        assert written
        for path in written:
            assert isinstance(read_strict_json(path), dict), path.name

    def test_non_finite_values_are_null(self, tmp_path):
        derived = {"nan": math.nan, "inf": [1.0, -math.inf], "pair": (np.float64(math.nan), 0.5)}
        cli.write_manifest(tmp_path / "m.json", "walk", {"steps": 2}, derived, [])
        doc = read_strict_json(tmp_path / "m.json")
        assert doc["derived"] == {"nan": None, "inf": [1.0, None], "pair": [None, 0.5]}


def reference_csv(header, columns) -> bytes:
    """The CSV bytes of ``columns`` formatted value by value, row by row."""
    def text(value):
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return repr(float(value) + 0.0)
        return value

    lines = [",".join(header)] + [",".join(map(text, row)) for row in zip(*columns)]
    return "".join(line + "\n" for line in lines).encode("utf-8")


#: a CSV column's values by dtype; the floats add -0.0, the smallest subnormal
#: and the neighbours of 1e16, where repr switches to exponent form
CSV_VALUES = {
    "float64": st.one_of(st.floats(), st.sampled_from(
        [-0.0, 5e-324, -2.2250738585072014e-308, 9999999999999998.0, 1e16, math.nan, -math.inf])),
    "int64": st.integers(-2 ** 63, 2 ** 63 - 1),
    "bool": st.booleans(),
    "str": st.text(st.characters(codec="utf-8"), max_size=6),
}


@st.composite
def csv_columns(draw):
    count = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_VALUES)), min_size=1, max_size=6))
    columns = [draw(st.lists(CSV_VALUES[kind], min_size=count, max_size=count)) for kind in kinds]
    return [values if kind == "str" else np.array(values, dtype=kind)
            for kind, values in zip(kinds, columns)]


class TestCsvFormat:
    def test_row_mix_bytes(self, tmp_path):
        # ints and bools as words, floats by repr with -0.0 written 0.0,
        # numpy arrays as the Python values they hold, strings as they are
        columns = [
            [0, 12, -7],
            np.array([-3, 0, 9007199254740993], dtype=np.int64),
            [0.1, 1e-320, 0.0],
            np.array([0.1, 2.5e300, 0.0]),
            [-0.0, 1 / 3, 1e16],
            np.array([-0.0, -1 / 3, 123456789.0]),
            [True, False, True],
            np.array([False, True, True]),
            ["filter", "strong_limit", ""],
        ]
        cli.write_csv(tmp_path / "mix.csv", list("abcdefghi"), [columns])
        assert (tmp_path / "mix.csv").read_bytes() == (
            b"a,b,c,d,e,f,g,h,i\n"
            b"0,-3,0.1,0.1,0.0,0.0,true,false,filter\n"
            b"12,0,1e-320,2.5e+300,0.3333333333333333,-0.3333333333333333,false,true,strong_limit\n"
            b"-7,9007199254740993,0.0,0.0,1e+16,123456789.0,true,true,\n"
        )

    @given(columns=csv_columns())
    @settings(max_examples=200, deadline=None)
    def test_columns_match_row_by_row_reference(self, tmp_path_factory, columns):
        path = tmp_path_factory.getbasetemp() / "any.csv"  # rewritten by each example
        header = [f"c{i}" for i in range(len(columns))]
        cli.write_csv(path, header, [columns])
        assert path.read_bytes() == reference_csv(header, columns)

    @given(columns=csv_columns(), cut=st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_blocks_write_the_rows_of_one_block(self, tmp_path_factory, columns, cut):
        # a table streamed as two blocks, either of them possibly empty, is
        # the table written as one
        path = tmp_path_factory.getbasetemp() / "blocks.csv"
        header = [f"c{i}" for i in range(len(columns))]
        cli.write_csv(path, header, [[c[:cut] for c in columns], [c[cut:] for c in columns]])
        assert path.read_bytes() == reference_csv(header, columns)

    def test_unequal_columns_refused(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_csv(tmp_path / "bad.csv", ["a", "b"], [[[1, 2], [1.0]]])


def csv_table(path: Path):
    """(header, rows of floats) of a written numeric CSV."""
    header, rows = read_csv(path)
    return header, [[float(v) for v in row] for row in rows]


class TestCsvRowOrder:
    def test_controlled_qubit_rows_by_eta_then_step(self, tmp_path):
        # two equal etas: their rows interleave step by step, as a stable
        # sort on (eta, step) of the input order leaves them
        argv = ["controlled-qubit", "--preset", "fig2", "--set", "eta_values=[1.0,0.0,0.5,0.5]"]
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        cfg = resolve_config("controlled-qubit", "fig2", overrides=[("eta_values", [1.0, 0.0, 0.5, 0.5])])
        etas, steps = cfg["eta_values"], cfg["steps"]
        header, rows = csv_table(tmp_path / "controlled_qubit.csv")
        keys = [(row[0], row[1]) for row in rows]
        assert keys == sorted((eta, n) for eta in etas for n in range(steps + 1))
        stack = transfer_map_stack(cli.build_spectrum(cfg), cli.build_dephasing(cfg), etas, steps)
        r1, r2 = np.array(cfg["initial_bloch_1"]), np.array(cfg["initial_bloch_2"])
        for row in rows:
            maps = stack[etas.index(row[0]), int(row[1])]
            p1, p2 = maps @ r1, maps @ r2
            assert row[2:8] == [*p1.tolist(), *p2.tolist()]
            assert row[header.index("D")] == nonmarkov.bloch_trace_distances([p1], [p2])[0]

    def test_strong_limit_error_rows_by_factor_eta_step(self, tmp_path):
        factors, etas = [1.03, 0.02], [1.0, 0.0, 0.25]
        argv = ["strong-limit-error", "--preset", "fig5", "--set", "delta_t_factors=[1.03,0.02]",
                "--set", "eta_values=[1.0,0.0,0.25]"]
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        cfg = resolve_config("strong-limit-error", "fig5",
                             overrides=[("delta_t_factors", factors), ("eta_values", etas)])
        steps = cfg["steps"]
        _, rows = csv_table(tmp_path / "strong_limit_error.csv")
        keys = [tuple(row[:3]) for row in rows]
        assert keys == sorted((f, eta, m) for f in factors for eta in etas for m in range(steps + 1))
        dephasings = [cli.build_dephasing(cfg, delta_t=f * cli.revival_time(cfg)) for f in factors]
        errors = harmonic.approximation_error_stack(etas, steps, cli.build_spectrum(cfg), dephasings)
        for f, eta, m, err in rows:
            assert err == errors[factors.index(f), etas.index(eta), int(m)]


def test_cli_import_loads_no_undeclared_dependency():
    # scipy is installed but not declared, and numba is not used: importing the
    # CLI must load neither (each would also add to every run's start-up time)
    code = ("import sys, memoryflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numba')))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_figure_routes_leave_random_and_polynomial_unimported(tmp_path):
    # numpy loads both lazily; numpy.random alone adds about 5.5 MB to a fresh
    # process, and no figure route on the series engine needs either
    runs = [["dephasing", "--preset", "fig1"], ["controlled-qubit", "--preset", "fig2"],
            ["controlled-qubit", "--preset", "fig3"], ["strong-limit-error", "--preset", "fig5"],
            ["open-walk-nm", "--preset", "fig4"]]
    code = ("import json, sys\n"
            "from memoryflow import cli\n"
            "loaded = {}\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    assert cli.main(argv + ['--out', f'{sys.argv[2]}/{i}']) == 0\n"
            "    loaded[' '.join(argv)] = sorted(\n"
            "        m for m in ('numpy.random', 'numpy.polynomial') if m in sys.modules)\n"
            "print(json.dumps(loaded))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs), str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {" ".join(argv): [] for argv in runs}


def test_verification_routes_leave_random_unimported(tmp_path):
    # the oracle draws its eigensolver matrices from the standard library's
    # random; these routes need numpy.polynomial's Gauss rules, not numpy.random
    runs = [["oracle"], ["walk", "--check-integrals"],
            ["controlled-qubit", "--preset", "fig3", "--engine", "quadrature"]]
    code = ("import json, sys\n"
            "from memoryflow import cli\n"
            "loaded = {}\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    assert cli.main(argv + ['--out', f'{sys.argv[2]}/{i}']) == 0\n"
            "    loaded[' '.join(argv)] = sorted(\n"
            "        m for m in ('numpy.random', 'numpy.polynomial') if m in sys.modules)\n"
            "print(json.dumps(loaded))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs), str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {" ".join(argv): ["numpy.polynomial"] for argv in runs}


class TestDeterminism:
    @pytest.mark.parametrize("preset_name,command", [
        ("fig1", "dephasing"),
        ("fig2", "controlled-qubit"),
    ])
    def test_reruns_byte_identical(self, tmp_path, preset_name, command):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(command, "--preset", preset_name, "--out", str(out)) == 0
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("argv", [
        pytest.param(["dephasing", "--preset", "fig1"], id="fig1"),
        pytest.param(["controlled-qubit", "--preset", "fig2"], id="fig2"),
        pytest.param(["strong-limit-error", "--preset", "fig5"], id="fig5"),
        pytest.param(["open-walk-nm", "--preset", "fig4", "--set", "sweep.count=3"], id="fig4"),
        pytest.param(["walk", "--amplitudes", "--check-integrals", "--set", "steps=6"], id="walk"),
    ])
    def test_manifest_config_reproduces_run(self, tmp_path, argv):
        # the manifest records the fully resolved configuration: fed back
        # through --config alone, it writes every file again, byte for byte
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli(*argv, "--out", str(first)) == 0
        (manifest,) = first.glob("*_manifest.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads(manifest.read_text())["config"]), encoding="utf-8")
        assert run_cli(argv[0], "--config", str(config), "--out", str(again)) == 0
        files = sorted(first.iterdir())
        assert [f.name for f in files] == sorted(f.name for f in again.iterdir())
        for f in files:
            assert f.read_bytes() == (again / f.name).read_bytes(), f.name

    def test_parser_reuse_leaks_nothing(self, tmp_path):
        # one parser serves every call in a process: a run after a run with other
        # --engine and --set values writes what the same run writes alone
        argv = ["controlled-qubit", "--preset", "fig3", "--set", "eta_values=[1.0]"]
        cli.build_parser.cache_clear()
        assert run_cli(*argv, "--out", str(tmp_path / "alone")) == 0
        cli.build_parser.cache_clear()
        assert run_cli("controlled-qubit", "--preset", "fig3", "--engine", "quadrature",
                       "--set", "steps=4", "--set", "eta_values=[0.5]",
                       "--out", str(tmp_path / "first")) == 0
        assert run_cli(*argv, "--out", str(tmp_path / "second")) == 0
        assert cli.build_parser.cache_info().misses == 1
        alone = sorted((tmp_path / "alone").iterdir())
        assert [f.name for f in alone] == sorted(f.name for f in (tmp_path / "second").iterdir())
        for f in alone:
            assert f.read_bytes() == (tmp_path / "second" / f.name).read_bytes()

    def test_sweep_parallelism_does_not_change_bytes(self, tmp_path):
        args = [
            "open-walk-nm", "--preset", "fig4",
            "--set", "sweep.count=6", "--set", "steps=4",
        ]
        out1 = tmp_path / "serial"
        out2 = tmp_path / "threads"
        assert run_cli(*args, "--out", str(out1), "--jobs", "1") == 0
        assert run_cli(*args, "--out", str(out2), "--jobs", "4") == 0
        assert (out1 / "open_walk_nm.csv").read_bytes() == (out2 / "open_walk_nm.csv").read_bytes()
