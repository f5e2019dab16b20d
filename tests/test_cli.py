import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memoryflow import cli, harmonic, kernels, nonmarkov, openwalk, spectra, walk
from memoryflow.cli import main, resolve_config
from memoryflow.errors import ConfigError, ResourceLimitError
from memoryflow.presets import PRESETS
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
        pytest.param(["dephasing", "--set", "delta_t=-1"], "delta_t", id="delta_t-negative"),
        pytest.param(["controlled-qubit", "--set", 'engine="bogus"'], "engine", id="engine-unknown"),
        pytest.param(["open-walk-nm", "--set", 'sweep.parameter="bogus"'], "sweep.parameter",
                     id="sweep.parameter-unknown"),
        pytest.param(["controlled-qubit", "--set", "stepz=3"], "stepz", id="unknown-stepz"),
        pytest.param(["open-walk-nm", "--set", "sweep.cuont=2"], "sweep.cuont",
                     id="unknown-sweep.cuont"),
        pytest.param(["oracle", "--set", "oracle.bogus=1"], "oracle.bogus", id="unknown-oracle.bogus"),
        pytest.param(["open-walk-nm", "--set", "delta_omega=0"], "delta_omega",
                     id="delta_omega-zero-sweep"),
    ])
    def test_invalid_field_named_in_error(self, capsys, tmp_path, argv, field):
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["open-walk-nm", "--set", "sweep.count=2.0", "--set", "steps=2"], id="sweep.count"),
        pytest.param(["dephasing", "--set", "t_grid.points_per_revival=7.5",
                      "--set", "omega_grid.count=41.0"], id="dephasing-grids"),
        pytest.param(["walk", "--set", "steps=3", "--set", "integral_check_cap=2.0",
                      "--check-integrals"], id="integral_check_cap"),
    ])
    def test_numeric_fields_accept_floats(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("argv,field", [
        pytest.param(["dephasing", "--set", "t_grid.max_revivals=1e300"], "t_grid.max_revivals",
                     id="t_grid.max_revivals"),
        pytest.param(["dephasing", "--set", "t_grid.points_per_revival=1e12"],
                     "t_grid.points_per_revival", id="t_grid.points_per_revival"),
        pytest.param(["dephasing", "--set", "omega_grid.count=1e12"], "omega_grid.count",
                     id="omega_grid.count"),
        pytest.param(["open-walk-nm", "--set", "sweep.count=1e12"], "sweep.count", id="sweep.count"),
        pytest.param(["open-walk-nm", "--set", "steps=1000000000000"], "steps", id="sweep-steps"),
    ])
    def test_grid_refused_before_allocation(self, capsys, tmp_path, argv, field):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()  # refused while resolving, before the command ran

    @pytest.mark.parametrize("argv,field", [
        pytest.param(["walk", "--check-integrals", "--set", "steps=1000000",
                      "--set", "integral_check_cap=1e300"], "integral_check_cap", id="walk"),
        pytest.param(["walk", "--check-integrals", "--set", "steps=300",
                      "--set", "integral_check_cap=300"], "integral_check_cap", id="walk-300"),
        pytest.param(["oracle", "--set", "oracle.walk_steps=1000000000000"], "oracle.walk_steps",
                     id="oracle"),
    ])
    def test_integral_check_refused_before_allocation(self, capsys, tmp_path, monkeypatch,
                                                      argv, field):
        # the largest quasi-momentum table grows as steps^2: a check over
        # MAX_GRID_BYTES is refused by name before any grid or state exists
        calls = record_calls(monkeypatch, kernels.composite_gauss_legendre, walk.walk_step)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert run_cli(*argv, "--out", str(out)) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()
        assert calls == {"composite_gauss_legendre": [], "walk_step": []}
        assert peak < 1 << 20

    def test_integral_check_within_budget_runs(self, tmp_path):
        cap = max(m for m in range(400) if walk.integral_check_bytes(m) <= cli.MAX_GRID_BYTES)
        assert walk.integral_check_bytes(cap + 1) > cli.MAX_GRID_BYTES
        assert resolve_config("walk", overrides=[("check_integrals", True), ("steps", cap),
                                                 ("integral_check_cap", cap)])
        assert resolve_config("oracle", overrides=[("oracle.walk_steps", cap)])
        # without the check, the cap sizes nothing
        assert resolve_config("walk", overrides=[("steps", 10 ** 6), ("integral_check_cap", 10 ** 6)])

    @pytest.mark.parametrize("argv", [
        pytest.param(["oracle", "--set", "sigma=1e308"], id="oracle-huge-sigma"),
        pytest.param(["oracle", "--set", "sigma=1e-320"], id="oracle-subnormal-sigma"),
        pytest.param(["controlled-qubit", "--preset", "fig3", "--engine", "quadrature",
                      "--set", "sigma=1e308"], id="quadrature-huge-sigma"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_sigma_exceeds_quadrature_budget(self, capsys, tmp_path, argv):
        # the quadrature panel count overflows to infinity: a resource limit, not a traceback
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        assert "quadrature budget exceeded" in capsys.readouterr().err

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
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        for name, (kind, bounds, *_) in cli.FIELDS.items():
            assert f"| `{name}` | {kind}{f' in {bounds}' if bounds else ''} |" in readme, name

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("dephasing", "--bogus") == 1

    def test_bad_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run_cli("dephasing", "--config", str(bad)) == 1

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
    "count": st.floats(-1.0, 50.0) | st.integers(-1, 50),
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
    "count": lambda v: _finite(v) and int(v) >= 0,
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
        # one quadrature walk per eta serves every step and both initial states
        calls = {"quadrature_maps": 0, "quadrature_map": 0}
        for name in calls:
            original = getattr(harmonic, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(harmonic, name, counted)
        assert run_cli("controlled-qubit", "--preset", "fig3", "--engine", "quadrature",
                       "--out", str(tmp_path)) == 0
        assert calls == {"quadrature_maps": len(PRESETS["fig3"]["eta_values"]), "quadrature_map": 0}

    def test_fig2_work_pattern(self, tmp_path, monkeypatch):
        # one kappa table per command, shared by every eta; the powers stream
        # through no per-power product
        calls = record_calls(monkeypatch, spectra.decoherence_function, harmonic.series_multiply,
                             harmonic.integrate_series_against_spectrum)
        assert run_cli("controlled-qubit", "--preset", "fig2", "--out", str(tmp_path)) == 0
        fig2 = PRESETS["fig2"]
        assert [np.size(args[2]) for args in calls["decoherence_function"]] \
            == [2 * fig2["steps"] + 1]
        assert len(calls["series_multiply"]) == 0
        assert len(calls["integrate_series_against_spectrum"]) == 0

    def test_quadrature_rule_built_once_per_run(self, tmp_path):
        # every power of every eta shares the rule of the largest order
        kernels.gauss_legendre_rule.cache_clear()
        assert run_cli("controlled-qubit", "--preset", "fig3", "--engine", "quadrature",
                       "--set", "steps=130", "--out", str(tmp_path)) == 0
        assert kernels.gauss_legendre_rule.cache_info().misses == 1

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

    def test_fig5_work_pattern(self, tmp_path, monkeypatch):
        # one kappa table per delta_t factor and one stacked Choi eigensolve
        # for every (delta_t factor, eta, step)
        calls = record_calls(monkeypatch, kernels.hermitian_eigvals, spectra.decoherence_function)
        assert run_cli("strong-limit-error", "--preset", "fig5", "--out", str(tmp_path)) == 0
        fig5 = PRESETS["fig5"]
        factors, etas = len(fig5["delta_t_factors"]), len(fig5["eta_values"])
        assert [np.size(args[2]) for args in calls["decoherence_function"]] \
            == [2 * fig5["steps"] + 1] * factors
        assert [np.shape(args[0]) for args in calls["hermitian_eigvals"]] \
            == [(factors, etas, fig5["steps"] + 1, 4, 4)]


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

    def test_zero_contrast_yields_zero_measure(self, tmp_path):
        assert run_cli(
            "open-walk-nm", "--out", str(tmp_path),
            "--set", "delta_n=0", "--set", "delta_t=5.0", "--set", "steps=4",
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
        # 64 steps need dimension 2 (2 * 64 + 1) = 258 > MAX_EIG_DIM uncompressed
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
            full = diff * np.kron(flt.gram(n), np.ones((2, 2)))
            distances.append(0.5 * np.sum(np.abs(np.linalg.eigvalsh(full))))
        want = nonmarkov.nm_measure(np.array(distances), cfg["threshold"]).measure
        assert got == pytest.approx(want, abs=1e-12)

    def test_largest_step_count_under_cap(self, tmp_path):
        assert math.isfinite(self.fig4_filter_measure(tmp_path, 127))

    def test_step_cap_named(self, tmp_path, capsys):
        assert run_cli("open-walk-nm", "--preset", "fig4", "--out", str(tmp_path),
                       "--set", "steps=128", "--set", "sweep.count=1",
                       "--set", "a_values=[0.0]") == 2
        assert "eigensolver capped at dimension 256" in capsys.readouterr().err

    @pytest.mark.parametrize("matrices", [0, 1, 3])
    def test_chunked_stacks_match_one_chunk(self, tmp_path, monkeypatch, matrices):
        argv = ["open-walk-nm", "--preset", "fig4", "--set", "sweep.count=5", "--set", "steps=6"]
        assert run_cli(*argv, "--out", str(tmp_path / "one")) == 0
        # budget for this many matrices of the last step, d = 14 (0: one filter per chunk)
        budget = matrices * 14 * 14 * 16
        monkeypatch.setattr(nonmarkov, "STACK_BYTES", budget)
        stacks = []
        original = nonmarkov.hermitian_eigenvalues

        def recorded(stack):
            stacks.append(np.shape(stack))
            return original(stack)

        monkeypatch.setattr(nonmarkov, "hermitian_eigenvalues", recorded)
        assert run_cli(*argv, "--out", str(tmp_path / "chunked")) == 0
        assert len(stacks) > 7  # several chunks per step
        assert all(16 * np.prod(shape) <= max(budget, 16 * np.prod(shape[1:]))
                   for shape in stacks)
        assert ((tmp_path / "chunked" / "open_walk_nm.csv").read_bytes()
                == (tmp_path / "one" / "open_walk_nm.csv").read_bytes())

    def test_fig4_work_pattern(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, openwalk.hermitian_eigenvalues, walk.walk_evolve,
                             kernels.walk_run, spectra.decoherence_function)
        assert run_cli("open-walk-nm", "--preset", "fig4", "--out", str(tmp_path)) == 0
        fig4 = PRESETS["fig4"]
        filters = len(fig4["a_values"]) * fig4["sweep"]["count"]
        # one stacked eigensolve per step, all filters in one chunk
        assert len(calls["hermitian_eigenvalues"]) == fig4["steps"] + 1
        assert [np.shape(args[0])[0] for args in calls["hermitian_eigenvalues"]] \
            == [filters] * (fig4["steps"] + 1)
        assert len(calls["walk_evolve"]) == 0 and len(calls["walk_run"]) == 0
        assert 0 < len(calls["decoherence_function"]) <= filters


class TestOracleCommand:
    def test_oracle_work_pattern(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, openwalk.discretize_spectrum, openwalk.dilation_oracle,
                             openwalk.open_walk_evolve, openwalk.open_walk_evolve_discrete,
                             walk.walk_evolve, kernels.walk_run, walk.walk_step)
        assert run_cli("oracle", "--out", str(tmp_path)) == 0
        opts = resolve_config("oracle")["oracle"]
        # each environment is discretized and stepped once, and the walk once
        # (plus one walk per coin of the integral check)
        assert [args[1] for args in calls["discretize_spectrum"]] == opts["n_freqs"]
        assert len(calls["walk_step"]) == max(opts["max_steps"], opts["position_check_steps"]) \
            + 2 * opts["walk_steps"]
        for name in ("dilation_oracle", "open_walk_evolve", "open_walk_evolve_discrete",
                     "walk_evolve", "walk_run"):
            assert calls[name] == [], name

    def test_series_vs_quadrature_makes_one_series_stack_call(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, harmonic.series_map_stacks, harmonic.quadrature_maps)
        assert run_cli("oracle", "--out", str(tmp_path)) == 0
        power = resolve_config("oracle")["oracle"]["engine_max_power"]
        with_tables = [args for args in calls["series_map_stacks"] if len(args) > 2 and args[2]]
        assert len(with_tables) == 1
        etas, steps, tables = with_tables[0]
        assert list(etas) == [0.0, 0.5, 1.0] and steps == power
        assert [spectrum.amplitude_ratio for spectrum, _ in tables] == [0.0, 1.0]
        # the quadrature engine keeps one walk per (eta, A)
        assert len(calls["quadrature_maps"]) == 6

    def test_walk_check_builds_one_grid_pair(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, kernels.composite_gauss_legendre)
        grids = calls["composite_gauss_legendre"]
        checked = cli.integral_recursion_deviation
        during = []

        def counted(steps, coins):
            before = len(grids)
            result = checked(steps, coins)
            during.append(len(grids) - before)
            return result

        monkeypatch.setattr(cli, "integral_recursion_deviation", counted)
        assert run_cli("oracle", "--out", str(tmp_path)) == 0
        assert during == [2]

    def test_nan_deviation_fails_its_check(self, tmp_path, monkeypatch):
        original = cli.dilation_densities

        def poisoned(*args):
            for rho, omegas, weights in original(*args):
                if rho.steps == 1:
                    rho.matrix[0, 0] = np.nan
                yield rho, omegas, weights

        monkeypatch.setattr(cli, "dilation_densities", poisoned)
        assert run_cli("oracle", "--out", str(tmp_path), "--set", "oracle.max_steps=2",
                       "--set", "oracle.n_freqs=[8]", "--set", "oracle.walk_steps=2",
                       "--set", "oracle.engine_max_power=2") == 2
        report = read_strict_json(tmp_path / "oracle_report.json")
        (check,) = [c for c in report["checks"] if c["name"] == "dilation_vs_filter_K8"]
        assert check["pass"] is False and check["max_dev"] is None
        assert check["location"] == "n=1, entry=(0,0)"
        assert all(c["pass"] for c in report["checks"] if c is not check)

    def test_default_checks_pass(self, tmp_path):
        assert run_cli(
            "oracle", "--out", str(tmp_path),
            "--set", "oracle.max_steps=3", "--set", "oracle.n_freqs=[8,16]",
            "--set", "oracle.walk_steps=6",
        ) == 0
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["all_pass"] is True
        for check in report["checks"]:
            assert set(check) >= {"name", "max_dev", "tol", "pass", "location"}

    @pytest.mark.parametrize("setting", ["oracle.n_freqs=[100]", "oracle.max_steps=8"])
    def test_check_cut_short_is_not_a_pass(self, tmp_path, capsys, setting):
        assert run_cli(
            "oracle", "--out", str(tmp_path), "--set", "oracle.n_freqs=[8]",
            "--set", "oracle.walk_steps=2", "--set", "oracle.engine_max_power=2",
            "--set", "oracle.position_check_steps=3", "--set", setting,
        ) == 2
        assert "did not run" in capsys.readouterr().err
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["all_pass"] is False
        cut = [c for c in report["checks"] if "skipped" in c]
        assert cut and all(c["pass"] is False for c in cut)
        assert all(c["pass"] for c in report["checks"] if "skipped" not in c)

    def test_perturbed_filter_reports_failure(self, tmp_path, monkeypatch):
        original = cli.filtered_density

        def perturbed(*args):
            rho = original(*args)
            target = min(4, rho.matrix.shape[0] - 1)
            rho.matrix[0, target] += 1e-4
            rho.matrix[target, 0] += 1e-4
            return rho

        monkeypatch.setattr(cli, "filtered_density", perturbed)
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


class TestCsvFormat:
    def test_row_mix_bytes(self, tmp_path):
        # ints and bools as words, floats by repr with -0.0 written 0.0,
        # numpy scalars as the Python values they hold, strings as they are
        rows = [
            (0, np.int64(-3), 0.1, np.float64(0.1), -0.0, np.float64(-0.0), True, False, "filter"),
            (12, np.int64(0), 1e-320, np.float64(2.5e300), 1 / 3, np.float64(-1 / 3),
             False, True, "strong_limit"),
            (-7, np.int64(9007199254740993), 0.0, np.float64(0.0), 1e16, np.float64(123456789.0),
             True, True, ""),
        ]
        cli.write_csv(tmp_path / "mix.csv", list("abcdefghi"), rows)
        assert (tmp_path / "mix.csv").read_bytes() == (
            b"a,b,c,d,e,f,g,h,i\n"
            b"0,-3,0.1,0.1,0.0,0.0,true,false,filter\n"
            b"12,0,1e-320,2.5e+300,0.3333333333333333,-0.3333333333333333,false,true,strong_limit\n"
            b"-7,9007199254740993,0.0,0.0,1e+16,123456789.0,true,true,\n"
        )


def test_cli_import_loads_no_undeclared_dependency():
    # scipy is installed but not declared, and numba is not used: importing the
    # CLI must load neither (each would also add to every run's start-up time)
    code = ("import sys, memoryflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numba')))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


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
