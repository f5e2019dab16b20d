"""Reproducibility surface: one subcommand per reference figure plus the
oracle harness.  JSON config in, CSV + JSON-manifest out.

Exit codes: 0 success, 1 usage/config error, 2 numeric or oracle failure,
3 I/O error.  Identical configuration produces byte-identical output files;
sweep rows are sorted before writing.  The ``jobs`` field (``--jobs``) is
validated and recorded but has no effect: sweeps run serially in one thread.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, harmonic, kernels
from .errors import ConfigError, DomainError, NumericError, ResourceLimitError
from .nonmarkov import nm_measure, nm_walk
from .openwalk import (
    DephasingFilter,
    dilation_oracle,
    hermitian_eigenvalues,
    open_walk_evolve,
    open_walk_evolve_discrete,
    pure_walk_density,
)
from .presets import PRESETS, preset
from .qubit import evolve_qubit, trace_distance_bloch
from .spectra import (
    DephasingConfig,
    SpectrumParams,
    decoherence_function,
    dimensionless_interaction_time,
    spectral_density,
)
from .walk import walk_amplitudes_integral, walk_evolve

COMMANDS = (
    "dephasing",
    "controlled-qubit",
    "strong-limit-error",
    "walk",
    "open-walk-nm",
    "oracle",
)

_COMMON_DEFAULTS = {
    "A": 0.0,
    "sigma": 1.0,
    "mu1": 15.0,
    "delta_omega": 9.0,
    "delta_n": 0.009,
    "delta_t": None,
    "delta_t_factor": None,
    "engine": "series",
    "jobs": 1,
    "seed": 0,
    "threshold": 1e-12,
    "out_dir": ".",
}

_COMMAND_DEFAULTS: dict[str, dict] = {
    "dephasing": {
        "a_values": [0.0, 1.0],
        "t_grid": {"max_revivals": 3.2, "points_per_revival": 8},
        "omega_grid": {"pad_sigmas": 5.0, "count": 241},
    },
    "controlled-qubit": {
        "delta_t_factor": 0.014,
        "eta_values": [0.0, 0.5, 1.0],
        "steps": 30,
        "initial_bloch_1": [1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)],
        "initial_bloch_2": [-1.0 / math.sqrt(2.0), 0.0, -1.0 / math.sqrt(2.0)],
    },
    "strong-limit-error": {
        "delta_t_factors": [0.02, 1.03],
        "eta_values": [0.0, 0.25, 0.5, 0.75, 1.0],
        "steps": 15,
    },
    "walk": {
        "steps": 10,
        "initial_coin_1": [[1.0, 0.0], [0.0, 0.0]],
        "amplitudes": False,
        "check_integrals": False,
        "integral_check_cap": 12,
    },
    "open-walk-nm": {
        "a_values": [0.0, 0.5, 1.0],
        "steps": 10,
        "sweep": {"parameter": "dt_omega_dn", "min": 0.025, "max": 4.0, "count": 160},
    },
    "oracle": {
        "oracle": {
            "max_steps": 4,
            "n_freqs": [8, 16, 32],
            "walk_steps": 8,
            "position_check_steps": 12,
            "engine_max_power": 10,
            "perturbation": 0.0,
        },
    },
}


class OracleFailure(RuntimeError):
    """An oracle/consistency check exceeded its tolerance."""


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _deep_update(base: dict, overlay: dict) -> dict:
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = copy.deepcopy(value)
    return base


def _set_dotted(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def resolve_config(command: str, preset_name=None, config_path=None,
                   overrides=None, flat_overrides=None) -> dict:
    """defaults < preset < config file < --set overrides < dedicated flags."""
    cfg = copy.deepcopy(_COMMON_DEFAULTS)
    _deep_update(cfg, copy.deepcopy(_COMMAND_DEFAULTS.get(command, {})))
    if preset_name is not None:
        try:
            p = preset(preset_name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
        preset_command = p.pop("command", command)
        if preset_command != command:
            raise ConfigError(
                f"preset {preset_name!r} targets command {preset_command!r}, not {command!r}"
            )
        _deep_update(cfg, p)
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        loaded.pop("command", None)
        _deep_update(cfg, loaded)
    for dotted, value in (overrides or []):
        _set_dotted(cfg, dotted, value)
    for key, value in (flat_overrides or {}).items():
        if value is not None:
            cfg[key] = value
    validate_config(command, cfg)
    return cfg


def _require_number(cfg, field, low=None, high=None, strict_low=False):
    value = cfg.get(field)
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ConfigError(f"field {field!r} must be a finite number")
    if low is not None and (value <= low if strict_low else value < low):
        raise ConfigError(f"field {field!r} must be {'>' if strict_low else '>='} {low}")
    if high is not None and value > high:
        raise ConfigError(f"field {field!r} must be <= {high}")
    return float(value)


def validate_config(command: str, cfg: dict) -> None:
    _require_number(cfg, "sigma", low=0.0, strict_low=True)
    _require_number(cfg, "mu1")
    _require_number(cfg, "delta_omega", low=0.0)
    _require_number(cfg, "delta_n")
    _require_number(cfg, "A", low=0.0, high=1.0)
    if cfg.get("delta_t") is not None and cfg.get("delta_t_factor") is not None:
        raise ConfigError("give delta_t or delta_t_factor, not both")
    for field in ("eta_values", "a_values", "delta_t_factors"):
        values = cfg.get(field)
        if values is not None and (not isinstance(values, list) or not values):
            raise ConfigError(f"field {field!r} must be a non-empty list")
    if "eta_values" in cfg and cfg.get("eta_values"):
        for v in cfg["eta_values"]:
            if not 0.0 <= v <= 1.0:
                raise ConfigError("field 'eta_values' entries must lie in [0, 1]")
    if "steps" in cfg:
        if not isinstance(cfg["steps"], int) or cfg["steps"] < 0:
            raise ConfigError("field 'steps' must be a non-negative integer")
    if command == "open-walk-nm":
        sweep = cfg.get("sweep")
        if not isinstance(sweep, dict):
            raise ConfigError("field 'sweep' must be an object")
        if int(sweep.get("count", 0)) < 1:
            raise ConfigError("field 'sweep.count' must be >= 1")
        if not float(sweep.get("min", 0.0)) <= float(sweep.get("max", 0.0)):
            raise ConfigError("field 'sweep.min' must not exceed 'sweep.max'")
    if command == "walk":
        coin = cfg.get("initial_coin_1")
        ok = (
            isinstance(coin, list) and len(coin) == 2
            and all(isinstance(c, list) and len(c) == 2 for c in coin)
        )
        if not ok:
            raise ConfigError("field 'initial_coin_1' must be [[reL, imL], [reR, imR]]")
    if not isinstance(cfg.get("jobs", 1), int) or cfg.get("jobs", 1) < 1:
        raise ConfigError("field 'jobs' must be a positive integer")


def build_spectrum(cfg: dict, a_value=None) -> SpectrumParams:
    try:
        return SpectrumParams(
            amplitude_ratio=cfg["A"] if a_value is None else float(a_value),
            sigma=cfg["sigma"],
            mu1=cfg["mu1"],
            delta_omega=cfg["delta_omega"],
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def revival_time(cfg: dict) -> float:
    dn = abs(cfg["delta_n"])
    if dn == 0.0 or cfg["delta_omega"] == 0.0:
        raise ConfigError("revival-scaled durations need delta_n != 0 and delta_omega != 0")
    return 2.0 * math.pi / (cfg["delta_omega"] * dn)


def resolve_delta_t(cfg: dict) -> float:
    if cfg.get("delta_t") is not None:
        return _require_number(cfg, "delta_t", low=0.0, strict_low=True)
    factor = cfg.get("delta_t_factor")
    if factor is None:
        raise ConfigError("one of delta_t or delta_t_factor is required")
    return float(factor) * revival_time(cfg)


def build_dephasing(cfg: dict, delta_t=None) -> DephasingConfig:
    try:
        return DephasingConfig(
            index_contrast=cfg["delta_n"],
            step_duration=resolve_delta_t(cfg) if delta_t is None else float(delta_t),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v == 0.0:
            v = 0.0  # normalize -0.0
        return repr(v)
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_manifest(path: Path, command: str, cfg: dict, derived: dict, outputs: list[str]) -> None:
    doc = {
        "artifact_version": __version__,
        "backend": kernels.BACKEND,
        "command": command,
        "config": cfg,
        "derived": derived,
        "outputs": sorted(outputs),
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _a_label(a: float) -> str:
    return f"A{a:g}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dephasing(cfg: dict, out_dir: Path) -> int:
    t_rev = revival_time(cfg)
    grid = cfg["t_grid"]
    step = t_rev / float(grid["points_per_revival"])
    count = int(math.floor(float(grid["max_revivals"]) * float(grid["points_per_revival"]))) + 1
    ts = step * np.arange(count)
    og = cfg["omega_grid"]
    outputs = []
    derived = {
        "revival_time": t_rev,
        "separation_frequency": cfg["delta_omega"] / (2.0 * math.pi),
        "t_grid_step": step,
    }
    for a in cfg["a_values"]:
        spectrum = build_spectrum(cfg, a)
        kap = np.abs(decoherence_function(spectrum, cfg["delta_n"], ts))
        name = f"dephasing_kappa_{_a_label(a)}.csv"
        write_csv(out_dir / name, ["t", "abs_kappa"], zip(ts.tolist(), kap.tolist()))
        outputs.append(name)
        lo = spectrum.mu1 - float(og["pad_sigmas"]) * spectrum.sigma
        hi = spectrum.mu2 + float(og["pad_sigmas"]) * spectrum.sigma
        omegas = np.linspace(lo, hi, int(og["count"]))
        dens = spectral_density(spectrum, omegas)
        name = f"dephasing_spectrum_{_a_label(a)}.csv"
        write_csv(out_dir / name, ["omega", "density"], zip(omegas.tolist(), dens.tolist()))
        outputs.append(name)
    write_manifest(out_dir / "dephasing_manifest.json", "dephasing", cfg, derived, outputs)
    return 0


def cmd_controlled_qubit(cfg: dict, out_dir: Path) -> int:
    spectrum = build_spectrum(cfg)
    dephasing = build_dephasing(cfg)
    r1 = np.asarray(cfg["initial_bloch_1"], dtype=float)
    r2 = np.asarray(cfg["initial_bloch_2"], dtype=float)
    rows = []
    for eta in cfg["eta_values"]:
        traj1 = evolve_qubit(spectrum, dephasing, eta, r1, cfg["steps"], engine=cfg["engine"])
        traj2 = evolve_qubit(spectrum, dephasing, eta, r2, cfg["steps"], engine=cfg["engine"])
        cumulative = 0.0
        previous = None
        for n in range(cfg["steps"] + 1):
            d = trace_distance_bloch(traj1[n], traj2[n])
            inc = 0.0 if previous is None else d - previous
            if n > 0 and inc > cfg["threshold"]:
                cumulative += inc
            previous = d
            rows.append((
                float(eta), n,
                traj1[n][0], traj1[n][1], traj1[n][2],
                traj2[n][0], traj2[n][1], traj2[n][2],
                d, inc, cumulative,
            ))
    rows.sort(key=lambda r: (r[0], r[1]))
    name = "controlled_qubit.csv"
    write_csv(
        out_dir / name,
        ["eta", "step", "r1x", "r1y", "r1z", "r2x", "r2y", "r2z", "D", "increment", "N_cum"],
        rows,
    )
    derived = {
        "delta_t": dephasing.step_duration,
        "period_omega": dephasing.period_omega,
        "period_over_sigma": dephasing.period_omega / spectrum.sigma,
        "dt_omega_dn": dimensionless_interaction_time(spectrum, dephasing),
    }
    write_manifest(out_dir / "controlled_qubit_manifest.json", "controlled-qubit", cfg, derived, [name])
    return 0


def cmd_strong_limit_error(cfg: dict, out_dir: Path) -> int:
    if cfg["engine"] == "strong-limit":
        raise ConfigError("the error command compares against the strong limit; use series or quadrature")
    spectrum = build_spectrum(cfg)
    rows = []
    period_over_sigma = {}
    for factor in cfg["delta_t_factors"]:
        dephasing = build_dephasing(cfg, delta_t=float(factor) * revival_time(cfg))
        period_over_sigma[f"{factor:g}"] = dephasing.period_omega / spectrum.sigma
        for eta in cfg["eta_values"]:
            for m in range(cfg["steps"] + 1):
                err = harmonic.approximation_error(eta, m, spectrum, dephasing, engine=cfg["engine"])
                rows.append((float(factor), float(eta), m, err))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    name = "strong_limit_error.csv"
    write_csv(out_dir / name, ["dt_factor", "eta", "step", "error"], rows)
    derived = {"period_over_sigma": period_over_sigma}
    write_manifest(out_dir / "strong_limit_error_manifest.json", "strong-limit-error", cfg, derived, [name])
    return 0


def cmd_walk(cfg: dict, out_dir: Path) -> int:
    (re_l, im_l), (re_r, im_r) = cfg["initial_coin_1"]
    c_left = complex(re_l, im_l)
    c_right = complex(re_r, im_r)
    norm = abs(c_left) ** 2 + abs(c_right) ** 2
    if norm == 0.0:
        raise ConfigError("initial_coin_1 must be non-zero")
    c_left /= math.sqrt(norm)
    c_right /= math.sqrt(norm)
    rows = []
    norms = []
    for m in range(cfg["steps"] + 1):
        state = walk_evolve(c_left, c_right, m)
        norms.append(state.norm())
        for x in state.positions():
            if (m + x) % 2 != 0:
                continue
            i = x + m
            row = [m, int(x), abs(state.amp_left[i]) ** 2 + abs(state.amp_right[i]) ** 2]
            if cfg["amplitudes"]:
                row += [
                    state.amp_left[i].real, state.amp_left[i].imag,
                    state.amp_right[i].real, state.amp_right[i].imag,
                ]
            rows.append(tuple(row))
    header = ["step", "x", "p"]
    if cfg["amplitudes"]:
        header += ["cl_re", "cl_im", "cr_re", "cr_im"]
    name = "walk_distribution.csv"
    write_csv(out_dir / name, header, rows)
    derived: dict = {"norm_by_step": norms}
    worst = 0.0
    if cfg["check_integrals"]:
        cap = min(cfg["steps"], int(cfg["integral_check_cap"]))
        for m in range(cap + 1):
            state = walk_evolve(c_left, c_right, m)
            for x in range(-m, m + 1, 2):  # -m always has the right parity
                amps = walk_amplitudes_integral(m, x)
                got_l = c_left * amps.a_left + c_right * amps.a_right
                got_r = c_left * amps.b_left + c_right * amps.b_right
                want_l, want_r = state.coin_pair_at(x)
                worst = max(worst, abs(got_l - want_l), abs(got_r - want_r))
        derived["integral_max_deviation"] = worst
        derived["integral_check_steps"] = cap
    write_manifest(out_dir / "walk_manifest.json", "walk", cfg, derived, [name])
    if cfg["check_integrals"] and worst > 1e-6:
        raise NumericError(f"integral amplitudes deviate from recursion by {worst:.3e}")
    return 0


def _walk_nm_over_sweep(cfg: dict, out_dir: Path):
    """(rows, derived) for the interaction-time sweep of the walk measure."""
    steps = cfg["steps"]
    threshold = cfg["threshold"]
    # pure-walk difference matrices are sweep-independent; build them once
    diffs = []
    positions = []
    for n in range(steps + 1):
        rho1 = pure_walk_density(walk_evolve(1.0, 0.0, n))
        rho2 = pure_walk_density(walk_evolve(0.0, 1.0, n))
        diffs.append(rho1.matrix - rho2.matrix)
        xs = np.arange(-n, n + 1, dtype=float)
        positions.append(xs[None, :] - xs[:, None])

    _, strong_report = nm_walk(None, None, n_steps=steps, mode="strong_limit")
    strong_value = strong_report.measure

    dn = cfg["delta_n"]
    sweep = cfg["sweep"]
    if dn == 0.0:
        values = [0.0]
    else:
        count = int(sweep["count"])
        values = np.linspace(float(sweep["min"]), float(sweep["max"]), count).tolist()

    def measure_at(a: float, value: float) -> float:
        spectrum = build_spectrum(cfg, a)
        if dn == 0.0:
            delta_t = cfg.get("delta_t") or 1.0
        else:
            delta_t = value * 2.0 * math.pi / (cfg["delta_omega"] * dn)
        dephasing = DephasingConfig(index_contrast=dn, step_duration=delta_t)
        flt = DephasingFilter(spectrum, dephasing)
        dvals = np.empty(steps + 1)
        for n in range(steps + 1):
            gram = np.atleast_2d(flt(positions[n]))
            filtered = diffs[n] * np.kron(gram, np.ones((2, 2)))
            eig = hermitian_eigenvalues(filtered)
            dvals[n] = 0.5 * float(np.sum(np.abs(eig)))
        return nm_measure(dvals, threshold).measure

    rows = []
    for a in cfg["a_values"]:
        for value in values:
            rows.append((float(a), float(value), float(measure_at(a, value)), "filter"))
            rows.append((float(a), float(value), float(strong_value), "strong_limit"))
    rows.sort(key=lambda r: (r[3], r[0], r[1]))
    derived = {
        "strong_limit_measure": strong_value,
        "sweep_values": [float(v) for v in values],
        "steps": steps,
    }
    return rows, derived


def cmd_open_walk_nm(cfg: dict, out_dir: Path) -> int:
    rows, derived = _walk_nm_over_sweep(cfg, out_dir)
    name = "open_walk_nm.csv"
    write_csv(out_dir / name, ["A", "dt_omega_dn", "N10", "mode"], rows)
    write_manifest(out_dir / "open_walk_nm_manifest.json", "open-walk-nm", cfg, derived, [name])
    return 0


def _check(name, max_dev, tol, location=""):
    return {
        "name": name,
        "max_dev": float(max_dev),
        "tol": float(tol),
        "pass": bool(max_dev <= tol),
        "location": location,
    }


def cmd_oracle(cfg: dict, out_dir: Path) -> int:
    opts = cfg["oracle"]
    spectrum = build_spectrum(cfg, 0.7 if cfg["A"] == 0.0 else cfg["A"])
    if cfg.get("delta_t") is not None or cfg.get("delta_t_factor") is not None:
        dephasing = build_dephasing(cfg)
    else:
        # default probe point: strong enough to matter, far from the revivals
        dephasing = build_dephasing(cfg, delta_t=0.35 * revival_time(cfg))
    coin = (1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0))
    checks = []

    # traced dilation vs coherence filter, per environment size
    for n_freqs in opts["n_freqs"]:
        worst = 0.0
        where = ""
        skip = None
        for n in range(opts["max_steps"] + 1):
            try:
                dil, omegas, weights = dilation_oracle(
                    coin[0], coin[1], n, spectrum, dephasing, n_freqs
                )
            except ResourceLimitError as exc:
                skip = str(exc)
                break
            flt = open_walk_evolve_discrete(coin[0], coin[1], n, omegas, weights, dephasing)
            if opts["perturbation"]:
                target = min(4, flt.matrix.shape[0] - 1)
                flt.matrix[0, target] += opts["perturbation"]
                flt.matrix[target, 0] += np.conj(opts["perturbation"])
            dev = np.abs(dil.matrix - flt.matrix)
            local = float(dev.max())
            if local > worst:
                worst = local
                ij = np.unravel_index(int(dev.argmax()), dev.shape)
                where = f"n={n}, entry=({int(ij[0])},{int(ij[1])})"
        check = _check(f"dilation_vs_filter_K{n_freqs}", worst, 1e-10, where)
        if skip:
            check["skipped"] = skip
        checks.append(check)

    # dephasing must not touch the position distribution
    worst = 0.0
    where = ""
    for n in range(0, opts["position_check_steps"] + 1, 3):
        open_rho = open_walk_evolve(coin[0], coin[1], n, spectrum, dephasing)
        pure = pure_walk_density(walk_evolve(coin[0], coin[1], n))
        p1 = open_rho.position_distribution()
        p2 = pure.position_distribution()
        for x in p1:
            dev = abs(p1[x] - p2[x])
            if dev > worst:
                worst, where = dev, f"n={n}, x={x}"
    checks.append(_check("position_distribution_invariance", worst, 1e-12, where))

    # series engine vs oscillatory quadrature
    worst = 0.0
    where = ""
    for eta in (0.0, 0.5, 1.0):
        series = harmonic.series_from_transfer(eta)
        power = harmonic.identity_series()
        for m in range(opts["engine_max_power"] + 1):
            if m > 0:
                power = harmonic.series_multiply(power, series)
            for a in (0.0, 1.0):
                spec_a = build_spectrum(cfg, a)
                t1 = harmonic.integrate_series_against_spectrum(power, spec_a, dephasing)
                t2 = harmonic.quadrature_map(eta, m, spec_a, dephasing)
                dev = float(np.max(np.abs(t1 - t2)))
                if dev > worst:
                    worst, where = dev, f"eta={eta}, m={m}, A={a}"
    checks.append(_check("series_vs_quadrature", worst, 1e-8, where))

    # closed-form period-average maps vs the series oracle
    worst = 0.0
    where = ""
    for m in range(41):
        dev = float(np.max(np.abs(
            harmonic.strong_limit_map(0.5, m) - harmonic.strong_limit_closed_form(m)
        )))
        if dev > worst:
            worst, where = dev, f"m={m}"
    checks.append(_check("catalan_closed_form", worst, 1e-12, where))

    # quasi-momentum amplitudes vs the position recursion
    worst = 0.0
    where = ""
    for m in range(opts["walk_steps"] + 1):
        left = walk_evolve(1.0, 0.0, m)
        right = walk_evolve(0.0, 1.0, m)
        for x in range(-m, m + 1):
            if (m + x) % 2 != 0:
                continue
            amps = walk_amplitudes_integral(m, x)
            al, bl = left.coin_pair_at(x)
            ar, br = right.coin_pair_at(x)
            dev = max(
                abs(amps.a_left - al), abs(amps.b_left - bl),
                abs(amps.a_right - ar), abs(amps.b_right - br),
            )
            if dev > worst:
                worst, where = dev, f"m={m}, x={x}"
    checks.append(_check("walk_integral_vs_recursion", worst, 1e-6, where))

    # eigensolver trace identities on a seeded batch
    rng = np.random.default_rng(cfg["seed"])
    worst = 0.0
    where = ""
    for trial in range(20):
        dim = int(rng.integers(2, 33))
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (x + x.conj().T) / 2.0
        vals = hermitian_eigenvalues(h)
        dev = max(
            abs(float(np.sum(vals)) - float(np.trace(h).real)),
            abs(float(np.sum(vals ** 2)) - float(np.sum(np.abs(h) ** 2))),
        )
        if dev > worst:
            worst, where = dev, f"trial={trial}, dim={dim}"
    checks.append(_check("eigensolver_identities", worst, 1e-10, where))

    report = {
        "artifact_version": __version__,
        "backend": kernels.BACKEND,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    with open(out_dir / "oracle_report.json", "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not report["all_pass"]:
        failed = ", ".join(c["name"] for c in checks if not c["pass"])
        raise OracleFailure(f"oracle checks failed: {failed}")
    return 0


_DISPATCH = {
    "dephasing": cmd_dephasing,
    "controlled-qubit": cmd_controlled_qubit,
    "strong-limit-error": cmd_strong_limit_error,
    "walk": cmd_walk,
    "open-walk-nm": cmd_open_walk_nm,
    "oracle": cmd_oracle,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="memoryflow", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
        sp.add_argument("--out", default=None, help="output directory (default: out_dir field or '.')")
        sp.add_argument("--engine", choices=["series", "quadrature", "strong-limit"], default=None)
        sp.add_argument("--jobs", type=int, default=None, help="accepted for compatibility; has no effect")
        sp.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config field (dotted keys allowed, value parsed as JSON)",
        )
        if command == "walk":
            sp.add_argument("--amplitudes", action="store_true", default=None,
                            help="emit per-site amplitudes as well")
            sp.add_argument("--check-integrals", action="store_true", default=None,
                            help="cross-check quasi-momentum amplitudes against the recursion")
    return parser


def _parse_overrides(pairs):
    out = []
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set needs KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out.append((key, value))
    return out


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flat = {"engine": args.engine, "jobs": args.jobs}
    if getattr(args, "amplitudes", None) is not None:
        flat["amplitudes"] = args.amplitudes
    if getattr(args, "check_integrals", None) is not None:
        flat["check_integrals"] = args.check_integrals
    cfg = resolve_config(
        args.command,
        preset_name=args.preset,
        config_path=args.config,
        overrides=_parse_overrides(args.set),
        flat_overrides=flat,
    )
    out_dir = Path(args.out if args.out is not None else cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    return _DISPATCH[args.command](cfg, out_dir)


def main(argv=None) -> int:
    try:
        return run(argv)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, ResourceLimitError, OracleFailure) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
