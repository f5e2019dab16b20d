"""Reproducibility surface: one subcommand per reference figure plus the
oracle harness.  JSON config in, CSV + JSON-manifest out.

Exit codes: 0 success, 1 usage/config error, 2 numeric or oracle failure,
3 I/O error.  Identical configuration produces byte-identical output files;
sweep rows are sorted before writing.  The ``jobs`` field (``--jobs``) is
validated and recorded but has no effect: sweeps run serially in one thread.
Every config field is one row of ``FIELDS``; a key a command does not know, or
a value that does not fit its row, exits 1 and names the field.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, harmonic, kernels
from .errors import ConfigError, DomainError, NumericError, ResourceLimitError, exceeds
from .nonmarkov import bloch_trace_distances, nm_measure, nm_walk, walk_trace_distances
from .openwalk import (
    DILATION_MAX_STEPS,
    DephasingFilter,
    dilation_densities,
    discrete_filter,
    eigensolver_identity_deviation,
    filtered_density,
    pure_walk_density,
)
from .presets import ENVIRONMENT, PRESETS, preset
from .qubit import STATE_TOL, transfer_map_stack
from .spectra import (
    DephasingConfig,
    SpectrumParams,
    decoherence_function,
    dimensionless_interaction_time,
    spectral_density,
)
from .walk import (
    INTEGRAL_RECURSION_TOL,
    integral_check_bytes,
    integral_recursion_deviation,
    walk_states,
)

COMMANDS = (
    "dephasing",
    "controlled-qubit",
    "strong-limit-error",
    "walk",
    "open-walk-nm",
    "oracle",
)

#: reference preset each figure command starts from, so that every reference
#: value is written once, in presets.py; walk and oracle start from ENVIRONMENT
BASE_PRESETS = {"dephasing": "fig1", "controlled-qubit": "fig2",
                "strong-limit-error": "fig5", "open-walk-nm": "fig4"}

#: bytes one grid may ask for (time or frequency samples, the sweep's
#: trace-distance table, or the integral check's largest quasi-momentum table);
#: a larger grid is refused before anything is allocated
MAX_GRID_BYTES = 1 << 28

#: dotted name -> (kind, bounds, commands that know the field[, default]).  Bounds
#: are an interval or a set of strings; a field without a default here takes it
#: from the command's base preset or from ENVIRONMENT.
FIELDS = {
    "A": ("number", "[0, 1]", COMMANDS, 0.0),
    "sigma": ("number", "(0, inf)", COMMANDS),
    "mu1": ("number", None, COMMANDS),
    "delta_omega": ("number", "[0, inf)", COMMANDS),
    "delta_n": ("number", None, COMMANDS),
    "delta_t": ("number or null", "(0, inf)", COMMANDS, None),
    "delta_t_factor": ("number or null", "(0, inf)", COMMANDS, None),
    "engine": ("string", "{series, quadrature, strong-limit}", COMMANDS, "series"),
    "jobs": ("integer", "[1, inf)", COMMANDS, 1),
    "seed": ("integer", "[0, inf)", COMMANDS, 0),
    "threshold": ("number", None, COMMANDS, 1e-12),
    "out_dir": ("string", None, COMMANDS, "."),
    "steps": ("integer", "[0, inf)",  # the default is walk's; the presets set the others'
              ("controlled-qubit", "strong-limit-error", "walk", "open-walk-nm"), 10),
    "a_values": ("numbers", "[0, 1]", ("dephasing", "open-walk-nm")),
    "eta_values": ("numbers", "[0, 1]", ("controlled-qubit", "strong-limit-error")),
    "t_grid.max_revivals": ("number", "[0, inf)", ("dephasing",)),
    "t_grid.points_per_revival": ("count", "(0, inf)", ("dephasing",)),
    "omega_grid.pad_sigmas": ("number", None, ("dephasing",)),
    "omega_grid.count": ("count", "[1, inf)", ("dephasing",)),
    "initial_bloch_1": ("bloch", None, ("controlled-qubit",)),
    "initial_bloch_2": ("bloch", None, ("controlled-qubit",)),
    "delta_t_factors": ("numbers", "(0, inf)", ("strong-limit-error",)),
    "initial_coin_1": ("coin", None, ("walk",), [[1.0, 0.0], [0.0, 0.0]]),
    "amplitudes": ("boolean", None, ("walk",), False),
    "check_integrals": ("boolean", None, ("walk",), False),
    "integral_check_cap": ("count", "[0, inf)", ("walk",), 12),
    "sweep.parameter": ("string", "{dt_omega_dn}", ("open-walk-nm",)),
    "sweep.min": ("number", None, ("open-walk-nm",)),
    "sweep.max": ("number", None, ("open-walk-nm",)),
    "sweep.count": ("count", "[1, inf)", ("open-walk-nm",)),
    "oracle.max_steps": ("integer", "[0, inf)", ("oracle",), 4),
    "oracle.n_freqs": ("integers", "[2, inf)", ("oracle",), [8, 16, 32]),
    "oracle.walk_steps": ("integer", "[0, inf)", ("oracle",), 8),
    "oracle.position_check_steps": ("integer", "[0, inf)", ("oracle",), 12),
    "oracle.engine_max_power": ("integer", "[0, inf)", ("oracle",), 10),
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
    """table defaults < reference preset < preset < config file < --set overrides
    < dedicated flags."""
    cfg: dict = {}
    for name, (_, _, commands, *default) in FIELDS.items():
        if command in commands and default:
            _set_dotted(cfg, name, copy.deepcopy(default[0]))
    base = PRESETS[BASE_PRESETS[command]] if command in BASE_PRESETS else ENVIRONMENT
    _deep_update(cfg, {k: v for k, v in base.items() if k != "command"})
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


def _real(value) -> bool:
    """A JSON number (not true/false) that casts to a finite float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


#: kind -> (test of a value, what the value must be); a count is a number that
#: the command casts to a size, so integral floats such as 2.0 are accepted
_KINDS = {
    "number": (_real, "a finite number"),
    "count": (_real, "a finite number"),
    "integer": (lambda v: type(v) is int, "an integer"),
    "number or null": (lambda v: v is None or _real(v), "null or a finite number"),
    "numbers": (lambda v: isinstance(v, list) and v != [] and all(map(_real, v)),
                "a non-empty list of finite numbers"),
    "integers": (lambda v: isinstance(v, list) and v != [] and all(type(n) is int for n in v),
                 "a non-empty list of integers"),
    "boolean": (lambda v: isinstance(v, bool), "true or false"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "bloch": (lambda v: isinstance(v, list) and len(v) == 3 and all(map(_real, v))
              and math.hypot(*v) <= 1.0 + STATE_TOL, "three finite numbers with norm <= 1"),
    "coin": (lambda v: isinstance(v, list) and len(v) == 2 and all(
        isinstance(c, list) and len(c) == 2 and all(map(_real, c)) for c in v),
        "[[reL, imL], [reR, imR]] of finite numbers"),
}


def _valid(kind: str, bounds, value) -> bool:
    """Whether ``value`` is of ``kind`` and, number by number, within ``bounds``."""
    if not _KINDS[kind][0](value):
        return False
    if bounds is None or value is None:
        return True
    if bounds[0] == "{":
        return value in bounds[1:-1].split(", ")
    low, high = (float(b) for b in bounds[1:-1].split(","))
    return all((low < v if bounds[0] == "(" else low <= v) and v <= high
               for v in (value if isinstance(value, list) else [value]))


def validate_config(command: str, cfg: dict) -> None:
    """Refuse an unknown field, a value that does not fit its row of FIELDS, and
    a config that breaks a rule across fields; each error names the field."""
    known = {name: row for name, row in FIELDS.items() if command in row[2]}
    tables = {name.split(".")[0] for name in known if "." in name}
    given = {}
    for key, value in cfg.items():
        if key in tables:
            if not isinstance(value, dict):
                raise ConfigError(f"field '{key}' must be an object")
            given.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            given[key] = value
    unknown = sorted(given.keys() - known.keys())
    if unknown:
        raise ConfigError(f"unknown field(s) for {command}: {', '.join(repr(n) for n in unknown)}")
    for name, (kind, bounds, *_) in known.items():
        if name not in given or not _valid(kind, bounds, given[name]):
            must = _KINDS[kind][1] + (f" in {bounds}" if bounds else "")
            raise ConfigError(f"field '{name}' must be {must}")
    if cfg["delta_t"] is not None and cfg["delta_t_factor"] is not None:
        raise ConfigError("give field 'delta_t' or 'delta_t_factor', not both")
    if command == "open-walk-nm" and cfg["sweep"]["min"] > cfg["sweep"]["max"]:
        raise ConfigError("field 'sweep.min' must not exceed 'sweep.max'")
    grids = {}  # bytes per grid, keyed by the fields that size it
    if command == "dephasing":
        t_grid = cfg["t_grid"]
        grids = {"'t_grid.max_revivals' x 't_grid.points_per_revival'":
                 8 * (t_grid["max_revivals"] * t_grid["points_per_revival"] + 1),
                 "'omega_grid.count'": 8 * cfg["omega_grid"]["count"]}
    if command == "open-walk-nm":
        grids = {"'sweep.count' x 'a_values' x 'steps'":
                 8 * int(cfg["sweep"]["count"]) * len(cfg["a_values"]) * (cfg["steps"] + 1)}
    if command == "walk" and cfg["check_integrals"]:
        grids = {"'integral_check_cap' (at most 'steps')":
                 integral_check_bytes(min(cfg["steps"], int(cfg["integral_check_cap"])))}
    if command == "oracle":
        grids = {"'oracle.walk_steps'": integral_check_bytes(cfg["oracle"]["walk_steps"])}
    for fields, size in grids.items():
        if size > MAX_GRID_BYTES:
            raise ResourceLimitError(
                f"the grid set by {fields} would exceed MAX_GRID_BYTES = {MAX_GRID_BYTES} bytes")


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
        return float(cfg["delta_t"])
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

def _fmt_bool(value) -> str:
    return "true" if value else "false"


def _fmt_int(value) -> str:
    return str(int(value))


def _fmt_float(value) -> str:
    # adding 0.0 turns -0.0 into 0.0 and leaves every other float as it is
    return repr(float(value) + 0.0)


@functools.cache
def _formatter(kind: type):
    """The CSV formatter of one value type, resolved once per type."""
    if issubclass(kind, bool):
        return _fmt_bool
    if kind is int:
        return str
    if issubclass(kind, (int, np.integer)):
        return _fmt_int
    if issubclass(kind, (float, np.floating)):
        return _fmt_float
    return str


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([_formatter(type(v))(v) for v in row]) + "\n")


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None: JSON has no
    token for NaN or the infinities, and writes None as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(path: Path, doc: dict) -> None:
    """Strict JSON, keys sorted: a NaN or infinite value is written as null."""
    text = json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def write_manifest(path: Path, command: str, cfg: dict, derived: dict, outputs: list[str]) -> None:
    write_json(path, {
        "artifact_version": __version__,
        "backend": kernels.BACKEND,
        "command": command,
        "config": cfg,
        "derived": derived,
        "outputs": sorted(outputs),
    })


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
        lo = spectrum.mu1 - float(og["pad_sigmas"]) * spectrum.sigma
        hi = spectrum.mu2 + float(og["pad_sigmas"]) * spectrum.sigma
        omegas = np.linspace(lo, hi, int(og["count"]))
        dens = spectral_density(spectrum, omegas)
        name = f"dephasing_kappa_{_a_label(a)}.csv"
        write_csv(out_dir / name, ["t", "abs_kappa"], zip(ts.tolist(), kap.tolist()))
        outputs.append(name)
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
    stack = transfer_map_stack(spectrum, dephasing, cfg["eta_values"], cfg["steps"], cfg["engine"])
    for eta, maps in zip(cfg["eta_values"], stack):
        traj1 = maps @ r1
        traj2 = maps @ r2
        ds = bloch_trace_distances(traj1, traj2)
        report = nm_measure(ds, cfg["threshold"])
        columns = zip(traj1, traj2, ds, report.increments, report.cumulative)
        rows += [(float(eta), n, *p1, *p2, *rest) for n, (p1, p2, *rest) in enumerate(columns)]
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
    factors = cfg["delta_t_factors"]
    dephasings = [build_dephasing(cfg, delta_t=float(factor) * revival_time(cfg))
                  for factor in factors]
    period_over_sigma = {f"{factor:g}": dephasing.period_omega / spectrum.sigma
                         for factor, dephasing in zip(factors, dephasings)}
    errors = harmonic.approximation_error_stack(cfg["eta_values"], cfg["steps"], spectrum,
                                                dephasings, cfg["engine"])
    rows = [(float(factor), float(eta), m, err)
            for factor, by_eta in zip(factors, errors.tolist())
            for eta, by_step in zip(cfg["eta_values"], by_eta)
            for m, err in enumerate(by_step)]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    name = "strong_limit_error.csv"
    write_csv(out_dir / name, ["dt_factor", "eta", "step", "error"], rows)
    derived = {"period_over_sigma": period_over_sigma}
    write_manifest(out_dir / "strong_limit_error_manifest.json", "strong-limit-error", cfg, derived, [name])
    return 0


def cmd_walk(cfg: dict, out_dir: Path) -> int:
    (re_l, im_l), (re_r, im_r) = cfg["initial_coin_1"]
    norm = math.hypot(re_l, im_l, re_r, im_r)
    if norm == 0.0:
        raise ConfigError("field 'initial_coin_1' must be non-zero")
    c_left = complex(re_l, im_l) / norm
    c_right = complex(re_r, im_r) / norm
    rows = []
    norms = []
    for m, state in enumerate(walk_states(c_left, c_right, cfg["steps"])):
        norms.append(state.norm())
        # the occupied sites x = -m, -m + 2, ..., m sit at every other index;
        # p is summed per site in Python: numpy's vectorised abs and square
        # of an array can differ from the scalar ones in the last bit
        left, right = state.amp_left[::2], state.amp_right[::2]
        p = [abs(cl) ** 2 + abs(cr) ** 2 for cl, cr in zip(left.tolist(), right.tolist())]
        columns = [[m] * (m + 1), range(-m, m + 1, 2), p]
        if cfg["amplitudes"]:
            columns += [left.real.tolist(), left.imag.tolist(),
                        right.real.tolist(), right.imag.tolist()]
        rows.extend(zip(*columns))
    header = ["step", "x", "p"]
    if cfg["amplitudes"]:
        header += ["cl_re", "cl_im", "cr_re", "cr_im"]
    name = "walk_distribution.csv"
    write_csv(out_dir / name, header, rows)
    derived: dict = {"norm_by_step": norms}
    worst = 0.0
    if cfg["check_integrals"]:
        cap = min(cfg["steps"], int(cfg["integral_check_cap"]))
        worst = integral_recursion_deviation(cap, [(c_left, c_right)])[0]
        derived["integral_max_deviation"] = worst
        derived["integral_check_steps"] = cap
    write_manifest(out_dir / "walk_manifest.json", "walk", cfg, derived, [name])
    # a NaN deviation fails the check too
    if cfg["check_integrals"] and not worst <= INTEGRAL_RECURSION_TOL:
        raise NumericError(f"integral amplitudes deviate from recursion by {worst:.3e}")
    return 0


def _walk_nm_over_sweep(cfg: dict):
    """(rows, derived) for the interaction-time sweep of the walk measure."""
    steps = cfg["steps"]
    strong_value = nm_walk(None, None, n_steps=steps, mode="strong_limit")[1].measure
    dn = cfg["delta_n"]
    if dn == 0.0:
        values = [0.0]
        durations = [cfg.get("delta_t") or 1.0]
    elif cfg["delta_omega"] == 0.0:
        raise ConfigError("field 'delta_omega' must be non-zero to sweep dt_omega_dn")
    else:
        sweep = cfg["sweep"]
        values = np.linspace(float(sweep["min"]), float(sweep["max"]), int(sweep["count"])).tolist()
        durations = [value * 2.0 * math.pi / (cfg["delta_omega"] * dn) for value in values]
    points = [(a, value, dt) for a in cfg["a_values"] for value, dt in zip(values, durations)]
    filters = [DephasingFilter(build_spectrum(cfg, a), DephasingConfig(dn, dt)) for a, _, dt in points]
    rows = []
    for (a, value, _), dvals in zip(points, walk_trace_distances(filters, steps)):
        measure = nm_measure(dvals, cfg["threshold"]).measure
        rows.append((float(a), float(value), measure, "filter"))
        rows.append((float(a), float(value), strong_value, "strong_limit"))
    rows.sort(key=lambda r: (r[3], r[0], r[1]))
    derived = {
        "strong_limit_measure": strong_value,
        "sweep_values": [float(v) for v in values],
        "steps": steps,
    }
    return rows, derived


def cmd_open_walk_nm(cfg: dict, out_dir: Path) -> int:
    rows, derived = _walk_nm_over_sweep(cfg)
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

    # the walk is stepped once; each check filters the states it needs
    states = list(walk_states(coin[0], coin[1], max(
        min(opts["max_steps"], DILATION_MAX_STEPS), opts["position_check_steps"])))

    # traced dilation vs coherence filter, per environment size: each
    # environment is discretized and stepped once
    for n_freqs in opts["n_freqs"]:
        worst = 0.0
        where = ""
        skip = None
        try:
            run = dilation_densities(coin[0], coin[1], opts["max_steps"], spectrum, dephasing, n_freqs)
            for n, (dil, omegas, weights) in enumerate(run):
                flt = filtered_density(states[n], discrete_filter(omegas, weights, dephasing))
                dev = np.abs(dil.matrix - flt.matrix)
                local = float(dev.max())
                if exceeds(local, worst):
                    worst = local
                    ij = np.unravel_index(int(dev.argmax()), dev.shape)
                    where = f"n={n}, entry=({int(ij[0])},{int(ij[1])})"
        except ResourceLimitError as exc:
            skip = str(exc)
        check = _check(f"dilation_vs_filter_K{n_freqs}", worst, 1e-10, where)
        if skip:
            # a check cut short did not run as asked: it cannot pass
            check["pass"] = False
            check["skipped"] = skip
        checks.append(check)

    # dephasing must not touch the position distribution
    worst = 0.0
    where = ""
    position_filter = DephasingFilter(spectrum, dephasing)
    for n in range(0, opts["position_check_steps"] + 1, 3):
        p1 = filtered_density(states[n], position_filter).position_distribution()
        p2 = pure_walk_density(states[n]).position_distribution()
        for x in p1:
            dev = abs(p1[x] - p2[x])
            if exceeds(dev, worst):
                worst, where = dev, f"n={n}, x={x}"
    checks.append(_check("position_distribution_invariance", worst, 1e-12, where))

    # series engine vs oscillatory quadrature
    worst = 0.0
    where = ""
    spectra_a = {a: build_spectrum(cfg, a) for a in (0.0, 1.0)}
    max_power = opts["engine_max_power"]
    etas = (0.0, 0.5, 1.0)
    series = harmonic.series_map_stacks(
        etas, max_power, [(spec_a, dephasing) for spec_a in spectra_a.values()])[0]
    for e, eta in enumerate(etas):
        devs = {}
        for t, (a, spec_a) in enumerate(spectra_a.items()):
            quad = harmonic.quadrature_maps(eta, max_power, spec_a, dephasing)
            devs[a] = np.max(np.abs(series[t, e] - quad), axis=(1, 2))
        for m in range(max_power + 1):
            for a in spectra_a:
                dev = float(devs[a][m])
                if exceeds(dev, worst):
                    worst, where = dev, f"eta={eta}, m={m}, A={a}"
    checks.append(_check("series_vs_quadrature", worst, harmonic.ENGINE_AGREEMENT_TOL, where))

    # closed-form period-average maps vs the series oracle
    worst = 0.0
    where = ""
    averages = harmonic.series_maps(0.5, 40)[1]
    closed_forms = harmonic.strong_limit_closed_forms(40)
    for m, dev in enumerate(np.max(np.abs(averages - closed_forms), axis=(1, 2)).tolist()):
        if exceeds(dev, worst):
            worst, where = dev, f"m={m}"
    checks.append(_check("catalan_closed_form", worst, 1e-12, where))

    # quasi-momentum amplitudes vs the position recursion
    worst, where = integral_recursion_deviation(opts["walk_steps"], [(1.0, 0.0), (0.0, 1.0)])
    checks.append(_check("walk_integral_vs_recursion", worst, INTEGRAL_RECURSION_TOL, where))

    worst, where = eigensolver_identity_deviation(cfg["seed"])
    checks.append(_check("eigensolver_identities", worst, 1e-10, where))

    report = {
        "artifact_version": __version__,
        "backend": kernels.BACKEND,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    write_json(out_dir / "oracle_report.json", report)
    if not report["all_pass"]:
        failed = ", ".join(
            c["name"] + (f" (did not run: {c['skipped']})" if "skipped" in c else "")
            for c in checks if not c["pass"]
        )
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
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
    out_dir = Path(args.out if args.out is not None else cfg["out_dir"])
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
