"""Reproducibility surface: one subcommand per reference figure plus the
oracle harness.  JSON config in, CSV + JSON-manifest out.  The CLI builds
inputs and writes files only; every number and oracle check comes from the library.

Exit codes: 0 success, 1 usage/config error, 2 numeric or oracle failure,
3 I/O error.  Identical configuration produces byte-identical output files;
sweep rows are put in key order by one stable lexsort.  The ``jobs`` field (``--jobs``) is
validated and recorded but has no effect: sweeps run serially in one thread.
Every config field is one row of ``FIELDS``, which lists the commands that read
it; a key a command does not read, or a value that does not fit its row, exits 1
and names the field.  A dedicated flag (``--engine``, ``--jobs``, ``--amplitudes``,
``--check-integrals``) exists on a command exactly when its field's row lists it.
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
from .errors import ConfigError, DomainError, NumericError, ResourceLimitError, require_bytes
from .nonmarkov import nm_qubit_stack, nm_walk_sweep
from .openwalk import oracle_checks
from .presets import ENVIRONMENT, PRESETS, preset
from .qubit import STATE_TOL
from .spectra import (
    DephasingConfig,
    SpectrumParams,
    decoherence_function,
    dimensionless_interaction_time,
    spectral_density,
)
from .walk import (INTEGRAL_RECURSION_TOL, integral_recursion_deviation, position_distribution,
                   walk_states)

COMMANDS = (
    "dephasing",
    "controlled-qubit",
    "strong-limit-error",
    "walk",
    "open-walk-nm",
    "oracle",
)

#: the config each command starts from, so that every reference value is
#: written once, in presets.py; walk starts from the table defaults alone
BASE_CONFIGS = {"dephasing": PRESETS["fig1"], "controlled-qubit": PRESETS["fig2"],
                "strong-limit-error": PRESETS["fig5"], "open-walk-nm": PRESETS["fig4"],
                "oracle": ENVIRONMENT}

#: the commands that read the environment, the four fields of ENVIRONMENT
_ENVIRONMENT_COMMANDS = ("dephasing", "controlled-qubit", "strong-limit-error", "open-walk-nm", "oracle")

#: dotted name -> (kind, bounds, commands that read the field[, default]).  Bounds
#: are an interval or a set of strings; a field without a default here takes it
#: from the command's base config.
FIELDS = {
    "A": ("number", "[0, 1]",  # the default is the oracle's; the presets set the others'
          ("controlled-qubit", "strong-limit-error", "oracle"), 0.7),
    "sigma": ("number", "(0, inf)", _ENVIRONMENT_COMMANDS),
    "mu1": ("number", None, _ENVIRONMENT_COMMANDS),
    "delta_omega": ("number", "[0, inf)", _ENVIRONMENT_COMMANDS),
    "delta_n": ("number", None, _ENVIRONMENT_COMMANDS),
    "delta_t": ("number or null", "(0, inf)", ("controlled-qubit", "oracle"), None),
    "delta_t_factor": ("number or null", "(0, inf)", ("controlled-qubit", "oracle"), None),
    "engine": ("string", "{series, quadrature, strong-limit}",
               ("controlled-qubit", "strong-limit-error"), "series"),
    "jobs": ("integer", "[1, inf)", COMMANDS, 1),
    "seed": ("integer", "[0, inf)", ("oracle",), 0),
    "threshold": ("number", "[0, inf)", ("controlled-qubit", "open-walk-nm"), 1e-12),
    "out_dir": ("string", None, COMMANDS, "."),
    "steps": ("integer", "[0, inf)",  # the default is walk's; the presets set the others'
              ("controlled-qubit", "strong-limit-error", "walk", "open-walk-nm"), 10),
    "a_values": ("numbers", "[0, 1]", ("dephasing", "open-walk-nm")),
    "eta_values": ("numbers", "[0, 1]", ("controlled-qubit", "strong-limit-error")),
    "t_grid.max_revivals": ("number", "[0, inf)", ("dephasing",)),
    "t_grid.points_per_revival": ("number", "(0, inf)", ("dephasing",)),
    "omega_grid.pad_sigmas": ("number", None, ("dephasing",)),
    "omega_grid.count": ("count", "[1, inf)", ("dephasing",)),
    "initial_bloch_1": ("bloch", None, ("controlled-qubit",)),
    "initial_bloch_2": ("bloch", None, ("controlled-qubit",)),
    "delta_t_factors": ("numbers", "(0, inf)", ("strong-limit-error",)),
    "initial_coin_1": ("coin", None, ("walk",), [[1.0, 0.0], [0.0, 0.0]]),
    "amplitudes": ("boolean", None, ("walk",), False),
    "check_integrals": ("boolean", None, ("walk",), False),
    "integral_check_cap": ("count", "[0, inf)", ("walk",), 12),
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
    """table defaults < base config < preset < config file < --set overrides
    < dedicated flags."""
    cfg: dict = {}
    for name, (_, _, commands, *default) in FIELDS.items():
        if command in commands and default:
            _set_dotted(cfg, name, copy.deepcopy(default[0]))
    _deep_update(cfg, {k: v for k, v in BASE_CONFIGS.get(command, {}).items() if k != "command"})
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


#: kind -> (test of a value, what the value must be); a count is a whole number
#: that the command casts to a size, so integral floats such as 2.0 are accepted
_KINDS = {
    "number": (_real, "a finite number"),
    "count": (lambda v: _real(v) and float(v).is_integer(), "a whole number"),
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
        if key in tables and not isinstance(value, dict):
            raise ConfigError(f"field '{key}' must be an object")
        if key in tables or (isinstance(value, dict) and value and key not in known):
            # a table the command lacks is refused by its dotted fields
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
    if cfg.get("delta_t") is not None and cfg.get("delta_t_factor") is not None:
        raise ConfigError("give field 'delta_t' or 'delta_t_factor', not both")
    if command == "controlled-qubit" and cfg["delta_t"] is None and cfg["delta_t_factor"] is None:
        raise ConfigError("field 'delta_t_factor' is required when 'delta_t' is not given")
    if command == "strong-limit-error" and cfg["engine"] == "strong-limit":
        raise ConfigError("field 'engine' must be series or quadrature for strong-limit-error, "
                          "which compares the exact maps against the strong limit")
    if command == "walk" and not 0.0 < math.hypot(*cfg["initial_coin_1"][0],
                                                  *cfg["initial_coin_1"][1]) < math.inf:
        raise ConfigError("field 'initial_coin_1' must be non-zero, with a finite norm")
    if "mu1" in cfg and not _real(cfg["mu1"] + cfg["delta_omega"]):
        raise ConfigError("fields 'mu1' + 'delta_omega' must sum to a finite number")
    if command == "open-walk-nm" and cfg["sweep"]["min"] > cfg["sweep"]["max"]:
        raise ConfigError("field 'sweep.min' must not exceed 'sweep.max'")
    # every time scaled by the revival time must be finite, refused by the field that scales it
    scaled = {}
    if command in ("controlled-qubit", "oracle") and cfg["delta_t_factor"] is not None:
        scaled["delta_t_factor"] = cfg["delta_t_factor"]
    if command == "strong-limit-error":
        scaled["delta_t_factors"] = max(cfg["delta_t_factors"])
    if command == "dephasing":
        scaled["t_grid.max_revivals"] = cfg["t_grid"]["max_revivals"]
    if command == "open-walk-nm" and cfg["delta_n"] != 0.0:
        # a sweep value v gives the step duration v 2 pi / (delta_omega delta_n)
        for end in ("min", "max"):
            if not cfg["sweep"][end] * cfg["delta_n"] > 0.0:
                raise ConfigError(f"field 'sweep.{end}' must be non-zero with the sign of "
                                  "'delta_n', for a positive step duration")
            scaled[f"sweep.{end}"] = abs(cfg["sweep"][end])
    for name, factor in scaled.items():
        if not _real(float(factor) * revival_time(cfg)):
            raise ConfigError(f"field '{name}' times the revival time must be finite")
    if command == "dephasing" and not _real(revival_time(cfg) / cfg["t_grid"]["points_per_revival"]):
        raise ConfigError("field 't_grid.points_per_revival' must divide the revival time into a "
                          "finite grid step")
    # without a step, the oracle probes at 0.35 revival times
    if command == "oracle" and cfg["delta_t"] is None and cfg["delta_t_factor"] is None:
        revival_time(cfg)
    # the manifest keys strong-limit-error's factors by label
    if command == "strong-limit-error" and len(set(cfg["delta_t_factors"])) \
            > len({f"{f:g}" for f in cfg["delta_t_factors"]}):
        raise ConfigError("field 'delta_t_factors' must give distinct factors distinct labels, "
                          f"got {cfg['delta_t_factors']}")
    # bytes of each table the command itself builds or writes, keyed by the
    # fields that size it; every library route counts its own work on entry
    grids = {}
    if command == "dephasing":
        labels = [_a_label(a) for a in cfg["a_values"]]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"field 'a_values' must give each file a distinct label, got {labels}")
        t_grid = cfg["t_grid"]
        grids = {"'t_grid.max_revivals' x 't_grid.points_per_revival'":
                 8 * (t_grid["max_revivals"] * t_grid["points_per_revival"] + 1),
                 "'omega_grid.count'": 8 * cfg["omega_grid"]["count"]}
    if command == "strong-limit-error":
        grids = {"'delta_t_factors' x 'eta_values' x 'steps'": 8 * len(cfg["delta_t_factors"])
                 * len(cfg["eta_values"]) * (cfg["steps"] + 1)}
    if command == "open-walk-nm":
        grids = {"'sweep.count' x 'a_values' x 'steps'":
                 8 * int(cfg["sweep"]["count"]) * len(cfg["a_values"]) * (cfg["steps"] + 1)}
    if command == "walk":
        # walk_distribution.csv: step, x, p and four amplitude columns, one
        # row per occupied site of every step
        grids = {"'steps'": (8 * (7 if cfg["amplitudes"] else 3)
                             * (cfg["steps"] + 1) * (cfg["steps"] + 2) // 2)}
    for fields, size in grids.items():
        require_bytes(size, fields)


def build_spectrum(cfg: dict, a_value=None) -> SpectrumParams:
    return SpectrumParams(
        amplitude_ratio=cfg["A"] if a_value is None else float(a_value),
        sigma=cfg["sigma"],
        mu1=cfg["mu1"],
        delta_omega=cfg["delta_omega"],
    )


def revival_time(cfg: dict) -> float:
    """2 pi / (delta_omega |delta_n|), refused by name when it is not a finite time."""
    for name in ("delta_n", "delta_omega"):
        if cfg[name] == 0.0:
            raise ConfigError(f"field '{name}' must be non-zero for revival-scaled durations")
    product = cfg["delta_omega"] * abs(cfg["delta_n"])
    t_rev = 2.0 * math.pi / product if product else math.inf
    if not _real(t_rev):
        raise ConfigError("fields 'delta_omega' x 'delta_n' are too small for a finite revival "
                          "time 2 pi / (delta_omega |delta_n|)")
    return t_rev


def build_dephasing(cfg: dict, delta_t=None) -> DephasingConfig:
    """Steps of ``delta_t`` if given, else of the config's ``delta_t`` or
    ``delta_t_factor`` revival times; ``validate_config`` requires one of them
    wherever a command reads them."""
    if delta_t is None:
        delta_t = cfg["delta_t"]
    if delta_t is None:
        delta_t = float(cfg["delta_t_factor"]) * revival_time(cfg)
    return DephasingConfig(index_contrast=cfg["delta_n"], step_duration=float(delta_t))


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _column_text(column):
    """The CSV text of one column, value by value, by one rule per dtype: floats
    by repr (adding 0.0 turns -0.0 into 0.0 and leaves every other float as
    it is), booleans as true/false, ints as digits, strings as they are."""
    values = np.asarray(column)
    kind = values.dtype.kind
    if kind == "f":
        return map(repr, (values + 0.0).tolist())
    if kind == "b":
        return map(("false", "true").__getitem__, values.tolist())
    # strings from the column itself: a numpy string array drops trailing NULs
    return map(str, values.tolist() if kind in "iu" else column)


def write_csv(path: Path, header: list[str], blocks) -> None:
    """One header line, then, block by block, one row per index of each
    block's equal-length columns; a block becomes text only as it is written,
    so a table given as a stream of blocks is held one block at a time.  The
    file's directory is made as the file is opened."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            rows = list(map(",".join, zip(*map(_column_text, columns), strict=True)))
            if rows:
                fh.write("\n".join(rows) + "\n")


def _keyed_columns(keys, table) -> list:
    """The key columns of the grid ``keys[0] x keys[1] x ...`` (row-major, as
    ``table``'s rows run), then ``table``'s columns, ordered by the keys with
    one stable lexsort: a key given twice keeps its input order."""
    index = np.indices([len(key) for key in keys]).reshape(len(keys), -1)
    grid = [key[i] for key, i in zip(keys, index)]
    order = np.lexsort(grid[::-1])
    return [key[order] for key in grid] + list(table[order].T)


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
    """Strict JSON, keys sorted: a NaN or infinite value is written as null.
    The file's directory is made as the file is opened."""
    text = json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
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
        write_csv(out_dir / name, ["t", "abs_kappa"], [[ts, kap]])
        outputs.append(name)
        name = f"dephasing_spectrum_{_a_label(a)}.csv"
        write_csv(out_dir / name, ["omega", "density"], [[omegas, dens]])
        outputs.append(name)
    write_manifest(out_dir / "dephasing_manifest.json", "dephasing", cfg, derived, outputs)
    return 0


def cmd_controlled_qubit(cfg: dict, out_dir: Path) -> int:
    spectrum = build_spectrum(cfg)
    dephasing = build_dephasing(cfg)
    traj1, traj2, ds, report = nm_qubit_stack(
        cfg["eta_values"], spectrum, dephasing, cfg["initial_bloch_1"], cfg["initial_bloch_2"],
        cfg["steps"], cfg["engine"], cfg["threshold"])
    values = np.concatenate([traj1, traj2, np.stack([ds, report.increments, report.cumulative],
                                                    axis=-1)], axis=-1)
    name = "controlled_qubit.csv"
    write_csv(
        out_dir / name,
        ["eta", "step", "r1x", "r1y", "r1z", "r2x", "r2y", "r2z", "D", "increment", "N_cum"],
        [_keyed_columns([np.asarray(cfg["eta_values"], dtype=float), np.arange(cfg["steps"] + 1)],
                        values.reshape(-1, values.shape[-1]))],
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
    spectrum = build_spectrum(cfg)
    factors = cfg["delta_t_factors"]
    dephasings = [build_dephasing(cfg, delta_t=float(factor) * revival_time(cfg))
                  for factor in factors]
    period_over_sigma = {f"{factor:g}": dephasing.period_omega / spectrum.sigma
                         for factor, dephasing in zip(factors, dephasings)}
    errors = harmonic.approximation_error_stack(cfg["eta_values"], cfg["steps"], spectrum,
                                                dephasings, cfg["engine"])
    keys = [np.asarray(factors, dtype=float), np.asarray(cfg["eta_values"], dtype=float),
            np.arange(cfg["steps"] + 1)]
    name = "strong_limit_error.csv"
    write_csv(out_dir / name, ["dt_factor", "eta", "step", "error"],
              [_keyed_columns(keys, errors.reshape(-1, 1))])
    derived = {"period_over_sigma": period_over_sigma}
    write_manifest(out_dir / "strong_limit_error_manifest.json", "strong-limit-error", cfg, derived, [name])
    return 0


def cmd_walk(cfg: dict, out_dir: Path) -> int:
    (re_l, im_l), (re_r, im_r) = cfg["initial_coin_1"]
    norm = math.hypot(re_l, im_l, re_r, im_r)
    c_left = complex(re_l, im_l) / norm
    c_right = complex(re_r, im_r) / norm
    derived: dict = {}
    if cfg["check_integrals"]:
        # before the table, so that a check over the budget writes nothing
        cap = min(cfg["steps"], int(cfg["integral_check_cap"]))
        derived["integral_max_deviation"] = integral_recursion_deviation(cap, [(c_left, c_right)])[0]
        derived["integral_check_steps"] = cap
    norms = []

    def blocks():
        # one block of rows per step, written as the walk steps
        for m, state in enumerate(walk_states(c_left, c_right, cfg["steps"])):
            norms.append(state.norm())
            p = list(position_distribution(state).values())
            block = [np.full(m + 1, m), state.positions(), p]
            if cfg["amplitudes"]:
                left, right = state.amp_left, state.amp_right
                block += [left.real, left.imag, right.real, right.imag]
            yield block

    header = ["step", "x", "p"]
    if cfg["amplitudes"]:
        header += ["cl_re", "cl_im", "cr_re", "cr_im"]
    name = "walk_distribution.csv"
    write_csv(out_dir / name, header, blocks())
    derived["norm_by_step"] = norms
    write_manifest(out_dir / "walk_manifest.json", "walk", cfg, derived, [name])
    # a NaN deviation fails the check too
    worst = derived.get("integral_max_deviation", 0.0)
    if not worst <= INTEGRAL_RECURSION_TOL:
        raise NumericError(f"integral amplitudes deviate from recursion by {worst:.3e}")
    return 0


def cmd_open_walk_nm(cfg: dict, out_dir: Path) -> int:
    dn = cfg["delta_n"]
    if dn == 0.0:
        values = [0.0]
        durations = [1.0]  # every filter is identically 1 without an index contrast
    else:
        sweep = cfg["sweep"]
        values = np.linspace(float(sweep["min"]), float(sweep["max"]), int(sweep["count"])).tolist()
        durations = [value * 2.0 * math.pi / (cfg["delta_omega"] * dn) for value in values]
    measures, strong_value = nm_walk_sweep([build_spectrum(cfg, a) for a in cfg["a_values"]],
                                           [DephasingConfig(dn, dt) for dt in durations],
                                           cfg["steps"], cfg["threshold"])
    mode, a, value, measure = _keyed_columns(
        [np.array(["filter", "strong_limit"]), np.asarray(cfg["a_values"], dtype=float),
         np.asarray(values, dtype=float)],
        np.concatenate([measures.ravel(), np.full(measures.size, strong_value)])[:, None])
    name = "open_walk_nm.csv"
    write_csv(out_dir / name, ["A", "dt_omega_dn", "N10", "mode"], [[a, value, measure, mode]])
    derived = {
        "strong_limit_measure": strong_value,
        "sweep_values": [float(v) for v in values],
        "steps": cfg["steps"],
    }
    write_manifest(out_dir / "open_walk_nm_manifest.json", "open-walk-nm", cfg, derived, [name])
    return 0


def cmd_oracle(cfg: dict, out_dir: Path) -> int:
    spectrum = build_spectrum(cfg)
    # default probe point: strong enough to matter, far from the revivals
    probe = cfg["delta_t"] is None and cfg["delta_t_factor"] is None
    dephasing = build_dephasing(cfg, delta_t=0.35 * revival_time(cfg) if probe else None)
    checks = oracle_checks(spectrum, dephasing, seed=cfg["seed"], **cfg["oracle"])
    report = {
        "artifact_version": __version__,
        "backend": kernels.BACKEND,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    write_json(out_dir / "oracle_report.json", report)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="memoryflow", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {"engine": {"choices": FIELDS["engine"][1][1:-1].split(", ")},
             "jobs": {"type": int, "help": "accepted for compatibility; has no effect"},
             "amplitudes": {"action": "store_true", "help": "emit per-site amplitudes as well"},
             "check_integrals": {"action": "store_true", "help": "cross-check quasi-momentum "
                                 "amplitudes against the recursion"}}
    for command in COMMANDS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
        sp.add_argument("--out", default=None, help="output directory (default: out_dir field or '.')")
        sp.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config field (dotted keys allowed, value parsed as JSON)",
        )
        for name, spec in flags.items():
            if command in FIELDS[name][2]:
                sp.add_argument("--" + name.replace("_", "-"), default=None, **spec)
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
    cfg = resolve_config(
        args.command,
        preset_name=args.preset,
        config_path=args.config,
        overrides=_parse_overrides(args.set),
        flat_overrides={key: value for key, value in vars(args).items() if key in FIELDS},
    )
    # --out is made by the first file written into it, so a refused run leaves none
    return _DISPATCH[args.command](cfg, Path(args.out if args.out is not None else cfg["out_dir"]))


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
