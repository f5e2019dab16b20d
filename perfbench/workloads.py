"""Benchmark workloads: the CLI commands of one operation, and output checks.

Every workload's operation is a fixed list of ``memoryflow`` CLI invocations.
The seed only permutes what cannot change the work done or the CSV bytes: the
order of the commands and of the ``a_values`` / ``eta_values`` lists (the CLI
sorts its rows).  The checks compare the first operation's output against
independent library routes; they run outside the timed region.

- ``walk_sweep``: the fig4 physics (A in {0, 0.5, 1}, 10 steps) at the
  interaction times 0.5, 1, 1.5 and 2: the full preset's work per trajectory
  on a fortieth of its points.  An operation takes about 1.5 s; longer ones
  (16 or 8 points) left fewer samples per run and spread more from run to
  run, because the calibration around an operation tracks the host's speed
  less well the longer the operation lasts.  It loads the walk eigensolver
  and the CLI sweep loop and never reaches the series or quadrature engines.
- ``qubit_maps``: fig1, fig2, fig3 and fig5 with the series engine.  It loads
  series powers, the 4x4 Choi eigensolves of ``channel_distance`` and the
  CSV writer, and leaves the walk eigensolver and quadrature idle.
- ``crosscheck``: the default oracle, ``walk --check-integrals`` and fig3 with
  the quadrature engine.  It reaches the same layers through the verification
  routes: quadrature nodes, quasi-momentum integrals, the dilation oracle and
  random eigensolves of dimension 2 to 32.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

from memoryflow import harmonic
from memoryflow.nonmarkov import nm_qubit, nm_walk
from memoryflow.presets import PRESETS
from memoryflow.qubit import evolve_qubit
from memoryflow.spectra import (
    DephasingConfig,
    SpectrumParams,
    decoherence_by_quadrature,
)

#: interaction times at which the walk measure must not depend on A
INTEGER_TIMES = (1.0, 2.0)
#: rows per check recomputed through a library route
SPOT_CHECKS = 3


def _shuffled(rng: random.Random, values) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


def _set(key: str, value) -> list[str]:
    return ["--set", f"{key}={json.dumps(value)}"]


def build(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv without --out) for each command of one operation."""
    rng = random.Random(seed)
    if workload == "walk_sweep":
        return [("fig4", [
            "open-walk-nm", "--preset", "fig4",
            "--set", "sweep.min=0.5", "--set", "sweep.max=2.0", "--set", "sweep.count=4",
            *_set("a_values", _shuffled(rng, PRESETS["fig4"]["a_values"])),
        ])]
    if workload == "qubit_maps":
        commands = [
            ("fig1", ["dephasing", "--preset", "fig1",
                      *_set("a_values", _shuffled(rng, PRESETS["fig1"]["a_values"]))]),
        ] + [
            (fig, [PRESETS[fig]["command"], "--preset", fig, "--engine", "series",
                   *_set("eta_values", _shuffled(rng, PRESETS[fig]["eta_values"]))])
            for fig in ("fig2", "fig3", "fig5")
        ]
    elif workload == "crosscheck":
        commands = [
            ("oracle", ["oracle"]),
            ("walk", ["walk", "--check-integrals"]),
            ("fig3_quadrature", [
                "controlled-qubit", "--preset", "fig3", "--engine", "quadrature",
                *_set("eta_values", _shuffled(rng, PRESETS["fig3"]["eta_values"])),
            ]),
        ]
    else:
        raise KeyError(f"unknown workload {workload!r}; available: {sorted(CHECKS)}")
    return _shuffled(rng, commands)


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure messages
# ---------------------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _spectrum(preset: dict, a: float | None = None) -> SpectrumParams:
    return SpectrumParams(
        amplitude_ratio=preset["A"] if a is None else a,
        sigma=preset["sigma"], mu1=preset["mu1"], delta_omega=preset["delta_omega"],
    )


def _revival_time(preset: dict) -> float:
    return 2.0 * math.pi / (preset["delta_omega"] * abs(preset["delta_n"]))


def _dephasing(preset: dict, factor: float) -> DephasingConfig:
    return DephasingConfig(preset["delta_n"], factor * _revival_time(preset))


def _within(errors: list, what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        errors.append(f"{what}: {got!r} vs {want!r} (tolerance {tol:g})")


def check_walk_sweep(dirs: dict[str, Path], seed: int) -> list[str]:
    preset = PRESETS["fig4"]
    rows = _rows(dirs["fig4"] / "open_walk_nm.csv")
    errors: list[str] = []
    filt = [r for r in rows if r["mode"] == "filter"]
    for t in INTEGER_TIMES:
        vals = [float(r["N10"]) for r in filt if float(r["dt_omega_dn"]) == t]
        if len(vals) != len(preset["a_values"]):
            errors.append(f"interaction time {t:g}: {len(vals)} filter rows")
        elif max(vals) - min(vals) > 1e-6:
            errors.append(f"interaction time {t:g}: A curves split by {max(vals) - min(vals):.3e}")
    strong = {r["N10"] for r in rows if r["mode"] == "strong_limit"}
    want = nm_walk(None, None, n_steps=preset["steps"], mode="strong_limit")[1].measure
    if len(strong) != 1:
        errors.append(f"{len(strong)} distinct strong_limit values")
    else:
        _within(errors, "strong_limit value", float(strong.pop()), want, 1e-12)
    for row in random.Random(seed).sample(filt, SPOT_CHECKS):
        a, t = float(row["A"]), float(row["dt_omega_dn"])
        dephasing = DephasingConfig(preset["delta_n"], t * _revival_time(preset))
        want = nm_walk(_spectrum(preset, a), dephasing, n_steps=preset["steps"])[1].measure
        _within(errors, f"filter N10 at A={a:g}, t={t:g}", float(row["N10"]), want, 1e-10)
    return errors


def check_qubit_maps(dirs: dict[str, Path], seed: int) -> list[str]:
    rng = random.Random(seed)
    errors: list[str] = []
    for fig in ("fig2", "fig3"):
        preset = PRESETS[fig]
        spectrum = _spectrum(preset)
        dephasing = _dephasing(preset, preset["delta_t_factor"])
        last = {float(r["eta"]): float(r["N_cum"]) for r in _rows(dirs[fig] / "controlled_qubit.csv")
                if int(r["step"]) == preset["steps"]}
        for eta in preset["eta_values"]:
            want = nm_qubit(eta, spectrum, dephasing, r1=preset["initial_bloch_1"],
                            r2=preset["initial_bloch_2"], n_steps=preset["steps"])[1].measure
            if eta not in last:
                errors.append(f"{fig}: no final row for eta={eta:g}")
            else:
                _within(errors, f"{fig} N_cum at eta={eta:g}", last[eta], want, 1e-12)

    preset = PRESETS["fig1"]
    rows = _rows(dirs["fig1"] / f"dephasing_kappa_A{preset['a_values'][-1]:g}.csv")
    spectrum = _spectrum(preset, preset["a_values"][-1])
    for row in rng.sample(rows, SPOT_CHECKS):
        t = float(row["t"])
        want = abs(decoherence_by_quadrature(spectrum, preset["delta_n"], t))
        _within(errors, f"fig1 |kappa| at t={t:g}", float(row["abs_kappa"]), want, 1e-9)

    preset = PRESETS["fig5"]
    spectrum = _spectrum(preset)
    rows = [r for r in _rows(dirs["fig5"] / "strong_limit_error.csv") if int(r["step"]) > 0]
    for row in rng.sample(rows, SPOT_CHECKS):
        factor, eta, m = float(row["dt_factor"]), float(row["eta"]), int(row["step"])
        want = harmonic.approximation_error(eta, m, spectrum, _dephasing(preset, factor),
                                            engine="quadrature")
        _within(errors, f"fig5 error at dt={factor:g}, eta={eta:g}, m={m}",
                float(row["error"]), want, 1e-7)
    return errors


def check_crosscheck(dirs: dict[str, Path], seed: int) -> list[str]:
    errors: list[str] = []
    report = json.loads((dirs["oracle"] / "oracle_report.json").read_text(encoding="utf-8"))
    if report.get("all_pass") is not True:
        errors.append("oracle report is not all_pass")
    errors += [f"oracle check {c['name']} skipped" for c in report["checks"] if "skipped" in c]
    manifest = json.loads((dirs["walk"] / "walk_manifest.json").read_text(encoding="utf-8"))
    deviation = manifest["derived"].get("integral_max_deviation")
    if deviation is None or not deviation <= 1e-6:
        errors.append(f"walk integral_max_deviation {deviation!r}")

    preset = PRESETS["fig3"]
    spectrum = _spectrum(preset)
    dephasing = _dephasing(preset, preset["delta_t_factor"])
    rows = _rows(dirs["fig3_quadrature"] / "controlled_qubit.csv")
    for eta in preset["eta_values"]:
        got = sorted(((int(r["step"]), r) for r in rows if float(r["eta"]) == eta),
                     key=lambda pair: pair[0])
        if len(got) != preset["steps"] + 1:
            errors.append(f"fig3 quadrature: {len(got)} rows for eta={eta:g}")
            continue
        for prefix, r0 in (("r1", preset["initial_bloch_1"]), ("r2", preset["initial_bloch_2"])):
            series = evolve_qubit(spectrum, dephasing, eta, r0, preset["steps"], engine="series")
            worst = max(abs(float(row[prefix + axis]) - series[n][k])
                        for n, row in got for k, axis in enumerate("xyz"))
            _within(errors, f"fig3 quadrature vs series, {prefix} at eta={eta:g}",
                    worst, 0.0, harmonic.ENGINE_AGREEMENT_TOL)
    return errors


CHECKS = {
    "walk_sweep": check_walk_sweep,
    "qubit_maps": check_qubit_maps,
    "crosscheck": check_crosscheck,
}
