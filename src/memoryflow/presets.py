"""Named parameter presets for the reference runs.

All presets share the environment family (sigma = 1, delta_omega = 9 sigma,
delta_n = 0.009, mu1 = 15 sigma) and express step durations as multiples of
the revival time 2 pi / (delta_omega delta_n).
"""

from __future__ import annotations

import copy
import math

_SQ2 = 1.0 / math.sqrt(2.0)

#: shared by every preset; the oracle, which has no reference preset, starts from it
ENVIRONMENT = {
    "sigma": 1.0,
    "mu1": 15.0,
    "delta_omega": 9.0,
    "delta_n": 0.009,
}

PRESETS: dict[str, dict] = {
    # two-peak revival structure of the bare dephasing model
    "fig1": {
        "command": "dephasing",
        **ENVIRONMENT,
        "a_values": [0.0, 1.0],
        # coarse trajectory grid: revival maxima sit slightly below multiples
        # of the revival time, so peak localization needs >= 1/8 revival steps
        "t_grid": {"max_revivals": 3.2, "points_per_revival": 8},
        "omega_grid": {"pad_sigmas": 5.0, "count": 241},
    },
    # controlled qubit, weak per-step dephasing
    "fig2": {
        "command": "controlled-qubit",
        **ENVIRONMENT,
        "A": 0.0,
        "delta_t_factor": 0.014,
        "eta_values": [0.0, 0.5, 1.0],
        "steps": 30,
        "initial_bloch_1": [_SQ2, 0.0, _SQ2],
        "initial_bloch_2": [-_SQ2, 0.0, -_SQ2],
    },
    # controlled qubit, intermediate per-step dephasing
    "fig3": {
        "command": "controlled-qubit",
        **ENVIRONMENT,
        "A": 0.0,
        "delta_t_factor": 2.0,
        "eta_values": [0.0, 0.5, 1.0],
        "steps": 30,
        "initial_bloch_1": [_SQ2, 0.0, _SQ2],
        "initial_bloch_2": [-_SQ2, 0.0, -_SQ2],
    },
    # open-walk memory measure vs dimensionless interaction time
    "fig4": {
        "command": "open-walk-nm",
        **ENVIRONMENT,
        "a_values": [0.0, 0.5, 1.0],
        "steps": 10,
        # step 0.025 exactly, so integer interaction times are grid points
        "sweep": {"min": 0.025, "max": 4.0, "count": 160},
    },
    # error of the single-period-average approximation
    "fig5": {
        "command": "strong-limit-error",
        **ENVIRONMENT,
        "A": 0.0,
        "delta_t_factors": [0.02, 1.03],
        "eta_values": [0.0, 0.25, 0.5, 0.75, 1.0],
        "steps": 15,
    },
}


def preset(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
