"""Discrete open quantum dynamics on a desk scale.

Two models built from the same dephasing coupling: a qubit under alternating
local-unitary control and dephasing, and a one-dimensional open quantum walk
with coin dephasing.  Trace-distance trajectories witness memory effects; all
closed forms ship with independent brute-force oracles.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    NumericError,
    ResourceLimitError,
    UnsupportedCaseError,
)
from .harmonic import (
    TrigMatrixSeries,
    approximation_error,
    approximation_error_stack,
    catalan,
    catalan_coeffs,
    channel_distance,
    integrate_series_against_spectrum,
    quadrature_map,
    quadrature_map_stacks,
    series_from_transfer,
    series_map_stacks,
    series_power,
    series_powers,
    strong_limit_closed_form,
    strong_limit_closed_forms,
    strong_limit_map,
)
from .nonmarkov import (
    NMReport,
    TraceDistanceSeries,
    increments,
    nm_measure,
    nm_qubit,
    nm_qubit_stack,
    nm_walk,
    nm_walk_sweep,
    walk_trace_distances,
)
from .openwalk import (
    DephasingFilter,
    WalkDensity,
    dilation_densities,
    dilation_oracle,
    discretize_spectrum,
    hermitian_eigenvalues,
    open_walk_evolve,
    oracle_checks,
    strong_limit_filter,
    trace_distance_walk,
)
from .qubit import (
    bloch_transfer_matrix,
    coin_operator,
    evolve_qubit,
    pure_dephasing_map,
    special_map_eta0,
    special_map_eta1,
    trace_distance_qubit,
    transfer_map_stack,
)
from .spectra import (
    DephasingConfig,
    SpectrumParams,
    decoherence_by_quadrature,
    decoherence_function,
    flatness_factor,
    spectral_density,
    theta3,
)
from .walk import (
    WalkAmplitudes,
    WalkState,
    dispersion_nu,
    position_distribution,
    walk_amplitude_rows,
    walk_amplitudes_integral,
    walk_amplitudes_row,
    walk_evolve,
    walk_states,
    walk_step,
)

__all__ = [
    "__version__",
    "ConfigError", "DomainError", "NumericError", "ResourceLimitError",
    "UnsupportedCaseError",
    "SpectrumParams", "DephasingConfig", "spectral_density",
    "decoherence_function", "decoherence_by_quadrature", "theta3",
    "flatness_factor",
    "coin_operator", "pure_dephasing_map", "bloch_transfer_matrix",
    "evolve_qubit", "transfer_map_stack", "special_map_eta0", "special_map_eta1",
    "trace_distance_qubit",
    "TrigMatrixSeries", "series_from_transfer", "series_power", "series_powers",
    "integrate_series_against_spectrum", "series_map_stacks", "quadrature_map",
    "quadrature_map_stacks",
    "strong_limit_map", "strong_limit_closed_form", "strong_limit_closed_forms", "catalan",
    "catalan_coeffs", "channel_distance", "approximation_error", "approximation_error_stack",
    "WalkState", "WalkAmplitudes", "walk_step", "walk_evolve", "walk_states",
    "dispersion_nu", "walk_amplitudes_integral", "walk_amplitudes_row", "walk_amplitude_rows",
    "position_distribution",
    "WalkDensity", "DephasingFilter", "open_walk_evolve", "dilation_oracle", "dilation_densities",
    "discretize_spectrum", "strong_limit_filter", "hermitian_eigenvalues",
    "trace_distance_walk", "oracle_checks",
    "TraceDistanceSeries", "NMReport", "increments", "nm_measure",
    "nm_qubit", "nm_qubit_stack", "nm_walk", "nm_walk_sweep", "walk_trace_distances",
]
