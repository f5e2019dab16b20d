"""Call tracing of the memoryflow layers, from outside the package.

``Tracer.install()`` wraps each function named in ``TRACED``.  The wrapper
replaces the function in its defining module and in every other memoryflow
module namespace that holds it (every ``from ... import`` alias), plus the
entries of the CLI's subcommand table, which are traced as ``cli.dispatch``.
A missed alias would leave its calls silently uncounted, so ``unpatched()``
scans the namespaces again and reports any original still reachable.
``uninstall()`` puts every original back.

Each wrapped call records a span (name, start, end, parent index) in
``spans``, which the caller clears between operations.  Per-name totals of
calls, inclusive seconds and self seconds (inclusive minus the spans of child
wrappers), and a few per-layer counters, accumulate over all operations.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _max_dim(tracer, args, kwargs):
    key = "openwalk.hermitian_eigenvalues.max_dim"
    tracer.counters[key] = max(tracer.counters[key], np.shape(args[0])[-1])


def _tau_points(tracer, args, kwargs):
    tau = kwargs["tau"] if "tau" in kwargs else args[2]
    tracer.counters["spectra.decoherence_function.points"] += np.size(tau)


def _csv_bytes(tracer, args, kwargs):
    tracer.counters["cli.write_csv.bytes"] += os.path.getsize(args[0])


def _distinct_product(tracer, args, kwargs):
    # a product is identified by its lowest-degree non-constant factor (the
    # single-step transfer series) and the degree it reaches
    a, b = args[:2]
    factor = min((a, b), key=lambda series: (series.degree == 0, series.degree))
    digest = hashlib.blake2b(factor.coeffs.tobytes(), digest_size=16).digest()
    tracer.distinct_products.add((digest, a.degree + b.degree))


def _quadrature_nodes(tracer, args, kwargs):
    # the quadrature engine hands every node it evaluates to this kernel
    tracer.counters["harmonic.quadrature_map.nodes"] += np.size(args[0])


#: traced function ("module.name" under memoryflow) -> counter hook or None
TRACED = {
    "cli.resolve_config": None,
    "cli.write_csv": _csv_bytes,
    "cli.write_manifest": None,
    "nonmarkov.nm_walk": None,
    "nonmarkov.nm_measure": None,
    "qubit.evolve_qubit": None,
    "harmonic.approximation_error": None,
    "harmonic.strong_limit_map": None,
    "harmonic.quadrature_map": None,
    "harmonic.integrate_series_against_spectrum": None,
    "harmonic.series_multiply": _distinct_product,
    "harmonic.channel_distance": None,
    "openwalk.open_walk_evolve": None,
    "openwalk.dilation_oracle": None,
    "openwalk.hermitian_eigenvalues": _max_dim,
    "walk.walk_evolve": None,
    "walk.walk_amplitudes_integral": None,
    "spectra.decoherence_function": _tau_points,
    "spectra.spectral_density": None,
    "kernels.jacobi_eigvals": None,
    "kernels.series_convolve": None,
    "kernels.transfer_power_average": _quadrature_nodes,
    "kernels.walk_run": None,
}

DISPATCH = "cli.dispatch"


def _namespaces() -> list[tuple[str, dict]]:
    """Every memoryflow module namespace, plus the CLI's subcommand table."""
    from memoryflow import cli

    found = [(name, vars(m)) for name, m in sorted(sys.modules.items())
             if m is not None and (name == "memoryflow" or name.startswith("memoryflow."))]
    return found + [("memoryflow.cli._DISPATCH", cli._DISPATCH)]


class Tracer:
    """Span recorder for the memoryflow layers; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self_s
        self.counters = defaultdict(int)
        self.distinct_products: set = set()  # within the current CLI command
        self.useful_products = 0
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple] = []
        self._originals: dict[int, object] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from memoryflow import cli

        targets = {}
        for qualified, hook in TRACED.items():
            module, attr = qualified.split(".")
            fn = getattr(sys.modules[f"memoryflow.{module}"], attr)
            targets[id(fn)] = (qualified, fn, hook)
        for fn in cli._DISPATCH.values():
            targets[id(fn)] = (DISPATCH, fn, None)
        self._originals = {key: fn for key, (_, fn, _) in targets.items()}
        wrappers = {key: self._wrap(*target) for key, target in targets.items()}
        for _, namespace in _namespaces():
            for key, value in list(namespace.items()):
                if self._originals.get(id(value)) is value:
                    self._patches.append((namespace, key, value))
                    namespace[key] = wrappers[id(value)]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def unpatched(self) -> list[str]:
        """Names through which an original traced function is still reachable."""
        return [f"{label}[{key!r}]" for label, namespace in _namespaces()
                for key, value in namespace.items()
                if self._originals.get(id(value)) is value]

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            start = clock()
            spans.append([name, start, None, parent])
            stack.append(frame)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]][2] = end
                elapsed = end - start
                total = totals[name]
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:  # a root span ends with each CLI command's dispatch
                    self.useful_products += len(self.distinct_products)
                    self.distinct_products.clear()
            if hook is not None:
                hook(self, args, kwargs)
            return return_value

        return traced
