"""memoryflow benchmark: preset CLI runs timed end to end, and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload walk_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run is a closed loop with one client in one process: after a warm
``import memoryflow``, each operation calls ``memoryflow.cli.main(argv)`` for
every command of the workload (see ``workloads.py``), each with ``--out`` set
to a fresh directory, until ``--seconds`` have passed.  The package is
imported from ``src/`` of the checkout; a checkout without it is an error.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
several fresh processes of the time from spawn until ``memoryflow.cli`` is
imported and the workload's inputs are built), ``op_s.p50`` (the median
seconds per operation) and ``peak_rss_mb`` (the run process's maximum RSS).

Both times are scaled to a reference machine speed.  On a shared host other
tenants slow every instruction, CPU time included, by up to 1.8x, in phases of
seconds to tens of seconds, so raw wall times of the same code moved by 15-20%
between runs.  Each timed operation is therefore bracketed by a fixed
calibration loop of small numpy calls that runs no memoryflow code, and its
wall time is multiplied by ``CALIBRATION_REF_S`` over the mean of the two
calibration times around it: the figure is the time the operation takes on a
machine where the loop takes ``CALIBRATION_REF_S`` seconds, about the loop's
median on the host of the seed numbers.  Set-up is bracketed the same way by
spawns of a bare ``import numpy`` process, which track interpreter start-up
and shared-library loading better than the loop does, scaled to
``SPAWN_REF_S``.  Raw wall quartiles, the sample count and the calibration
median are printed as well, and the traced run reports the raw median and the
calibration median as per-layer figures, so a change that slows the
calibration loop itself (say, by leaving threads spinning) shows there.

``--trace 1`` reports the per-layer metrics.  It runs untraced and traced
operations in turn; the traced ones go through ``tracer.Tracer``, and each
per-layer figure is per traced operation.  ``trace.overhead_ratio`` is the
traced median over the untraced median, minus one, both scaled as above.  The
``scale.*`` probes time one walk-measure trajectory and one series power at
growing sizes.

Outputs are checked outside the timed region: every operation's files must
be byte-identical to the first operation's, and the first operation's values
must match independent library routes.  An operation fails on a nonzero exit
code or a failed check.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit, the failure ratio and the machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("walk_sweep", "qubit_maps", "crosscheck")

#: fresh processes timed for setup_s
SETUP_SPAWNS = 11
#: iterations of the calibration loop, about 0.1 s on the reference machine
CALIBRATION_REPS = 700
#: calibration loop seconds on the reference machine; op times are scaled to it
CALIBRATION_REF_S = 0.1
#: seconds to spawn a bare ``import numpy`` process on the reference machine;
#: set-up times are scaled to it
SPAWN_REF_S = 0.15
#: seconds any one child process may take
CHILD_TIMEOUT = 170

SETUP_PROBE = (
    "import sys\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import memoryflow.cli, workloads\n"
    "workloads.build(sys.argv[3], int(sys.argv[4]))\n"
    "print('ready', flush=True)\n"
)
NUMPY_PROBE = "import numpy\nprint('ready', flush=True)\n"

#: per-layer metric -> unit; "<name>.calls|s|self_s" read the tracer totals
LAYER_METRICS = {
    "kernels.jacobi_eigvals.calls": "count",
    "kernels.jacobi_eigvals.s": "s",
    "openwalk.hermitian_eigenvalues.calls": "count",
    "openwalk.hermitian_eigenvalues.s": "s",
    "openwalk.hermitian_eigenvalues.self_s": "s",
    "openwalk.hermitian_eigenvalues.max_dim": "count",
    "harmonic.channel_distance.calls": "count",
    "harmonic.channel_distance.s": "s",
    "harmonic.channel_distance.self_s": "s",
    "kernels.series_convolve.calls": "count",
    "kernels.series_convolve.s": "s",
    "harmonic.series_multiply.calls": "count",
    "harmonic.series_multiply.s": "s",
    "harmonic.series_multiply.useful_ratio": "ratio",
    "harmonic.strong_limit_map.calls": "count",
    "harmonic.strong_limit_map.s": "s",
    "harmonic.approximation_error.calls": "count",
    "harmonic.approximation_error.s": "s",
    "harmonic.integrate_series_against_spectrum.calls": "count",
    "harmonic.integrate_series_against_spectrum.s": "s",
    "qubit.evolve_qubit.calls": "count",
    "qubit.evolve_qubit.s": "s",
    "qubit.evolve_qubit.self_s": "s",
    "harmonic.quadrature_map.calls": "count",
    "harmonic.quadrature_map.s": "s",
    "harmonic.quadrature_map.self_s": "s",
    "harmonic.quadrature_map.nodes": "count",
    "kernels.transfer_power_average.calls": "count",
    "kernels.transfer_power_average.s": "s",
    "spectra.spectral_density.calls": "count",
    "spectra.spectral_density.s": "s",
    "walk.walk_amplitudes_integral.calls": "count",
    "walk.walk_amplitudes_integral.s": "s",
    "openwalk.dilation_oracle.calls": "count",
    "openwalk.dilation_oracle.s": "s",
    "spectra.decoherence_function.calls": "count",
    "spectra.decoherence_function.s": "s",
    "spectra.decoherence_function.points": "count",
    "walk.walk_evolve.calls": "count",
    "walk.walk_evolve.s": "s",
    "kernels.walk_run.calls": "count",
    "kernels.walk_run.s": "s",
    "openwalk.open_walk_evolve.calls": "count",
    "openwalk.open_walk_evolve.s": "s",
    "nonmarkov.nm_measure.calls": "count",
    "nonmarkov.nm_measure.s": "s",
    "nonmarkov.nm_walk.calls": "count",
    "nonmarkov.nm_walk.s": "s",
    "cli.dispatch.self_s": "s",
    "cli.resolve_config.s": "s",
    "cli.write_csv.calls": "count",
    "cli.write_csv.s": "s",
    "cli.write_csv.bytes": "B",
    "cli.write_manifest.s": "s",
    "trace.overhead_ratio": "ratio",
}

#: scaling probes: one nm_walk filter trajectory, one series power
WALK_STEPS = (10, 20, 30)
SERIES_DEGREES = (64, 256, 1024)
PROBE_ETA = 0.5
PROBE_A = 0.5
PROBE_INTERACTION_TIME = 1.5


def machine_record(loadavg_start: str) -> dict:
    from memoryflow import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "kernels_backend": kernels.BACKEND,
        "have_numba": kernels.HAVE_NUMBA,
        "loadavg_start": loadavg_start,
        "loadavg_end": _loadavg(),
    }


def _loadavg() -> str:
    return Path("/proc/loadavg").read_text(encoding="ascii").strip()


def calibration_s() -> float:
    """Wall seconds of a fixed loop of small complex-matrix numpy calls, the
    kind of work the workloads do, with no memoryflow code in it."""
    a = np.exp(1j * np.arange(1024.0)).reshape(32, 32)
    rows = np.arange(16)
    b = a.copy()
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        for _ in range(8):
            pivots = np.abs(b[rows, rows + 16]) + 1.0
            b[rows, :] *= 1.0 / pivots.max()
            b = b + 0.001 * a
        float(np.sum(np.abs(b) ** 2))
    return time.perf_counter() - start


class SpeedGauge:
    """Times calls and scales them to the reference machine speed.

    Every call is followed by a calibration, and the first is preceded by
    one, so each call sits between two; its scaled time is its wall time times
    ``reference_s`` over the mean of those two calibration times."""

    def __init__(self, calibrate, reference_s: float):
        self.calibrate = calibrate
        self.reference_s = reference_s
        self.calibrations = [calibrate()]

    def time(self, timed_call) -> tuple[float, float]:
        """(wall, scaled) seconds of ``timed_call()``, which returns its own
        wall seconds, so that work it does outside its timed region is not
        counted."""
        wall = timed_call()
        self.calibrations.append(self.calibrate())
        around = 0.5 * (self.calibrations[-2] + self.calibrations[-1])
        return wall, wall * self.reference_s / around


def spawn_s(argv: list[str]) -> float:
    """Seconds from spawning ``argv`` until it prints ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"{argv[:3]} exited with code {code}")
    return elapsed


def measure_setup(workload: str, seed: int) -> float:
    """Median scaled seconds from spawning a fresh interpreter until it has
    imported memoryflow.cli and built the workload's inputs."""
    probe = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed)]
    reference = [sys.executable, "-c", NUMPY_PROBE]
    gauge = SpeedGauge(lambda: spawn_s(reference), SPAWN_REF_S)
    times = [gauge.time(lambda: spawn_s(probe)) for _ in range(SETUP_SPAWNS)]
    print("setup: " + _describe(times)
          + f"; numpy spawn median {statistics.median(gauge.calibrations):.6g} s")
    return statistics.median(scaled for _, scaled in times)


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _describe(times: list[tuple[float, float]]) -> str:
    """Sample count and quartiles of (wall, scaled) pairs."""
    wall, scaled = zip(*times)
    return (f"{len(times)} samples; wall quartiles "
            + " ".join(f"{q:.6g}" for q in _quartiles(list(wall)))
            + "; scaled quartiles " + " ".join(f"{q:.6g}" for q in _quartiles(list(scaled))))


def file_digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


class Runner:
    """Runs operations of one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, work: Path):
        from memoryflow import cli
        import workloads

        self.cli = cli
        self.commands = workloads.build(workload, seed)
        self.check = workloads.CHECKS[workload]
        self.seed = seed
        self.work = work
        self.reference: dict[str, str] | None = None
        self.reference_dir: Path | None = None
        self.attempted = 0
        self.failed = 0

    def operation(self) -> float:
        """Run one operation; return its wall seconds."""
        op_dir = self.work / f"op{self.attempted}"
        self.attempted += 1
        codes = []
        start = time.perf_counter()
        try:
            for label, argv in self.commands:
                codes.append(self.cli.main([*argv, "--out", str(op_dir / label)]))
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            codes.append(-1)
        elapsed = time.perf_counter() - start
        ok = all(code == 0 for code in codes)
        if ok and self.reference is None:
            self.reference, self.reference_dir = file_digests(op_dir), op_dir
        elif ok:
            ok = file_digests(op_dir) == self.reference
            if not ok:
                print(f"operation {self.attempted}: output differs from the first", file=sys.stderr)
        if op_dir != self.reference_dir:
            shutil.rmtree(op_dir, ignore_errors=True)
        if not ok:
            self.failed += 1
        return elapsed

    def finish(self) -> None:
        """Check the first operation's values; every operation wrote the same
        bytes, so a failed check fails them all."""
        if self.reference_dir is None:
            return
        dirs = {label: self.reference_dir / label for label, _ in self.commands}
        try:
            errors = self.check(dirs, self.seed)
        except (OSError, KeyError, ValueError) as exc:
            errors = [f"output unreadable: {exc!r}"]
        for message in errors:
            print(f"check failed: {message}", file=sys.stderr)
        if errors:
            self.failed = self.attempted


def run_untraced(runner: Runner, seconds: float) -> dict:
    gauge = SpeedGauge(calibration_s, CALIBRATION_REF_S)
    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not times:
        times.append(gauge.time(runner.operation))
    print("ops: " + _describe(times)
          + f"; calibration median {statistics.median(gauge.calibrations):.6g} s")
    return {
        "op_s.p50": (statistics.median(scaled for _, scaled in times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def scaling_probes() -> dict:
    from memoryflow import harmonic
    from memoryflow.nonmarkov import nm_walk
    from memoryflow.presets import PRESETS
    from memoryflow.spectra import DephasingConfig, SpectrumParams

    env = PRESETS["fig4"]
    spectrum = SpectrumParams(PROBE_A, env["sigma"], env["mu1"], env["delta_omega"])
    delta_t = PROBE_INTERACTION_TIME * 2.0 * math.pi / (env["delta_omega"] * env["delta_n"])
    dephasing = DephasingConfig(env["delta_n"], delta_t)
    out = {}
    for steps in WALK_STEPS:
        start = time.perf_counter()
        nm_walk(spectrum, dephasing, n_steps=steps, mode="filter")
        out[f"scale.nm_walk.steps{steps}.s"] = (time.perf_counter() - start, "s")
    series = harmonic.series_from_transfer(PROBE_ETA)
    for degree in SERIES_DEGREES:
        start = time.perf_counter()
        harmonic.series_power(series, degree)
        out[f"scale.series_power.deg{degree}.s"] = (time.perf_counter() - start, "s")
    return out


def traced_operation(runner: Runner, tracer) -> float:
    """One operation with the tracer installed; an alias the tracer missed
    fails the operation, because its calls went uncounted."""
    tracer.install()
    try:
        missed = tracer.unpatched()
        elapsed = runner.operation()
    finally:
        tracer.uninstall()
    if missed:
        print(f"trace: originals still reachable through {missed}", file=sys.stderr)
        runner.failed += 1
    return elapsed


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    from tracer import Tracer

    metrics = scaling_probes()
    tracer = Tracer()
    gauge = SpeedGauge(calibration_s, CALIBRATION_REF_S)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        if len(plain) <= len(traced):
            plain.append(gauge.time(runner.operation))
            continue
        traced.append(gauge.time(lambda: traced_operation(runner, tracer)))
        last_spans = tracer.spans[:]
        tracer.spans.clear()
    print(f"ops: {len(plain)} untraced, {len(traced)} traced")
    spans_path.write_text("".join(json.dumps(span) + "\n" for span in last_spans))

    n = len(traced)
    for name, unit in LAYER_METRICS.items():
        layer, stat = name.rsplit(".", 1)
        if name == "trace.overhead_ratio":
            value = (statistics.median(scaled for _, scaled in traced)
                     / statistics.median(scaled for _, scaled in plain) - 1.0)
        elif name == "harmonic.series_multiply.useful_ratio":
            calls = tracer.totals[layer][0]
            value = tracer.useful_products / calls if calls else 0.0
        elif name == "openwalk.hermitian_eigenvalues.max_dim":
            value = tracer.counters[name]
        elif stat in ("calls", "s", "self_s"):
            value = tracer.totals[layer][("calls", "s", "self_s").index(stat)] / n
        else:
            value = tracer.counters[name] / n
        metrics[name] = (value, unit)
    metrics["op_wall_s.p50"] = (statistics.median(wall for wall, _ in plain), "s")
    metrics["calibration_s.p50"] = (statistics.median(gauge.calibrations), "s")
    return metrics


def run_one(args) -> int:
    loadavg_start = _loadavg()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    sys.path[:0] = [str(SRC), str(HERE)]
    import memoryflow.cli  # noqa: F401  (the warm import every operation reuses)

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        if args.trace:
            metrics = run_traced(runner, args.seconds, WORK / f"spans-{args.workload}.jsonl")
        else:
            metrics = {"setup_s": (setup_s, "s"), **run_untraced(runner, args.seconds)}
        runner.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("machine: " + json.dumps(machine_record(loadavg_start), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>10}  {name:<52} {value:>14.6g} {unit}")
    print(f"{args.workload:>10}  fail_ratio {runner.failed}/{runner.attempted}"
          f" = {runner.failed / runner.attempted:g}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    loadavg_start = _loadavg()
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT, check=True)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("machine: ")))
            results.setdefault(workload, {})[f"trace{trace}"] = json.loads(lines[-1])
    sys.path[:0] = [str(SRC)]
    print(json.dumps({"seed": args.seed, "seconds": args.seconds,
                      "machine": machine_record(loadavg_start), "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "memoryflow" / "__init__.py").is_file():
        print(f"error: no memoryflow sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
