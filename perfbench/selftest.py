"""Trace self-test: one traced walk_sweep operation must count every call.

The tracer rebinds each ``from ... import`` alias of a traced function; an
alias it missed would leave calls silently uncounted.  The expected counts
follow from the shape of the sweep as the CLI assembles it: 3 spectrum
weights x 4 interaction times make 12 trajectories of 11 states each, and
every state costs one decoherence-function evaluation and one Hermitian
eigensolve.  The two pure walks per state of the sweep's difference matrices
and the two of the strong-limit row make 44 walk evolutions.  The eigensolver
must hold at least 90% of the operation's wall time.  A change that
restructures the sweep changes these figures and updates them here.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import sys

import run

STATES = 3 * 4 * 11
EXPECTED_CALLS = {
    "openwalk.hermitian_eigenvalues": STATES,
    "spectra.decoherence_function": STATES,
    "walk.walk_evolve": 2 * 11 + 2 * 11,
}
MIN_EIGENSOLVER_SHARE = 0.9


def main() -> int:
    if not (run.SRC / "memoryflow" / "__init__.py").is_file():
        print(f"error: no memoryflow sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(run.SRC)]
    from tracer import Tracer

    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run.Runner("walk_sweep", 1, work)
        tracer = Tracer()
        elapsed = run.traced_operation(runner, tracer)
        runner.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = ["the traced operation failed"] if runner.failed else []
    for name, want in EXPECTED_CALLS.items():
        got = tracer.totals[name][0]
        print(f"{name}.calls = {got} (expected {want})")
        if got != want:
            failures.append(f"{name}: {got} calls, expected {want}")
    share = tracer.totals["openwalk.hermitian_eigenvalues"][1] / elapsed
    print(f"openwalk.hermitian_eigenvalues.s = {share:.1%} of {elapsed:.3f} s")
    if share < MIN_EIGENSOLVER_SHARE:
        failures.append(f"eigensolver share {share:.1%} < {MIN_EIGENSOLVER_SHARE:.0%}")
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    print("trace self-test:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
