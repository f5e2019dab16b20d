"""Every output of the preset runs, the full fig4 sweep, the walk integral
check and the oracle, against the reference set under ``tests/reference/``.

Each file is compared token by token; tokens are split at white space and
at the CSV and JSON punctuation ``, : [ ] { } "``.  A numeric token may move
from its reference by at most TOLERANCE; every other token, and the number
of lines and tokens, must match exactly.  The test prints the largest
deviation with its file and location: the line a change that moves numbers
records in CHANGES.md.

Run as a script, ``python tests/test_reference_outputs.py`` (with the package
installed, or ``PYTHONPATH=src``) runs every command again, prints each
file's deviation from the stored reference and then replaces the reference
set with the new outputs.
"""

import math
import re
import shutil
import tempfile
from pathlib import Path

from memoryflow.cli import main

REFERENCE = Path(__file__).parent / "reference"

#: the tolerance of every numeric token, the same for each of the files: 66
#: times the largest move a change has recorded (1.51e-14, fig3 by
#: quadrature), 100 times below the oracle's 1e-10 and 1e4 times below
#: harmonic.ENGINE_AGREEMENT_TOL
TOLERANCE = 1e-12

#: run label -> command line; each run writes its files into its own directory
RUNS = {
    "fig1": ["dephasing", "--preset", "fig1"],
    **{f"{fig}-{engine}": ["controlled-qubit", "--preset", fig, "--engine", engine]
       for fig in ("fig2", "fig3") for engine in ("series", "quadrature", "strong-limit")},
    "fig4": ["open-walk-nm", "--preset", "fig4"],
    **{f"fig5-{engine}": ["strong-limit-error", "--preset", "fig5", "--engine", engine]
       for engine in ("series", "quadrature")},
    "walk": ["walk", "--check-integrals"],
    "walk-amplitudes": ["walk", "--check-integrals", "--amplitudes"],
    "oracle": ["oracle"],
    "oracle-40": ["oracle", "--set", "oracle.max_steps=40", "--set", "oracle.n_freqs=[8,16,32,64]",
                  "--set", "oracle.engine_max_power=240"],
}

SEPARATORS = re.compile(r'[\s,:\[\]{}"]+')


def write_outputs(out: Path) -> None:
    for label, argv in RUNS.items():
        code = main([*argv, "--out", str(out / label)])
        assert code == 0, f"{label}: exit {code}"


def token_deviation(ref: str, new: str) -> float:
    """0 for equal tokens, |difference| for two finite numbers, else inf."""
    if ref == new:
        return 0.0
    try:
        x, y = float(ref), float(new)
    except ValueError:
        return math.inf
    return abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf


def file_deviation(ref: Path, new: Path):
    """(largest deviation, where) of ``new`` against ``ref``; where names the
    line and token and shows both tokens."""
    if not (ref.is_file() and new.is_file()):
        return math.inf, "only in the " + ("reference" if ref.is_file() else "new outputs")
    ref_lines = ref.read_text(encoding="utf-8").splitlines()
    new_lines = new.read_text(encoding="utf-8").splitlines()
    if len(ref_lines) != len(new_lines):
        return math.inf, f"{len(new_lines)} lines, reference {len(ref_lines)}"
    worst, where = 0.0, ""
    for number, (ref_line, new_line) in enumerate(zip(ref_lines, new_lines), start=1):
        ref_tokens, new_tokens = SEPARATORS.split(ref_line), SEPARATORS.split(new_line)
        if len(ref_tokens) != len(new_tokens):
            return math.inf, f"line {number}: {new_line!r}, reference {ref_line!r}"
        for index, (a, b) in enumerate(zip(ref_tokens, new_tokens), start=1):
            dev = token_deviation(a, b)
            if dev > worst:
                worst, where = dev, f"line {number}, token {index}: {b!r}, reference {a!r}"
    return worst, where


def deviations(ref_dir: Path, new_dir: Path) -> dict:
    """Relative path -> (deviation, where), over the files of both sets."""
    names = sorted({p.relative_to(root).as_posix() for root in (ref_dir, new_dir)
                    if root.is_dir() for p in root.rglob("*") if p.is_file()})
    return {name: file_deviation(ref_dir / name, new_dir / name) for name in names}


def test_outputs_match_the_references(tmp_path):
    write_outputs(tmp_path)
    found = deviations(REFERENCE, tmp_path)
    name, (worst, where) = max(found.items(), key=lambda item: item[1][0])
    print(f"largest deviation {worst:.3e}" + (f" in {name}, {where}" if worst else ""))
    over = {name: dev for name, dev in found.items() if not dev[0] <= TOLERANCE}
    assert not over, f"deviations over {TOLERANCE:g}: {over}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp))
        found = deviations(REFERENCE, Path(tmp))
        for name, (dev, where) in found.items():
            print(f"{name}: {dev:.3e}" + (f", {where}" if where else ""))
        print(f"largest deviation over every output: {max(d for d, _ in found.values()):.3e}")
        shutil.rmtree(REFERENCE, ignore_errors=True)
        shutil.copytree(tmp, REFERENCE)
