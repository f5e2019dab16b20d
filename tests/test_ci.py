"""The CI workflow runs the tier-1 command that ROADMAP.md names, under a
time limit and on pinned package versions, and besides it only the benchmark
loops, read as plain text (CI installs no YAML parser); under the project's
warning filters a failing test leaves the later tests running; and the
sources, read as text, keep one byte budget."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_workflow_runs_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, flags=re.MULTILINE)
    assert command, "ROADMAP.md names no tier-1 command"
    lines = [line.strip() for line in WORKFLOW.read_text(encoding="utf-8").splitlines()]
    assert f"run: {command[1]}" in lines


def test_workflow_job_has_time_limit():
    assert re.search(r"^    timeout-minutes: \d+$", WORKFLOW.read_text(encoding="utf-8"),
                     flags=re.MULTILINE)


def test_workflow_checks_every_benchmark_workload():
    workflow = WORKFLOW.read_text(encoding="utf-8")
    loop = re.search(r"^ +for workload in ([\w ]+); do$", workflow, flags=re.MULTILINE)
    assert loop, "the workflow runs no benchmark loop"
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert loop[1].split() == workloads
    assert 'perfbench/run.py --workload "$workload" --seconds 2 --trace 0' in workflow
    assert '["correct"] is not True' in workflow


def test_workflow_smoke_runs_every_workload_traced():
    # the tracer hooks read positional arguments, so only a traced run checks them
    workflow = WORKFLOW.read_text(encoding="utf-8")
    loops = re.findall(r"^ +for workload in ([\w ]+); do$", workflow, flags=re.MULTILINE)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert [loop.split() for loop in loops] == [workloads, workloads]
    traced = workflow[workflow.rindex("for workload in"):]
    assert 'perfbench/run.py --workload "$workload" --seconds 2 --trace 1' in traced
    assert '["correct"] is not True' in traced


def run_scripts(workflow: str) -> list[str]:
    """The script of each run: key in order; a block script (run: |) as its
    lines, stripped."""
    lines, scripts = workflow.splitlines(), []
    for i, line in enumerate(lines):
        key = re.fullmatch(r"( *)(?:- )?run: (.*)", line)
        if key and key[2] != "|":
            scripts.append(key[2])
        elif key:
            block = []
            for below in lines[i + 1:]:
                if below.strip() and len(below) - len(below.lstrip()) <= len(key[1]):
                    break
                block.append(below.strip())
            scripts.append("\n".join(block).strip())
    return scripts


def test_workflow_runs_only_the_install_tier1_and_the_benchmark():
    # every check runs in tier-1: besides the pinned install and the tier-1
    # command, the workflow runs the two benchmark loops and nothing else, so
    # no -m memoryflow run, heredoc script or second checkout can hold a check
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, flags=re.MULTILINE)[1]
    workflow = WORKFLOW.read_text(encoding="utf-8")
    install, tier1, *loops = run_scripts(workflow)
    assert install.startswith("python -m pip install ") and "\n" not in install
    assert tier1 == command
    assert len(loops) == 2
    for loop in loops:
        lines = loop.splitlines()
        assert lines[0].startswith("for workload in ") and lines[-1] == "done", loop
        assert lines[1].startswith("python3 perfbench/run.py "), loop
        assert all(line.startswith(("cat ", "tail -n 1 ")) for line in lines[2:-1]), loop
    assert re.findall(r"uses: (\S+)", workflow) == ["actions/checkout@v4", "actions/setup-python@v5"]


def test_workflow_install_pins_every_package():
    # outputs and timings are recorded against these versions; LAPACK's handling
    # of bad input and the bits of eigvalsh come with numpy's wheel
    lines = [line.strip() for line in WORKFLOW.read_text(encoding="utf-8").splitlines()]
    (install,) = [line for line in lines if line.startswith("run: ") and "pip install" in line]
    packages = install.split("pip install", 1)[1].split()
    assert {p.split("==")[0] for p in packages} >= {"numpy", "pytest", "hypothesis"}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+==[0-9][0-9A-Za-z.]*", p) for p in packages), packages


FAILING_THEN_PASSING = """
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_other_deprecation_is_an_error():
    warnings.warn("deprecated", DeprecationWarning)


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # explaining a failing example imports libcst, which warns through
    # mypy_extensions.TypedDict; the filters must not turn that into an abort
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "2 failed, 1 passed" in done.stdout
    assert done.returncode == 1


def test_sources_keep_one_byte_budget():
    # every memory cap is errors.require_bytes against MAX_GRID_BYTES: no
    # module keeps a second *_BYTES constant besides the quadrature engine's
    # per-node unit, and a ResourceLimitError is raised only by that helper,
    # the series engine's work cap and the environment's float64 overflow
    constants, raises = set(), set()
    for path in sorted((ROOT / "src" / "memoryflow").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                constants |= {f"{path.stem}.{name}" for name in names
                              if re.fullmatch(r"[A-Z0-9_]*_BYTES", name)}
            if isinstance(node, ast.Raise) and getattr(
                    getattr(node.exc, "func", node.exc), "id", None) == "ResourceLimitError":
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                raises.add(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    assert constants == {"errors.MAX_GRID_BYTES", "harmonic.NODE_BYTES"}
    assert raises == {"errors.require_bytes", "harmonic._check_powers",
                      "openwalk.discretize_spectrum"}


def test_sources_leave_numpy_random_alone():
    # numpy.random adds about 6 MB to a process; the oracle draws its test
    # matrices from the standard library's random, which numpy already loads
    named = set()
    for path in sorted((ROOT / "src" / "memoryflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "random" and getattr(
                    node.value, "id", None) in ("np", "numpy"):
                named.add(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Import) and any(
                    alias.name.startswith("numpy.random") for alias in node.names):
                named.add(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and (
                    (node.module or "").startswith("numpy.random") or node.module == "numpy"
                    and any(alias.name == "random" for alias in node.names)):
                named.add(f"{path.name}:{node.lineno}")
    assert named == set()


def test_cli_counts_no_bytes():
    # every library route counts its own memory on entry, the tables the
    # commands write included: cli.py neither imports require_bytes nor
    # calls a *_bytes helper, so a route's internals never reach the CLI
    tree = ast.parse((ROOT / "src" / "memoryflow" / "cli.py").read_text(encoding="utf-8"))
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not {name for name in called | imported if name and name.endswith("_bytes")}
    assert "MAX_GRID_BYTES" not in imported


def test_sources_keep_one_engine_switch():
    # qubit.transfer_map_stacks alone picks a qubit engine (transfer_map_stack
    # takes its one stack for one step duration): outside cli.py,
    # which validates the field, no other function compares with "series" or
    # "quadrature" (approximation_error_stack may refuse "strong-limit")
    switches = set()
    for path in sorted((ROOT / "src" / "memoryflow").glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(leaf, ast.Constant) and leaf.value in ("series", "quadrature")
                    for side in [node.left, *node.comparators] for leaf in ast.walk(side)):
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                switches.add(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    assert switches == {"qubit.transfer_map_stacks"}
