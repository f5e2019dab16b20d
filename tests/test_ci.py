"""The CI workflow runs the tier-1 command that ROADMAP.md names, under a
time limit and on pinned package versions, read as plain text (CI installs no
YAML parser); under the project's warning filters a failing test leaves the
later tests running; and the sources, read as text, keep one byte budget."""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
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


def test_workflow_runs_the_oracle_at_fig4_steps():
    # a nonzero exit of a run: step fails the job, so a failing or refused
    # oracle check fails CI
    lines = [line.strip() for line in WORKFLOW.read_text(encoding="utf-8").splitlines()]
    oracle = [line for line in lines if line.startswith("run: ") and "-m memoryflow oracle" in line]
    assert len(oracle) == 1
    assert "--set oracle.max_steps=40" in oracle[0]
    assert "--set 'oracle.n_freqs=[8,16,32,64]'" in oracle[0]
    assert "--set oracle.engine_max_power=240" in oracle[0]
    assert "||" not in oracle[0] and "continue-on-error" not in WORKFLOW.read_text(encoding="utf-8")


def test_workflow_reruns_the_40_step_oracle_byte_identically(tmp_path):
    # one step runs the 40-step oracle twice and fails unless cmp finds the two
    # reports equal: the step passes as written, and fails once the second run
    # is given another seed
    workflow = WORKFLOW.read_text(encoding="utf-8")
    step = re.search(r"- name: Dilation oracle reruns[^\n]*\n.*?run: \|\n(.*?)\n      - name:",
                     workflow, flags=re.DOTALL)
    assert step, "the workflow reruns no oracle"
    script = textwrap.dedent(step[1])
    runs = [line for line in script.splitlines() if "-m memoryflow oracle" in line]
    assert len(runs) == 2 and runs[0].replace("oracle-a", "oracle-b") == runs[1]
    for setting in ("--set oracle.max_steps=40", "--set 'oracle.n_freqs=[8,16,32,64]'",
                    "--set oracle.engine_max_power=240"):
        assert setting in runs[0]
    assert script.splitlines()[-1] == ('cmp "$RUNNER_TEMP/oracle-a/oracle_report.json" '
                                       '"$RUNNER_TEMP/oracle-b/oracle_report.json"')
    env = {**os.environ, "RUNNER_TEMP": str(tmp_path)}
    for edit, code in (("", 0), (" --set seed=1", 1)):
        edited = script.replace(runs[1], runs[1] + edit)
        done = subprocess.run(["bash", "-e", "-c", edited], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code, (edit, done.stderr)
        assert ("differ" in done.stdout) == bool(code), done.stdout


def test_workflow_compares_the_strong_limit_error_engines(tmp_path):
    # the strong limit's period row runs on the quadrature engine past fig5's
    # 15 steps, and the step's script fails unless every error agrees with
    # the series engine's within harmonic.ENGINE_AGREEMENT_TOL
    workflow = WORKFLOW.read_text(encoding="utf-8")
    runs = [line.strip() for line in workflow.splitlines() if "-m memoryflow strong-limit-error" in line]
    assert [re.search(r"--engine (\w+)", run)[1] for run in runs] == ["series", "quadrature"]
    assert all("--preset fig5 --set steps=200" in run for run in runs)
    script = textwrap.dedent(re.search(r"<<'EOF'\n(.*?\n) +EOF\n", workflow, flags=re.DOTALL)[1])
    series = tmp_path / "series.csv"
    series.write_text("dt_factor,eta,step,error\n0.02,0.5,0,0.0\n0.02,0.5,1,0.25\n", encoding="utf-8")
    for last, code in (("0.25", 0), ("0.2500001", 1), ("nan", 1), ("", 1)):
        quadrature = tmp_path / "quadrature.csv"
        quadrature.write_text(f"dt_factor,eta,step,error\n0.02,0.5,0,0.0\n0.02,0.5,1,{last}\n"
                              if last else "dt_factor,eta,step,error\n", encoding="utf-8")
        done = subprocess.run([sys.executable, "-c", script, str(series), str(quadrature)],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code, (last, done.stderr)


#: a stand-in package: each command writes one CSV, whose value the tree sets,
#: and one JSON file; the oracle exits 2
STAND_IN_MAIN = """import pathlib, sys
out = pathlib.Path(sys.argv[sys.argv.index("--out") + 1])
out.mkdir(parents=True)
(out / "a.csv").write_text("x,y\\n1,{value}\\n")
(out / "b.json").write_text("{{}}")
sys.exit(2 if sys.argv[1] == "oracle" else 0)
"""


def test_workflow_reports_outputs_against_the_base_commit(tmp_path):
    # on a pull request, one step runs the commands on the base and the head
    # commit and prints per file whether the bytes match, else the largest
    # numeric deviation; a failed run or a changed output never fails it
    workflow = WORKFLOW.read_text(encoding="utf-8")
    step = workflow[workflow.index("- name: Outputs against the base commit"):]
    assert "if: github.event_name == 'pull_request'" in step
    assert "ref: ${{ github.event.pull_request.base.sha }}" in workflow
    script = textwrap.dedent(re.search(r"<<'PY'\n(.*?\n) +PY\n", step, flags=re.DOTALL)[1])
    for side, value in (("base", "0.5"), ("head", "0.500000001")):
        package = tmp_path / side / "src" / "memoryflow"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "__main__.py").write_text(STAND_IN_MAIN.format(value=value), encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", script, *(str(tmp_path / name) for name in
                                                           ("base", "head", "out"))],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for label in ("fig1", "fig2-series", "fig3-quadrature", "fig4", "fig5-quadrature",
                  "walk-amplitudes", "oracle-40"):
        assert f"{label}/b.json: same bytes" in lines
        assert f"{label}/a.csv: bytes differ, largest numeric deviation 1.000e-09" in lines
    assert "head oracle: exit 2: " in lines
    assert lines[-1] == "largest numeric deviation over every output: 1.000e-09"


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


def test_cli_counts_only_its_own_tables():
    # every library route counts its own memory on entry: cli.py passes the
    # bytes of the tables it builds or writes to require_bytes and calls no
    # library *_bytes helper, so a route's internals never reach the CLI
    tree = ast.parse((ROOT / "src" / "memoryflow" / "cli.py").read_text(encoding="utf-8"))
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert {name for name in called if name and name.endswith("_bytes")} == {"require_bytes"}


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
