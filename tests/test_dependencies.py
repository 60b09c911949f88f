"""What ``src/repro`` imports is what ``pyproject.toml`` declares.

README promises a standard-library-only package with no runtime extras;
these tests hold the source tree to that, so a clean checkout runs with
exactly the packages the metadata names.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _imported_roots(path):
    """Root package of every absolute import in ``path``, lazy ones
    (inside functions) included."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def _declared_runtime_packages():
    import tomllib
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = list(project.get("dependencies", []))
    for extra, packages in project.get("optional-dependencies", {}).items():
        if extra != "test":  # runtime code must not lean on the test tools
            requirements += packages
    return {re.split(r"[^A-Za-z0-9_.-]", requirement, maxsplit=1)[0]
            .lower().replace("-", "_") for requirement in requirements}


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="needs sys.stdlib_module_names and tomllib")
def test_src_imports_only_stdlib_repro_and_declared_packages():
    allowed = (set(sys.stdlib_module_names) | {"repro"}
               | _declared_runtime_packages())
    undeclared = sorted(
        f"{path.relative_to(ROOT)}:{lineno} imports {root}"
        for path in (SRC / "repro").rglob("*.py")
        for root, lineno in _imported_roots(path)
        if root not in allowed)
    assert not undeclared, undeclared


def test_open_loop_run_loads_no_numpy():
    # The open-loop source fits its CBMG chain in pure Python; numpy used
    # to ride in with it (+16 MB RSS) although nothing declared it.
    script = (
        "import sys\n"
        "import repro.harness\n"
        "from repro.harness.config import ClusterConfig, tiny_scale\n"
        "result = (repro.harness.Experiment.from_config(ClusterConfig(\n"
        "              replicas=3, num_ebs=30, scale=tiny_scale(), seed=3))\n"
        "          .load('open', wips=400.0, population=1000)\n"
        "          .baseline().run())\n"
        "assert result.whole_window().completed > 0\n"
        "loaded = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "assert not loaded, loaded\n")
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert completed.returncode == 0, completed.stderr[-2000:]
