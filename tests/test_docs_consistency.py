"""Documentation consistency: DESIGN.md and README reference real things."""

import argparse
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The documents that tell a reader what to open and what to type.
COMMAND_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                ".claude/skills/verify/SKILL.md")


def read(name):
    return (ROOT / name).read_text(encoding="utf-8")


def test_design_md_bench_targets_exist():
    design = read("DESIGN.md")
    referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", design))
    assert referenced, "DESIGN.md must map experiments to bench files"
    for filename in referenced:
        assert (ROOT / "benchmarks" / filename).exists(), filename


def test_readme_examples_exist():
    readme = read("README.md")
    referenced = set(re.findall(r"examples/(\w+\.py)", readme))
    assert len(referenced) >= 4
    for filename in referenced:
        assert (ROOT / "examples" / filename).exists(), filename


def test_readme_bench_table_matches_directory():
    readme = read("README.md")
    referenced = set(re.findall(r"`(test_\w+\.py)`", readme))
    on_disk = {path.name for path in (ROOT / "benchmarks").glob("test_*.py")}
    missing = referenced - on_disk
    assert not missing, f"README references absent benches: {missing}"
    undocumented = on_disk - referenced - {"test_extensions.py"}
    assert not undocumented, f"benches missing from README: {undocumented}"


def test_experiments_md_covers_every_table_and_figure():
    experiments = read("EXPERIMENTS.md")
    for figure in ("Figure 3", "Figure 4", "Figure 5", "Figure 6",
                   "Figure 7", "Figure 8"):
        assert figure in experiments, figure
    for table in ("Table 1", "Table 2", "Tables 3/4", "Tables 5/6"):
        assert table in experiments, table


def test_design_md_confirms_paper_identity():
    design = " ".join(read("DESIGN.md").split())
    assert "DSN 2009" in design
    assert "No title collision" in design  # the mandated paper-text check


def test_modules_in_design_inventory_exist():
    design = read("DESIGN.md")
    for module in set(re.findall(r"`repro\.[\w.]+`", design)):
        path = module.strip("`").replace(".", "/")
        candidates = [ROOT / "src" / f"{path}.py",
                      ROOT / "src" / path / "__init__.py"]
        # Inventory rows may name an attribute inside a module.
        parent = ROOT / "src" / Path(path).parent
        candidates.append(parent.with_suffix(".py"))
        assert any(c.exists() for c in candidates), module


def test_bench_reports_named_in_docs_exist():
    for name in COMMAND_DOCS:
        # A name may be a glob (`bench_reports/fig5_one_crash_*.txt`).
        for pattern in set(re.findall(r"bench_reports/([\w.*-]+\.\w+)",
                                      read(name))):
            assert list((ROOT / "bench_reports").glob(pattern)), \
                f"{name} names absent bench_reports/{pattern}"


def test_cli_lines_in_docs_name_real_subcommands():
    from repro.harness.cli import build_parser

    subcommands = set()
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            subcommands.update(action.choices)
    assert subcommands
    for name in COMMAND_DOCS:
        for word in set(re.findall(r"python -m repro (\w+)", read(name))):
            assert word in subcommands, \
                f"{name}: `python -m repro {word}` is not a sub-command"
