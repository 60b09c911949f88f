"""Documentation consistency: DESIGN.md and README reference real things."""

import argparse
import importlib
import re
from pathlib import Path

import pytest

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


def _resolve(dotted):
    """Import the longest module prefix of ``dotted``, then ``getattr``
    the rest (a document may name a class or function in a module)."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as error:
            if not f"{module_name}.".startswith(f"{error.name}."):
                raise  # the module exists but one of its imports does not
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target


def test_modules_in_design_inventory_exist():
    """Every `repro.…` name a document gives resolves to a real module
    or attribute."""
    seen = 0
    for name in COMMAND_DOCS:
        for dotted in set(re.findall(r"`(repro\.[\w.]*\w)`", read(name))):
            seen += 1
            try:
                _resolve(dotted)
            except (ImportError, AttributeError) as error:
                pytest.fail(f"{name} names {dotted}, which does not "
                            f"resolve: {error}")
    assert seen


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


def test_config_attributes_named_in_docs_exist():
    """A `ClusterConfig.x`, `ExperimentScale.x`, `ProxyParams.x`,
    `PaxosConfig.x` or `TreplicaConfig.x` a document names is a real
    field (or method) of that class; `A.x/y` names two."""
    from repro.harness.config import ClusterConfig, ExperimentScale
    from repro.paxos.config import PaxosConfig
    from repro.treplica.config import TreplicaConfig
    from repro.web.proxy import ProxyParams

    classes = {cls.__name__: cls
               for cls in (ClusterConfig, ExperimentScale, ProxyParams,
                           PaxosConfig, TreplicaConfig)}
    pattern = r"\b(%s)\.(\w+(?:/\w+)*)" % "|".join(classes)
    seen = 0
    for name in COMMAND_DOCS:
        for owner, attrs in set(re.findall(pattern, read(name))):
            cls = classes[owner]
            for attr in attrs.split("/"):
                seen += 1
                assert (attr in cls.__dataclass_fields__
                        or hasattr(cls, attr)), \
                    f"{name} names {owner}.{attr}, which does not exist"
    assert seen


def test_readme_faultload_table_lists_every_kind_and_parses():
    from repro.faults.faultload import KINDS, Faultload
    readme = read("README.md")
    table = readme[readme.index("| Event | Meaning |"):].split("\n\n")[0]
    examples = []
    for row in table.splitlines()[2:]:
        first_column = re.split(r"(?<!\\)\|", row)[1]
        examples += [example.replace("\\|", "|")
                     for example in re.findall(r"`([^`]+)`", first_column)]
    documented = {example.split("@")[0] for example in examples}
    assert set(KINDS) <= documented, set(KINDS) - documented
    for example in examples:
        Faultload.parse(example)


def test_readme_preset_table_matches_the_presets():
    """Each row of the README's preset table names a preset, its
    ``repro run`` name, and (first) the faultload its method injects
    with default arguments."""
    from repro.faults.faultload import Faultload
    from repro.harness import Experiment, paper_scale
    from repro.harness.experiment import PRESETS
    readme = read("README.md")
    table = readme[readme.index("| `Experiment` method |"):]
    rows = [re.split(r"(?<!\\)\|", row)[1:4]
            for row in table.split("\n\n")[0].splitlines()[2:]]
    documented = set()
    for method_column, cli_column, spec_column in rows:
        method = re.findall(r"`(\w+)\(", method_column)[0]
        documented.add(method)
        assert re.findall(r"`(\w+)`", cli_column) == (
            [PRESETS[method].cli] if PRESETS[method].cli else [])
        specs = re.findall(r"`([^`]+)`", spec_column)
        experiment = getattr(Experiment(paper_scale()), method)()
        resolved = experiment._resolve_faultload(experiment.build_config())
        assert resolved.events == Faultload.parse(
            specs[0] if specs else "").events, method
    assert documented == set(PRESETS)


def test_readme_load_table_examples_build_a_config():
    from repro.harness.cli import _build_experiment, build_parser
    readme = read("README.md")
    table = readme[readme.index("| Load spec | Meaning |"):].split("\n\n")[0]
    examples = []
    for row in table.splitlines()[2:]:
        first_column = row.split("|")[1]
        # `...,retry=POLICY` rows continue any spec; hang them on `closed`.
        examples += [example.replace("...,", "closed:")
                     for example in re.findall(r"`([^`]+)`", first_column)]
    assert len(examples) >= 9, examples
    for example in examples:
        args = build_parser().parse_args(["run", f"--load={example}"])
        _build_experiment(args).build_config()


def test_readme_geo_table_examples_build_a_config():
    from repro.harness.cli import _build_experiment, build_parser
    readme = read("README.md")
    table = readme[readme.index("| Geo spec | Meaning |"):].split("\n\n")[0]
    examples = [re.findall(r"`--geo ([^`]+)`", row)[0].replace("\\|", "|")
                for row in table.splitlines()[2:]]
    assert len(examples) >= 6, examples
    for example in examples:
        args = build_parser().parse_args(["run", f"--geo={example}"])
        assert _build_experiment(args).build_config().geo is not None


def test_design_md_event_table_matches_the_emit_sites():
    """DESIGN.md section 13's event table is the one place that says
    which layer emits each event kind and which subscribers take it."""
    from repro.faults.checker import SafetyChecker
    from repro.obs.recorder import FlightRecorder
    from repro.obs.trace import SpanTracer
    design = read("DESIGN.md")
    table = design[design.index("| Kind | Emitted by | Subscribers |"):]
    rows = {}
    for row in table.split("\n\n")[0].splitlines()[2:]:
        kinds, _layer, subscribers = row.split("|")[1:4]
        for kind in re.findall(r"`([a-z_]+(?:\.[a-z0-9_{}]+)?)`", kinds):
            rows[kind] = set(re.findall(r"[a-z]+", subscribers))
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in (ROOT / "src").rglob("*.py"))
    emitted = set(re.findall(r'emit\(\s*f?"([a-z_]+(?:\.[a-z0-9_{}]+)?)"',
                             source))
    assert emitted <= set(rows), emitted - set(rows)
    for kind, subscribers in rows.items():
        assert f'"{kind}"' in source, f"DESIGN.md lists {kind}; nothing emits it"
        assert subscribers, f"{kind}: no subscriber takes it"

    def matches(row, kind):
        template = re.sub(r"\\\{\w+\\\}", r"\\w+", re.escape(row))
        return re.fullmatch(template, kind) is not None

    declared = {"audit": set(SafetyChecker.AUDIT_KINDS),
                "ring": FlightRecorder.KINDS,
                "milestones": SpanTracer.MILESTONES,
                "spans": SpanTracer.KINDS}
    for name, kinds in declared.items():
        for kind in kinds:
            documented = [row for row in rows if matches(row, kind)]
            assert documented, f"{name} takes {kind}; DESIGN.md omits it"
            for row in documented:
                assert name in rows[row], f"{row}: {name} missing"
    for row, subscribers in rows.items():
        for name in subscribers:
            assert any(matches(row, kind) for kind in declared[name]), \
                f"{row}: {name} does not take it"
