"""Every name a module exports exists and is re-exported by the package."""

import ast
import importlib.util
import types
from pathlib import Path

import pytest

import levnet
from levnet import balance_sheet, cli, growth, network, panel_io, sim

ROOT = Path(__file__).resolve().parents[1]

MODULES = (balance_sheet, growth, network, sim)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_exists_and_is_reexported(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
        assert getattr(levnet, name, None) is getattr(module, name), \
            f"levnet does not re-export {module.__name__}.{name}"


def test_package_exports_only_listed_names():
    listed = set().union(*(m.__all__ for m in MODULES))
    public = {name for name, value in vars(levnet).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == listed


def test_per_period_engine_is_gone():
    # the scalar engine keeps its state inside run; the per-period API and
    # its record types live on only as the test oracle, tests/sim_reference.py
    gone = {"SimState", "SimEvent", "AdjacencyHistory", "LoanRecord", "init", "step",
            "grant_loan", "apply_shock", "settle_repayments"}
    assert not gone & set(vars(sim)) and not gone & set(vars(levnet))


def names_imported_from_cli():
    """Every name that the scripts, the tests and the benchmark import from
    ``levnet.cli``."""
    names = set()
    for path in sorted({*ROOT.glob("scripts/*.py"), *ROOT.glob("tests/*.py"),
                        *ROOT.glob("perfbench/*.py")}):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "levnet.cli":
                names.update(alias.name for alias in node.names)
    return names


def tracer_cli_bindings():
    """The names the benchmark's tracer wraps in ``levnet.cli`` (``cli:`` sites)."""
    spec = importlib.util.spec_from_file_location("trace_child",
                                                  ROOT / "perfbench" / "trace_child.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {binding.partition(":")[2] for bindings, _ in tracer.SITES.values()
            for binding in bindings if binding.startswith("cli:")}


def test_cli_keeps_every_name_its_callers_use():
    imported = names_imported_from_cli()
    bound = tracer_cli_bindings()
    assert {"_rho_grid", "read_sim_config", "main"} <= imported
    assert {"ingest_panel", "write_panel_csv", "replication_study", "run"} <= bound
    for name in imported | set(cli.__all__):
        assert hasattr(cli, name), f"levnet.cli lost {name!r}"
    # the tracer wraps a binding only if it is a function of cli's own namespace
    for name in bound:
        assert callable(vars(cli).get(name)), f"levnet.cli binds no {name!r}"
    # a panel-layer name that cli calls is panel_io's own function, not a copy
    for name in imported | bound | set(cli.__all__):
        if name in vars(panel_io):
            assert getattr(cli, name) is getattr(panel_io, name), name
    # callers import from cli, and cli exports, only what cli.py defines
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert imported | set(cli.__all__) <= defined, (imported | set(cli.__all__)) - defined
    assert cli.__all__ == [
        "EXIT_COMPUTE", "EXIT_IO", "EXIT_OK", "EXIT_VALIDATION",
        "cmd_curve", "cmd_ingest", "cmd_network", "cmd_simulate", "cmd_study",
        "main", "read_sim_config",
    ]
    # the panel layer's names are imported from levnet.panel_io, not from here
    assert not set(panel_io.__all__) & set(cli.__all__)


def test_panel_io_holds_the_reader_and_the_writers():
    # the command module forks nothing and parses no csv itself
    assert not {"csv", "array", "forked", "workers", "_forked"} & set(vars(cli))
    for name in ("_read_columns", "_read_range", "_MIN_RANGE_BYTES", "_MAX_CELLS",
                 "_MIN_WRITE_RUNS", "_SENT_ROWS_PER_RUN", "_BLOCK_BYTES"):
        assert hasattr(panel_io, name) and not hasattr(cli, name), name
    # at run time panel_io imports nothing of the package above the panel
    # layer; network and growth it names only under TYPE_CHECKING
    tree = ast.parse(Path(panel_io.__file__).read_text(encoding="utf-8"))
    typing_only = {id(node) for block in ast.walk(tree)
                   if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
                   for node in ast.walk(block)}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in typing_only:
            imported |= {node.module} if node.module else {a.name for a in node.names}
    assert imported == {"balance_sheet", "_forked"}
