"""Every name a module exports exists and is re-exported by the package."""

import types

import pytest

import levnet
from levnet import balance_sheet, growth, network, sim

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
