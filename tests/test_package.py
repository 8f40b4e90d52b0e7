"""The package namespace: every public name loads its home module on first access."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import restraint_games

#: The public names, as the package exported them when it imported every module.
PUBLIC = """
    TOL Mechanism MechanismSpec ModelParams Outcome ParameterError PayoffPair TypeLabel Variant payoff
    Clause ConditionReport EquilibriumReport classify pooling_exists separating_exists type_shift_refrain
    BeliefAssignment BudgetExceededError DiscreteGame Discrepancy DiscrepancyError DiscrepancyReport
    PBECertificate PBEClass StrategyProfile find_all_pbe is_weak_pbe supporting_belief_interval
    verify_against_closed_form Axis BoundaryPoint Classification GridSpec RegionRow boundary_trace
    run_sweep write_rows_csv write_rows_json DriftMode SimConfig SimResult pooling_profile simulate
""".split()


def test_all_lists_the_public_names():
    assert sorted(restraint_games.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_home_modules_object(name):
    value = getattr(restraint_games, name)
    # a class or function comes from the module that defines it; TOL from game
    home = importlib.import_module(getattr(value, "__module__", "restraint_games.game"))
    assert home.__name__.startswith("restraint_games.")
    assert value is getattr(home, name)
    assert name in dir(restraint_games)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        restraint_games.no_such_name  # noqa: B018
    assert not hasattr(restraint_games, "write_json")  # in emit, not exported


def test_a_name_loads_only_its_home_module():
    # a bare import loads no module; the names the CLI's error handling and
    # option table read load game alone
    code = (
        "import sys, restraint_games as rg\n"
        "for name in ('__version__', 'DriftMode', 'BudgetExceededError', 'DiscrepancyError', 'write_rows_csv',"
        " 'classify'):\n"
        "    getattr(rg, name)\n"
        "    print(name, *sorted(m[16:] for m in sys.modules if m.startswith('restraint_games.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "__version__",
        "DriftMode game",
        "BudgetExceededError game",
        "DiscrepancyError game",
        "write_rows_csv emit game",
        "classify conditions emit game",
    ]


def test_star_import_and_from_import():
    namespace: dict = {}
    exec("from restraint_games import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    from restraint_games import game

    assert game is sys.modules["restraint_games.game"]
