"""Equilibrium computation for two-player restraint-signaling games.

Importing the package loads none of its modules: each public name imports
its home module on first access (PEP 562), so a process pays only for the
modules it uses.
"""

import importlib

#: Each public name's home module.
_HOME = {
    name: module
    for module, names in (
        ("game", "TOL Mechanism MechanismSpec ModelParams Outcome ParameterError PayoffPair TypeLabel Variant"
         " payoff BudgetExceededError DiscrepancyError DriftMode"),
        ("conditions", "Clause ConditionReport EquilibriumReport classify pooling_exists separating_exists"
         " type_shift_refrain"),
        ("oracle", "BeliefAssignment DiscreteGame Discrepancy DiscrepancyReport PBECertificate PBEClass"
         " StrategyProfile find_all_pbe is_weak_pbe supporting_belief_interval verify_against_closed_form"),
        ("sweep", "Axis BoundaryPoint Classification GridSpec RegionRow boundary_trace run_sweep"),
        ("emit", "write_rows_csv write_rows_json"),
        ("montecarlo", "SimConfig SimResult pooling_profile simulate"),
    )
    for name in names.split()
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
