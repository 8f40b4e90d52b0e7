"""Closed-form existence conditions for pure-strategy equilibria.

Each checker returns a :class:`ConditionReport` whose clauses carry a
signed slack: positive means strictly satisfied, zero is the boundary,
negative is violated. A report holds when every clause's slack clears
``-TOL``, so boundary points count as satisfied (indifference breaks
toward restraint). :func:`classify` validates a point once and builds
every report there; :func:`pooling_exists` and :func:`separating_exists`
are views of its reports.

The encoded conditions, with m the pooled signal and m* the separating
signal:

* pooling on restraint -- tying hands and reducible costs pool exactly
  when ``V_D <= m``: the aggressive type compares exploiting (V_D - m)
  against restraining (0) at t2. Sunk and installment costs subtract m
  from both branches, so the comparison collapses to ``0 >= V_D``, which
  ``V_D > 0`` rules out at every signal level.
* separating -- only the risk variants of tying hands and reducible costs
  can separate, and they need both ``V_D <= m* - c`` (after mimicking the
  restraint signal, exploiting is no better than the conflict the
  aggressive type faces on path) and ``c <= r`` (leaving the advantage
  unexploited is no better than that conflict either). Base variants are
  the r = 0 degeneration, where ``c <= 0`` fails by construction. For
  sunk and installment costs, deterring the mimic needs ``m* >= V_D + c``
  while keeping the restrained type on path needs ``m* <= c``; together
  these force ``V_D <= 0``, impossible, whatever r is.
* type-shift tolerance -- when a restrained type can drift aggressive
  with probability p before t2, State B's expected payoff from standing
  down is -p*V_B, so it refrains from conflict only when ``p <= c/V_B``.

The pooling thresholds describe the base game. Under a risk variant with
r > 0, the aggressive type's restraint payoff shifts to -r, and the
exhaustive weak-PBE finder in :mod:`restraint_games.oracle` genuinely
narrows the pooling region (to ``m >= V_D + r`` with ``r <= c``); the
cross-checker reports that divergence rather than hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .game import (
    TOL,
    Mechanism,
    MechanismSpec,
    ModelParams,
    Variant,
    validate_signal,
)


@dataclass(frozen=True)
class Clause:
    """One weak inequality with its signed slack."""

    name: str
    expression: str
    slack: float

    def to_dict(self) -> dict:
        return {"name": self.name, "expression": self.expression, "slack": self.slack}


@dataclass(frozen=True)
class ConditionReport:
    """Verdict on one equilibrium condition, clause by clause."""

    holds: bool
    clauses: tuple[Clause, ...]
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {"holds": self.holds, "clauses": [c.to_dict() for c in self.clauses]}
        if self.metrics:
            d["metrics"] = dict(self.metrics)
        return d


def _report(clauses: list[Clause], metrics: Optional[dict] = None) -> ConditionReport:
    holds = all(cl.slack >= -TOL for cl in clauses)
    return ConditionReport(holds=holds, clauses=tuple(clauses), metrics=metrics or {})


def pooling_exists(spec: MechanismSpec, params: ModelParams, m: float) -> ConditionReport:
    """Can both types pool on the restraint signal m?"""
    return classify(spec, params, m).pooling_on_restraint


def separating_exists(spec: MechanismSpec, params: ModelParams, m_star: float) -> ConditionReport:
    """Can the restrained type separate at signal m* while the aggressive
    type signals nothing and takes the preventive conflict?"""
    return classify(spec, params, m_star).separating


def type_shift_refrain(params: ModelParams) -> ConditionReport:
    """Does State B still stand down when the restrained type can drift
    aggressive with probability p?

    ``metrics["expected_not_fight_payoff"]`` carries -p*V_B, B's expected
    payoff from standing down against a drifting signaler.
    """
    params.validate()
    return _type_shift(params)


def _type_shift(params: ModelParams) -> ConditionReport:
    clauses = [Clause("drift_tolerated", "p <= c/V_B", params.c / params.V_B - params.p)]
    return _report(clauses, metrics={"expected_not_fight_payoff": -params.p * params.V_B})


@dataclass(frozen=True)
class EquilibriumReport:
    """Bundle of the equilibrium verdicts at one parameter point."""

    mechanism: MechanismSpec
    m: float
    pooling_on_restraint: ConditionReport
    separating: ConditionReport
    type_shift_refrain: Optional[ConditionReport] = None

    def to_dict(self) -> dict:
        d = {
            "mechanism": self.mechanism.to_dict(),
            "m": self.m,
            "pooling_on_restraint": self.pooling_on_restraint.to_dict(),
            "separating": self.separating.to_dict(),
        }
        if self.type_shift_refrain is not None:
            d["type_shift_refrain"] = self.type_shift_refrain.to_dict()
        return d


def classify(spec: MechanismSpec, params: ModelParams, m: float) -> EquilibriumReport:
    """Every closed-form verdict at one point, its inputs validated once.
    The type-shift report is attached only when drift is possible (p > 0)."""
    params.validate()
    validate_signal(m)
    if spec.mechanism in (Mechanism.TYING_HANDS, Mechanism.REDUCIBLE):
        r_expr = "c <= r" if spec.variant is Variant.RISK else "c <= 0"
        pooling = [Clause("exploit_deterred", "V_D <= m", m - params.V_D)]
        separating = [
            Clause("mimicry_deterred", "V_D <= m* - c", (m - params.c) - params.V_D),
            Clause("risk_outweighs_conflict", r_expr, spec.effective_r(params) - params.c),
        ]
    else:
        # Non-contingent cost: m cancels out of the t2 comparison.
        pooling = [Clause("noncontingent_cost", "0 >= V_D", -params.V_D)]
        separating = [Clause("noncontingent_cost", "V_D <= 0", -params.V_D)]
    return EquilibriumReport(
        mechanism=spec,
        m=m,
        pooling_on_restraint=_report(pooling),
        separating=_report(separating),
        type_shift_refrain=_type_shift(params) if params.p > 0 else None,
    )
