"""Closed-form existence conditions for pure-strategy equilibria.

Each closed form is written once, in :func:`slack_rule`, as signed slacks over
plain floats: positive means strictly satisfied, zero is the boundary, negative
is violated. A spec's rule reads its mechanism, variant and tie floor
``tie_floor(0)`` (:func:`~.game.tie_floor`) once, when it is made, and gives the
slacks and the pooling and separating verdicts, which the sweep, :func:`classify`
and the oracle cross-check read. :func:`holds` is the drift clause's tie test.
:func:`classify` wraps slacks and verdicts into :class:`ConditionReport` clauses;
:func:`pooling_exists` and :func:`separating_exists` are views of its reports.

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

from typing import Callable, NamedTuple, Optional

from .game import (
    Mechanism,
    MechanismSpec,
    ModelParams,
    Variant,
    tie_floor,
    validate_signal,
)


class Clause(NamedTuple):
    """One weak inequality with its signed slack."""

    name: str
    expression: str
    slack: float

    def to_dict(self) -> dict:
        return self._asdict()


class ConditionReport(NamedTuple):
    """Verdict on one equilibrium condition, clause by clause."""

    holds: bool
    clauses: tuple[Clause, ...]
    metrics: dict

    def to_dict(self) -> dict:
        d = {"holds": self.holds, "clauses": [c.to_dict() for c in self.clauses]}
        if self.metrics:
            d["metrics"] = dict(self.metrics)
        return d


def holds(slacks: tuple[float, ...]) -> bool:
    """Every slack is at least 0 by the tie rule: at least ``tie_floor(0)``."""
    floor = tie_floor(0)
    return all(slack >= floor for slack in slacks)


def _report(
    names: list[tuple[str, str]], slacks: tuple[float, ...], verdict: bool, metrics: Optional[dict] = None
) -> ConditionReport:
    """A report of the clauses named by (name, expression) pairs."""
    clauses = tuple(Clause(name, expr, slack) for (name, expr), slack in zip(names, slacks))
    return ConditionReport(holds=verdict, clauses=clauses, metrics=metrics or {})


#: Mechanisms whose cost m enters the aggressive type's t2 comparison.
_CONTINGENT = (Mechanism.TYING_HANDS, Mechanism.REDUCIBLE)


def _drift_slack(c: float, V_B: float, p: float) -> float:
    return c / V_B - p


def slack_rule(spec: MechanismSpec) -> Callable[[ModelParams, float], tuple]:
    """``spec``'s ``rule(params, m)`` at a validated point, its mechanism, variant and floor ``tie_floor(0)`` read
    once: the pooling, separating and (if p > 0) drift slacks, then whether pooling and separating hold, as bools."""
    contingent, risk, floor = spec.mechanism in _CONTINGENT, spec.variant is Variant.RISK, tie_floor(0)

    def rule(params: ModelParams, m: float) -> tuple[tuple, tuple, Optional[float], bool, bool]:
        c, V_D, V_B, r, p, _ = params
        if contingent:  # base is the r = 0 degeneration, in r's number type
            pooling, separating = (m - V_D,), ((m - c) - V_D, (r if risk else r - r) - c)
        else:  # non-contingent cost: m cancels out of the t2 comparison
            pooling = separating = (-V_D,)
        pools, separates = bool(pooling[0] >= floor), bool(separating[0] >= floor and separating[-1] >= floor)
        return pooling, separating, _drift_slack(c, V_B, p) if p > 0 else None, pools, separates

    return rule


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
    return _type_shift(params, _drift_slack(params.c, params.V_B, params.p))


def _type_shift(params: ModelParams, slack: float) -> ConditionReport:
    metrics = {"expected_not_fight_payoff": -params.p * params.V_B}
    return _report([("drift_tolerated", "p <= c/V_B")], (slack,), holds((slack,)), metrics)


class EquilibriumReport(NamedTuple):
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
    pooling, separating, drift, pools, separates = slack_rule(spec)(params, m)
    if spec.mechanism in _CONTINGENT:
        r_expr = "c <= r" if spec.variant is Variant.RISK else "c <= 0"
        pooling_names = [("exploit_deterred", "V_D <= m")]
        separating_names = [("mimicry_deterred", "V_D <= m* - c"), ("risk_outweighs_conflict", r_expr)]
    else:
        pooling_names = [("noncontingent_cost", "0 >= V_D")]
        separating_names = [("noncontingent_cost", "V_D <= 0")]
    return EquilibriumReport(
        mechanism=spec,
        m=m,
        pooling_on_restraint=_report(pooling_names, pooling, pools),
        separating=_report(separating_names, separating, separates),
        type_shift_refrain=None if drift is None else _type_shift(params, drift),
    )
