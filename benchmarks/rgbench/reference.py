"""The benchmark's own statement of the closed forms and of play under the
pooling profile, used to check outputs without trusting the package.

Everything here follows the model as the README states it: the payoff table,
the three existence conditions, and the 1e-9 weak-inequality tolerance.
Clauses within ``EDGE`` of their boundary may resolve either way, so a
change of tolerance convention does not read as a wrong answer.
"""

from __future__ import annotations

import math

TOL = 1e-9
EDGE = 1e-6
#: Standard errors a Monte Carlo estimate may sit from its analytic value.
K_SE = 6.0

SYMBOLS = ("c", "V_D", "V_B", "r", "p", "prior", "m")
CONTINGENT = ("tying-hands", "reducible")
SUNK_LIKE = ("sunk", "installment")

CSV_HEADER = [
    "mechanism", "variant", "c", "V_D", "V_B", "r", "p", "prior", "m",
    "classification", "pooling_slack", "separating_slack_1",
    "separating_slack_2", "typeshift_slack", "oracle_checked",
]


def is_valid(pt: dict) -> bool:
    return (
        pt["c"] > 0
        and pt["V_D"] > 0
        and pt["V_B"] > pt["c"]
        and pt["r"] >= 0
        and 0.0 <= pt["p"] <= 1.0
        and 0.0 < pt["prior"] < 1.0
        and pt["m"] >= 0
    )


def slacks(mechanism: str, variant: str, pt: dict):
    """(pooling, [separating clauses], type-shift or None) slacks."""
    c, vd, vb, m = pt["c"], pt["V_D"], pt["V_B"], pt["m"]
    if mechanism in CONTINGENT:
        pooling = m - vd
        r_eff = pt["r"] if variant == "risk" else 0.0
        separating = [(m - c) - vd, r_eff - c]
    else:
        pooling = -vd
        separating = [-vd]
    typeshift = c / vb - pt["p"] if pt["p"] > 0 else None
    return pooling, separating, typeshift


def _holds(slack: float) -> set:
    """Verdicts a clause may take: both when it sits at its boundary."""
    if abs(slack) <= EDGE:
        return {True, False}
    return {slack >= -TOL}


def allowed_classifications(mechanism: str, variant: str, pt: dict) -> set:
    if not is_valid(pt):
        return {"Invalid"}
    pooling, separating, _ = slacks(mechanism, variant, pt)
    pool_v = _holds(pooling)
    sep_v = {True}
    for s in separating:
        v = _holds(s)
        sep_v = {a and b for a in sep_v for b in v}
    names = {
        (True, True): "Both",
        (True, False): "PoolingOnly",
        (False, True): "SeparatingOnly",
        (False, False): "Neither",
    }
    return {names[(a, b)] for a in pool_v for b in sep_v}


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def drift_expectations(mechanism: str, variant: str, pt: dict, mode: str) -> dict:
    """Outcome probabilities and payoff moments under the pooling profile.

    Both types send m and B stands down after it, so nothing is ever fought.
    A restrained type drifts aggressive with probability p. An aggressive
    type (native or drifted) exploits, except in best-response mode where it
    exploits only when that is strictly better at m. A restrained type never
    exploits: exploiting pays it -m against a restraint payoff of 0 or -m.
    """
    m, vd, vb, prior, p = pt["m"], pt["V_D"], pt["V_B"], pt["prior"], pt["p"]
    r_eff = pt["r"] if variant == "risk" else 0.0
    sunk_like = mechanism in SUNK_LIKE
    u_restrained = -m if sunk_like else 0.0
    u_aggr_restrain = (-r_eff - m) if sunk_like else -r_eff
    u_aggr_exploit = vd - m
    exploits = mode != "best-response" or (u_aggr_exploit - u_aggr_restrain > TOL)
    q_aggr = (1.0 - prior) + prior * p
    p_exploit = q_aggr if exploits else 0.0
    u_aggr = u_aggr_exploit if exploits else u_aggr_restrain
    mean_a = (1.0 - q_aggr) * u_restrained + q_aggr * u_aggr
    var_a = (1.0 - q_aggr) * u_restrained**2 + q_aggr * u_aggr**2 - mean_a**2
    return {
        "p_exploit": p_exploit,
        "mean_u_A": mean_a,
        "var_u_A": max(var_a, 0.0),
        "mean_u_B": -vb * p_exploit,
        "var_u_B": vb * vb * p_exploit * (1.0 - p_exploit),
        # prior-weighted: B's mean payoff by the type before drift
        "mean_u_B_restrained": -vb * p if exploits else 0.0,
        "var_u_B_restrained": vb * vb * p * (1.0 - p) if exploits else 0.0,
        "mean_u_B_aggressive": -vb if exploits else 0.0,
    }


def within(value: float, expected: float, variance: float, n: float) -> bool:
    """|value - expected| within K_SE standard errors (plus rounding)."""
    se = math.sqrt(variance / n) if n > 0 else 0.0
    return abs(value - expected) <= K_SE * se + 1e-9 * max(1.0, abs(expected))
