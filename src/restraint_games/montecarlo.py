"""Monte Carlo play with stochastic type drift.

Repeatedly plays the signaling game under a fixed strategy profile on the
two-message grid {0, m}, letting a restrained type drift aggressive with
probability p between signaling and the t2 decision (drift never runs the
other way). The estimator exists to check the drift-tolerance threshold
empirically: with every trial restrained up front and a pooling profile,
State B's mean payoff converges to -p*V_B, which crosses its conflict
payoff -c exactly at p = c/V_B.

How t2 is played depends on the drift mode:

* ``literal``        -- the realized type acts on its label: aggressive
                        (native or drifted) exploits, restrained restrains.
* ``prior-weighted`` -- same play as literal, but the result additionally
                        reports State B's mean payoff conditioned on the
                        pre-drift type, whose on-path mixture weight under
                        pooling is the prior. The restrained-conditional
                        mean recovers -p*V_B; the unconditional mean is the
                        prior-weighted alternative reading of the drift
                        threshold.
* ``best-response``  -- the realized type plays its payoff-maximizing t2
                        action at the signal it sent, ties toward restraint.

Trial randomness comes from fixed counter offsets of a Philox stream keyed
by the seed (trial i always consumes row i of the draw matrix), so results
are bit-for-bit reproducible and independent of execution order; means use
numpy's pairwise summation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import IO, Optional

import numpy as np

from .game import (
    TOL,
    MechanismSpec,
    ModelParams,
    Outcome,
    ParameterError,
    TypeLabel,
    payoff,
    validate_signal,
)
from .oracle import StrategyProfile

R = TypeLabel.RESTRAINED
A = TypeLabel.AGGRESSIVE


class DriftMode(Enum):
    LITERAL = "literal"
    PRIOR_WEIGHTED = "prior-weighted"
    BEST_RESPONSE = "best-response"


def pooling_profile(m: float) -> StrategyProfile:
    """Both types signal m, B stands down after m and fights the null
    signal, both types restrain on path. The default simulation profile."""
    messages = (0.0,) if m == 0 else (0.0, float(m))
    return StrategyProfile(
        signal_of={R: float(m), A: float(m)},
        fight_after={msg: msg != m for msg in messages},
        t2_action={
            (t, msg): Outcome.RESTRAINT if msg == m or t is R else Outcome.EXPLOIT
            for t in TypeLabel
            for msg in messages
        },
    )


@dataclass(frozen=True)
class SimConfig:
    spec: MechanismSpec
    params: ModelParams
    m: float
    profile: StrategyProfile
    n_trials: int
    seed: int
    drift_mode: DriftMode = DriftMode.LITERAL
    allow_degenerate_prior: bool = False

    def messages(self) -> tuple[float, ...]:
        return (0.0,) if self.m == 0 else (0.0, float(self.m))

    def validate(self) -> None:
        self.params.validate(allow_degenerate_prior=self.allow_degenerate_prior)
        validate_signal(self.m)
        if self.n_trials < 1:
            raise ParameterError("n_trials >= 1", f"n_trials={self.n_trials}")
        if self.seed < 0:
            raise ParameterError("seed >= 0", f"seed={self.seed}")
        msgs = set(self.messages())
        if not set(self.profile.signal_of) == {R, A}:
            raise ParameterError("profile signals both types")
        if not set(self.profile.signal_of.values()) <= msgs:
            raise ParameterError(
                "profile signals within {0, m}",
                f"signals={sorted(self.profile.signal_of.values())}",
            )
        if set(self.profile.fight_after) != msgs:
            raise ParameterError(
                "profile fight rule total over {0, m}",
                f"covers={sorted(self.profile.fight_after)}",
            )
        needed = {(t, msg) for t in TypeLabel for msg in msgs}
        if set(self.profile.t2_action) != needed:
            raise ParameterError("profile t2 actions total over {0, m}")


@dataclass(frozen=True)
class SimResult:
    outcome_counts: dict[Outcome, int]
    mean_u_A: float
    mean_u_B: float
    standard_error_u_B: float
    mean_u_B_by_initial_type: Optional[dict[str, Optional[float]]] = field(default=None)

    def to_dict(self) -> dict:
        d = {
            "outcome_counts": {o.value: int(n) for o, n in self.outcome_counts.items()},
            "mean_u_A": self.mean_u_A,
            "mean_u_B": self.mean_u_B,
            "standard_error_u_B": self.standard_error_u_B,
        }
        if self.mean_u_B_by_initial_type is not None:
            d["mean_u_B_by_initial_type"] = dict(self.mean_u_B_by_initial_type)
        return d


def simulate(config: SimConfig, trial_log: Optional[IO[str]] = None) -> SimResult:
    """Run the configured trials; optionally dump one CSV line per trial."""
    config.validate()
    p, spec, prof = config.params, config.spec, config.profile
    n = config.n_trials
    # payoffs never depend on the prior, so a degenerate prior (allowed
    # here behind the override) must not trip payoff()'s strict validation
    pay = replace(p, prior=0.5) if not 0.0 < p.prior < 1.0 else p

    draws = np.random.Generator(np.random.Philox(key=config.seed)).random((n, 2))
    restrained0 = draws[:, 0] < p.prior

    m_R, m_A = prof.signal_of[R], prof.signal_of[A]
    fought = np.where(restrained0, prof.fight_after[m_R], prof.fight_after[m_A])
    msg = np.where(restrained0, m_R, m_A)

    drifted = restrained0 & ~fought & (draws[:, 1] < p.p)
    aggressive_final = ~restrained0 | drifted

    if config.drift_mode is DriftMode.BEST_RESPONSE:
        # exploit only when strictly better at that cell; ties restrain
        def prefers_exploit(t: TypeLabel, m: float) -> bool:
            gain = (
                payoff(spec, pay, t, Outcome.EXPLOIT, m).u_A
                - payoff(spec, pay, t, Outcome.RESTRAINT, m).u_A
            )
            return gain > TOL

        exploit = ~fought & np.where(
            aggressive_final,
            np.where(msg == m_R, prefers_exploit(A, m_R), prefers_exploit(A, m_A)),
            np.where(msg == m_R, prefers_exploit(R, m_R), prefers_exploit(R, m_A)),
        )
    else:
        exploit = ~fought & aggressive_final

    # outcome codes: 0 conflict, 1 exploit, 2 restraint
    outcome_code = np.where(fought, 0, np.where(exploit, 1, 2))

    u_a = np.empty(n, dtype=float)
    u_b = np.empty(n, dtype=float)
    outcome_of_code = {0: Outcome.PREVENTIVE_CONFLICT, 1: Outcome.EXPLOIT, 2: Outcome.RESTRAINT}
    for code, outcome in outcome_of_code.items():
        for theta, theta_mask in ((R, ~aggressive_final), (A, aggressive_final)):
            for m_cell in set(prof.signal_of.values()):
                mask = (outcome_code == code) & theta_mask & (msg == m_cell)
                if not mask.any():
                    continue
                pair = payoff(spec, pay, theta, outcome, m_cell)
                u_a[mask] = pair.u_A
                u_b[mask] = pair.u_B

    counts = np.bincount(outcome_code, minlength=3)
    by_initial: Optional[dict[str, Optional[float]]] = None
    if config.drift_mode is DriftMode.PRIOR_WEIGHTED:
        by_initial = {
            "restrained": float(u_b[restrained0].mean()) if restrained0.any() else None,
            "aggressive": float(u_b[~restrained0].mean()) if (~restrained0).any() else None,
        }

    if trial_log is not None:
        writer = csv.writer(trial_log, lineterminator="\n")
        writer.writerow(
            ["trial", "theta_initial", "theta_final", "message", "fought", "outcome", "u_A", "u_B"]
        )
        outcome_names = {0: "conflict", 1: "exploit", 2: "restraint"}
        for i in range(n):
            writer.writerow(
                [
                    i,
                    int(not restrained0[i]),
                    int(aggressive_final[i]),
                    msg[i],
                    "true" if fought[i] else "false",
                    outcome_names[int(outcome_code[i])],
                    u_a[i],
                    u_b[i],
                ]
            )

    return SimResult(
        outcome_counts={outcome_of_code[code]: int(counts[code]) for code in range(3)},
        mean_u_A=float(u_a.mean()),
        mean_u_B=float(u_b.mean()),
        standard_error_u_B=(
            float(u_b.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        ),
        mean_u_B_by_initial_type=by_initial,
    )
