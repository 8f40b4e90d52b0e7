"""Monte Carlo play with stochastic type drift.

Repeatedly plays the signaling game under a fixed strategy profile on the
two-message grid {0, m}, letting a restrained type drift aggressive with
probability p between signaling and the t2 decision (drift never runs the
other way). The estimator exists to check the drift-tolerance threshold
empirically: with every trial restrained up front and a pooling profile,
State B's mean payoff converges to -p*V_B, which crosses its conflict
payoff -c exactly at p = c/V_B.

The signal follows the initial type, B's t1 choice follows the signal, and
the t2 action follows the final type at that signal. Drift only reaches a
restrained type B did not fight, so a trial is in one of three (initial,
final) type cells. ``simulate`` plays each cell once into a table of
signal, outcome and payoffs, and keeps one cell index per trial.

How a cell's t2 action is chosen depends on the drift mode:

* ``literal`` -- the final type acts on its label: aggressive (native or
  drifted) exploits, restrained restrains.
* ``prior-weighted`` -- literal play, and the result also reports State B's
  mean payoff conditioned on the pre-drift type, whose on-path weight under
  pooling is the prior. The restrained-conditional mean recovers -p*V_B;
  the unconditional mean is the prior-weighted reading of the threshold.
* ``best-response`` -- the final type plays its payoff-maximizing t2 action
  at the signal it sent, exploiting only when better by more than ``TOL``.

Trial randomness comes from fixed counter offsets of a Philox stream keyed
by the seed (trial i always consumes row i of the draw matrix), so results
are bit-for-bit reproducible and independent of execution order; means use
numpy's pairwise summation over the per-trial payoffs.
"""

from __future__ import annotations

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
    signal_grid,
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
    messages = signal_grid(m)
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
        return signal_grid(self.m)

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
    """Run the configured trials; optionally dump one CSV line per trial.

    Trial i reads row (u0, u1) of the draw matrix: it starts restrained when
    u0 < prior, and a restrained type B did not fight drifts when u1 < p.
    Its cell index is 0 if it starts aggressive, else 1, plus 1 if it drifts.
    """
    config.validate()
    p, spec, prof = config.params, config.spec, config.profile
    n = config.n_trials
    # payoffs never depend on the prior, so a degenerate prior (allowed
    # here behind the override) must not trip payoff()'s strict validation
    pay = replace(p, prior=0.5) if not 0.0 < p.prior < 1.0 else p

    table = []  # per reachable (initial type, final type) cell, in index order
    for initial, final in ((A, A), (R, R), (R, A)):
        signal = float(prof.signal_of[initial])
        fought = bool(prof.fight_after[signal])
        if fought:
            outcome = Outcome.PREVENTIVE_CONFLICT
        elif config.drift_mode is DriftMode.BEST_RESPONSE:
            # exploit only when strictly better at that cell; ties restrain
            gain = (
                payoff(spec, pay, final, Outcome.EXPLOIT, signal).u_A
                - payoff(spec, pay, final, Outcome.RESTRAINT, signal).u_A
            )
            outcome = Outcome.EXPLOIT if gain > TOL else Outcome.RESTRAINT
        else:
            outcome = Outcome.EXPLOIT if final is A else Outcome.RESTRAINT
        a, b = map(float, payoff(spec, pay, final, outcome, signal))
        row = f"{initial.theta},{final.theta},{signal!r},{str(fought).lower()},{outcome.value},"
        row += f"{a!r},{b!r}\n"
        table.append((outcome, a, b, row))
    outcomes, u_A, u_B, rows = zip(*table)

    draws = np.random.Generator(np.random.Philox(key=config.seed)).random((n, 2))
    restrained0 = draws[:, 0] < p.prior
    cell = restrained0.astype(np.intp)
    if not prof.fight_after[prof.signal_of[R]]:
        cell += restrained0 & (draws[:, 1] < p.p)
    del draws
    u_a = np.array(u_A)[cell]
    u_b = np.array(u_B)[cell]

    counts = np.bincount(cell, minlength=3)
    outcome_counts = {o: sum(int(k) for k, c in zip(counts, outcomes) if c is o) for o in Outcome}
    by_initial: Optional[dict[str, Optional[float]]] = None
    if config.drift_mode is DriftMode.PRIOR_WEIGHTED:
        by_initial = {
            "restrained": float(u_b[restrained0].mean()) if restrained0.any() else None,
            "aggressive": float(u_b[~restrained0].mean()) if (~restrained0).any() else None,
        }

    if trial_log is not None:
        trial_log.write("trial,theta_initial,theta_final,message,fought,outcome,u_A,u_B\n")
        trial_log.writelines(f"{i},{rows[k]}" for i, k in enumerate(cell.tolist()))

    return SimResult(
        outcome_counts=outcome_counts,
        mean_u_A=float(u_a.mean()),
        mean_u_B=float(u_b.mean()),
        standard_error_u_B=float(u_b.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
        mean_u_B_by_initial_type=by_initial,
    )
