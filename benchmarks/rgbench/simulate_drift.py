"""simulate-drift: ``simulate`` at 10^7 trials in each of the three drift
modes, plus one ``trial_log`` dump of 10^5 trials.

It loads only montecarlo, and sets the in-memory aggregate beside the
per-row writer. It is the one workload with a large peak resident set.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Optional

from restraint_games import (
    DriftMode,
    Mechanism,
    MechanismSpec,
    ModelParams,
    Outcome,
    SimConfig,
    Variant,
    pooling_profile,
    simulate,
)

from . import TEMPLATE_SEED, draw_scale, reference as ref
from .spans import Op

TRIALS = {"full": (10**7, 10**5), "tiny": (10**4, 10**3)}
LOG_HEADER = ["trial", "theta_initial", "theta_final", "message", "fought", "outcome", "u_A", "u_B"]


@dataclass(frozen=True)
class Case:
    name: str
    config: SimConfig
    with_log: bool = False


@dataclass
class Output:
    result: object
    log_text: str = ""


def generate(seed: int, size: str) -> list[Case]:
    """Fixed configurations scaled by a seeded factor (see ``draw_scale``);
    the seed also keys every run's random stream."""
    shapes = random.Random(TEMPLATE_SEED)
    rng = random.Random(seed)
    scale = draw_scale(rng)
    big, small = TRIALS[size]

    def config(mode: DriftMode, n: int) -> SimConfig:
        spec = MechanismSpec(shapes.choice(list(Mechanism)), shapes.choice(list(Variant)))
        c = shapes.uniform(0.2, 1.0)
        params = ModelParams(
            c=scale * c,
            V_D=scale * shapes.uniform(0.3, 2.0),
            V_B=scale * (c + shapes.uniform(0.5, 2.0)),
            r=scale * shapes.uniform(0.0, 1.5),
            p=shapes.uniform(0.05, 0.5),
            prior=shapes.uniform(0.2, 0.8),
        )
        m = scale * shapes.uniform(0.0, 3.0)
        return SimConfig(spec, params, m, pooling_profile(m), n, rng.randrange(2**32), mode)

    cases = [Case(f"simulate-{mode.value}", config(mode, big)) for mode in DriftMode]
    cases.append(Case("trial-log", config(DriftMode.LITERAL, small), with_log=True))
    return cases


def describe(cases) -> list[dict]:
    return [
        {"name": c.name, "spec": c.config.spec.to_dict(), "params": c.config.params.to_dict(),
         "m": c.config.m, "n_trials": c.config.n_trials, "seed": c.config.seed,
         "drift_mode": c.config.drift_mode.value, "trial_log": c.with_log}
        for c in cases
    ]


def points(cases):
    return [(c.config.spec, c.config.params, c.config.m) for c in cases]


def _run(case: Case, tr) -> Output:
    n = case.config.n_trials
    if case.with_log:
        log = io.StringIO()
        with tr.span("montecarlo.simulate", tag="log") as s:
            result = simulate(case.config, trial_log=log)
        out = Output(result, log.getvalue())
        if s is not None:
            s["counts"].update(trials=n, log_bytes=len(out.log_text.encode()))
        return out
    with tr.span("montecarlo.simulate") as s:
        result = simulate(case.config)
    if s is not None:
        s["counts"]["trials"] = n
    return Output(result)


def check_result(case: Case, result) -> Optional[str]:
    """Counts and means within ``K_SE`` standard errors of their values
    under the pooling profile."""
    cfg = case.config
    n = cfg.n_trials
    pt = {**cfg.params.to_dict(), "m": cfg.m}
    exp = ref.drift_expectations(cfg.spec.mechanism.value, cfg.spec.variant.value, pt, cfg.drift_mode.value)
    counts = result.outcome_counts
    if sum(counts.values()) != n or counts[Outcome.PREVENTIVE_CONFLICT] != 0:
        return f"outcome counts {counts} for {n} trials with nobody fought"
    q = exp["p_exploit"]
    if not ref.within(counts[Outcome.EXPLOIT], n * q, n * n * q * (1 - q), n):
        return f"exploit count {counts[Outcome.EXPLOIT]} far from {n * q:.1f}"
    if not ref.within(result.mean_u_B, exp["mean_u_B"], exp["var_u_B"], n):
        return f"mean_u_B {result.mean_u_B} far from {exp['mean_u_B']}"
    if not ref.within(result.mean_u_A, exp["mean_u_A"], exp["var_u_A"], n):
        return f"mean_u_A {result.mean_u_A} far from {exp['mean_u_A']}"
    se = (exp["var_u_B"] / n) ** 0.5
    if abs(result.standard_error_u_B - se) > 0.05 * se + 1e-12:
        return f"standard_error_u_B {result.standard_error_u_B} far from {se}"
    by_type = result.mean_u_B_by_initial_type
    if (by_type is not None) != (cfg.drift_mode is DriftMode.PRIOR_WEIGHTED):
        return "by-initial-type means present exactly in prior-weighted mode"
    if by_type is not None:
        n_r = n * cfg.params.prior
        if not ref.within(by_type["restrained"], exp["mean_u_B_restrained"], exp["var_u_B_restrained"], n_r):
            return f"restrained-initial mean_u_B {by_type['restrained']} far from {exp['mean_u_B_restrained']}"
        if not ref.close(by_type["aggressive"], exp["mean_u_B_aggressive"]):
            return f"aggressive-initial mean_u_B {by_type['aggressive']} != {exp['mean_u_B_aggressive']}"
    return None


def check_log(case: Case, out: Output) -> Optional[str]:
    table = list(csv.reader(io.StringIO(out.log_text)))
    n = case.config.n_trials
    if table[0] != LOG_HEADER or len(table) != n + 1:
        return "trial log header or row count wrong"
    if [int(line[0]) for line in table[1:]] != list(range(n)):
        return "trial log rows out of order"
    names = {"conflict": Outcome.PREVENTIVE_CONFLICT, "exploit": Outcome.EXPLOIT, "restraint": Outcome.RESTRAINT}
    tally = {o: 0 for o in Outcome}
    for line in table[1:]:
        tally[names[line[5]]] += 1
    if tally != out.result.outcome_counts:
        return "trial log outcomes do not add up to the result's counts"
    mean_b = sum(float(line[7]) for line in table[1:]) / n
    if abs(mean_b - out.result.mean_u_B) > 1e-9 * max(1.0, abs(mean_b)):
        return "trial log u_B does not average to the result's mean"
    return None


def check(case: Case, out: Output) -> Optional[str]:
    return check_result(case, out.result) or (check_log(case, out) if case.with_log else None)


def digest(out: Output) -> bytes:
    return (json.dumps(out.result.to_dict()) + out.log_text).encode()


def ops(cases) -> list[Op]:
    return [
        Op(id=c.name, run=partial(_run, c), check=partial(check, c), digest=digest)
        for c in cases
    ]


def trace_extras(tr, cases, outputs) -> None:
    """Rerun the logged configuration without its log: the difference is
    the per-trial writer's cost."""
    from . import tracing

    tracing.classify_points(tr, points(cases))
    for case in cases:
        if case.with_log:
            with tr.span("montecarlo.simulate", tag="log-baseline") as s:
                simulate(case.config)
            s["counts"]["trials"] = case.config.n_trials
