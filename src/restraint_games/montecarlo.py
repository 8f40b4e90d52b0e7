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
signal, outcome and payoffs, and counts the trials that land in each cell.

The profile is read by :func:`~.oracle.read_profile`, the rule of
:func:`~.oracle.is_weak_pbe`: one ``ParameterError`` refuses it unless it
is well-formed and total on {0, m}. Its t2 actions, if any, are checked
but not played; the drift mode decides each cell's t2 action:

* ``literal`` -- the final type acts on its label: aggressive (native or
  drifted) exploits, restrained restrains.
* ``prior-weighted`` -- literal play, and the result also reports State B's
  mean payoff conditioned on the pre-drift type, whose on-path weight under
  pooling is the prior. The restrained-conditional mean recovers -p*V_B;
  the unconditional mean is the prior-weighted reading of the threshold.
* ``best-response`` -- the final type plays its payoff-maximizing t2 action
  at the signal it sent, by the oracle's rule (:func:`~.game.t2_options`):
  it restrains whenever restraint is weakly optimal, so ties restrain.

Trial randomness is one Philox stream keyed by the seed, drawn in chunks
of rows: trial i always consumes row i. Philox is counter-based, so a
generator started at counter c reads the stream from row 2c on (a block is
four 64-bit words, a row two). Without a trial log, a run cuts its rows
into counter-offset segments, at most one per usable CPU and never more
than it has whole chunks, each starting on an even row, draws each segment
on its own thread and adds up their cell counts. The segments share one
chunk of rows between them, so a run holds one chunk at a time however many
threads it starts, and results are bit-for-bit the same whatever the chunk
size or the CPU count. A run that writes a trial log is one segment,
because its lines must come out in trial order. Every trial in a cell has
the same payoffs, so the means and the standard error are exact sums over
the three cell counts, each rounded once.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field  # only simulate loads this module, and numpy imports inspect anyway
from typing import IO, Optional

from .game import (
    DriftMode,
    MechanismSpec,
    ModelParams,
    Outcome,
    ParameterError,
    TypeLabel,
    integer,
    signal_grid,
    t2_options,
    unchecked_payoff,
    validate_signal,
)
from .oracle import StrategyProfile, read_profile

R = TypeLabel.RESTRAINED
A = TypeLabel.AGGRESSIVE

#: Draw rows per chunk: 1 MiB of float64 pairs.
_CHUNK = 1 << 16


def _workers() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def pooling_profile(m: float) -> StrategyProfile:
    """Both types signal m, B stands down after m and fights the null
    signal, both types restrain on path. The default simulation profile."""
    validate_signal(m)
    m = float(m)  # so numpy's m gives Python bools, not numpy.bool_
    messages = signal_grid(m)
    return StrategyProfile(
        signal_of={R: m, A: m},
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

    def validate(self) -> dict[TypeLabel, tuple[float, bool]]:
        """Raise ParameterError unless the config can run; return each
        type's signal and whether B fights it, by the profile's reader."""
        self.params.validate(allow_degenerate_prior=self.allow_degenerate_prior)
        validate_signal(self.m)
        try:  # as the CLI reads --trials and --seed
            n_trials, seed = integer(self.n_trials), integer(self.seed)
        except ValueError as exc:
            raise ParameterError("n_trials and seed integers", str(exc)) from exc
        if n_trials < 1:
            raise ParameterError("n_trials >= 1", f"n_trials={n_trials}")
        if not 0 <= seed < 2**128:  # Philox takes a 128-bit key
            raise ParameterError("0 <= seed < 2**128", f"seed={seed}")
        messages = signal_grid(self.m)
        j_R, j_A, fight, _ = read_profile(self.profile, messages)
        return {R: (messages[j_R], fight[j_R]), A: (messages[j_A], fight[j_A])}


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

    Trial i reads row (u0, u1) of the draw stream: it starts restrained when
    u0 < prior, and a restrained type B did not fight drifts when u1 < p.
    Its cell is 0 if it starts aggressive, else 1, plus 1 if it drifts.
    Only the three cell counts outlive each chunk of ``_CHUNK`` rows.

    Without a trial log the rows are drawn in counter-offset segments, one
    thread each (see the module docstring); the counts, and so every result
    bit, do not depend on how many there are. If a segment raises, the run
    raises that exception once every segment has ended.
    """
    from fractions import Fraction  # here, so CLI runs that never simulate skip importing decimal

    plays = config.validate()
    p, spec = config.params, config.spec
    n = int(config.n_trials)  # validated integral: 500.0 and "500" run as 500

    table = []  # per reachable (initial type, final type) cell, in index order
    for initial, final in ((A, A), (R, R), (R, A)):
        signal, fought = plays[initial]
        if fought:
            outcome = Outcome.PREVENTIVE_CONFLICT
        elif config.drift_mode is DriftMode.BEST_RESPONSE:
            # the oracle's t2 rule at that cell; ties restrain
            options = t2_options(
                unchecked_payoff(spec, p, final, Outcome.EXPLOIT, signal).u_A,
                unchecked_payoff(spec, p, final, Outcome.RESTRAINT, signal).u_A,
            )
            outcome = Outcome.RESTRAINT if True in options else Outcome.EXPLOIT
        else:
            outcome = Outcome.EXPLOIT if final is A else Outcome.RESTRAINT
        a, b = map(float, unchecked_payoff(spec, p, final, outcome, signal))
        row = f"{initial.theta},{final.theta},{signal!r},{str(fought).lower()},{outcome.value},"
        row += f"{a!r},{b!r}\n"
        table.append((outcome, a, b, row))
    outcomes, u_A, u_B, rows = zip(*table)
    if not all(map(math.isfinite, u_A + u_B)):  # e.g. -c - m past the float range
        raise ParameterError("payoffs finite", f"u_A={list(u_A)}, u_B={list(u_B)}")

    drift_p = None if plays[R][1] else p.p
    if trial_log is not None:
        trial_log.write("trial,theta_initial,theta_final,message,fought,outcome,u_A,u_B\n")
        segments = 1  # its lines come out in trial order
    else:
        segments = max(1, min(_workers(), n // _CHUNK))
    bounds = [n * k // segments // 2 * 2 for k in range(segments)] + [n]
    chunk = max(1, _CHUNK // segments)  # one chunk of rows in total
    found: list = [None] * segments

    def play(k: int) -> None:
        try:
            found[k] = _cell_counts(
                int(config.seed), bounds[k], bounds[k + 1], chunk, p.prior, drift_p, rows, trial_log
            )
        except BaseException as exc:  # raised below, once every segment has ended
            found[k] = exc

    threads = [threading.Thread(target=play, args=(k,)) for k in range(1, segments)]
    for thread in threads:
        thread.start()
    play(0)
    for thread in threads:
        thread.join()
    for got in found:
        if isinstance(got, BaseException):
            raise got
    counts = [sum(column) for column in zip(*found)]
    outcome_counts = {o: sum(k for k, c in zip(counts, outcomes) if c is o) for o in Outcome}

    def mean(values, cells=(0, 1, 2)) -> Fraction:
        return sum(counts[k] * Fraction(values[k]) for k in cells) / sum(counts[k] for k in cells)

    mean_u_B = mean(u_B)
    # ddof 1 (the sum is 0 at n = 1); rooted at a scale 4**k where it is a normal float
    variance = sum(c * (Fraction(b) - mean_u_B) ** 2 for c, b in zip(counts, u_B)) / max(n - 1, 1)
    k = (variance.numerator.bit_length() - variance.denominator.bit_length()) // 2
    by_initial: Optional[dict[str, Optional[float]]] = None
    if config.drift_mode is DriftMode.PRIOR_WEIGHTED:
        by_initial = {
            "restrained": float(mean(u_B, (1, 2))) if counts[0] < n else None,
            "aggressive": float(mean(u_B, (0,))) if counts[0] else None,
        }
    return SimResult(
        outcome_counts=outcome_counts,
        mean_u_A=float(mean(u_A)),
        mean_u_B=float(mean_u_B),
        standard_error_u_B=math.ldexp(math.sqrt(variance / Fraction(4) ** k), k) / math.sqrt(n),
        mean_u_B_by_initial_type=by_initial,
    )


def _cell_counts(
    seed: int, lo: int, hi: int, chunk: int, prior: float, drift_p: Optional[float], rows, trial_log
) -> list[int]:
    """The three cell counts of trials [lo, hi), drawn ``chunk`` rows at a
    time from the seed's Philox stream; ``lo`` is even, and no trial drifts
    when ``drift_p`` is None. Writes each trial's line to ``trial_log``."""
    import numpy as np  # here, so CLI runs that never draw skip importing numpy

    # row lo opens Philox block lo / 2, and consecutive draws continue the
    # stream, so row i is trial i whatever the chunk size
    rng = np.random.Generator(np.random.Philox(key=seed, counter=lo // 2))
    counts = np.zeros(3, dtype=np.int64)
    for start in range(lo, hi, chunk):
        draws = rng.random((min(chunk, hi - start), 2))
        restrained0 = draws[:, 0] < prior
        cell = restrained0.astype(np.uint8)
        if drift_p is not None:
            cell += restrained0 & (draws[:, 1] < drift_p)
        counts += np.bincount(cell, minlength=3)
        if trial_log is not None:
            trial_log.writelines(f"{i},{rows[k]}" for i, k in enumerate(cell.tolist(), start))
    return counts.tolist()
