"""Exhaustive weak-PBE enumeration on a finite signal grid.

This module is the independent verifier for the closed-form conditions in
:mod:`restraint_games.conditions`: it discretizes the signal space to a
finite grid and lists every pure strategy profile that is a weak perfect
Bayesian equilibrium, i.e. where

(a) posteriors at on-path messages follow Bayes' rule from the prior,
(b) State B's t1 choice at every message is optimal under its posterior
    there -- off-path posteriors are free, and because B's expected payoff
    is affine in the belief, the set of supporting beliefs is a closed
    interval computed exactly,
(c) each type's t2 action is optimal at its cell, for every cell on or
    off the path, and
(d) no type can improve its continuation value by sending a different
    message, given B's strategy and the profile's own t2 play.

Indifference always admits either action (weak optimality), with the same
absolute tolerance used by the closed forms, so boundary parameter points
certify on both routes.

The search is factorized rather than profile by profile. Under weak PBE
(Fudenberg & Tirole, JET 1991) off-path beliefs are free, so once the
on-path data is fixed -- both signals, and the t2 actions and B's fight
bit at those messages -- each of (b)-(d) is a condition on one message:
(d) bounds a type's value at every message by its on-path value. The
certificates are then a union, over these anchors, of Cartesian products
of small per-message option sets. Counting them and deciding whether one
exists costs O(n^3) for n messages; listing them costs O(n^3 +
certificates). The size guard of :func:`find_all_pbe` counts certificates
exactly before building any.

Certified profiles are classed by shape. Pooling profiles (both types at
one message) are ``PoolingOnRestraint`` when nobody fights or exploits on
path, else ``PoolingOther``. Profiles with distinct messages are
``Separating`` only when the signal is informative in action: B fights
after the aggressive type's message, stands down after the restrained
type's, and the restrained type restrains on path. Distinct-message
profiles without that shape -- e.g. ones where B fights after every
message and the labels only differ because conflict payoffs are
message-independent -- are ``Hybrid``; they satisfy weak-PBE mechanics but
carry no information, and counting them as separating would contradict
the non-existence theorems the oracle is meant to check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional

from . import conditions
from .game import (
    TOL,
    MechanismSpec,
    ModelParams,
    Outcome,
    ParameterError,
    TypeLabel,
    boolean,
    real,
    signal_grid,
    unchecked_payoff,
    validate_signal,
)

#: Number of certificates :func:`find_all_pbe` lists before refusing.
DEFAULT_CERTIFICATE_BUDGET = 5 * 10**4


class BudgetExceededError(RuntimeError):
    """A size guard refused the job: a game with more certificates, or a
    sweep grid with more points, than the budget. ``n_certificates`` is
    ``count`` under the name the oracle first gave it."""

    def __init__(self, count: int, budget: int, what: str = "certificate"):
        self.count = self.n_certificates = count
        self.budget = budget
        super().__init__(f"{what} count {count} exceeds budget {budget}")


class PBEClass(Enum):
    POOLING_ON_RESTRAINT = "PoolingOnRestraint"
    POOLING_OTHER = "PoolingOther"
    SEPARATING = "Separating"
    HYBRID = "Hybrid"


@dataclass(frozen=True)
class DiscreteGame:
    """A restraint-signaling game restricted to a finite signal grid.

    ``messages`` must be strictly ascending, nonnegative, and contain 0
    (the null signal every non-existence argument deviates to).
    """

    spec: MechanismSpec
    params: ModelParams
    messages: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(float(m) for m in self.messages))
        self.params.validate()
        if not self.messages:
            raise ParameterError("messages nonempty")
        for m in self.messages:
            validate_signal(m)
        if any(a >= b for a, b in zip(self.messages, self.messages[1:])):
            raise ParameterError(
                "messages strictly ascending", f"messages={self.messages}"
            )
        if 0.0 not in self.messages:
            raise ParameterError("messages contain 0", f"messages={self.messages}")


def _unique(field: str, entries: Iterable[tuple]) -> dict:
    """``field``'s (key, value) entries as a dict, refusing a repeated key
    rather than keeping the last."""
    out = {}
    for key, value in entries:
        if key in out:
            raise ValueError(f"{field} repeats {key}")
        out[key] = value
    return out


@dataclass(frozen=True)
class StrategyProfile:
    """Pure strategies for both players at every decision point."""

    signal_of: dict[TypeLabel, float]
    fight_after: dict[float, bool]
    t2_action: dict[tuple[TypeLabel, float], Outcome]

    def to_dict(self) -> dict:
        return {
            "signal_of": {t.name.lower(): m for t, m in self.signal_of.items()},
            "fight_after": [[m, bool(f)] for m, f in sorted(self.fight_after.items())],
            "t2_action": [
                [t.name.lower(), m, a.value]
                for (t, m), a in sorted(
                    self.t2_action.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
                )
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StrategyProfile":
        try:
            return cls(
                signal_of=_unique(
                    "signal_of", ((TypeLabel[t.upper()], real(m)) for t, m in d["signal_of"].items())
                ),
                fight_after=_unique("fight_after", ((real(m), boolean(f)) for m, f in d["fight_after"])),
                t2_action=_unique(
                    "t2_action", (((TypeLabel[t.upper()], real(m)), Outcome(a)) for t, m, a in d["t2_action"])
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ParameterError(
                "profile well-formed (signal_of, fight_after, t2_action)",
                f"{type(exc).__name__}: {exc}",
            ) from exc


@dataclass(frozen=True)
class BeliefAssignment:
    """Posterior probability that State A is restrained, per message."""

    posterior: dict[float, float]

    def to_dict(self) -> dict:
        return {"posterior": [[m, q] for m, q in sorted(self.posterior.items())]}


@dataclass(frozen=True)
class PBECertificate:
    profile: StrategyProfile
    beliefs: BeliefAssignment
    pbe_class: PBEClass

    def to_dict(self) -> dict:
        return {
            "class": self.pbe_class.value,
            "profile": self.profile.to_dict(),
            "beliefs": self.beliefs.to_dict(),
        }


def supporting_belief_interval(
    u_b_restrained_action: float,
    u_b_aggressive_action: float,
    u_b_fight: float,
    fight: bool,
) -> Optional[tuple[float, float]]:
    """Beliefs q = P(restrained) making B's t1 choice weakly optimal.

    B's payoff from standing down is affine in q:
    ``f(q) = q * u_b_restrained_action + (1 - q) * u_b_aggressive_action``,
    so the supporting set within [0, 1] is a closed interval, returned
    exactly (or None when empty).
    """
    slope = u_b_restrained_action - u_b_aggressive_action
    intercept = u_b_aggressive_action
    if not fight:
        # standing down needs f(q) >= u_b_fight - TOL, which is the fight
        # test below on -f and -u_b_fight; negation is exact
        slope, intercept, u_b_fight = -slope, -intercept, -u_b_fight
    # fighting needs f(q) <= u_b_fight + TOL
    threshold = u_b_fight + TOL
    if slope == 0.0:
        return (0.0, 1.0) if intercept <= threshold else None
    q_cut = (threshold - intercept) / slope
    if slope > 0:
        lo, hi = 0.0, min(1.0, q_cut)
    else:
        lo, hi = max(0.0, q_cut), 1.0
    if lo > hi:
        return None
    return (lo, hi)


class _GameTable:
    """Per-game payoff tables flattened to plain floats for fast checks."""

    def __init__(self, game: DiscreteGame):
        self.messages = game.messages
        self.n = len(game.messages)
        self.index = {m: j for j, m in enumerate(game.messages)}
        p = game.params
        self.prior = p.prior
        self.u_b_fight = -p.c
        self.u_b_exploit = -p.V_B
        self.u_b_restraint = 0.0
        # u_A by [type][message index] for each of A's three fates; the
        # game validated its params and messages when it was built
        self.uA_conflict: dict[TypeLabel, list[float]] = {}
        self.uA_exploit: dict[TypeLabel, list[float]] = {}
        self.uA_restraint: dict[TypeLabel, list[float]] = {}
        # weakly optimal t2 actions per cell, in canonical order
        self.t2_options: dict[tuple[TypeLabel, int], tuple[Outcome, ...]] = {}
        for t in TypeLabel:
            self.uA_conflict[t] = [
                unchecked_payoff(game.spec, p, t, Outcome.PREVENTIVE_CONFLICT, m).u_A
                for m in game.messages
            ]
            self.uA_exploit[t] = [
                unchecked_payoff(game.spec, p, t, Outcome.EXPLOIT, m).u_A for m in game.messages
            ]
            self.uA_restraint[t] = [
                unchecked_payoff(game.spec, p, t, Outcome.RESTRAINT, m).u_A for m in game.messages
            ]
            for j in range(self.n):
                ue, ur = self.uA_exploit[t][j], self.uA_restraint[t][j]
                opts = []
                if ue >= ur - TOL:
                    opts.append(Outcome.EXPLOIT)
                if ur >= ue - TOL:
                    opts.append(Outcome.RESTRAINT)
                self.t2_options[(t, j)] = tuple(opts)

    def u_b_of_action(self, action: Outcome) -> float:
        return self.u_b_exploit if action is Outcome.EXPLOIT else self.u_b_restraint

    def value(self, t: TypeLabel, j: int, action: Outcome, fight: bool) -> float:
        """Type t's continuation value at message j."""
        if fight:
            return self.uA_conflict[t][j]
        if action is Outcome.EXPLOIT:
            return self.uA_exploit[t][j]
        return self.uA_restraint[t][j]


def _supporting_belief(
    table: _GameTable,
    q: Optional[float],
    action_R: Outcome,
    action_A: Outcome,
    fight: bool,
) -> Optional[float]:
    """Check (b) at one message: the belief that supports B's t1 choice, or
    None. ``q`` is the Bayes posterior on path and None off path, where the
    midpoint of the supporting interval is returned."""
    u_b_R = table.u_b_of_action(action_R)
    u_b_A = table.u_b_of_action(action_A)
    u_fight = table.u_b_fight
    if q is None:
        interval = supporting_belief_interval(u_b_R, u_b_A, u_fight, fight)
        return None if interval is None else 0.5 * (interval[0] + interval[1])
    stand_down = q * u_b_R + (1.0 - q) * u_b_A
    if fight:
        return q if u_fight >= stand_down - TOL else None
    return q if stand_down >= u_fight - TOL else None


def _check_profile(
    table: _GameTable,
    j_R: int,
    j_A: int,
    t2: dict[tuple[TypeLabel, int], Outcome],
    fight: tuple[bool, ...],
) -> Optional[dict[float, float]]:
    """Run checks (a)-(d); return a supporting belief map or None."""
    R, A = TypeLabel.RESTRAINED, TypeLabel.AGGRESSIVE
    beliefs: dict[float, float] = {}
    for j in range(table.n):
        if j == j_R and j == j_A:
            q: Optional[float] = table.prior
        elif j == j_R:
            q = 1.0
        elif j == j_A:
            q = 0.0
        else:
            q = None  # off path: belief free
        belief = _supporting_belief(table, q, t2[(R, j)], t2[(A, j)], fight[j])
        if belief is None:
            return None
        beliefs[table.messages[j]] = belief

    # (c) t2 optimality at every cell
    if any(t2[cell] not in options for cell, options in table.t2_options.items()):
        return None

    # (d) t0 optimality: continuation value of each message for each type
    for t, j_own in ((R, j_R), (A, j_A)):
        values = [table.value(t, j, t2[(t, j)], fight[j]) for j in range(table.n)]
        if values[j_own] < max(values) - TOL:
            return None

    return beliefs


def _classify(
    pooled: bool, fight_R: bool, fight_A: bool, action_R: Outcome, action_A: Outcome
) -> PBEClass:
    """Class from the on-path data: B's fight bits after each type's signal
    and each type's t2 action at its own signal."""
    if pooled:
        on_restraint = (
            not fight_R
            and action_R is Outcome.RESTRAINT
            and action_A is Outcome.RESTRAINT
        )
        return PBEClass.POOLING_ON_RESTRAINT if on_restraint else PBEClass.POOLING_OTHER
    informative = not fight_R and fight_A and action_R is Outcome.RESTRAINT
    return PBEClass.SEPARATING if informative else PBEClass.HYBRID


def is_weak_pbe(game: DiscreteGame, profile: StrategyProfile) -> Optional[PBECertificate]:
    """Certify one profile, or return None when no supporting beliefs exist."""
    table = _GameTable(game)
    R, A = TypeLabel.RESTRAINED, TypeLabel.AGGRESSIVE
    try:
        j_R = table.index[profile.signal_of[R]]
        j_A = table.index[profile.signal_of[A]]
        fight = tuple(profile.fight_after[m] for m in game.messages)
        t2 = {
            (t, j): profile.t2_action[(t, m)]
            for t in TypeLabel
            for j, m in enumerate(game.messages)
        }
    except KeyError as exc:
        raise ParameterError(
            "profile total over message grid", f"missing entry {exc}"
        ) from exc
    beliefs = _check_profile(table, j_R, j_A, t2, fight)
    if beliefs is None:
        return None
    return PBECertificate(
        profile=profile,
        beliefs=BeliefAssignment(posterior=beliefs),
        pbe_class=_classify(j_R == j_A, fight[j_R], fight[j_A], t2[(R, j_R)], t2[(A, j_A)]),
    )


class _Option(NamedTuple):
    """One message's local choice, its supporting belief and what it is
    worth to each type."""

    t2_R: Outcome
    t2_A: Outcome
    fight: bool
    belief: float
    value_R: float
    value_A: float
    restrains_R: bool
    restrains_A: bool


def _local_options(table: _GameTable, j: int, q: Optional[float]) -> list[_Option]:
    """Cell-optimal t2 actions and fight bits at message j that pass (b)."""
    R, A = TypeLabel.RESTRAINED, TypeLabel.AGGRESSIVE
    options = []
    for action_R in table.t2_options[(R, j)]:
        for action_A in table.t2_options[(A, j)]:
            for fight in (False, True):
                belief = _supporting_belief(table, q, action_R, action_A, fight)
                if belief is not None:
                    options.append(
                        _Option(
                            action_R,
                            action_A,
                            fight,
                            belief,
                            table.value(R, j, action_R, fight),
                            table.value(A, j, action_A, fight),
                            action_R is Outcome.RESTRAINT,
                            action_A is Outcome.RESTRAINT,
                        )
                    )
    return options


def _admit(options: list[_Option], v_R: float, v_A: float) -> list[_Option]:
    """(d) at one message: neither type gains by deviating to it. The
    ``value - TOL`` form matches ``max(values) - TOL`` in _check_profile
    exactly, since float rounding is monotone."""
    return [o for o in options if not (v_R < o.value_R - TOL or v_A < o.value_A - TOL)]


_Anchor = tuple[int, int, PBEClass, list[list[_Option]]]


def _anchors(table: _GameTable) -> Iterator[_Anchor]:
    """Every weak PBE of the game, factorized.

    Fixing the signals j_R and j_A and the options at those messages (the
    anchor) fixes the posteriors, the class and both on-path values. Checks
    (b)-(d) then hold message by message, so the certified profiles under
    an anchor are exactly the product of each message's admitted options.
    Yields ``(j_R, j_A, class, options)`` for the anchors whose product is
    nonempty.
    """
    n = table.n
    off_path = [_local_options(table, j, None) for j in range(n)]
    pooled = [_local_options(table, j, table.prior) for j in range(n)]
    at_R = [_local_options(table, j, 1.0) for j in range(n)]
    at_A = [_local_options(table, j, 0.0) for j in range(n)]
    for j_R in range(n):
        for j_A in range(n):
            if j_R == j_A:
                anchors = [({j_R: [o]}, o, o) for o in pooled[j_R]]
            else:
                anchors = [
                    ({j_R: [o_R], j_A: [o_A]}, o_R, o_A)
                    for o_R in at_R[j_R]
                    for o_A in at_A[j_A]
                ]
            for on_path, o_R, o_A in anchors:
                v_R, v_A = o_R.value_R, o_A.value_A
                options = []
                for j in range(n):
                    admitted = _admit(on_path.get(j, off_path[j]), v_R, v_A)
                    if not admitted:
                        break
                    options.append(admitted)
                else:
                    pbe_class = _classify(j_R == j_A, o_R.fight, o_A.fight, o_R.t2_R, o_A.t2_A)
                    yield j_R, j_A, pbe_class, options


def _certificates(table: _GameTable, anchors: Iterable[_Anchor]) -> list[PBECertificate]:
    """Materialize the anchors' products in the canonical order: signal
    indices, then t2 actions (restraint bits, restrained cells first), then
    the fight pattern."""
    R, A = TypeLabel.RESTRAINED, TypeLabel.AGGRESSIVE
    messages = table.messages
    cells = [(R, m) for m in messages] + [(A, m) for m in messages]
    # Enum hashing runs in Python, so each t2 pattern's dict is built once
    # and copied (a copy reuses the stored hashes).
    t2_actions: dict[tuple[bool, ...], dict[tuple[TypeLabel, float], Outcome]] = {}
    found: list[tuple[tuple, PBECertificate]] = []
    for j_R, j_A, pbe_class, options in anchors:
        signal_of = {R: messages[j_R], A: messages[j_A]}
        for combo in itertools.product(*options):
            t2_R, t2_A, fight, belief, _, _, restrains_R, restrains_A = zip(*combo)
            restrains = restrains_R + restrains_A
            if restrains not in t2_actions:
                t2_actions[restrains] = dict(zip(cells, t2_R + t2_A))
            profile = StrategyProfile(
                signal_of=signal_of.copy(),
                fight_after=dict(zip(messages, fight)),
                t2_action=t2_actions[restrains].copy(),
            )
            beliefs = BeliefAssignment(posterior=dict(zip(messages, belief)))
            key = (j_R, j_A, restrains, fight)
            found.append((key, PBECertificate(profile, beliefs, pbe_class)))
    found.sort(key=lambda kc: kc[0])
    return [cert for _, cert in found]


def find_all_pbe(
    game: DiscreteGame, budget: int = DEFAULT_CERTIFICATE_BUDGET
) -> list[PBECertificate]:
    """Return every weak-PBE certificate of the game.

    Results are deterministic and sorted in the canonical lexicographic
    order of the profile encoding (signal indices, then t2 actions, then
    fight pattern). The certificates are counted from the per-message
    option sets before any is built; more than ``budget`` raises
    :class:`BudgetExceededError` with the exact count.
    """
    table = _GameTable(game)
    anchors = list(_anchors(table))
    count = sum(math.prod(map(len, options)) for *_, options in anchors)
    if count > budget:
        raise BudgetExceededError(count, budget)
    return _certificates(table, anchors)


@dataclass(frozen=True)
class Discrepancy:
    """One grid point where the closed forms and the oracle disagree."""

    params: ModelParams
    m: float
    closed_form_verdict: dict[str, bool]
    oracle_verdict: dict[str, bool]
    certificates: tuple[PBECertificate, ...]

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "m": self.m,
            "closed_form_verdict": dict(self.closed_form_verdict),
            "oracle_verdict": dict(self.oracle_verdict),
            "certificates": [c.to_dict() for c in self.certificates],
        }


@dataclass(frozen=True)
class DiscrepancyReport:
    spec: MechanismSpec
    entries: tuple[Discrepancy, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.entries

    def to_json_list(self) -> list[dict]:
        return [e.to_dict() for e in self.entries]


class DiscrepancyError(RuntimeError):
    """A sweep's oracle cross-check found closed-form/oracle mismatches."""

    def __init__(self, report: DiscrepancyReport):
        self.report = report
        first = report.entries[0]
        super().__init__(
            f"oracle disagrees with closed forms at {len(report.entries)} point(s); "
            f"first: params={first.params.to_dict()}, m={first.m}, "
            f"closed={first.closed_form_verdict}, oracle={first.oracle_verdict}"
        )


def verify_against_closed_form(
    spec: MechanismSpec,
    grid: Iterable[tuple[ModelParams, float]],
) -> DiscrepancyReport:
    """Compare closed-form verdicts against oracle findings on M = {0, m}.

    Pooling agreement means a PoolingOnRestraint certificate pooled at m
    exists exactly when the closed form holds; separating agreement means
    a Separating certificate with the restrained type at m exists exactly
    when the closed form holds. An empty report is full agreement.
    Certificates are built only for the points that disagree.
    """
    relevant_classes = (PBEClass.POOLING_ON_RESTRAINT, PBEClass.SEPARATING)
    entries: list[Discrepancy] = []
    for params, m in grid:
        report = conditions.classify(spec, params, m)
        closed = {"pooling": report.pooling_on_restraint.holds, "separating": report.separating.holds}
        messages = signal_grid(m)
        table = _GameTable(DiscreteGame(spec, params, messages))
        j_m = len(messages) - 1
        relevant = [
            anchor
            for anchor in _anchors(table)
            if anchor[0] == j_m and anchor[2] in relevant_classes
        ]
        found = {pbe_class for _, _, pbe_class, _ in relevant}
        oracle = {
            "pooling": PBEClass.POOLING_ON_RESTRAINT in found,
            "separating": PBEClass.SEPARATING in found,
        }
        if oracle != closed:
            entries.append(
                Discrepancy(
                    params=params,
                    m=m,
                    closed_form_verdict=closed,
                    oracle_verdict=oracle,
                    certificates=tuple(_certificates(table, relevant)),
                )
            )
    return DiscrepancyReport(spec=spec, entries=tuple(entries))
