"""Exhaustive weak-PBE enumeration on a finite signal grid.

This module is the independent verifier for the closed-form conditions in
:mod:`restraint_games.conditions`: it discretizes the signal space to a
finite grid and lists every pure strategy profile that is a weak perfect
Bayesian equilibrium, i.e. where

(a) posteriors at on-path messages follow Bayes' rule from the prior,
(b) State B's t1 choice at every message is optimal under its posterior
    there -- because B's expected payoff is affine in the belief, the
    supporting beliefs form a closed interval, computed exactly by
    :func:`supporting_belief_interval`; an on-path posterior passes when
    it lies in the interval, and off path, where posteriors are free, the
    interval's midpoint is reported,
(c) each type's t2 action is optimal at its cell, for every cell on or
    off the path, by :func:`~.game.t2_options`, and
(d) no type can improve its continuation value by sending a different
    message, given B's strategy and the profile's own t2 play.

Indifference always admits either action (weak optimality): every weak
inequality here is ``a >= tie_floor(b)``, the closed forms' one tie rule
:func:`~.game.tie_floor`, so boundary parameter points certify on both
routes.

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

A certificate is one compact record: the game's message tuple (shared by
all its certificates), both signal indices, the class, the t2 restraint
bits, the fight bits and the supporting beliefs. Its ``profile`` and
``beliefs`` build the public dataclasses when read; ``to_dict()`` and the
CSV writer format straight from the record. On a sunk game of 10 messages
with 40 581 certificates, listing them takes about 0.19 s and retains
about 530 bytes per certificate (2-vCPU x86-64 guest, CPython 3.11).

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
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional

from .game import (
    BudgetExceededError,
    MechanismSpec,
    ModelParams,
    Outcome,
    ParameterError,
    TypeLabel,
    boolean,
    real,
    signal_grid,
    t2_options,
    tie_floor,
    unchecked_payoff,
    validate_signal,
)

#: Number of certificates :func:`find_all_pbe` lists before refusing.
DEFAULT_CERTIFICATE_BUDGET = 5 * 10**4


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
        try:  # as the CLI reads --messages
            object.__setattr__(self, "messages", tuple(real(m) for m in self.messages))
        except (TypeError, ValueError) as exc:
            raise ParameterError("messages real numbers", str(exc)) from exc
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
                    "t2_action",
                    (((TypeLabel[t.upper()], real(m)), Outcome(a)) for t, m, a in d.get("t2_action", ())),
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


#: Type order of every per-type table and of a certificate's restraint
#: bits: restrained first, as in the canonical certificate order.
_TYPES = (TypeLabel.RESTRAINED, TypeLabel.AGGRESSIVE)
_R, _A = 0, 1
#: A t2 action by its restraint bit.
_ACTIONS = (Outcome.EXPLOIT, Outcome.RESTRAINT)


class PBECertificate:
    """One certified profile as a compact record.

    It holds the game's ``messages`` (shared by every certificate of the
    game, not copied), the signal indices ``j_R`` and ``j_A``, the
    ``pbe_class``, the t2 ``restraint`` bits (restrained cells, then
    aggressive cells, each in message order), the ``fight`` bits and the
    supporting ``posterior`` beliefs, both by message index.
    :attr:`profile` and :attr:`beliefs` build the public dataclasses when
    read; :meth:`to_dict` formats straight from the record.
    """

    __slots__ = ("messages", "j_R", "j_A", "pbe_class", "restraint", "fight", "posterior")

    def __init__(self, messages, j_R, j_A, pbe_class, restraint, fight, posterior):
        self.messages = messages
        self.j_R = j_R
        self.j_A = j_A
        self.pbe_class = pbe_class
        self.restraint = restraint
        self.fight = fight
        self.posterior = posterior

    def __eq__(self, other):
        if not isinstance(other, PBECertificate):
            return NotImplemented
        return all(getattr(self, field) == getattr(other, field) for field in self.__slots__)

    def __repr__(self) -> str:
        return (
            f"PBECertificate(profile={self.profile!r}, beliefs={self.beliefs!r}, "
            f"pbe_class={self.pbe_class!r})"
        )

    @property
    def profile(self) -> StrategyProfile:
        messages = self.messages
        cells = [(t, m) for t in _TYPES for m in messages]
        return StrategyProfile(
            signal_of={
                TypeLabel.RESTRAINED: messages[self.j_R],
                TypeLabel.AGGRESSIVE: messages[self.j_A],
            },
            fight_after=dict(zip(messages, self.fight)),
            t2_action={cell: _ACTIONS[bit] for cell, bit in zip(cells, self.restraint)},
        )

    @property
    def beliefs(self) -> BeliefAssignment:
        return BeliefAssignment(posterior=dict(zip(self.messages, self.posterior)))

    def to_dict(self) -> dict:
        """``{"class", "profile", "beliefs"}`` with the layout of
        :meth:`StrategyProfile.to_dict` and :meth:`BeliefAssignment.to_dict`."""
        messages, restraint = self.messages, self.restraint
        n = len(messages)
        return {
            "class": self.pbe_class.value,
            "profile": {
                "signal_of": {"restrained": messages[self.j_R], "aggressive": messages[self.j_A]},
                "fight_after": [[m, f] for m, f in zip(messages, self.fight)],
                "t2_action": [
                    [name, m, _ACTIONS[bit].value]
                    for name, bits in (("restrained", restraint[:n]), ("aggressive", restraint[n:]))
                    for m, bit in zip(messages, bits)
                ],
            },
            "beliefs": {"posterior": [[m, q] for m, q in zip(messages, self.posterior)]},
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
    if fight:
        # fighting needs -f(q) >= tie_floor(-u_b_fight), which is the
        # stand-down test below on -f and -u_b_fight; negation is exact
        slope, intercept, u_b_fight = -slope, -intercept, -u_b_fight
    # standing down needs f(q) >= tie_floor(u_b_fight)
    threshold = tie_floor(u_b_fight)
    if slope == 0.0:
        return (0.0, 1.0) if intercept >= threshold else None
    q_cut = (threshold - intercept) / slope
    if slope > 0:
        lo, hi = max(0.0, q_cut), 1.0
    else:
        lo, hi = 0.0, min(1.0, q_cut)
    if lo > hi:
        return None
    return (lo, hi)


class _GameTable:
    """Per-game payoff tables flattened to plain floats for fast checks.
    Types are indexed 0 (restrained) and 1 (aggressive), messages by their
    grid index, and a t2 action is its restraint bit."""

    def __init__(self, game: DiscreteGame):
        self.messages = game.messages
        self.n = len(game.messages)
        self.index = {m: j for j, m in enumerate(game.messages)}
        p = game.params
        self.prior = p.prior
        self.u_b_fight = -p.c
        # B's payoff from A's t2 action, by restraint bit; 0 * V_B keeps V_B's number type
        self.u_b_action = (-p.V_B, 0 * p.V_B)

        # u_A by [type][message index]; the game validated its params and
        # messages when it was built
        def u_A(t: TypeLabel, outcome: Outcome) -> list[float]:
            row = [unchecked_payoff(game.spec, p, t, outcome, m).u_A for m in game.messages]
            if not all(map(math.isfinite, row)):  # e.g. -c - m past the float range
                raise ParameterError("payoffs finite", f"u_A({t.name.lower()}, {outcome.value})={row}")
            return row

        self.uA_conflict = [u_A(t, Outcome.PREVENTIVE_CONFLICT) for t in _TYPES]
        # u_A of a t2 action by [type][restraint bit][message index]
        self.uA_t2 = [tuple(u_A(t, action) for action in _ACTIONS) for t in _TYPES]
        # weakly optimal t2 actions per [type][message index], exploit first
        self.t2_options = [list(map(t2_options, *rows)) for rows in self.uA_t2]

    def value(self, t: int, j: int, restrains: bool, fight: bool) -> float:
        """Type t's continuation value at message j."""
        if fight:
            return self.uA_conflict[t][j]
        return self.uA_t2[t][restrains][j]


def _supporting_belief(interval: Optional[tuple[float, float]], q: Optional[float]) -> Optional[float]:
    """Check (b) at one message: ``q``, the Bayes posterior on path, if it
    lies in the supporting ``interval``; off path (``q`` None) the
    interval's midpoint; else None."""
    if interval is None:
        return None
    lo, hi = interval
    if q is None:
        return 0.5 * (lo + hi)
    return q if lo <= q <= hi else None


def _check_profile(
    table: _GameTable,
    j_R: int,
    j_A: int,
    restraint: tuple[bool, ...],
    fight: tuple[bool, ...],
) -> Optional[tuple[float, ...]]:
    """Run checks (a)-(d); return the supporting beliefs by message index,
    or None. ``restraint`` holds the restrained type's t2 bits, then the
    aggressive type's."""
    n = table.n
    u_b, u_fight = table.u_b_action, table.u_b_fight
    beliefs = []
    for j in range(n):
        if j == j_R and j == j_A:
            q: Optional[float] = table.prior
        elif j == j_R:
            q = 1.0
        elif j == j_A:
            q = 0.0
        else:
            q = None  # off path: belief free
        interval = supporting_belief_interval(u_b[restraint[j]], u_b[restraint[n + j]], u_fight, fight[j])
        belief = _supporting_belief(interval, q)
        if belief is None:
            return None
        beliefs.append(belief)

    for t, j_own in ((_R, j_R), (_A, j_A)):
        bits = restraint[t * n : (t + 1) * n]
        # (c) t2 optimality at every cell
        if any(bit not in options for bit, options in zip(bits, table.t2_options[t])):
            return None
        # (d) t0 optimality: continuation value of each message
        values = [table.value(t, j, bits[j], fight[j]) for j in range(n)]
        if values[j_own] < tie_floor(max(values)):
            return None

    return tuple(beliefs)


def _classify(
    pooled: bool, fight_R: bool, fight_A: bool, restrains_R: bool, restrains_A: bool
) -> PBEClass:
    """Class from the on-path data: B's fight bits after each type's signal
    and each type's t2 restraint bit at its own signal."""
    if pooled:
        on_restraint = not fight_R and restrains_R and restrains_A
        return PBEClass.POOLING_ON_RESTRAINT if on_restraint else PBEClass.POOLING_OTHER
    informative = not fight_R and fight_A and restrains_R
    return PBEClass.SEPARATING if informative else PBEClass.HYBRID


def is_weak_pbe(game: DiscreteGame, profile: StrategyProfile) -> Optional[PBECertificate]:
    """Certify one profile, or return None when no supporting beliefs exist."""
    table = _GameTable(game)
    messages = game.messages
    try:
        j_R = table.index[profile.signal_of[TypeLabel.RESTRAINED]]
        j_A = table.index[profile.signal_of[TypeLabel.AGGRESSIVE]]
        fight = tuple(bool(profile.fight_after[m]) for m in messages)
        actions = [profile.t2_action[(t, m)] for t in _TYPES for m in messages]
    except KeyError as exc:
        raise ParameterError(
            "profile total over message grid", f"missing entry {exc}"
        ) from exc
    if any(action not in _ACTIONS for action in actions):
        return None  # conflict is not a t2 action
    restraint = tuple(action is Outcome.RESTRAINT for action in actions)
    beliefs = _check_profile(table, j_R, j_A, restraint, fight)
    if beliefs is None:
        return None
    n = table.n
    pbe_class = _classify(j_R == j_A, fight[j_R], fight[j_A], restraint[j_R], restraint[n + j_A])
    return PBECertificate(messages, j_R, j_A, pbe_class, restraint, fight, beliefs)


class _Option(NamedTuple):
    """One message's local choice, its supporting belief and what it is
    worth to each type."""

    restrains_R: bool
    restrains_A: bool
    fight: bool
    belief: float
    value_R: float
    value_A: float


def _local_options(table: _GameTable, j: int) -> tuple[list[_Option], ...]:
    """Cell-optimal t2 actions and fight bits at message j that pass (b),
    once for each belief an anchor can put there: off path, pooled at the
    prior, at the restrained type's signal (1.0) and at the aggressive
    type's (0.0)."""
    u_b, u_fight = table.u_b_action, table.u_b_fight
    beliefs = (None, table.prior, 1.0, 0.0)
    options: tuple[list[_Option], ...] = tuple([] for _ in beliefs)
    for restrains_R in table.t2_options[_R][j]:
        for restrains_A in table.t2_options[_A][j]:
            for fight in (False, True):
                interval = supporting_belief_interval(u_b[restrains_R], u_b[restrains_A], u_fight, fight)
                if interval is None:
                    continue
                values = (table.value(_R, j, restrains_R, fight), table.value(_A, j, restrains_A, fight))
                for found, q in zip(options, beliefs):
                    belief = _supporting_belief(interval, q)
                    if belief is not None:
                        found.append(_Option(restrains_R, restrains_A, fight, belief, *values))
    return options


def _admit(options: list[_Option], v_R: float, v_A: float) -> list[_Option]:
    """(d) at one message: neither type gains by deviating to it."""
    return [o for o in options if not (v_R < tie_floor(o.value_R) or v_A < tie_floor(o.value_A))]


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
    off_path, pooled, at_R, at_A = zip(*(_local_options(table, j) for j in range(n)))
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
                    pbe_class = _classify(
                        j_R == j_A, o_R.fight, o_A.fight, o_R.restrains_R, o_A.restrains_A
                    )
                    yield j_R, j_A, pbe_class, options


_CANONICAL = operator.attrgetter("j_R", "j_A", "restraint", "fight")


def _certificates(table: _GameTable, anchors: Iterable[_Anchor]) -> list[PBECertificate]:
    """One record per element of the anchors' products, in the canonical
    order: signal indices, then t2 actions (restraint bits, restrained
    cells first), then the fight pattern."""
    messages = table.messages
    found = []
    for j_R, j_A, pbe_class, options in anchors:
        for combo in itertools.product(*options):
            restrains_R, restrains_A, fight, belief, _, _ = zip(*combo)
            restraint = restrains_R + restrains_A
            found.append(PBECertificate(messages, j_R, j_A, pbe_class, restraint, fight, belief))
    found.sort(key=_CANONICAL)
    return found


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


def verify_against_closed_form(
    spec: MechanismSpec,
    grid: Iterable[tuple[ModelParams, float]],
) -> DiscrepancyReport:
    """Compare closed-form verdicts against oracle findings on M = {0, m}.

    Pooling agreement means a PoolingOnRestraint certificate pooled at m
    exists exactly when the closed form holds; separating agreement means
    a Separating certificate with the restrained type at m exists exactly
    when the closed form holds. An empty report is full agreement.
    Certificates are built only for the points that disagree. Building the
    grid game validates each point once; the closed forms then read it.
    """
    from .conditions import holds, slacks  # the oracle's one use of the closed forms

    relevant_classes = (PBEClass.POOLING_ON_RESTRAINT, PBEClass.SEPARATING)
    entries: list[Discrepancy] = []
    for params, m in grid:
        messages = signal_grid(m)
        table = _GameTable(DiscreteGame(spec, params, messages))
        pooling, separating, _ = slacks(spec, params, m)
        closed = {"pooling": holds(pooling), "separating": holds(separating)}
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
