"""Exhaustive weak-PBE enumeration on a finite signal grid.

This module is the independent verifier for the closed-form conditions in
:mod:`restraint_games.conditions`: it discretizes the signal space to a
finite grid and lists every pure strategy profile that is a weak perfect
Bayesian equilibrium, i.e. where

(a) posteriors at on-path messages follow Bayes' rule from the prior,
(b) State B's t1 choice at every message is optimal under its posterior
    there -- on path B's expected payoff at the Bayes posterior passes the
    tie rule below; off path, where posteriors are free, the midpoint of
    the supporting beliefs, a closed interval since that payoff is affine
    in the belief (:func:`supporting_belief_interval`), is reported,
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
exists costs O(n^3) for n messages; listing C certificates costs
O(n^3 + C log C), since the products of several anchors interleave and
the list is sorted once at the end. The size guard of :func:`find_all_pbe`
counts certificates exactly before building any.

Per-game work is done once: one payoff evaluation per u_A row; check
(b), which does not depend on the message, at most once per option kind
(t2 bits, fight) and belief kind, so at most 32 verdicts a game; and a
message's off-path admission once per distinct on-path value pair
(v_R, v_A), never once per message and candidate anchor. The per-game
cost is measured in ``BENCH_oracle_fixed_cost.json``.

The closed-form cross-check :func:`verify_against_closed_form` has a
second route. Its referee, :func:`_referee`, is the definition checked
profile by profile: over numpy arrays of points, checks (a)-(d) on the 16
pure profiles on {0, m} that could be PoolingOnRestraint or Separating
with the restrained type at m, in the float expressions of the scalar
checks, and never the closed forms. It decides the points of a block
whose values are all floats and whose m > 0, when there are at least
:data:`REFEREE_MIN_POINTS` of them. The anchor search decides every other
point -- m = 0, a value that is not a float, a non-finite payoff, a
smaller block -- and every point where the referee disagrees with the
closed forms, and it alone builds a discrepancy report's certificates.
numpy is imported only inside the referee; the break-even is measured in
``BENCH_oracle_referee.json``.

A certificate is one ``NamedTuple`` whose fields run in the canonical
order: both signal indices, the t2 restraint bits, the fight bits, the
class, the supporting beliefs and the game's shared message tuple. The
records are made by ``itertools.product`` over each anchor's per-message
option fields, with no Python code per record. A certificate's
``profile`` and ``beliefs`` build the public value types when read, and
``to_dict()`` is their dicts; the writers format from the record. The
memory a listing retains is its records, linear in the certificate count
and bounded by the budget of :func:`find_all_pbe`; the time and bytes per
certificate are measured in ``BENCH_oracle_records.json``.

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

import math
from enum import Enum
from functools import cached_property
from itertools import islice, product, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .game import (
    T2_ACTIONS,
    TYPES,
    BudgetExceededError,
    MechanismSpec,
    ModelParams,
    Outcome,
    ParameterError,
    TypeLabel,
    boolean,
    is_real,
    payoff_terms,
    real,
    refuse_unknown_keys,
    signal_grid,
    t2_options,
    tie_floor,
    unique,
    validate_signal,
)

#: Number of certificates :func:`find_all_pbe` lists before refusing.
DEFAULT_CERTIFICATE_BUDGET = 5 * 10**4


class PBEClass(Enum):
    POOLING_ON_RESTRAINT = "PoolingOnRestraint"
    POOLING_OTHER = "PoolingOther"
    SEPARATING = "Separating"
    HYBRID = "Hybrid"


class _GameFields(NamedTuple):
    spec: MechanismSpec
    params: ModelParams
    messages: tuple[float, ...]


class DiscreteGame(_GameFields):
    """A restraint-signaling game restricted to a finite signal grid.

    ``messages`` must be strictly ascending, nonnegative, and contain 0
    (the null signal every non-existence argument deviates to).
    """

    __slots__ = ()

    def __new__(cls, spec: MechanismSpec, params: ModelParams, messages: Iterable[float]):
        try:  # as the CLI reads --messages
            messages = tuple(real(m) for m in messages)
        except (TypeError, ValueError) as exc:
            raise ParameterError("messages real numbers", str(exc)) from exc
        params.validate()
        if not messages:
            raise ParameterError("messages nonempty")
        for m in messages:
            validate_signal(m)
        if any(a >= b for a, b in zip(messages, messages[1:])):
            raise ParameterError("messages strictly ascending", f"messages={messages}")
        if 0.0 not in messages:
            raise ParameterError("messages contain 0", f"messages={messages}")
        return super().__new__(cls, spec, params, messages)


#: A type's name in a profile's dict, one string per type.
_TYPE_NAMES = {t: t.name.lower() for t in TYPES}
#: The profile reader's refusal of a value of the wrong kind.
_WELL_FORMED = "profile well-formed (signal_of, fight_after, t2_action)"


class StrategyProfile(NamedTuple):
    """Pure strategies for both players at every decision point."""

    signal_of: dict[TypeLabel, float]
    fight_after: dict[float, bool]
    t2_action: dict[tuple[TypeLabel, float], Outcome]

    def to_dict(self) -> dict:
        """The profile as :meth:`from_dict` reads it; a value that
        :func:`read_profile` finds not well-formed is refused the same way."""
        try:
            return {
                "signal_of": {_TYPE_NAMES[t]: _message(m) for t, m in self.signal_of.items()},
                "fight_after": [[_message(m), boolean(f)] for m, f in sorted(self.fight_after.items())],
                "t2_action": [[_TYPE_NAMES[t], _message(m), Outcome(a).value] for (t, m), a in sorted(
                    self.t2_action.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))],
            }
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ParameterError(_WELL_FORMED, f"{type(exc).__name__}: {exc}") from exc

    @classmethod
    def from_dict(cls, d: dict) -> "StrategyProfile":
        try:
            signal_of = [(TypeLabel[t.upper()], real(m)) for t, m in d["signal_of"].items()]
            fight_after = [(real(m), boolean(f)) for m, f in d["fight_after"]]
            t2_action = [((TypeLabel[t.upper()], real(m)), Outcome(a)) for t, m, a in d.get("t2_action", ())]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ParameterError(_WELL_FORMED, f"{type(exc).__name__}: {exc}") from exc
        refuse_unknown_keys("profile keys are profile fields", (("in profile", d, cls._fields),))
        return cls(unique("signal_of", signal_of), unique("fight_after", fight_after), unique("t2_action", t2_action))


def _message(m):
    """A profile's signal or message key ``m`` if :func:`~.game.is_real` (``True == 1.0`` is not), else TypeError."""
    if not is_real(m):
        raise TypeError(f"{m!r} is not a real number")
    return m


class BeliefAssignment(NamedTuple):
    """Posterior probability that State A is restrained, per message."""

    posterior: dict[float, float]

    def to_dict(self) -> dict:
        return {"posterior": [[m, q] for m, q in sorted(self.posterior.items())]}


_R, _A = 0, 1  # each type's index in TYPES


class PBECertificate(NamedTuple):
    """One certified profile as a compact record, its fields in the
    canonical order: the signal indices ``j_R`` and ``j_A``, the t2
    ``restraint`` bits (restrained cells, then aggressive cells, each in
    message order), the ``fight`` bits, the ``pbe_class``, the supporting
    ``posterior`` beliefs by message index, and the game's ``messages``
    (shared by every certificate of the game, not copied).
    :attr:`profile` and :attr:`beliefs` build the public value types when
    read, and :meth:`to_dict` is their dicts.
    """

    j_R: int
    j_A: int
    restraint: tuple[bool, ...]
    fight: tuple[bool, ...]
    pbe_class: PBEClass
    posterior: tuple[float, ...]
    messages: tuple[float, ...]

    @property
    def profile(self) -> StrategyProfile:
        messages = self.messages
        return StrategyProfile(
            signal_of=dict(zip(TYPES, (messages[self.j_R], messages[self.j_A]))),
            fight_after=dict(zip(messages, self.fight)),
            t2_action={cell: T2_ACTIONS[bit] for cell, bit in zip(product(TYPES, messages), self.restraint)},
        )

    @property
    def beliefs(self) -> BeliefAssignment:
        return BeliefAssignment(posterior=dict(zip(self.messages, self.posterior)))

    def to_dict(self) -> dict:
        return {"class": self.pbe_class.value, "profile": self.profile.to_dict(), "beliefs": self.beliefs.to_dict()}


def supporting_belief_interval(
    u_b_restrained_action: float,
    u_b_aggressive_action: float,
    u_b_fight: float,
    fight: bool,
) -> Optional[tuple[float, float]]:
    """Beliefs q = P(restrained) making B's t1 choice weakly optimal.

    B's payoff from standing down is affine in q:
    ``f(q) = q * u_b_restrained_action + (1 - q) * u_b_aggressive_action``,
    so the supporting set within [0, 1] is a closed interval (or None
    when empty). Its endpoint is rounded; the oracle only reports off-path
    beliefs from it and tests an on-path posterior by ``f`` itself.
    """
    slope = u_b_restrained_action - u_b_aggressive_action
    intercept = u_b_aggressive_action
    if fight:
        # fighting needs -f(q) >= tie_floor(-u_b_fight), which is the
        # stand-down test below on -f and -u_b_fight; negation is exact
        slope, intercept, u_b_fight = -slope, -intercept, -u_b_fight
    # standing down needs f(q) >= tie_floor(u_b_fight)
    threshold = tie_floor(u_b_fight)
    zero = abs(slope) * 0  # in the payoffs' number type; 0 * slope is -0.0 for a negative float
    if slope == 0.0:
        return (zero, zero + 1) if intercept >= threshold else None
    q_cut = (threshold - intercept) / slope
    lo, hi = (max(zero, q_cut), zero + 1) if slope > 0 else (zero, min(zero + 1, q_cut))
    return None if lo > hi else (lo, hi)


class _GameTable:
    """Every payoff of a game on its grid, tabulated once for the oracle and
    ``simulate``; a non-finite u_A refuses the game. Its caller validated
    the params and messages (``simulate`` allows a prior of 0 or 1). Types
    index in ``TYPES`` order, messages by grid index, t2 actions by bit."""

    def __init__(self, game: _GameFields):
        self.messages = game.messages
        self.n = len(game.messages)
        p = game.params
        # an anchor's beliefs at a message: off path (free), pooled, at R's and A's signal; the prior's type
        self.beliefs = (None, p.prior, 1 + 0 * p.prior, 0 * p.prior)
        self.u_b_fight = -p.c
        # (b): B may stand down at payoff f when f >= stand_floor, fight when -f >= fight_floor
        self.stand_floor, self.fight_floor = tie_floor(-p.c), tie_floor(p.c)
        # B's payoff from A's t2 action, by restraint bit; 0 * V_B keeps V_B's number type
        self.u_b_action = (-p.V_B, 0 * p.V_B)

        # u_A by [type][message index], one payoff evaluation a row
        def u_A(t: TypeLabel, outcome: Outcome) -> list[float]:
            base, pays_m, _ = payoff_terms(game.spec, p, t, outcome)
            row = [base - m for m in game.messages] if pays_m else [base] * self.n
            if not all(map(math.isfinite, row)):  # e.g. -c - m past the float range
                raise ParameterError("payoffs finite", f"u_A({t.name.lower()}, {outcome.value})={row}")
            return row

        self.uA_conflict = [u_A(t, Outcome.PREVENTIVE_CONFLICT) for t in TYPES]
        # u_A of a t2 action by [type][restraint bit][message index]
        self.uA_t2 = [tuple(u_A(t, action) for action in T2_ACTIONS) for t in TYPES]
        # weakly optimal t2 actions per [type][message index], exploit first
        self.t2_options = [list(map(t2_options, *rows)) for rows in self.uA_t2]
        # check (b) at each of beliefs per (restrains_R, restrains_A, fight), filled on first use
        self.verdicts: dict[tuple[bool, bool, bool], list[Optional[float]]] = {}

    def value(self, t: int, j: int, restrains: bool, fight: bool) -> float:
        """Type t's continuation value at message j."""
        if fight:
            return self.uA_conflict[t][j]
        return self.uA_t2[t][restrains][j]

    @cached_property
    def option_values(self) -> list[list[tuple]]:
        """Continuation values by message and their tie floors, per [type][t2
        bit][fight]; built by the anchor search only, not by is_weak_pbe."""
        out = []
        for conflict, t2_rows in zip(self.uA_conflict, self.uA_t2):
            conflict = conflict, list(map(tie_floor, conflict))
            out.append([((row, list(map(tie_floor, row))), conflict) for row in t2_rows])
        return out


def _supporting_belief(table: _GameTable, u_r: float, u_a: float, fight: bool, q: Optional[float]) -> Optional[float]:
    """Check (b) at one message, where B gets ``u_r`` and ``u_a`` from the
    two types' t2 actions: the Bayes posterior ``q`` if B's payoff there,
    ``f(q) = q * u_r + (1 - q) * u_a``, passes the tie rule for ``fight``;
    off path (``q`` None) the supporting interval's midpoint; else None."""
    if q is None:
        interval = supporting_belief_interval(u_r, u_a, table.u_b_fight, fight)
        return None if interval is None else (interval[0] + interval[1]) / 2
    f = u_a + q * (u_r - u_a)  # exactly u_a where B's payoff does not depend on q
    return q if (-f >= table.fight_floor if fight else f >= table.stand_floor) else None


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
    u_b = table.u_b_action
    _, pooled, at_R, at_A = table.beliefs
    beliefs = []
    for j in range(n):
        if j == j_R and j == j_A:
            q = pooled
        elif j == j_R:
            q = at_R
        elif j == j_A:
            q = at_A
        else:
            q = None  # off path: belief free
        belief = _supporting_belief(table, u_b[restraint[j]], u_b[restraint[n + j]], fight[j], q)
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


def read_profile(profile: StrategyProfile, messages: tuple[float, ...]) -> tuple:
    """``(j_R, j_A, fight bits, t2 actions by cell or None where the profile
    gives none)``, by the one rule of :func:`is_weak_pbe` and ``simulate``.
    A signal or message key that fails :func:`~.game.is_real`, a fight bit
    :func:`~.game.boolean` or a t2 action ``Outcome`` is not well-formed; a
    type, message or cell missing, extra or off the grid is not total, as
    weak PBE is over total profiles (Fudenberg & Tirole, JET 1991)."""
    index, n = {m: j for j, m in enumerate(messages)}, len(messages)

    def at(m) -> int:  # KeyError off the grid
        return index[_message(m)]

    def cell(t: TypeLabel, m) -> int:
        return TYPES.index(t) * n + at(m)

    def column(field: str, key, read, size: int) -> tuple:
        found = {key(k): read(value) for k, value in getattr(profile, field).items()}
        if len(found) != size:
            raise KeyError(field)
        return tuple(found[j] for j in range(size))

    try:
        j_R, j_A = column("signal_of", TYPES.index, at, 2)
        fight = column("fight_after", at, boolean, n)
        cells = column("t2_action", lambda key: cell(*key), Outcome, 2 * n) if profile.t2_action else None
    except KeyError as exc:
        raise ParameterError("profile total over message grid", f"missing, extra or off {messages}: {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ParameterError(_WELL_FORMED, f"{type(exc).__name__}: {exc}") from exc
    return j_R, j_A, fight, cells


def is_weak_pbe(game: DiscreteGame, profile: StrategyProfile) -> Optional[PBECertificate]:
    """Certify one profile, or return None when no supporting beliefs exist
    or a t2 action is conflict. Raises :func:`read_profile`'s refusals, and
    "profile total over message grid" for a profile without t2 actions."""
    j_R, j_A, fight, actions = read_profile(profile, game.messages)
    if actions is None:
        raise ParameterError("profile total over message grid", "no t2_action")
    if any(action not in T2_ACTIONS for action in actions):
        return None  # conflict is not a t2 action
    table = _GameTable(game)
    restraint = tuple(action is Outcome.RESTRAINT for action in actions)
    beliefs = _check_profile(table, j_R, j_A, restraint, fight)
    if beliefs is None:
        return None
    n = table.n
    pbe_class = _classify(j_R == j_A, fight[j_R], fight[j_A], restraint[j_R], restraint[n + j_A])
    return PBECertificate(j_R, j_A, restraint, fight, pbe_class, beliefs, game.messages)


class _Option(NamedTuple):
    """One message's local choice, its supporting belief, what it is worth
    to each type and the tie floors of those values."""

    restrains_R: bool
    restrains_A: bool
    fight: bool
    belief: float
    value_R: float
    value_A: float
    floor_R: float
    floor_A: float


def _local_options(table: _GameTable, j: int) -> tuple[list[_Option], ...]:
    """Cell-optimal t2 actions and fight bits at message j that pass (b),
    once for each of ``table.beliefs``: off path, pooled at the prior, at
    the restrained type's signal and at the aggressive type's."""
    rows_R, rows_A = table.option_values
    options: tuple[list[_Option], ...] = tuple([] for _ in table.beliefs)
    for kind in product(table.t2_options[_R][j], table.t2_options[_A][j], (False, True)):
        restrains_R, restrains_A, fight = kind
        if kind not in table.verdicts:  # check (b) does not depend on the message
            u_r, u_a = table.u_b_action[restrains_R], table.u_b_action[restrains_A]
            table.verdicts[kind] = [_supporting_belief(table, u_r, u_a, fight, q) for q in table.beliefs]
        (values_R, floors_R), (values_A, floors_A) = rows_R[restrains_R][fight], rows_A[restrains_A][fight]
        values = (values_R[j], values_A[j], floors_R[j], floors_A[j])
        for found, belief in zip(options, table.verdicts[kind]):
            if belief is not None:
                found.append(_Option(*kind, belief, *values))
    return options


def _admit(options: list[_Option], v_R: float, v_A: float) -> tuple[tuple, ...]:
    """(d) at one message: the columns a listing reads (each type's t2 bits,
    fight, belief) of the options neither type gains by deviating to."""
    return tuple(islice(zip(*(o for o in options if v_R >= o.floor_R and v_A >= o.floor_A)), 4))


def _single(o: _Option) -> tuple[tuple, ...]:
    """:func:`_admit`'s columns of one option alone, as at a signal."""
    return (o.restrains_R,), (o.restrains_A,), (o.fight,), (o.belief,)


_Anchor = tuple[int, int, PBEClass, tuple[tuple[tuple, ...], ...]]


def _anchors(table: _GameTable, signals_R: Optional[Iterable[int]] = None) -> Iterator[_Anchor]:
    """Every weak PBE of the game, factorized.

    Fixing the signals j_R and j_A and the options at those messages (the
    anchor) fixes the posteriors, the class and both on-path values. Checks
    (b)-(d) then hold message by message, so the certified profiles under
    an anchor are exactly the product of each message's admitted options.
    Off path those depend only on the message and the on-path values, so
    each is admitted once, on first use. Yields ``(j_R, j_A, class,
    fields)`` for the anchors whose product is nonempty, where ``fields``
    holds each column of :func:`_admit` as one tuple per message; j_R
    runs over ``signals_R``, by default every message.
    """
    n = table.n
    off_path, pooled, at_R, at_A = zip(*(_local_options(table, j) for j in range(n)))
    # each message's admitted columns per on-path value pair, None until used
    admitted: dict[tuple[float, float], list] = {}
    for j_R, j_A in product(range(n) if signals_R is None else signals_R, range(n)):
        candidates = zip(pooled[j_R], pooled[j_R]) if j_R == j_A else product(at_R[j_R], at_A[j_A])
        for o_R, o_A in candidates:
            v_R, v_A = o_R.value_R, o_A.value_A
            # (d) at the signals themselves
            if not (v_R >= o_R.floor_R and v_A >= o_R.floor_A and v_R >= o_A.floor_R and v_A >= o_A.floor_A):
                continue
            memo = admitted.get((v_R, v_A))
            if memo is None:
                memo = admitted[v_R, v_A] = [None] * n
            for j in range(n):
                if j == j_R or j == j_A:
                    continue
                if memo[j] is None:
                    memo[j] = _admit(off_path[j], v_R, v_A)
                if not memo[j]:
                    break
            else:
                columns = memo.copy()
                columns[j_A], columns[j_R] = _single(o_A), _single(o_R)
                pbe_class = _classify(j_R == j_A, o_R.fight, o_A.fight, o_R.restrains_R, o_A.restrains_A)
                yield j_R, j_A, pbe_class, tuple(zip(*columns))


def _certificates(table: _GameTable, anchors: Iterable[_Anchor]) -> list[PBECertificate]:
    """One record per element of the anchors' products, in the canonical
    order: signal indices, then t2 actions (restraint bits, restrained
    cells first), then the fight pattern."""
    messages, records = repeat(table.messages), repeat(PBECertificate)
    found = []
    for j_R, j_A, pbe_class, (bits_R, bits_A, fights, beliefs) in anchors:
        # products over each field's per-message tuples run in step, one
        # element per certificate, so no Python code runs per certificate
        restraint = map(tuple.__add__, product(*bits_R), product(*bits_A))
        fields = (repeat(j_R), repeat(j_A), restraint, product(*fights), repeat(pbe_class), product(*beliefs))
        found.extend(map(tuple.__new__, records, zip(*fields, messages)))
    # the products of several anchors interleave; certificates of one game
    # differ in j_R, j_A, restraint or fight, so the sort never compares classes
    found.sort()
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
    count = sum(math.prod(map(len, beliefs)) for _, _, _, (_, _, _, beliefs) in anchors)
    if count > budget:
        raise BudgetExceededError(count, budget)
    return _certificates(table, anchors)


class Discrepancy(NamedTuple):
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


class DiscrepancyReport(NamedTuple):
    spec: MechanismSpec
    entries: tuple[Discrepancy, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.entries

    def to_json_list(self) -> list[dict]:
        return [e.to_dict() for e in self.entries]


#: The classes the cross-check compares, in its verdicts' order: pooling, separating.
_RELEVANT = (PBEClass.POOLING_ON_RESTRAINT, PBEClass.SEPARATING)
_VERDICTS = ("pooling", "separating")

#: The pure profiles on {0, m} with the restrained type at m (j_R = 1) whose
#: class is one of _RELEVANT, as (j_A, restraint bits, fight bits): 8 pooling
#: at m, 8 separating.
_REFEREE_PROFILES = [
    (j_A, restraint, fight)
    for j_A, restraint, fight in product((0, 1), product((False, True), repeat=4), product((False, True), repeat=2))
    if _classify(j_A == 1, fight[1], fight[j_A], restraint[1], restraint[2 + j_A]) in _RELEVANT
]

#: Most points the cross-check holds at once, and one :func:`_referee`
#: call's size, which bound their memory.
_BLOCK = 2048
#: Fewest all-float points with m > 0 in a block that the referee decides;
#: below it the anchor search of each point is faster
#: (BENCH_oracle_referee.json).
REFEREE_MIN_POINTS = 8


def _referee(spec: MechanismSpec, games: list[DiscreteGame]) -> list[Optional[tuple[bool, bool]]]:
    """Whether a PoolingOnRestraint and a Separating profile with the
    restrained type at m are weak PBE, as (pooling, separating), in each
    game on {0, m} whose values are all floats; None where a payoff is not
    finite, which :class:`_GameTable` refuses.

    It is the weak-PBE definition (Fudenberg & Tirole, JET 1991) checked
    profile by profile, a second route beside the factorized search of
    :func:`_anchors`: checks (a)-(d) on each of :data:`_REFEREE_PROFILES`,
    over numpy arrays of games, in the float expressions of
    :func:`_supporting_belief`, :func:`supporting_belief_interval`,
    :func:`~.game.t2_options` and :func:`~.game.tie_floor`, the last read
    per call. It never reads the closed forms.
    """
    import numpy as np  # here, so importing the oracle loads no numpy

    j_A, bits, fight = (np.array(column, dtype=int) for column in zip(*_REFEREE_PROFILES))
    bits = bits.reshape(-1, 2, 2)  # [profile, type, message]
    t, j = np.arange(2)[:, None], np.arange(2)  # type and message indices of a [type, message] cell
    with np.errstate(all="ignore"):  # a non-finite payoff is _GameTable's to refuse
        p = ModelParams(*np.array([game.params for game in games], dtype=float).T)
        x = np.array([game.messages for game in games], dtype=float).T  # [message, game]

        def u_A(t: TypeLabel, outcome: Outcome):  # [message, game], as _GameTable's rows
            base, pays_m, _ = payoff_terms(spec, p, t, outcome)
            return base - x if pays_m else np.broadcast_to(base, x.shape)

        # [type, outcome (conflict, then the t2 actions by restraint bit), message, game]
        u = np.array([[u_A(t, outcome) for outcome in (Outcome.PREVENTIVE_CONFLICT, *T2_ACTIONS)] for t in TYPES])
        # (c) every cell's t2 bit is weakly optimal, by t2_options' two tests
        exploit, restraint = u[:, 1], u[:, 2]
        ok = np.array((exploit >= tie_floor(restraint), restraint >= tie_floor(exploit)))[bits, t, j].all(axis=(1, 2))
        # (d) each type's value at its own signal is at least its best value by the tie rule
        values = u[t, np.where(fight[:, None, :], 0, 1 + bits), j]  # [profile, type, message, game]
        best = tie_floor(values.max(axis=2))
        ok &= (values[:, _R, 1] >= best[:, _R]) & (values[np.arange(len(j_A)), _A, j_A] >= best[:, _A])
        # (a) and (b) on path: B's payoff at the Bayes posterior, pooled at m or at each type's signal
        u_B = np.array((-p.V_B, 0 * p.V_B))  # by A's restraint bit, as _GameTable.u_b_action
        u_r, u_a = u_B[bits[:, _R]], u_B[bits[:, _A]]  # [profile, message, game]
        pooled = (j_A == 1)[:, None]
        q = np.where(pooled[:, :, None], p.prior, (0 * p.prior, 1 + 0 * p.prior))
        f = u_a + q * (u_r - u_a)
        on_path = np.where(fight[:, :, None], -f >= tie_floor(p.c), f >= tie_floor(-p.c))
        # (b) off path, at 0 when pooled at m: a supporting belief exists, as supporting_belief_interval finds
        sign = np.where(fight[:, :1], -1.0, 1.0)
        slope, intercept, threshold = sign * (u_r[:, 0] - u_a[:, 0]), sign * u_a[:, 0], tie_floor(sign * -p.c)
        q_cut = (threshold - intercept) / slope
        off_path = np.where(slope == 0, intercept >= threshold, np.where(slope > 0, ~(q_cut > 1), ~(q_cut < 0)))
        ok &= on_path[:, 1] & np.where(pooled, off_path, on_path[:, 0])
        finite = np.isfinite(u).all(axis=(0, 1, 2))
    verdicts = zip(ok[j_A == 1].any(axis=0).tolist(), ok[j_A == 0].any(axis=0).tolist())
    return [verdict if payoffs_finite else None for verdict, payoffs_finite in zip(verdicts, finite.tolist())]


def _anchor_check(game: DiscreteGame, m: float, closed: tuple[bool, bool]) -> Optional[Discrepancy]:
    """The anchor search's verdicts at one point, and its discrepancy,
    certificates built, if they differ from the closed forms'."""
    table = _GameTable(game)
    relevant = [anchor for anchor in _anchors(table, (table.n - 1,)) if anchor[2] in _RELEVANT]
    found = {pbe_class for _, _, pbe_class, _ in relevant}
    oracle = tuple(map(found.__contains__, _RELEVANT))
    if oracle == closed:
        return None
    return Discrepancy(
        params=game.params,
        m=m,
        closed_form_verdict=dict(zip(_VERDICTS, closed)),
        oracle_verdict=dict(zip(_VERDICTS, oracle)),
        certificates=tuple(_certificates(table, relevant)),
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

    The points are read in blocks of up to 2 048. Building the grid game
    validates each point once, and :func:`~.conditions.slack_rule` gives
    its closed-form verdicts, against its own tie floor. :func:`_referee`
    decides a block's points whose values are all floats and whose m > 0,
    if there are at least :data:`REFEREE_MIN_POINTS` of them. The anchor
    search of :func:`_anchors` decides every other point -- m = 0, a value
    that is not a float, a non-finite payoff, a smaller block -- and every
    point where the referee disagrees with the closed forms, and it builds
    the certificates of each point that disagrees. A point that fails
    validation is raised once the points before it are checked.
    """
    from .conditions import slack_rule  # the oracle's one use of the closed forms

    rule, entries, points = slack_rule(spec), [], iter(grid)
    while block := list(islice(points, _BLOCK)):
        games, closed, refusal = [], [], None
        try:
            for params, m in block:
                games.append(DiscreteGame(spec, params, signal_grid(m)))
                closed.append(rule(params, m)[3:])
        except ParameterError as exc:  # raised once the points before it are checked, as one by one
            refusal = exc
        decided = {}
        if len(games) >= REFEREE_MIN_POINTS:
            chosen = [k for k, (game, (_, m)) in enumerate(zip(games, block))
                      if len(game.messages) == 2 and {*map(type, game.params), type(m)} == {float}]
            if len(chosen) >= REFEREE_MIN_POINTS:
                decided = dict(zip(chosen, _referee(spec, [games[k] for k in chosen])))
        for k, (game, (_, m), verdict) in enumerate(zip(games, block, closed)):
            entry = None if decided.get(k) == verdict else _anchor_check(game, m, verdict)
            if entry is not None:
                entries.append(entry)
        if refusal is not None:
            raise refusal
    return DiscrepancyReport(spec=spec, entries=tuple(entries))
