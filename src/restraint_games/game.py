"""Core definitions for the restraint-signaling game.

Two states interact over three stages. State A privately knows its type:
restrained (it gains nothing from exploiting a future decisive advantage)
or aggressive (it gains V_D). At t0 A chooses a signal level m >= 0 whose
cost structure depends on the commitment mechanism; at t1 State B observes
m and decides whether to launch a preventive conflict (ending the game at
-c for each side); at t2, if no conflict occurred, A holds the advantage
and decides whether to exploit it (costing B the worst-case loss V_B) or
to show restraint (the zero-point outcome for both).

Four mechanisms differ only in where the signal cost m lands:

* tying hands   -- m is paid only if the commitment is broken (subtracted
                   from the exploit payoff);
* sunk costs    -- m is paid immediately, no matter what follows
                   (subtracted from every one of A's payoffs);
* installment   -- m falls due later regardless of action (subtracted from
                   exploit and restraint, but not from the t1 conflict);
* reducible     -- m is paid up front but recouped if the commitment is
                   honoured (subtracted from conflict and exploit only).

Each mechanism comes in a base flavour and a "risk" flavour in which an
aggressive type that leaves the advantage unexploited bears an extra cost
r (it worries the advantage will erode). The base flavour is exactly the
risk flavour with r forced to 0, so a single payoff table serves both.

Payoffs are plain double-precision reals; conflict payoffs never depend on
the type or on r (only the signal-cost terms vary by mechanism).
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from .oracle import DiscrepancyReport

#: Absolute tolerance of every weak inequality, read only by tie_floor.
TOL = 1e-9

#: The bound of every finite parameter and signal; exact against an int too.
_LARGEST = sys.float_info.max


def tie_floor(x: float) -> float:
    """The least value that still counts as at least ``x``: the one tie rule,
    ``a >= tie_floor(b)``. It keeps the number type of ``x`` and ``TOL``."""
    return x - TOL


class ParameterError(ValueError):
    """Raised when inputs violate a model constraint.

    ``constraint`` holds the violated condition (e.g. ``"V_B > c"``) so
    callers can surface it verbatim.
    """

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        message = f"constraint violated: {constraint}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class BudgetExceededError(RuntimeError):
    """A size guard refused the job: a game with more certificates, or a
    sweep grid with more points, than the budget."""

    def __init__(self, count: int, budget: int, what: str = "certificate"):
        self.count = count
        self.budget = budget
        super().__init__(f"{what} count {count} exceeds budget {budget}")


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


class TypeLabel(Enum):
    """State A's private disposition. ``theta`` is 0 or 1."""

    RESTRAINED = 0
    AGGRESSIVE = 1

    @property
    def theta(self) -> int:
        return self.value


class Mechanism(Enum):
    """Which cost structure the signal m carries."""

    TYING_HANDS = "tying-hands"
    SUNK = "sunk"
    INSTALLMENT = "installment"
    REDUCIBLE = "reducible"


class Variant(Enum):
    """Base game, or the variant where an aggressive type bears risk r
    when it leaves the advantage unexploited."""

    BASE = "base"
    RISK = "risk"


class DriftMode(Enum):
    """How :func:`~.montecarlo.simulate` decides each t2 action."""

    LITERAL = "literal"
    PRIOR_WEIGHTED = "prior-weighted"
    BEST_RESPONSE = "best-response"


class Outcome(Enum):
    """Terminal outcomes. Conflict ends the game at t1; the other two at t2."""

    PREVENTIVE_CONFLICT = "conflict"
    EXPLOIT = "exploit"
    RESTRAINT = "restraint"


#: The type order of every per-type table and of a certificate's restraint
#: bits: restrained first, as in the canonical certificate order, so a
#: type's index is its theta.
TYPES = (TypeLabel.RESTRAINED, TypeLabel.AGGRESSIVE)
#: Each type's name in profiles, certificates and results, in ``TYPES`` order.
TYPE_NAMES = tuple(t.name.lower() for t in TYPES)
#: A t2 action by its restraint bit.
T2_ACTIONS = (Outcome.EXPLOIT, Outcome.RESTRAINT)


class MechanismSpec(NamedTuple):
    """A mechanism together with its variant flag."""

    mechanism: Mechanism
    variant: Variant = Variant.BASE

    def to_dict(self) -> dict:
        return {"mechanism": self.mechanism.value, "variant": self.variant.value}

    @classmethod
    def from_dict(cls, d: dict) -> "MechanismSpec":
        try:
            return cls(Mechanism(d["mechanism"]), Variant(d.get("variant", "base")))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ParameterError("mechanism spec has a 'mechanism' key", f"got {d!r}") from exc
        except ValueError as exc:
            raise ParameterError("known mechanism and variant", str(exc)) from exc


class ModelParams(NamedTuple):
    """Scalar parameters shared by every game in the family.

    c      -- cost of preventive conflict to each side (strictly positive)
    V_D    -- aggressive type's gain from exploiting the advantage
    V_B    -- State B's loss when exploited (must exceed c)
    r      -- aggressive type's cost of leaving the advantage unexploited
              (used by risk variants only)
    p      -- probability a restrained type drifts to aggressive before t2
    prior  -- common prior probability that State A is restrained
    """

    c: float
    V_D: float
    V_B: float
    r: float = 0.0
    p: float = 0.0
    prior: float = 0.5

    def validate(self, allow_degenerate_prior: bool = False) -> None:
        """Raise :class:`ParameterError` naming the first violated constraint, :func:`is_real` first."""
        c, V_D, V_B, r, p, prior = self
        if not (is_real(c) and is_real(V_D) and is_real(V_B) and is_real(r) and is_real(p) and is_real(prior)):
            name = "parameters not booleans" if any(isinstance(x, bool) for x in self) else "parameters real numbers"
            raise ParameterError(name, str(self.to_dict()))
        if not c > 0:
            raise ParameterError("c > 0", f"c={c}")
        if not V_D > 0:
            raise ParameterError("V_D > 0", f"V_D={V_D}")
        if not V_B > c:
            raise ParameterError("V_B > c", f"V_B={V_B}, c={c}")
        if not r >= 0:
            raise ParameterError("r >= 0", f"r={r}")
        # c < V_B, and p and prior are checked below, so this makes every
        # parameter a real number in float range
        if not (V_B <= _LARGEST and V_D <= _LARGEST and r <= _LARGEST):
            raise ParameterError("V_D, V_B, r finite", f"V_D={V_D}, V_B={V_B}, r={r}")
        if not 0.0 <= p <= 1.0:
            raise ParameterError("0 <= p <= 1", f"p={p}")
        if allow_degenerate_prior:
            if not 0.0 <= prior <= 1.0:
                raise ParameterError("0 <= prior <= 1", f"prior={prior}")
        elif not 0.0 < prior < 1.0:
            raise ParameterError("0 < prior < 1", f"prior={prior}")

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        try:  # a field left out takes its default; c, V_D and V_B have none
            return cls(**{f: real(d[f]) for f in cls._fields if f in d or f not in cls._field_defaults})
        except (KeyError, AttributeError, TypeError, ValueError) as exc:
            raise ParameterError("params well-formed", f"{type(exc).__name__}: {exc}") from exc


#: The symbols that place a point: the :class:`ModelParams` fields, then
#: the signal m.
ALL_SYMBOLS = ("c", "V_D", "V_B", "r", "p", "prior", "m")


class PayoffPair(NamedTuple):
    """Utilities (u_A, u_B) at one terminal outcome."""

    u_A: float
    u_B: float


def is_real(x) -> bool:
    """The one number rule: a ``numbers.Real`` but not a bool, so not
    ``numpy.bool_``, ``Decimal``, complex, text or None (``Fraction`` is)."""
    if type(x) is float or type(x) is int:
        return True
    import numbers  # here, so a process given only floats and ints never loads it

    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def validate_signal(m: float) -> None:
    if not is_real(m):  # True >= 0, and "1" >= 0 raises TypeError
        raise ParameterError("m not a boolean" if isinstance(m, bool) else "m a real number", f"m={m!r}")
    if not m >= 0:
        raise ParameterError("m >= 0", f"m={m}")
    if not m <= _LARGEST:
        raise ParameterError("m finite", f"m={m}")


def real(value) -> float:
    """Numeric text or an :func:`is_real` number as a float; else, or past float range, raise ValueError."""
    if not (isinstance(value, str) or is_real(value)):
        raise ValueError(f"{value!r} is not a real number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError("integer too large for a float") from exc


def integer(value) -> int:
    """Int text or an integral :func:`is_real` number (3, 3.0, ``Fraction(6, 2)``) as an int; else raise."""
    if not (isinstance(value, str) or is_real(value) and -math.inf < value < math.inf and int(value) == value):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def boolean(value) -> bool:
    """true or false itself; else raise, where ``bool("false")`` is True."""
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not true or false")
    return value


def refuse_unknown_keys(constraint: str, layers: Iterable[tuple]) -> None:
    """The one rule for a config object's keys: one error naming every key
    its ``(where, mapping, declared names)`` layer does not declare, which
    would be dropped. A layer that is not a dict is left to its reader."""
    unknown = [f"{key!r} {where}" for where, layer, names in layers if isinstance(layer, dict) for key in layer
               if key not in names]
    if unknown:
        raise ParameterError(constraint, "unknown " + ", ".join(unknown))


def unique(field: str, pairs: Iterable[tuple]) -> dict:
    """``field``'s (key, value) pairs as a dict, refusing a repeated key
    where ``json`` keeps the last (RFC 8259 §4 leaves a repeat undefined)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParameterError("keys given once", f"{field} repeats {key!r}")
        out[key] = value
    return out


def t2_options(u_exploit: float, u_restraint: float) -> tuple[bool, ...]:
    """Restraint bits of A's weakly optimal t2 actions, exploit first; a
    tie by :func:`tie_floor` admits both."""
    restraint = u_restraint >= tie_floor(u_exploit)
    if u_exploit >= tie_floor(u_restraint):
        return (False, True) if restraint else (False,)
    return (True,) if restraint else ()


def signal_grid(m: float) -> tuple[float, ...]:
    """The grid {0, m} that simulation and the closed-form cross-check use."""
    return (0.0,) if m == 0 else (0.0, float(m))


def payoff(
    spec: MechanismSpec,
    params: ModelParams,
    theta: TypeLabel,
    outcome: Outcome,
    m: float,
) -> PayoffPair:
    """Payoff pair for one (mechanism, variant, type, outcome, signal) cell.

    The full table, with t = theta and re = r (risk variant) or 0 (base):

    ==============  ============  ==================  ================
    mechanism       conflict      exploit             restraint
    ==============  ============  ==================  ================
    tying hands     (-c, -c)      (t*V_D - m, -V_B)   (-t*re, 0)
    sunk costs      (-c - m, -c)  (t*V_D - m, -V_B)   (-t*re - m, 0)
    installment     (-c, -c)      (t*V_D - m, -V_B)   (-t*re - m, 0)
    reducible       (-c - m, -c)  (t*V_D - m, -V_B)   (-t*re, 0)
    ==============  ============  ==================  ================
    """
    params.validate()
    validate_signal(m)
    base, pays_m, u_B = payoff_terms(spec, params, theta, outcome)
    return PayoffPair(base - m if pays_m else base, u_B)


def payoff_terms(spec: MechanismSpec, params: ModelParams, theta: TypeLabel, outcome: Outcome) -> tuple[float, bool, float]:
    """:func:`payoff`'s cell for every m at once: ``(base, pays_m, u_B)``,
    where u_A is ``base - m`` if pays_m, else ``base``."""
    t = theta.theta
    mech = spec.mechanism

    if outcome is Outcome.PREVENTIVE_CONFLICT:
        return -params.c, mech in (Mechanism.SUNK, Mechanism.REDUCIBLE), -params.c

    if outcome is Outcome.EXPLOIT:
        return t * params.V_D, True, -params.V_B

    # Restraint: the peace dividend is the zero point; only the signal-cost term
    # and the aggressive type's risk (r, or 0 of r's type in base) can pull u_A below it.
    r = params.r if spec.variant is Variant.RISK else params.r - params.r
    return -t * r, mech in (Mechanism.SUNK, Mechanism.INSTALLMENT), 0.0
