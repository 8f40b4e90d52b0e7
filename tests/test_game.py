"""Payoff table and parameter validation tests."""

from __future__ import annotations

import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from restraint_games import (
    Axis,
    Classification,
    DiscreteGame,
    DriftMode,
    GridSpec,
    Mechanism,
    MechanismSpec,
    ModelParams,
    Outcome,
    ParameterError,
    SimConfig,
    StrategyProfile,
    TypeLabel,
    Variant,
    classify,
    find_all_pbe,
    is_weak_pbe,
    payoff,
    pooling_profile,
    run_sweep,
    simulate,
    supporting_belief_interval,
    verify_against_closed_form,
)
from restraint_games import game as game_module
from restraint_games.conditions import holds
from restraint_games.game import ALL_SYMBOLS, t2_options, validate_signal
from restraint_games.sweep import region_row_for_point

from conftest import params_strategy, signal_strategy, spec_strategy

R = TypeLabel.RESTRAINED
A = TypeLabel.AGGRESSIVE


def spec(mech: Mechanism, variant: Variant = Variant.BASE) -> MechanismSpec:
    return MechanismSpec(mech, variant)


class TestPayoffTable:
    def test_tying_hands_exploit_aggressive(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0)
        got = payoff(spec(Mechanism.TYING_HANDS), p, A, Outcome.EXPLOIT, 0.25)
        assert got == (0.75, -2.0)

    def test_tying_hands_restraint_is_zero_point(self):
        # theta = 0 zeroes the risk term; restraint costs nothing extra
        p = ModelParams(c=0.7, V_D=3.0, V_B=4.0, r=2.0)
        for variant in Variant:
            got = payoff(spec(Mechanism.TYING_HANDS, variant), p, R, Outcome.RESTRAINT, 3.0)
            assert got == (0.0, 0.0)

    def test_base_risk_is_positive_zero_at_negative_zero_r(self):
        # the base variant's zero is r - r: 0 * r would be -0.0 here, and the
        # simulate trial log would print the restrained type's u_A as -0.0
        params = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=-0.0)
        params.validate()
        u_A = payoff(spec(Mechanism.TYING_HANDS), params, R, Outcome.RESTRAINT, 0.0).u_A
        assert math.copysign(1.0, u_A) == 1.0

    def test_sunk_risk_restraint_aggressive(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.8)
        got = payoff(spec(Mechanism.SUNK, Variant.RISK), p, A, Outcome.RESTRAINT, 0.4)
        assert got == pytest.approx((-1.2, 0.0))

    def test_reducible_conflict_charges_signal(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0)
        for theta in TypeLabel:
            got = payoff(
                spec(Mechanism.REDUCIBLE), p, theta, Outcome.PREVENTIVE_CONFLICT, 0.4
            )
            assert got == pytest.approx((-0.9, -0.5))

    @pytest.mark.parametrize(
        "mech,expect_m_in_conflict,expect_m_in_restraint",
        [
            (Mechanism.TYING_HANDS, False, False),
            (Mechanism.SUNK, True, True),
            (Mechanism.INSTALLMENT, False, True),
            (Mechanism.REDUCIBLE, True, False),
        ],
    )
    def test_where_the_signal_cost_lands(self, mech, expect_m_in_conflict, expect_m_in_restraint):
        p = ModelParams(c=1.0, V_D=1.0, V_B=2.0)
        m = 0.625
        conflict = payoff(spec(mech), p, A, Outcome.PREVENTIVE_CONFLICT, m).u_A
        restraint = payoff(spec(mech), p, A, Outcome.RESTRAINT, m).u_A
        exploit = payoff(spec(mech), p, A, Outcome.EXPLOIT, m).u_A
        assert conflict == (-1.0 - m if expect_m_in_conflict else -1.0)
        assert restraint == (-m if expect_m_in_restraint else 0.0)
        assert exploit == 1.0 - m  # every mechanism charges m on exploit


class TestPayoffProperties:
    @given(params=params_strategy(), m1=signal_strategy, m2=signal_strategy)
    def test_noncontingent_costs_cancel_from_t2_comparison(self, params, m1, m2):
        # sunk and installment costs shift exploit and restraint together
        for mech in (Mechanism.SUNK, Mechanism.INSTALLMENT):
            for variant in Variant:
                s = spec(mech, variant)
                for theta in TypeLabel:
                    gap1 = (
                        payoff(s, params, theta, Outcome.EXPLOIT, m1).u_A
                        - payoff(s, params, theta, Outcome.RESTRAINT, m1).u_A
                    )
                    gap2 = (
                        payoff(s, params, theta, Outcome.EXPLOIT, m2).u_A
                        - payoff(s, params, theta, Outcome.RESTRAINT, m2).u_A
                    )
                    assert math.isclose(gap1, gap2, rel_tol=1e-9, abs_tol=1e-9)

    @given(params=params_strategy(), m=signal_strategy)
    def test_base_equals_risk_with_r_zero(self, params, m):
        no_risk = ModelParams(
            c=params.c, V_D=params.V_D, V_B=params.V_B, r=0.0, p=params.p, prior=params.prior
        )
        for mech in Mechanism:
            for theta in TypeLabel:
                for outcome in Outcome:
                    base = payoff(spec(mech, Variant.BASE), params, theta, outcome, m)
                    risk0 = payoff(spec(mech, Variant.RISK), no_risk, theta, outcome, m)
                    assert base == risk0

    @given(params=params_strategy(), m1=signal_strategy, m2=signal_strategy)
    def test_restrained_type_never_gains_from_costlier_signal(self, params, m1, m2):
        lo, hi = sorted((m1, m2))
        for mech in Mechanism:
            for variant in Variant:
                s = spec(mech, variant)
                for outcome in Outcome:
                    assert (
                        payoff(s, params, R, outcome, hi).u_A
                        <= payoff(s, params, R, outcome, lo).u_A
                    )

    @given(params=params_strategy(), m=signal_strategy)
    def test_state_b_payoff_never_depends_on_signal(self, params, m):
        expected = {
            Outcome.PREVENTIVE_CONFLICT: -params.c,
            Outcome.EXPLOIT: -params.V_B,
            Outcome.RESTRAINT: 0.0,
        }
        for mech in Mechanism:
            for variant in Variant:
                for theta in TypeLabel:
                    for outcome, u_b in expected.items():
                        got = payoff(spec(mech, variant), params, theta, outcome, m)
                        assert got.u_B == u_b

    @given(spec_=spec_strategy, params=params_strategy(), m=signal_strategy)
    def test_conflict_ignores_type_and_risk(self, spec_, params, m):
        u_r = payoff(spec_, params, R, Outcome.PREVENTIVE_CONFLICT, m)
        u_a = payoff(spec_, params, A, Outcome.PREVENTIVE_CONFLICT, m)
        assert u_r == u_a


class TestValidation:
    def test_negative_signal_rejected(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0)
        with pytest.raises(ParameterError) as exc:
            payoff(spec(Mechanism.TYING_HANDS), p, A, Outcome.EXPLOIT, -0.1)
        assert exc.value.constraint == "m >= 0"

    @pytest.mark.parametrize(
        "kwargs,constraint",
        [
            (dict(c=0.0, V_D=1.0, V_B=2.0), "c > 0"),
            (dict(c=-1.0, V_D=1.0, V_B=2.0), "c > 0"),
            (dict(c=0.5, V_D=0.0, V_B=2.0), "V_D > 0"),
            (dict(c=0.5, V_D=1.0, V_B=0.4), "V_B > c"),
            (dict(c=0.5, V_D=1.0, V_B=0.5), "V_B > c"),
            (dict(c=0.5, V_D=1.0, V_B=2.0, r=-0.1), "r >= 0"),
            (dict(c=0.5, V_D=1.0, V_B=2.0, p=1.5), "0 <= p <= 1"),
            (dict(c=0.5, V_D=1.0, V_B=2.0, prior=0.0), "0 < prior < 1"),
            (dict(c=0.5, V_D=1.0, V_B=2.0, prior=1.0), "0 < prior < 1"),
            # 10**400 < math.inf, so these would classify and print 401 digits
            (dict(c=0.5, V_D=10**400, V_B=2.0), "V_D, V_B, r finite"),
            (dict(c=0.5, V_D=1.0, V_B=10**400), "V_D, V_B, r finite"),
            (dict(c=0.5, V_D=1.0, V_B=2.0, r=10**400), "V_D, V_B, r finite"),
        ],
    )
    def test_invariant_violations_name_the_constraint(self, kwargs, constraint):
        with pytest.raises(ParameterError) as exc:
            ModelParams(**kwargs).validate()
        assert exc.value.constraint == constraint
        assert constraint in str(exc.value)

    @pytest.mark.parametrize("field", ["c", "V_D", "V_B", "r", "p", "prior"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_python_bool_params_refused(self, field, flag):
        # True > 0 and True <= 1, so a bool from Python would pass the range
        # checks as 1 or 0 and print as True in a sweep row
        base = dict(c=0.5, V_D=1.0, V_B=2.0, r=0.5, p=0.5, prior=0.5)
        with pytest.raises(ParameterError) as exc:
            ModelParams(**{**base, field: flag}).validate(allow_degenerate_prior=True)
        assert exc.value.constraint == "parameters not booleans"

    @pytest.mark.parametrize("field", ["c", "V_D", "V_B", "r", "p", "prior"])
    @pytest.mark.parametrize("value", ["1", None, [1.0]], ids=["text", "none", "list"])
    def test_python_non_numbers_refused(self, field, value):
        # "1" > 0 raises a bare TypeError: one named ParameterError instead
        base = dict(c=0.5, V_D=1.0, V_B=2.0, r=0.5, p=0.5, prior=0.5)
        with pytest.raises(ParameterError) as exc:
            ModelParams(**{**base, field: value}).validate()
        assert exc.value.constraint == "parameters real numbers"

    def test_largest_float_bounds_python_ints(self):
        largest = int(sys.float_info.max)
        ModelParams(0.5, largest, largest, largest).validate()
        with pytest.raises(ParameterError):
            ModelParams(0.5, 1.0, largest + 1).validate()

    @pytest.mark.parametrize(
        "m, constraint",
        [(True, "m not a boolean"), (False, "m not a boolean"), (10**400, "m finite"), ("2", "m a real number")],
        ids=["true", "false", "past-float-range", "text"],
    )
    def test_python_signal_refused(self, m, constraint):
        # True >= 0: a bool would pass as m = 1.0
        with pytest.raises(ParameterError) as exc:
            validate_signal(m)
        assert exc.value.constraint == constraint
        validate_signal(int(sys.float_info.max))

    def test_degenerate_prior_allowed_only_on_request(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, prior=1.0)
        with pytest.raises(ParameterError):
            p.validate()
        p.validate(allow_degenerate_prior=True)

    def test_params_roundtrip(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.25, p=0.1, prior=0.3)
        assert ModelParams.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize(
        "c",
        [True, 10**400, "x", None, [0.5], ...],
        ids=["bool", "overflows-float", "not-a-number", "null", "list", "missing"],
    )
    def test_params_from_dict_refuses_bad_values(self, c):
        # as MechanismSpec, GridSpec and StrategyProfile.from_dict do: one
        # named ParameterError, not a bool read as 1.0 or a bare builtin error
        d = {"V_D": 1.0, "V_B": 2.0} if c is ... else {"c": c, "V_D": 1.0, "V_B": 2.0}
        with pytest.raises(ParameterError):
            ModelParams.from_dict(d)

    def test_params_from_dict_reads_numbers_as_floats(self):
        p = ModelParams.from_dict({"c": 1, "V_D": "2", "V_B": 3.0, "prior": 0.25})
        assert p == ModelParams(1.0, 2.0, 3.0, 0.0, 0.0, 0.25)
        assert {type(v) for v in p.to_dict().values()} == {float}


class TestTieRule:
    """``game.TOL`` is the one tolerance: patching it alone moves every
    weak inequality whose margin lies between 0 and the patched value."""

    WIDE = 0.1
    # sunk base at messages {0, 0.05}: a type's value at the two messages
    # differs by 0.05 when the action is the same; every other margin of the
    # game (t2, B's cut at q = 0.75 against beliefs 0, 0.5, 1) is 0 or at
    # least 0.45, so between TOL = 0 and WIDE only check (d) moves
    GAME = DiscreteGame(MechanismSpec(Mechanism.SUNK), ModelParams(c=0.5, V_D=1.0, V_B=2.0), (0.0, 0.05))

    def decisions(self, monkeypatch, tol):
        monkeypatch.setattr(game_module, "TOL", tol)
        return {
            "holds": holds((-0.05,)),
            "t2_options": t2_options(1.0, 1.05),
            "stand down": supporting_belief_interval(0.0, -2.0, -0.5, fight=False),
            "fight": supporting_belief_interval(0.0, -2.0, -0.5, fight=True),
            "flat stand down": supporting_belief_interval(-0.55, -0.55, -0.5, fight=False),
            "flat fight": supporting_belief_interval(-0.45, -0.45, -0.5, fight=True),
            "certificates": find_all_pbe(self.GAME),
        }

    def test_every_decision_reads_game_tol(self, monkeypatch):
        wide = self.decisions(monkeypatch, self.WIDE)
        exact = self.decisions(monkeypatch, 0)
        assert (wide["holds"], exact["holds"]) == (True, False)
        assert (wide["t2_options"], exact["t2_options"]) == ((False, True), (True,))
        assert wide["stand down"] == pytest.approx((0.75 - self.WIDE / 2, 1.0))
        assert exact["stand down"] == (0.75, 1.0)
        assert wide["fight"] == pytest.approx((0.0, 0.75 + self.WIDE / 2))
        assert exact["fight"] == (0.0, 0.75)
        assert wide["flat stand down"] == wide["flat fight"] == (0.0, 1.0)
        assert exact["flat stand down"] is exact["flat fight"] is None
        # (d) in find_all_pbe: the wide band certifies strictly more profiles
        shape = lambda certs: {(c.j_R, c.j_A, c.pbe_class, c.restraint, c.fight) for c in certs}
        assert shape(exact["certificates"]) < shape(wide["certificates"])
        # (d) in is_weak_pbe: under TOL = 0 it rejects exactly the extra ones
        kept = [c for c in wide["certificates"] if is_weak_pbe(self.GAME, c.profile) is not None]
        assert shape(kept) == shape(exact["certificates"])


class TestClosedFormFloor:
    """The closed forms' verdicts read ``game.TOL`` when a call is made,
    never at import: a row, a sweep and the oracle cross-check each move
    with it at a slack of -0.05."""

    WIDE = 0.1
    PARAMS = ModelParams(c=0.5, V_D=1.0, V_B=2.0, prior=0.5)

    def verdicts(self, monkeypatch, tol):
        monkeypatch.setattr(game_module, "TOL", tol)
        th = MechanismSpec(Mechanism.TYING_HANDS)
        # two points that differ only in r, which the base variant ignores
        fixed = {**self.PARAMS.to_dict(), "m": 0.95}
        del fixed["r"]
        rows = run_sweep(GridSpec(th, (Axis("r", 0.0, 0.5, 2),), fixed), 0.0, 0)
        # risk with r > c: the grid game never pools, so only the closed form's tie moves
        risky = self.PARAMS._replace(r=0.6)
        report = verify_against_closed_form(MechanismSpec(Mechanism.TYING_HANDS, Variant.RISK), [(risky, 0.95)])
        return {
            "row": region_row_for_point(th, self.PARAMS, 0.95).classification,
            "sweep": {row.classification for row in rows},
            "pooling discrepancies": sum(e.closed_form_verdict["pooling"] != e.oracle_verdict["pooling"]
                                         for e in report.entries),
            "entries": len(report.entries),
        }

    def test_the_closed_forms_read_the_floor_per_call(self, monkeypatch):
        row = region_row_for_point(MechanismSpec(Mechanism.TYING_HANDS), self.PARAMS, 0.95)
        assert row.pooling_slack == pytest.approx(-0.05)
        wide = self.verdicts(monkeypatch, self.WIDE)
        exact = self.verdicts(monkeypatch, 0)
        assert (wide["row"], exact["row"]) == (Classification.POOLING_ONLY, Classification.NEITHER)
        assert (wide["sweep"], exact["sweep"]) == ({Classification.POOLING_ONLY}, {Classification.NEITHER})
        assert (wide["pooling discrepancies"], exact["pooling discrepancies"]) == (1, 0)
        assert (wide["entries"], exact["entries"]) == (1, 0)


SPEC = MechanismSpec(Mechanism.SUNK, Variant.RISK)
#: A valid point of dyadic floats, so float and Fraction arithmetic agree.
POINT = dict(c=0.5, V_D=1.0, V_B=2.0, r=0.25, p=0.25, prior=0.5, m=1.5)
#: kind: (the value built from a symbol's float x, the float it stands for,
#: or None where it is refused). The int kinds round x up, so the point
#: moves and the int and its float must still agree there.
KINDS = {
    "float": (lambda x: x, lambda x: x),
    "int": (math.ceil, lambda x: float(math.ceil(x))),
    "negative-zero": (lambda x: -0.0, lambda x: -0.0),
    "nan": (lambda x: math.nan, lambda x: math.nan),
    "inf": (lambda x: math.inf, lambda x: math.inf),
    "minus-inf": (lambda x: -math.inf, lambda x: -math.inf),
    "past-float-range": (lambda x: 10**400, lambda x: math.inf),
    "bool": (lambda x: True, None),
    "numpy-bool": (lambda x: np.bool_(True), None),
    "numpy-float64": (np.float64, lambda x: x),
    "numpy-int64": (lambda x: np.int64(math.ceil(x)), lambda x: float(math.ceil(x))),
    "fraction": (Fraction, lambda x: x),
    "decimal": (Decimal, None),
    "complex": (lambda x: complex(x, 0.0), None),
    "text": (str, None),
    "none": (lambda x: None, None),
}


def _parts(point):
    *fields, m = (point[sym] for sym in ALL_SYMBOLS)
    return ModelParams(*fields), m


def _verdict(row):
    return (row.classification, row.pooling_slack, row.separating_slack_1,
            row.separating_slack_2, row.typeshift_slack)


def _sweep(point, symbol):
    axis = "c" if symbol == "m" else "m"
    fixed = {sym: value for sym, value in point.items() if sym != axis}
    grid = GridSpec(SPEC, (Axis(axis, 0.25, 1.75, 3),), fixed)
    return [_verdict(row) for row in run_sweep(grid, 0.0, 0)]


def _game(point):
    params, m = _parts(point)
    return DiscreteGame(SPEC, params, [0, m])


def _is_weak_pbe(point, symbol):
    game = _game(point)
    cert = is_weak_pbe(game, pooling_profile(game.messages[-1]))
    return cert and cert.to_dict()


def _simulate(point, symbol):
    params, m = _parts(point)
    try:
        profile = pooling_profile(m)
    except (TypeError, OverflowError):  # float(None), float(10**400): simulate refuses the m first
        profile = pooling_profile(1.0)
    return simulate(SimConfig(SPEC, params, m, profile, 10, 0, DriftMode.BEST_RESPONSE))


#: Each public entry point, as a function of the point and the symbol under test.
CALLS = {
    "classify": lambda point, symbol: classify(SPEC, *_parts(point)),
    "region_row_for_point": lambda point, symbol: _verdict(region_row_for_point(SPEC, *_parts(point))),
    "run_sweep": _sweep,
    "find_all_pbe": lambda point, symbol: [cert.to_dict() for cert in find_all_pbe(_game(point))],
    "is_weak_pbe": _is_weak_pbe,
    "simulate": _simulate,
}
#: The symbols each call reads as a config does, where text is a number:
#: grid values and messages.
READS_TEXT = {"run_sweep": ALL_SYMBOLS, "find_all_pbe": ("m",), "is_weak_pbe": ("m",)}


def _outcome(call, point, symbol):
    """The call's result, or ParameterError; any other exception fails."""
    try:
        return call(point, symbol)
    except ParameterError:
        return ParameterError


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("symbol", ALL_SYMBOLS)
def test_every_entry_point_takes_the_one_number_rule(symbol, kind):
    # each kind of value in turn as each symbol: an admitted value gives
    # what its float gives; any other raises one ParameterError, or gives
    # an Invalid row
    make, as_float = KINDS[kind]
    x = POINT[symbol]
    point = {**POINT, symbol: make(x)}
    for name, call in CALLS.items():
        got = _outcome(call, point, symbol)
        reads = float if kind == "text" and symbol in READS_TEXT.get(name, ()) else as_float
        if reads is None:
            if got is not ParameterError:
                assert name == "region_row_for_point" and got[0] is Classification.INVALID, (name, got)
            continue
        assert got == _outcome(call, {**POINT, symbol: reads(x)}, symbol), name


#: The profile table's game: tying hands at the knife edge m = V_D, where
#: the default pooling profile certifies.
PROFILE_SPEC = MechanismSpec(Mechanism.TYING_HANDS)
PROFILE_PARAMS = ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.3, prior=0.5)
CANONICAL = pooling_profile(1.0)
#: The only two refusals of a profile.
PROFILE_CONSTRAINTS = ("profile well-formed (signal_of, fight_after, t2_action)", "profile total over message grid")
#: kind: the number 1 as a signal or message key.
ONE = {"float": 1.0, "int": 1, "fraction": Fraction(1), "text": "1", "bool": True}
#: kind: B's fight bit after the null signal.
FIGHTS = {
    "true": True,
    "false": False,
    "int-0": 0,
    "int-1": 1,
    "float-1": 1.0,
    "text-true": "true",
    "text-false": "false",
    "none": None,
    "numpy-bool": np.bool_(True),
}
#: kind: (the aggressive type's t2 action after the null signal, the
#: Outcome it stands for or None where it is refused).
ACTIONS = {
    "outcome": (Outcome.EXPLOIT, Outcome.EXPLOIT),
    "text": ("exploit", Outcome.EXPLOIT),
    "conflict": ("conflict", Outcome.PREVENTIVE_CONFLICT),
    "fight": ("fight", None),
    "none": (None, None),
}


def _with(field, entries, drop=None):
    """CANONICAL with ``drop`` taken out of ``field`` and ``entries`` put in."""
    kept = {key: value for key, value in getattr(CANONICAL, field).items() if key != drop}
    return CANONICAL._replace(**{field: {**kept, **entries}})


def _profile_rows() -> dict:
    """name: (profile, the canonical profile it stands for or None where it
    is refused, the same when read from JSON, where a number may be text)."""
    rows = {}
    for kind, one in ONE.items():
        admitted = CANONICAL if kind in ("float", "int", "fraction") else None
        from_json = CANONICAL if kind == "text" else admitted
        rows[f"signal-{kind}"] = (_with("signal_of", {R: one}), admitted, from_json)
        rows[f"fight-key-{kind}"] = (_with("fight_after", {one: False}, drop=1.0), admitted, from_json)
        cell = _with("t2_action", {(R, one): Outcome.RESTRAINT}, drop=(R, 1.0))
        rows[f"t2-key-{kind}"] = (cell, admitted, from_json)
    for kind, bit in FIGHTS.items():
        profile = _with("fight_after", {0.0: bit})
        admitted = profile if isinstance(bit, bool) else None
        rows[f"fight-{kind}"] = (profile, admitted, admitted)
    for kind, (action, outcome) in ACTIONS.items():
        admitted = outcome and _with("t2_action", {(A, 0.0): outcome})
        rows[f"t2-{kind}"] = (_with("t2_action", {(A, 0.0): action}), admitted, admitted)
    for name, profile in {
        "signal-off-grid": _with("signal_of", {R: 2.0}),
        "signal-misses-a-type": _with("signal_of", {}, drop=A),
        "fight-misses-a-message": _with("fight_after", {}, drop=0.0),
        "fight-adds-a-message": _with("fight_after", {2.0: False}),
        "t2-partial": _with("t2_action", {}, drop=(A, 0.0)),
        "t2-adds-a-message": _with("t2_action", {(R, 5.0): Outcome.RESTRAINT}),
    }.items():
        rows[name] = (profile, None, None)
    absent = CANONICAL._replace(t2_action={})  # simulate plays it; is_weak_pbe needs every cell
    rows["t2-absent"] = (absent, absent, absent)
    return rows


PROFILE_ROWS = _profile_rows()


def _entry_points(profile) -> list:
    """What is_weak_pbe and a 10-trial simulate give for the profile, or the
    constraint of the ParameterError each raises; any other exception fails."""
    game = DiscreteGame(PROFILE_SPEC, PROFILE_PARAMS, (0.0, 1.0))
    config = SimConfig(PROFILE_SPEC, PROFILE_PARAMS, 1.0, profile, 10, 0)
    got = []
    for call in (lambda: is_weak_pbe(game, profile), lambda: simulate(config)):
        try:
            got.append(call())
        except ParameterError as exc:
            got.append(exc.constraint)
    return got


def _json_form(profile) -> dict:
    """The profile as a config holds it, each value as it is and an Outcome as its text."""
    return {
        "signal_of": {t.name.lower(): m for t, m in profile.signal_of.items()},
        "fight_after": [[m, bit] for m, bit in profile.fight_after.items()],
        "t2_action": [[t.name.lower(), m, getattr(a, "value", a)] for (t, m), a in profile.t2_action.items()],
    }


@pytest.mark.parametrize("row", list(PROFILE_ROWS))
def test_every_entry_point_takes_the_one_profile_rule(row):
    # an admitted profile gives what its canonical form gives; a refused one
    # raises one ParameterError of the same constraint at both entry points
    profile, canonical, from_json = PROFILE_ROWS[row]
    routes = [(_entry_points(profile), canonical)]
    try:
        text = json.dumps(_json_form(profile))
    except TypeError:  # a Fraction or numpy.bool_ has no JSON form
        pass
    else:
        try:
            parsed = _entry_points(StrategyProfile.from_dict(json.loads(text)))
        except ParameterError as exc:
            parsed = [exc.constraint] * 2
        routes.append((parsed, from_json))
    for got, expected in routes:
        if expected is None:
            assert got[0] == got[1] and got[0] in PROFILE_CONSTRAINTS, got
        else:
            assert got == _entry_points(expected)
