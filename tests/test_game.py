"""Payoff table and parameter validation tests."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given

from restraint_games import (
    DiscreteGame,
    Mechanism,
    MechanismSpec,
    ModelParams,
    Outcome,
    ParameterError,
    TypeLabel,
    Variant,
    find_all_pbe,
    is_weak_pbe,
    payoff,
    supporting_belief_interval,
)
from restraint_games import game as game_module
from restraint_games.conditions import holds
from restraint_games.game import t2_options, validate_signal

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
