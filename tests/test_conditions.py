"""Closed-form equilibrium condition tests."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from restraint_games import (
    TOL,
    Mechanism,
    MechanismSpec,
    ModelParams,
    ParameterError,
    Variant,
    classify,
    pooling_exists,
    separating_exists,
    type_shift_refrain,
    verify_against_closed_form,
)

from conftest import params_strategy, signal_strategy

TH_BASE = MechanismSpec(Mechanism.TYING_HANDS)
TH_RISK = MechanismSpec(Mechanism.TYING_HANDS, Variant.RISK)
RC_BASE = MechanismSpec(Mechanism.REDUCIBLE)
RC_RISK = MechanismSpec(Mechanism.REDUCIBLE, Variant.RISK)
SC_BASE = MechanismSpec(Mechanism.SUNK)
IC_RISK = MechanismSpec(Mechanism.INSTALLMENT, Variant.RISK)


def slacks(report):
    return [cl.slack for cl in report.clauses]


class TestPooling:
    def test_tying_hands_holds_with_slack(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0)
        rep = pooling_exists(TH_BASE, p, 2.0)
        assert rep.holds and slacks(rep) == [pytest.approx(1.0)]

    def test_tying_hands_boundary_counts_as_pooling(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0)
        rep = pooling_exists(TH_BASE, p, 1.0)
        assert rep.holds and slacks(rep) == [pytest.approx(0.0, abs=1e-12)]

    def test_sunk_never_pools_whatever_the_signal(self):
        p = ModelParams(c=0.5, V_D=0.3, V_B=2.0)
        rep = pooling_exists(SC_BASE, p, 10.0)
        assert not rep.holds and slacks(rep) == [pytest.approx(-0.3)]

    def test_reducible_fails_below_threshold(self):
        p = ModelParams(c=0.5, V_D=2.0, V_B=3.0)
        rep = pooling_exists(RC_BASE, p, 1.5)
        assert not rep.holds and slacks(rep) == [pytest.approx(-0.5)]


class TestSeparating:
    def test_tying_hands_base_never_separates(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=3.0)
        rep = separating_exists(TH_BASE, p, 5.0)
        assert not rep.holds

    def test_tying_hands_risk_conditions(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.6)
        rep = separating_exists(TH_RISK, p, 1.5)
        assert rep.holds
        assert slacks(rep) == [pytest.approx(0.0, abs=1e-12), pytest.approx(0.1)]

    def test_tying_hands_risk_fails_on_small_r(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.4)
        rep = separating_exists(TH_RISK, p, 3.0)
        assert not rep.holds
        by_name = {cl.name: cl.slack for cl in rep.clauses}
        assert by_name["risk_outweighs_conflict"] == pytest.approx(-0.1)
        assert by_name["mimicry_deterred"] > 0

    def test_reducible_risk_same_algebra(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.6)
        assert separating_exists(RC_RISK, p, 1.5).holds
        # oracle confirmation of this reading lives in test_oracle/test_acceptance

    @pytest.mark.parametrize("spec", [SC_BASE, MechanismSpec(Mechanism.SUNK, Variant.RISK), IC_RISK])
    def test_noncontingent_mechanisms_never_separate(self, spec):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=5.0)
        rep = separating_exists(spec, p, 50.0)
        assert not rep.holds and slacks(rep) == [pytest.approx(-1.0)]


class TestTypeShift:
    def test_refrains_below_threshold(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.2)
        rep = type_shift_refrain(p)
        assert rep.holds
        assert slacks(rep) == [pytest.approx(0.05)]
        assert rep.metrics["expected_not_fight_payoff"] == pytest.approx(-0.4)

    def test_boundary(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.25)
        rep = type_shift_refrain(p)
        assert rep.holds
        assert slacks(rep) == [pytest.approx(0.0, abs=1e-12)]
        assert rep.metrics["expected_not_fight_payoff"] == pytest.approx(-0.5)

    def test_fights_above_threshold(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.6)
        rep = type_shift_refrain(p)
        assert not rep.holds
        assert slacks(rep) == [pytest.approx(-0.35)]


class TestClassify:
    def test_no_drift_no_type_shift_report(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.0)
        rep = classify(TH_BASE, p, 2.0)
        assert rep.pooling_on_restraint.holds
        assert not rep.separating.holds
        assert rep.type_shift_refrain is None

    def test_drift_above_threshold_flagged(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.3)
        rep = classify(TH_BASE, p, 2.0)
        assert rep.pooling_on_restraint.holds
        assert rep.type_shift_refrain is not None
        assert not rep.type_shift_refrain.holds

    def test_installment_neither(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=1.0)
        rep = classify(IC_RISK, p, 4.0)
        assert not rep.pooling_on_restraint.holds
        assert not rep.separating.holds

    def test_rejects_invalid_params(self):
        with pytest.raises(ParameterError) as exc:
            classify(TH_BASE, ModelParams(c=0.5, V_D=1.0, V_B=0.4), 2.0)
        assert exc.value.constraint == "V_B > c"

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_validates_once(self, p, validate_calls):
        classify(TH_RISK, ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.7, p=p), 2.0)
        assert len(validate_calls) == 1

    def test_report_serializes(self):
        p = ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.1)
        d = classify(TH_RISK, p, 2.0).to_dict()
        assert d["mechanism"] == {"mechanism": "tying-hands", "variant": "risk"}
        assert {"holds", "clauses"} <= set(d["pooling_on_restraint"])
        assert "type_shift_refrain" in d

    def test_verdicts_are_bools_whatever_the_number_type(self):
        # a numpy slack compares to a numpy bool, which json does not take; at r > c
        # the grid game does not pool, so the cross-check reports the point
        p = ModelParams(*map(np.float64, (0.5, 1.0, 2.0, 0.8, 0.0, 0.5)))
        report = classify(TH_RISK, p, np.float64(1.2))
        assert type(report.pooling_on_restraint.holds) is type(report.separating.holds) is bool
        json.dumps(report.to_dict())
        (entry,) = verify_against_closed_form(TH_RISK, [(p, np.float64(1.2))]).entries
        assert {type(v) for v in entry.closed_form_verdict.values()} == {bool}


class TestProperties:
    @given(params=params_strategy(), m=signal_strategy)
    def test_iff_fidelity(self, params, m):
        for spec in (TH_BASE, TH_RISK, RC_BASE, RC_RISK):
            assert pooling_exists(spec, params, m).holds == (params.V_D <= m + TOL)

    @given(params=params_strategy(), m1=signal_strategy, m2=signal_strategy)
    def test_pooling_slack_monotone_in_signal(self, params, m1, m2):
        lo, hi = sorted((m1, m2))
        for spec in (TH_BASE, RC_BASE):
            s_lo = pooling_exists(spec, params, lo).clauses[0].slack
            s_hi = pooling_exists(spec, params, hi).clauses[0].slack
            assert (s_hi - s_lo) == pytest.approx(hi - lo, abs=1e-9)
        for mech in (Mechanism.SUNK, Mechanism.INSTALLMENT):
            spec = MechanismSpec(mech)
            assert (
                pooling_exists(spec, params, lo).clauses[0].slack
                == pooling_exists(spec, params, hi).clauses[0].slack
            )

    @given(
        params=params_strategy(with_drift=True),
        m=signal_strategy,
        lam=st.sampled_from([0.5, 2.0, 10.0]),
    )
    def test_scale_covariance(self, params, m, lam):
        scaled = ModelParams(
            c=lam * params.c,
            V_D=lam * params.V_D,
            V_B=lam * params.V_B,
            r=lam * params.r,
            p=params.p,
            prior=params.prior,
        )
        for mech in Mechanism:
            for variant in Variant:
                spec = MechanismSpec(mech, variant)
                base = classify(spec, params, m)
                big = classify(spec, scaled, lam * m)
                assert base.pooling_on_restraint.holds == big.pooling_on_restraint.holds
                assert base.separating.holds == big.separating.holds
                for small_cl, big_cl in zip(
                    base.pooling_on_restraint.clauses + base.separating.clauses,
                    big.pooling_on_restraint.clauses + big.separating.clauses,
                ):
                    assert big_cl.slack == pytest.approx(
                        lam * small_cl.slack, rel=1e-9, abs=1e-7
                    )
                if base.type_shift_refrain is not None:
                    # c and V_B scale together, so the drift threshold is scale-free
                    assert (
                        base.type_shift_refrain.holds == big.type_shift_refrain.holds
                    )

    @given(params=params_strategy(), m=signal_strategy)
    def test_risk_degenerates_to_base_when_r_is_zero(self, params, m):
        no_risk = ModelParams(c=params.c, V_D=params.V_D, V_B=params.V_B, r=0.0)
        for mech in (Mechanism.TYING_HANDS, Mechanism.REDUCIBLE):
            risk = separating_exists(MechanismSpec(mech, Variant.RISK), no_risk, m)
            assert not risk.holds  # c <= r fails because c > 0
            by_name = {cl.name: cl.slack for cl in risk.clauses}
            assert by_name["risk_outweighs_conflict"] == pytest.approx(-params.c)
