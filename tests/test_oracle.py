"""Weak-PBE oracle tests.

The soundness checks here deliberately re-derive everything from the raw
payoff table (Bayes posteriors, sequential rationality, deviation values)
without touching the oracle's internals, so a certificate that passes is
vouched for by two independent code paths.
"""

from __future__ import annotations

import collections
import csv
import hashlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restraint_games import (
    TOL,
    Axis,
    BudgetExceededError,
    DiscreteGame,
    GridSpec,
    Mechanism,
    MechanismSpec,
    ModelParams,
    Outcome,
    ParameterError,
    PBECertificate,
    PBEClass,
    StrategyProfile,
    TypeLabel,
    Variant,
    classify,
    find_all_pbe,
    is_weak_pbe,
    payoff,
    run_sweep,
    supporting_belief_interval,
    verify_against_closed_form,
)
from restraint_games import game as game_module
from restraint_games import oracle as oracle_module
from restraint_games.emit import write_certificates_csv, write_certificates_json, write_json
from restraint_games.game import signal_grid, t2_options
from restraint_games.oracle import DEFAULT_CERTIFICATE_BUDGET, _GameTable, _local_options
from restraint_games.sweep import grid_points

R = TypeLabel.RESTRAINED
A = TypeLabel.AGGRESSIVE

TH_BASE = MechanismSpec(Mechanism.TYING_HANDS)
TH_RISK = MechanismSpec(Mechanism.TYING_HANDS, Variant.RISK)
RC_RISK = MechanismSpec(Mechanism.REDUCIBLE, Variant.RISK)

BASE_PARAMS = ModelParams(c=0.5, V_D=1.0, V_B=2.0, prior=0.5)


def profile(signals, fights, actions) -> StrategyProfile:
    """Compact profile builder: signals=(m_R, m_A), fights={m: bool},
    actions={(type, m): Outcome}."""
    return StrategyProfile(
        signal_of={R: signals[0], A: signals[1]},
        fight_after=dict(fights),
        t2_action=dict(actions),
    )


def recheck_certificate(game: DiscreteGame, cert) -> None:
    """Independent validation of a certificate by direct payoff comparison."""
    p = game.params
    prof, beliefs = cert.profile, cert.beliefs.posterior
    m_R, m_A = prof.signal_of[R], prof.signal_of[A]

    def u_A_of(t, m):
        if prof.fight_after[m]:
            return payoff(game.spec, p, t, Outcome.PREVENTIVE_CONFLICT, m).u_A
        return payoff(game.spec, p, t, prof.t2_action[(t, m)], m).u_A

    # (a) Bayes on path
    if m_R == m_A:
        assert beliefs[m_R] == pytest.approx(p.prior)
    else:
        assert beliefs[m_R] == pytest.approx(1.0)
        assert beliefs[m_A] == pytest.approx(0.0)

    for m in game.messages:
        # (b) B's choice optimal at the stored posterior
        q = beliefs[m]
        assert 0.0 <= q <= 1.0
        stand_down = q * payoff(game.spec, p, R, prof.t2_action[(R, m)], m).u_B + (
            1 - q
        ) * payoff(game.spec, p, A, prof.t2_action[(A, m)], m).u_B
        u_fight = payoff(game.spec, p, R, Outcome.PREVENTIVE_CONFLICT, m).u_B
        if prof.fight_after[m]:
            assert u_fight >= stand_down - TOL
        else:
            assert stand_down >= u_fight - TOL
        # (c) t2 optimality at every cell
        for t in TypeLabel:
            chosen = payoff(game.spec, p, t, prof.t2_action[(t, m)], m).u_A
            best = max(
                payoff(game.spec, p, t, a, m).u_A
                for a in (Outcome.EXPLOIT, Outcome.RESTRAINT)
            )
            assert chosen >= best - TOL

    # (d) no profitable message deviation
    for t in TypeLabel:
        on_path = u_A_of(t, prof.signal_of[t])
        assert on_path >= max(u_A_of(t, m) for m in game.messages) - TOL


class TestIsWeakPBE:
    def test_pooling_on_restraint_certified(self):
        prof = profile(
            (2.0, 2.0),
            {0.0: True, 2.0: False},
            {
                (R, 2.0): Outcome.RESTRAINT,
                (A, 2.0): Outcome.RESTRAINT,
                (R, 0.0): Outcome.RESTRAINT,
                (A, 0.0): Outcome.EXPLOIT,
            },
        )
        game = DiscreteGame(TH_BASE, BASE_PARAMS, (0.0, 2.0))
        cert = is_weak_pbe(game, prof)
        assert cert is not None and cert.pbe_class is PBEClass.POOLING_ON_RESTRAINT
        recheck_certificate(game, cert)
        # conflict ends the game at t1, so it is no t2 action
        conflict = {**prof.t2_action, (A, 0.0): Outcome.PREVENTIVE_CONFLICT}
        assert is_weak_pbe(game, prof._replace(t2_action=conflict)) is None

    @pytest.mark.parametrize("a_after_high", [Outcome.EXPLOIT, Outcome.RESTRAINT])
    def test_base_separating_attempt_fails(self, a_after_high):
        # the aggressive type mimics the restraint signal and does strictly
        # better than the conflict it faces on path, whatever it does at t2
        prof = profile(
            (2.0, 0.0),
            {0.0: True, 2.0: False},
            {
                (R, 2.0): Outcome.RESTRAINT,
                (A, 2.0): a_after_high,
                (R, 0.0): Outcome.RESTRAINT,
                (A, 0.0): Outcome.EXPLOIT,
            },
        )
        game = DiscreteGame(TH_BASE, BASE_PARAMS, (0.0, 2.0))
        assert is_weak_pbe(game, prof) is None

    def test_risk_separating_certified(self):
        # m* - c exactly equals V_D: mimicry ties the on-path conflict, and
        # weak optimality lets the boundary certify
        params = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.6, prior=0.5)
        prof = profile(
            (1.5, 0.0),
            {0.0: True, 1.5: False},
            {
                (R, 1.5): Outcome.RESTRAINT,
                (A, 1.5): Outcome.EXPLOIT,
                (R, 0.0): Outcome.RESTRAINT,
                (A, 0.0): Outcome.EXPLOIT,
            },
        )
        game = DiscreteGame(TH_RISK, params, (0.0, 1.5))
        cert = is_weak_pbe(game, prof)
        assert cert is not None and cert.pbe_class is PBEClass.SEPARATING
        recheck_certificate(game, cert)

    def test_fight_everywhere_needs_exploit_somewhere(self):
        # with conflict payoffs message-independent, an all-fight rule is
        # sustainable iff beliefs can make fighting optimal at each message
        game = DiscreteGame(TH_BASE, BASE_PARAMS, (0.0, 2.0))
        all_fight = {0.0: True, 2.0: True}
        # at m=2 both types are forced to restrain (V_D < 2), so no belief
        # supports fighting there and the profile fails
        prof = profile(
            (0.0, 0.0),
            all_fight,
            {
                (R, 0.0): Outcome.EXPLOIT,
                (A, 0.0): Outcome.EXPLOIT,
                (R, 2.0): Outcome.RESTRAINT,
                (A, 2.0): Outcome.RESTRAINT,
            },
        )
        assert is_weak_pbe(game, prof) is None
        # with V_D above the top message the aggressive type exploits there,
        # fighting is supportable everywhere, and the profile certifies
        big_vd = ModelParams(c=0.5, V_D=3.0, V_B=4.0, prior=0.5)
        game2 = DiscreteGame(TH_BASE, big_vd, (0.0, 2.0))
        prof2 = profile(
            (0.0, 0.0),
            all_fight,
            {
                (R, 0.0): Outcome.EXPLOIT,
                (A, 0.0): Outcome.EXPLOIT,
                (R, 2.0): Outcome.RESTRAINT,
                (A, 2.0): Outcome.EXPLOIT,
            },
        )
        cert = is_weak_pbe(game2, prof2)
        assert cert is not None and cert.pbe_class is PBEClass.POOLING_OTHER
        recheck_certificate(game2, cert)

    def test_fight_bits_and_t2_actions_read_by_the_from_dict_rule(self):
        game = DiscreteGame(TH_BASE, BASE_PARAMS, (0.0, 1.0))
        prof = profile(
            (1.0, 1.0),
            {0.0: True, 1.0: False},
            {
                (R, 0.0): Outcome.RESTRAINT,
                (R, 1.0): Outcome.RESTRAINT,
                (A, 0.0): Outcome.EXPLOIT,
                (A, 1.0): Outcome.RESTRAINT,
            },
        )
        cert = is_weak_pbe(game, prof)
        assert cert is not None and cert.pbe_class is PBEClass.POOLING_ON_RESTRAINT
        text_actions = {cell: action.value for cell, action in prof.t2_action.items()}
        # a t2 action as its text is that action, as StrategyProfile.from_dict reads it
        assert is_weak_pbe(game, prof._replace(t2_action=text_actions)) == cert
        # bool("false") is True, so text fight bits were read as fights; they
        # and an unknown action are refused, as from_dict refuses them
        text_fights = {0.0: "true", 1.0: "false"}
        for bad in (
            prof._replace(fight_after=text_fights),
            prof._replace(fight_after=text_fights, t2_action=text_actions),
            prof._replace(fight_after={0.0: 1, 1.0: 0}),
            prof._replace(t2_action={**prof.t2_action, (A, 0.0): "fight"}),
        ):
            with pytest.raises(ParameterError, match="profile well-formed"):
                is_weak_pbe(game, bad)

    @pytest.mark.parametrize("key", ["1", True])
    def test_to_dict_refuses_what_the_reader_refuses(self, key):
        # a text key made sorted() raise a bare TypeError, a bool key was
        # written as JSON true, which from_dict refuses, and bool("false")
        # wrote a fight
        cells = {(t, m): Outcome.RESTRAINT for t in (R, A) for m in (0.0, 1.0)}
        for bad in (
            profile((0.0, 0.0), {0.0: "false", 1.0: False}, cells),
            profile((0.0, 0.0), {0.0: True, 1.0: False}, {**cells, (A, 0.0): "fight"}),
            profile((0.0, 0.0), {0.0: True, key: False}, cells),
            profile((key, 0.0), {0.0: True, 1.0: False}, cells),
            profile((0.0, 0.0), {0.0: True, 1.0: False}, {(t, m): Outcome.RESTRAINT for t in (R, A) for m in (0.0, key)}),
        ):
            with pytest.raises(ParameterError, match=r"profile well-formed \(signal_of, fight_after, t2_action\)"):
                bad.to_dict()
        # a t2 action as its text is that action, as the reader takes it
        text = profile((0.0, 0.0), {0.0: True, 1.0: False}, {cell: "restraint" for cell in cells})
        assert text.to_dict() == profile((0.0, 0.0), {0.0: True, 1.0: False}, cells).to_dict()

    def test_from_dict_refuses_an_unknown_key(self):
        d = {"signal_of": {"restrained": 2.0, "aggressive": 2.0}, "fight_after": [[0.0, True], [2.0, False]]}
        with pytest.raises(ParameterError, match="profile keys are profile fields") as exc:
            StrategyProfile.from_dict({**d, "t2_actions": [], "signals": {}})
        assert "unknown 't2_actions' in profile, 'signals' in profile" in str(exc.value)

    def test_partial_profile_rejected(self):
        game = DiscreteGame(TH_BASE, BASE_PARAMS, (0.0, 2.0))
        with pytest.raises(ParameterError):
            is_weak_pbe(
                game,
                profile((2.0, 2.0), {2.0: False}, {(R, 2.0): Outcome.RESTRAINT}),
            )

    def test_profile_without_t2_actions_reads_empty_and_is_not_a_pbe_profile(self):
        # simulate reads no t2 action, so a profile may leave them out; the
        # oracle still needs one per cell
        prof = StrategyProfile.from_dict(
            {"signal_of": {"restrained": 2.0, "aggressive": 2.0}, "fight_after": [[0.0, True], [2.0, False]]}
        )
        assert prof.t2_action == {}
        with pytest.raises(ParameterError, match="profile total over message grid"):
            is_weak_pbe(DiscreteGame(TH_BASE, BASE_PARAMS, (0.0, 2.0)), prof)


class TestSupportingBeliefs:
    @pytest.mark.parametrize("u_r", [0.0, -2.0])
    @pytest.mark.parametrize("u_a", [0.0, -2.0])
    @pytest.mark.parametrize("fight", [True, False])
    def test_interval_matches_pointwise_enumeration(self, u_r, u_a, fight):
        u_fight = -0.5
        interval = supporting_belief_interval(u_r, u_a, u_fight, fight)
        for q in np.linspace(0.0, 1.0, 2001):
            stand_down = q * u_r + (1 - q) * u_a
            ok = (
                u_fight >= stand_down - TOL if fight else stand_down >= u_fight - TOL
            )
            if interval is None:
                assert not ok
                continue
            lo, hi = interval
            if min(abs(q - lo), abs(q - hi)) < 1e-6:
                continue  # don't fight float grids at the exact cut
            assert ok == (lo <= q <= hi)

    def test_interval_matches_exact_predicate_near_the_cut(self):
        # q steps up to 6 floats either side of the exact cut; the float
        # interval may only disagree with the exact test where the exact
        # slack is within 2 ulp of the largest payoff
        rng = random.Random(7)
        tol = Fraction(TOL)
        for _ in range(150):
            c = rng.uniform(0.01, 3.0)
            V_B = c + rng.uniform(0.01, 3.0)
            for u_r, u_a in ((0.0, -V_B), (-V_B, 0.0)):
                for fight in (False, True):
                    interval = supporting_belief_interval(u_r, u_a, -c, fight)
                    u_r_, u_a_, u_f = Fraction(u_r), Fraction(u_a), Fraction(-c)
                    edge = u_f + tol if fight else u_f - tol
                    q = float((edge - u_a_) / (u_r_ - u_a_))
                    for _ in range(6):
                        q = math.nextafter(q, -math.inf)
                    for _ in range(13):
                        if 0.0 <= q <= 1.0:
                            stand_down = Fraction(q) * u_r_ + (1 - Fraction(q)) * u_a_
                            slack = u_f + tol - stand_down if fight else stand_down - (u_f - tol)
                            admitted = interval is not None and interval[0] <= q <= interval[1]
                            if admitted != (slack >= 0):
                                assert abs(slack) <= 2 * math.ulp(V_B), (u_r, u_a, -c, fight, q)
                        q = math.nextafter(q, math.inf)

    def test_interior_threshold(self):
        # standing down pays 0 against restraint, -2 against exploitation;
        # fighting pays -0.5, so B fights below q = 0.75
        lo, hi = supporting_belief_interval(0.0, -2.0, -0.5, fight=True)
        assert (lo, hi) == pytest.approx((0.0, 0.75), abs=1e-8)
        lo, hi = supporting_belief_interval(0.0, -2.0, -0.5, fight=False)
        assert (lo, hi) == pytest.approx((0.75, 1.0), abs=1e-8)
        # the cut falls past q = 1: standing down pays at most 0 < 0.5
        assert supporting_belief_interval(0.0, -1.0, 0.5, fight=False) is None


class TestFindAllPBE:
    def test_pooling_found_and_no_separating(self):
        game = DiscreteGame(TH_BASE, BASE_PARAMS, (0.0, 2.0))
        certs = find_all_pbe(game)
        pooling = [
            c
            for c in certs
            if c.pbe_class is PBEClass.POOLING_ON_RESTRAINT
            and c.profile.signal_of[R] == 2.0
        ]
        assert pooling
        assert not [c for c in certs if c.pbe_class is PBEClass.SEPARATING]

    def test_sunk_risk_never_separates(self):
        params = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.8, prior=0.5)
        certs = find_all_pbe(
            DiscreteGame(MechanismSpec(Mechanism.SUNK, Variant.RISK), params, (0.0, 2.0))
        )
        assert not [c for c in certs if c.pbe_class is PBEClass.SEPARATING]

    def test_tying_risk_separates(self):
        params = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.6, prior=0.5)
        certs = find_all_pbe(DiscreteGame(TH_RISK, params, (0.0, 1.5)))
        seps = [c for c in certs if c.pbe_class is PBEClass.SEPARATING]
        assert seps
        for cert in seps:
            assert cert.profile.signal_of[R] == 1.5
            assert cert.profile.signal_of[A] == 0.0

    def test_results_deterministic_and_sound(self):
        params = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.6, prior=0.3)
        game = DiscreteGame(TH_RISK, params, (0.0, 0.75, 1.5))
        first = find_all_pbe(game)
        second = find_all_pbe(game)
        assert [c.to_dict() for c in first] == [c.to_dict() for c in second]
        for cert in first:
            recheck_certificate(game, cert)

    def test_budget_guard(self):
        # the restrained type ties at every sunk-cost t2 cell, so the
        # certificates roughly triple with each message
        sunk = MechanismSpec(Mechanism.SUNK)
        game = DiscreteGame(sunk, BASE_PARAMS, tuple(float(i) for i in range(18)))
        with pytest.raises(BudgetExceededError) as exc:
            find_all_pbe(game)
        assert exc.value.count > DEFAULT_CERTIFICATE_BUDGET
        # an explicit budget tightens the guard; the error reports the real count
        small = DiscreteGame(sunk, BASE_PARAMS, (0.0, 2.0, 4.0, 6.0))
        with pytest.raises(BudgetExceededError) as exc:
            find_all_pbe(small, budget=10)
        assert exc.value.count == len(find_all_pbe(small)) == 54

    def test_grid_validation(self):
        # a bool or an int past float range from Python: game.real, as the CLI reads --messages
        for bad in [(), (1.0, 2.0), (0.0, -1.0), (0.0, 2.0, 2.0), (2.0, 0.0), (0, True), (0, 10**400), (0, "x")]:
            with pytest.raises(ParameterError):
                DiscreteGame(TH_BASE, BASE_PARAMS, bad)
        with pytest.raises(ParameterError):
            DiscreteGame(TH_BASE, ModelParams(True, 1.0, 2.0), (0.0, 2.0))

    @pytest.mark.parametrize(
        "mech,variant",
        [
            (Mechanism.TYING_HANDS, Variant.BASE),
            (Mechanism.SUNK, Variant.BASE),
            (Mechanism.SUNK, Variant.RISK),
            (Mechanism.INSTALLMENT, Variant.BASE),
            (Mechanism.INSTALLMENT, Variant.RISK),
            (Mechanism.REDUCIBLE, Variant.BASE),
        ],
    )
    def test_nonexistence_theorems_on_sampled_points(self, mech, variant):
        rng = np.random.default_rng(2024)
        spec = MechanismSpec(mech, variant)
        for _ in range(25):
            c = float(rng.uniform(0.05, 2.0))
            params = ModelParams(
                c=c,
                V_D=float(rng.uniform(0.05, 3.0)),
                V_B=c + float(rng.uniform(0.05, 3.0)),
                r=float(rng.uniform(0.0, 3.0)),
                prior=float(rng.uniform(0.05, 0.95)),
            )
            m = float(rng.uniform(0.05, 4.0))
            certs = find_all_pbe(DiscreteGame(spec, params, (0.0, m)))
            assert not [c_ for c_ in certs if c_.pbe_class is PBEClass.SEPARATING]

    def test_exploit_dominance_for_noncontingent_costs(self):
        # whenever B stands down at an on-path message, the aggressive type
        # exploits there: the signal cost cannot flip its t2 preference
        rng = np.random.default_rng(7)
        for mech in (Mechanism.SUNK, Mechanism.INSTALLMENT):
            for variant in Variant:
                spec = MechanismSpec(mech, variant)
                for _ in range(10):
                    c = float(rng.uniform(0.05, 2.0))
                    params = ModelParams(
                        c=c,
                        V_D=float(rng.uniform(0.05, 3.0)),
                        V_B=c + float(rng.uniform(0.05, 3.0)),
                        r=float(rng.uniform(0.0, 3.0)),
                        prior=0.5,
                    )
                    m = float(rng.uniform(0.05, 4.0))
                    for cert in find_all_pbe(DiscreteGame(spec, params, (0.0, m))):
                        m_A = cert.profile.signal_of[A]
                        if not cert.profile.fight_after[m_A]:
                            assert cert.profile.t2_action[(A, m_A)] is Outcome.EXPLOIT

    def test_grid_refinement_keeps_certificates(self):
        # a certificate survives refinement when fighting stays belief-
        # supportable at the added message (it is off path for the profile)
        params = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.6, prior=0.5)
        coarse = DiscreteGame(TH_RISK, params, (0.0, 1.5))
        fine = DiscreteGame(TH_RISK, params, (0.0, 0.5, 1.5))
        # at the added message 0.5 the aggressive type still exploits
        # (V_D - 0.5 > -r), so fighting there has belief support
        fine_certs = find_all_pbe(fine)
        fine_keys = {
            (
                c.profile.signal_of[R],
                c.profile.signal_of[A],
                tuple(sorted((m, f) for m, f in c.profile.fight_after.items() if m != 0.5)),
                c.pbe_class,
            )
            for c in fine_certs
        }
        for cert in find_all_pbe(coarse):
            key = (
                cert.profile.signal_of[R],
                cert.profile.signal_of[A],
                tuple(sorted(cert.profile.fight_after.items())),
                cert.pbe_class,
            )
            assert key in fine_keys


def naive_find_all(game: DiscreteGame, q_grid_steps: int = 401) -> set:
    """Completeness oracle: written from scratch against the payoff table.

    Enumerates every profile including t2-suboptimal ones, pins on-path
    posteriors by Bayes, and searches candidate beliefs on a grid that
    always contains the endpoints (B's stand-down payoff is affine in q,
    so an inequality solvable in [0, 1] is solvable at 0 or 1 -- the grid
    is exact for existence). Returns hashable profile encodings.
    """
    import itertools

    p = game.params
    msgs = game.messages
    q_grid = list(np.linspace(0.0, 1.0, q_grid_steps))
    found = set()
    for m_R in msgs:
        for m_A in msgs:
            t2_cells = [(t, m) for t in (R, A) for m in msgs]
            for actions in itertools.product(
                (Outcome.EXPLOIT, Outcome.RESTRAINT), repeat=len(t2_cells)
            ):
                t2 = dict(zip(t2_cells, actions))
                if any(
                    payoff(game.spec, p, t, t2[(t, m)], m).u_A
                    < max(
                        payoff(game.spec, p, t, a, m).u_A
                        for a in (Outcome.EXPLOIT, Outcome.RESTRAINT)
                    )
                    - TOL
                    for t, m in t2_cells
                ):
                    continue
                for fight_bits in itertools.product((False, True), repeat=len(msgs)):
                    fight = dict(zip(msgs, fight_bits))
                    ok = True
                    for m in msgs:
                        if m == m_R == m_A:
                            candidates = [p.prior]
                        elif m == m_R:
                            candidates = [1.0]
                        elif m == m_A:
                            candidates = [0.0]
                        else:
                            candidates = q_grid
                        u_r = payoff(game.spec, p, R, t2[(R, m)], m).u_B
                        u_a = payoff(game.spec, p, A, t2[(A, m)], m).u_B
                        u_f = payoff(game.spec, p, R, Outcome.PREVENTIVE_CONFLICT, m).u_B
                        supported = False
                        for q in candidates:
                            down = q * u_r + (1 - q) * u_a
                            if fight[m] and u_f >= down - TOL:
                                supported = True
                                break
                            if not fight[m] and down >= u_f - TOL:
                                supported = True
                                break
                        if not supported:
                            ok = False
                            break
                    if not ok:
                        continue

                    def value(t, m):
                        if fight[m]:
                            return payoff(
                                game.spec, p, t, Outcome.PREVENTIVE_CONFLICT, m
                            ).u_A
                        return payoff(game.spec, p, t, t2[(t, m)], m).u_A

                    if value(R, m_R) < max(value(R, m) for m in msgs) - TOL:
                        continue
                    if value(A, m_A) < max(value(A, m) for m in msgs) - TOL:
                        continue
                    found.add(
                        (
                            m_R,
                            m_A,
                            fight_bits,
                            tuple(t2[cell] for cell in t2_cells),
                        )
                    )
    return found


def encode(cert) -> tuple:
    prof = cert.profile
    msgs = tuple(sorted(prof.fight_after))
    return (
        prof.signal_of[R],
        prof.signal_of[A],
        tuple(prof.fight_after[m] for m in msgs),
        tuple(prof.t2_action[(t, m)] for t in (R, A) for m in msgs),
    )


class TestCompleteness:
    @pytest.mark.parametrize(
        "spec,params,messages",
        [
            (TH_BASE, BASE_PARAMS, (0.0, 2.0)),
            (TH_BASE, ModelParams(c=0.5, V_D=2.0, V_B=3.0, prior=0.5), (0.0, 1.0)),
            (TH_RISK, ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.6, prior=0.5), (0.0, 1.5)),
            (
                MechanismSpec(Mechanism.SUNK, Variant.RISK),
                ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.8, prior=0.5),
                (0.0, 2.0),
            ),
            (
                MechanismSpec(Mechanism.INSTALLMENT),
                ModelParams(c=0.5, V_D=1.0, V_B=2.0, prior=0.5),
                (0.0, 3.0),
            ),
            (
                RC_RISK,
                ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.5, prior=0.5),
                (0.0, 1.5),
            ),
            (TH_RISK, ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.7, prior=0.25), (0.0, 1.0, 2.0)),
        ],
    )
    def test_oracle_agrees_with_naive_enumeration(self, spec, params, messages):
        game = DiscreteGame(spec, params, messages)
        assert {encode(c) for c in find_all_pbe(game)} == naive_find_all(game)

    def test_random_games_agree(self):
        rng = np.random.default_rng(90210)
        for _ in range(40):
            mech = list(Mechanism)[int(rng.integers(4))]
            variant = list(Variant)[int(rng.integers(2))]
            c = float(rng.uniform(0.1, 2.0))
            params = ModelParams(
                c=c,
                V_D=float(rng.uniform(0.1, 3.0)),
                V_B=c + float(rng.uniform(0.1, 3.0)),
                r=float(rng.uniform(0.0, 2.0)),
                prior=float(rng.uniform(0.1, 0.9)),
            )
            messages = (0.0, float(rng.uniform(0.2, 4.0)))
            game = DiscreteGame(MechanismSpec(mech, variant), params, messages)
            assert {encode(c_) for c_ in find_all_pbe(game)} == naive_find_all(game)


class TestVerifyAgainstClosedForm:
    def grid(self):
        out = []
        for v_d in (0.5, 1.0, 2.0):
            for m in (0.5, 1.0, 2.0):
                out.append((ModelParams(c=0.5, V_D=v_d, V_B=2.0, prior=0.5), m))
        return out

    def test_tying_hands_base_agrees(self):
        report = verify_against_closed_form(TH_BASE, self.grid())
        assert report.empty, report.to_json_list()

    def test_installment_base_agrees(self):
        report = verify_against_closed_form(
            MechanismSpec(Mechanism.INSTALLMENT), self.grid()
        )
        assert report.empty, report.to_json_list()

    def test_boundary_point_pools_on_both_routes(self):
        params = ModelParams(c=0.5, V_D=1.0, V_B=2.0, prior=0.5)
        report = verify_against_closed_form(TH_BASE, [(params, 1.0)])
        assert report.empty
        # both types pool on restraint at m = V_D in two certificates, and in
        # none a millionth below it
        for m, pooled in ((1.0, 2), (0.999999, 0)):
            certs = find_all_pbe(DiscreteGame(TH_BASE, params, (0.0, m)))
            pools = [c for c in certs if c.pbe_class is PBEClass.POOLING_ON_RESTRAINT and c.j_R == c.j_A == 1]
            assert len(pools) == pooled

    def test_validates_once_per_point(self, validate_calls):
        # when the grid game is built; the closed forms read the same point
        grid = self.grid() + [(ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.3), 2.0)]
        verify_against_closed_form(TH_BASE, grid)
        assert validate_calls == [params for params, _ in grid]

    @pytest.mark.parametrize("m", (True, np.True_, "1.5", 10**400, None),
                             ids=("True", "numpy-True", "text", "int-past-float", "None"))
    def test_refuses_m_as_classify_does(self, monkeypatch, m):
        # m is validated before anything reads it as a float, as classify
        # validates it: float() reads True as 1, "1.5" as 1.5, and raises on the rest
        with pytest.raises(ParameterError) as classified:
            classify(TH_BASE, BASE_PARAMS, m)
        refereed = []
        referee = oracle_module._referee
        monkeypatch.setattr(oracle_module, "_referee", lambda spec, games: refereed.append(len(games)) or referee(spec, games))
        floats = [(BASE_PARAMS, 0.25 * k) for k in range(1, 11)]
        for grid in ([(BASE_PARAMS, m)], floats + [(BASE_PARAMS, m)]):
            with pytest.raises(ParameterError) as exc:
                verify_against_closed_form(TH_BASE, grid)
            assert exc.value.constraint == classified.value.constraint
        # the float points before the refused one were checked, by the referee
        assert refereed == [len(floats)]

    def test_risk_pooling_divergence_is_reported(self):
        # the closed-form pooling threshold describes the base game; with
        # r > 0 the aggressive type's restraint payoff is -r, the grid game
        # pools only when m >= V_D + r and r <= c, and the cross-check must
        # surface the difference instead of hiding it
        params = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.8, prior=0.5)
        report = verify_against_closed_form(TH_RISK, [(params, 1.2)])
        assert not report.empty
        entry = report.entries[0]
        assert entry.closed_form_verdict["pooling"] is True
        assert entry.oracle_verdict["pooling"] is False
        payload = json.loads(json.dumps(report.to_json_list()))
        assert payload[0]["m"] == 1.2 and payload[0]["params"]["r"] == 0.8

    def test_reducible_risk_reading_confirmed(self):
        # same separating algebra as tying hands: V_D <= m* - c and c <= r
        grid = []
        for r in (0.4, 0.5, 1.0):
            for m in (1.4, 1.5, 2.0):
                grid.append((ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=r, prior=0.5), m))
        mismatches = [
            e
            for e in verify_against_closed_form(RC_RISK, grid).entries
            if e.closed_form_verdict["separating"] != e.oracle_verdict["separating"]
        ]
        assert not mismatches


SPECS = [MechanismSpec(mech, variant) for mech in Mechanism for variant in Variant]


#: Offsets that put a value on a knife edge, 1e-10 either side of it, or
#: 1e-10 either side of where the tie rule moves it.
EDGE_OFFSETS = (0.0, 1e-10, -1e-10, TOL + 1e-10, TOL - 1e-10, -TOL + 1e-10, -TOL - 1e-10)


@st.composite
def knife_edge_points(draw) -> tuple[ModelParams, float]:
    """A valid all-float point with m > 0, often on or near a tie of the
    closed forms or of the tie rule: V_D = c, V_B = 2c or c + 1e-10, r = 0
    or near c, p = c/V_B, a prior at B's cut 1 - c/V_B, and m near V_D,
    V_D + r or V_D + c, where near x is x plus one of EDGE_OFFSETS."""
    near = st.sampled_from(EDGE_OFFSETS)
    c = draw(st.sampled_from((0.5, 1.0)) | st.floats(0.05, 3.0))
    V_D = draw(st.sampled_from((c, 1.0)) | st.floats(0.05, 3.0))
    V_B = c + draw(st.sampled_from((c, 1e-10)) | st.floats(0.01, 3.0))
    r = draw(st.just(0.0) | near.map(lambda offset: c + offset) | st.floats(0.0, 3.0))
    p = draw(st.sampled_from((0.0, c / V_B)) | st.floats(0.0, 1.0))
    prior = draw(st.sampled_from((0.5, 1 - c / V_B)) | st.floats(0.01, 0.99))
    edge = draw(st.sampled_from((V_D, V_D + r, V_D + c)))
    m = draw(near.map(lambda offset: edge + offset) | st.floats(0.01, 5.0))
    return ModelParams(c, V_D, V_B, r, p, prior), m


def anchor_verdicts(game: DiscreteGame) -> tuple[bool, bool]:
    """Whether the anchor search finds PoolingOnRestraint and Separating
    with the restrained type at the game's last message."""
    table = _GameTable(*game)
    found = {pbe_class for _, _, pbe_class, _ in oracle_module._anchors(table, (table.n - 1,))}
    return PBEClass.POOLING_ON_RESTRAINT in found, PBEClass.SEPARATING in found


@pytest.mark.parametrize("tol", (TOL, 1e-12, 1e-6), ids=("TOL", "TOL=1e-12", "TOL=1e-6"))
@pytest.mark.parametrize("spec", SPECS, ids=str)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(points=st.lists(knife_edge_points(), min_size=1, max_size=50))
# a double edge: the aggressive type's t2 tie at m (m = V_D + r + 1e-10) and
# its deviation tie (c = r + TOL + 5e-11) both hold only by the tie rule
@example(points=[(ModelParams(0.5, 1.0, 1.0, 0.5 - TOL - 5e-11), 1.0 + (0.5 - TOL - 5e-11) + 1e-10)])
def test_referee_decides_as_the_anchor_search(spec, tol, points):
    # the referee reads tie_floor per call, so its verdicts move with TOL as
    # the anchor search's do: at +-1e-10 a knife edge ties under TOL, not under 1e-12
    games = [DiscreteGame(spec, params, (0.0, m)) for params, m in points]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game_module, "TOL", tol)
        assert oracle_module._referee(spec, [(*point, None) for point in points]) == list(map(anchor_verdicts, games))


def test_cross_check_reports_as_the_anchor_search_alone(monkeypatch):
    # blocks that mix m = 0, int and Fraction values with float points, and
    # the risk variants' pooling gap: the report is the anchor search's own
    refereed = []
    referee = oracle_module._referee
    monkeypatch.setattr(oracle_module, "_referee", lambda spec, games: refereed.append(len(games)) or referee(spec, games))
    rng = random.Random(36)
    for spec in SPECS:
        grid = [(game.params, game.messages[-1]) for game in tie_prone_games(rng, 40)]
        grid += [(ModelParams(0.5, 1.0, 2.0, 0.6), 0.0), (ModelParams(1, 2, 3), 2), (ModelParams(0.5, 1.0, 2.0), Fraction(3, 2))]
        rng.shuffle(grid)
        report = verify_against_closed_form(spec, grid)
        with monkeypatch.context() as patch:
            patch.setattr(oracle_module, "REFEREE_MIN_POINTS", math.inf)
            alone = verify_against_closed_form(spec, grid)
        assert report == alone and json.dumps(report.to_json_list()) == json.dumps(alone.to_json_list())
        assert report.empty is (spec not in (TH_RISK, RC_RISK))
    # each block's all-float points with m > 0, and only those, went to the referee
    assert refereed == [40] * len(SPECS)


def test_a_table_is_built_only_where_the_anchor_search_decides(monkeypatch):
    # at oracle_fraction=1 no point is wrapped in a game record: the referee
    # reads the rows' fields as columns, and the anchor search builds one
    # payoff table for each point it decides, m = 0 and each disagreement
    records, tables = [], []
    new, init = oracle_module._GameFields.__new__, _GameTable.__init__
    monkeypatch.setattr(oracle_module._GameFields, "__new__", lambda cls, *args: records.append(args) or new(cls, *args))
    monkeypatch.setattr(_GameTable, "__init__", lambda self, *args: tables.append(args) or init(self, *args))
    fixed = {"V_D": 1.0, "V_B": 2.0, "r": 0.8, "p": 0.0, "prior": 0.5}
    for spec in (TH_BASE, TH_RISK):
        grid = GridSpec(spec, (Axis("c", 0.2, 1.5, 6), Axis("m", 0.0, 3.0, 7)), fixed)
        points = list(grid_points(grid))
        if spec is TH_BASE:
            rows = run_sweep(grid, oracle_fraction=1)
            assert all(row.oracle_checked for row in rows)
            decided = [(params, m) for params, m in points if m == 0]
        else:  # the risk variant's pooling gap: points where the routes disagree
            disagreed = {(entry.params, entry.m) for entry in verify_against_closed_form(spec, points).entries}
            assert any(m != 0 for _, m in disagreed)
            decided = [(params, m) for params, m in points if m == 0 or (params, m) in disagreed]
        assert records == []
        # a sweep checks its sample in a shuffled order
        assert sorted(tables) == sorted((spec, params, signal_grid(m)) for params, m in decided)
        tables.clear()


def test_a_non_finite_payoff_is_refused_in_a_refereed_block():
    # sunk conflict pays -c - m = -inf at c = m = 1e308: among enough float
    # points for the referee, that point raises the refusal it raises alone,
    # with no numpy warning, and before a later point fails validation
    spec = MechanismSpec(Mechanism.SUNK)
    overflow = (ModelParams(c=1e308, V_D=1.0, V_B=1.5e308), 1e308)
    grid = [(ModelParams(0.5, 1.0, 2.0), 0.1 * k) for k in range(1, 21)]
    with pytest.raises(ParameterError) as alone:
        verify_against_closed_form(spec, [overflow])
    assert alone.value.constraint == "payoffs finite"
    # the referee leaves that point to the anchor search, whatever its verdicts would read
    game = DiscreteGame(spec, grid[0][0], (0.0, grid[0][1]))
    assert oracle_module._referee(spec, [(*grid[0], None), (*overflow, None)]) == [anchor_verdicts(game), None]
    for points in (grid[:10] + [overflow] + grid[10:], grid + [overflow, (ModelParams(0.5, 1.0, 0.4), 1.0)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError) as exc:
                verify_against_closed_form(spec, points)
        assert str(exc.value) == str(alone.value)
    with pytest.raises(ParameterError, match="V_B > c"):
        verify_against_closed_form(spec, grid + [(ModelParams(0.5, 1.0, 0.4), 1.0), overflow])


def test_importing_the_oracle_loads_no_numpy():
    code = "import sys, restraint_games.oracle; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def brute_force_find_all(game: DiscreteGame) -> list:
    """Ordered reference: every profile through ``is_weak_pbe``, in the
    canonical order (signal indices, then t2 restraint bits with restrained
    cells before aggressive ones, then the fight pattern). Profiles whose
    t2 actions are not cell-optimal are skipped, judged from the payoff
    table alone; check (c) rejects them and ``naive_find_all`` covers it."""
    import itertools

    p, msgs = game.params, game.messages
    cells = [(t, m) for t in (R, A) for m in msgs]
    actions = (Outcome.EXPLOIT, Outcome.RESTRAINT)
    cell_options = []
    for t, m in cells:
        u = {a: payoff(game.spec, p, t, a, m).u_A for a in actions}
        cell_options.append([a for a in actions if u[a] >= max(u.values()) - TOL])
    certs = []
    for m_R, m_A in itertools.product(msgs, repeat=2):
        for t2 in itertools.product(*cell_options):
            for fights in itertools.product((False, True), repeat=len(msgs)):
                cert = is_weak_pbe(
                    game,
                    StrategyProfile(
                        signal_of={R: m_R, A: m_A},
                        fight_after=dict(zip(msgs, fights)),
                        t2_action=dict(zip(cells, t2)),
                    ),
                )
                if cert is not None:
                    certs.append(cert)
    return certs


def test_random_games_match_ordered_brute_force():
    rng = np.random.default_rng(31337)
    for _ in range(12):
        mech = list(Mechanism)[int(rng.integers(4))]
        variant = list(Variant)[int(rng.integers(2))]
        c = float(rng.uniform(0.1, 2.0))
        params = ModelParams(
            c=c,
            V_D=float(rng.uniform(0.1, 3.0)),
            V_B=c + float(rng.uniform(0.1, 3.0)),
            r=float(rng.uniform(0.0, 2.0)),
            prior=float(rng.uniform(0.05, 0.95)),
        )
        n = int(rng.integers(1, 5))
        messages = (0.0, *sorted(float(x) for x in rng.uniform(0.1, 4.0, n - 1)))
        game = DiscreteGame(MechanismSpec(mech, variant), params, messages)
        expected = [c_.to_dict() for c_ in brute_force_find_all(game)]
        assert [c_.to_dict() for c_ in find_all_pbe(game)] == expected


@pytest.mark.parametrize(
    "variant,params,messages",
    [
        (Variant.BASE, ModelParams(c=0.5, V_D=0.5, V_B=2.0, r=0.5, p=0.2, prior=0.5), (0.0, 1.5, 2.0)),
        (Variant.RISK, ModelParams(c=0.25, V_D=0.5, V_B=1.0, r=0.5, p=0.2, prior=0.75), (0.0, 0.75, 2.0)),
        (Variant.BASE, ModelParams(c=1.0, V_D=0.5, V_B=2.0, r=1.0, p=0.2, prior=0.75), (0.0, 1.0, 1.5, 2.0)),
    ],
)
def test_tie_prone_installment_games_match_ordered_brute_force(variant, params, messages):
    # the restrained type ties at every t2 cell, and two anchors of one
    # (j_R, j_A) block list certificates that interleave in the canonical
    # order, so only the final sort puts them in place
    game = DiscreteGame(MechanismSpec(Mechanism.INSTALLMENT, variant), params, messages)
    expected = [c_.to_dict() for c_ in brute_force_find_all(game)]
    assert [c_.to_dict() for c_ in find_all_pbe(game)] == expected


#: Grid for the pinned games: 1.0 is V_D (the aggressive type ties at t2
#: under tying hands and reducible), and prior 0.75 leaves B indifferent
#: when pooling with one type exploiting (0.25 * V_B == c).
DIGEST_MESSAGES = (0.0, 1.0, 0.5, 2.5, 1.6)
DIGEST_PARAMS = ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.6, prior=0.75)


def digest_games() -> dict[str, DiscreteGame]:
    games = {}
    for mech in Mechanism:
        for variant in Variant:
            for n in range(1, 6):
                games[f"{mech.value}-{variant.value}-n{n}"] = DiscreteGame(
                    MechanismSpec(mech, variant),
                    DIGEST_PARAMS,
                    tuple(sorted(DIGEST_MESSAGES[:n])),
                )
    # priors a hair from 0 and 1: Bayes weights that look degenerate
    for mech, variant, prior in (
        (Mechanism.SUNK, Variant.RISK, 1e-12),
        (Mechanism.INSTALLMENT, Variant.BASE, 1e-12),
        (Mechanism.TYING_HANDS, Variant.RISK, 1 - 1e-12),
        (Mechanism.REDUCIBLE, Variant.BASE, 1 - 1e-12),
    ):
        params = ModelParams(**{**DIGEST_PARAMS.to_dict(), "prior": prior})
        games[f"{mech.value}-{variant.value}-n5-prior-{prior!r}"] = DiscreteGame(
            MechanismSpec(mech, variant), params, tuple(sorted(DIGEST_MESSAGES))
        )
    return games


def certificates_digest(game: DiscreteGame) -> str:
    payload = json.dumps([c.to_dict() for c in find_all_pbe(game)])
    return hashlib.sha256(payload.encode()).hexdigest()


#: sha256 of ``json.dumps([c.to_dict() for c in find_all_pbe(game)])`` per
#: pinned game, recorded with the profile-by-profile search the factorized
#: enumerator replaced: same certificates, beliefs, classes and order.
FIND_ALL_DIGESTS = {
    "installment-base-n1": "899dd327a9744f424292c1477ba22440a12460838aea87bbdcfcbf6e3b170e8e",
    "installment-base-n2": "b6ba7917d25a3db948de5c93987862fb47cc44e119395ebe8dbcf311b0a28d89",
    "installment-base-n3": "6359794ede1491940885818ec1cf8d3b4dde96d710c063e1f8b9e3113181b388",
    "installment-base-n4": "efce62611f4dc8ac272fd34cb0b2c1217ec2406e3fb28637d46a7909356eb294",
    "installment-base-n5": "ccfada30a9257b899bb130d2d26babb421f4f61761c183121bbccce2e64f7c11",
    "installment-base-n5-prior-1e-12": "0c6b29c4c8854f1a05d7e67482ed6267d7a009ae0accbe7f5e13047a70467b09",
    "installment-risk-n1": "899dd327a9744f424292c1477ba22440a12460838aea87bbdcfcbf6e3b170e8e",
    "installment-risk-n2": "b6ba7917d25a3db948de5c93987862fb47cc44e119395ebe8dbcf311b0a28d89",
    "installment-risk-n3": "6359794ede1491940885818ec1cf8d3b4dde96d710c063e1f8b9e3113181b388",
    "installment-risk-n4": "efce62611f4dc8ac272fd34cb0b2c1217ec2406e3fb28637d46a7909356eb294",
    "installment-risk-n5": "ccfada30a9257b899bb130d2d26babb421f4f61761c183121bbccce2e64f7c11",
    "reducible-base-n1": "899dd327a9744f424292c1477ba22440a12460838aea87bbdcfcbf6e3b170e8e",
    "reducible-base-n2": "e025701338fbc5234611d9dffea1ee557c5186ef86b81ef5b0fda61afd2ee13f",
    "reducible-base-n3": "f7f7e39dd026c28d82192228070e6ddab922204d2291d6c2cc554806a8549835",
    "reducible-base-n4": "c402794686328a750dc368bdac72a66563d966a1594c1afe259a9f3c56da8fa2",
    "reducible-base-n5": "51a0b8096ea1622eaabaef2fb544d7cf33d3c398aeab999de6a1fb43bd3fc8f5",
    "reducible-base-n5-prior-0.999999999999": "8d6f86a1cef1b91712979840851d3fce2f79c7ba0bf052a74784d295a4c35ed6",
    "reducible-risk-n1": "899dd327a9744f424292c1477ba22440a12460838aea87bbdcfcbf6e3b170e8e",
    "reducible-risk-n2": "551c403f57031644869aaefb64577ed6bcf8d4e52227449ab2012b1cba946116",
    "reducible-risk-n3": "4ec9aa5b71d95973cbcf9e657857e8ee7a77366160e0abf77527fb19b8b8bbc3",
    "reducible-risk-n4": "97866dc8b53f83d7624ebbbe5e73ef54a3fde4c4e64183a392ba728ff39cbdf6",
    "reducible-risk-n5": "c9e7f455a5a3b01d04f1aa5efb569b6bb60f05d6ac3733764d1027651f175c5d",
    "sunk-base-n1": "899dd327a9744f424292c1477ba22440a12460838aea87bbdcfcbf6e3b170e8e",
    "sunk-base-n2": "8011b256946dc54a26917cfce2f57be6d521dc67066c071b3d9331bc1dced949",
    "sunk-base-n3": "0a4a360f382535dcd1138bb6715f7d7caf73e8f14d0531d506ab68fda78ebea6",
    "sunk-base-n4": "94a28f13f80ac235164b98ccb869a576aee481d08550c8d9ef35e88006df0eee",
    "sunk-base-n5": "e6e675e3fe88332afa832f64e4af867d77bab7a14163317ac58d756c7180414d",
    "sunk-risk-n1": "899dd327a9744f424292c1477ba22440a12460838aea87bbdcfcbf6e3b170e8e",
    "sunk-risk-n2": "8011b256946dc54a26917cfce2f57be6d521dc67066c071b3d9331bc1dced949",
    "sunk-risk-n3": "0a4a360f382535dcd1138bb6715f7d7caf73e8f14d0531d506ab68fda78ebea6",
    "sunk-risk-n4": "94a28f13f80ac235164b98ccb869a576aee481d08550c8d9ef35e88006df0eee",
    "sunk-risk-n5": "e6e675e3fe88332afa832f64e4af867d77bab7a14163317ac58d756c7180414d",
    "sunk-risk-n5-prior-1e-12": "4799adc1f03c89b519918880c329058c99bd6b167bbffa2b0c7e47135893ba29",
    "tying-hands-base-n1": "899dd327a9744f424292c1477ba22440a12460838aea87bbdcfcbf6e3b170e8e",
    "tying-hands-base-n2": "b03af5a8e3f8d90b4c1f31000ae40ef948c0191a8a202ffa88f079dc97169ca2",
    "tying-hands-base-n3": "5b100f985e64c91aab650e7e31d4c3b15b03c4a69ac51af98f7d493f4125271b",
    "tying-hands-base-n4": "c402794686328a750dc368bdac72a66563d966a1594c1afe259a9f3c56da8fa2",
    "tying-hands-base-n5": "51a0b8096ea1622eaabaef2fb544d7cf33d3c398aeab999de6a1fb43bd3fc8f5",
    "tying-hands-risk-n1": "899dd327a9744f424292c1477ba22440a12460838aea87bbdcfcbf6e3b170e8e",
    "tying-hands-risk-n2": "e7bfe86f7e9f33eeb55a723a715041d56c406c32638e67e53cde00ff8dd3fa2d",
    "tying-hands-risk-n3": "115cffc6b8ec5959873da0f52db95670863617cec393ea873cb57153398aec44",
    "tying-hands-risk-n4": "5092a3681bf419c9fcef8c41ff81efb4208a35d1a45f01506625584135805ce2",
    "tying-hands-risk-n5": "c655ef7096ea372fee272e660be778f9403f699be43aa07e38f9efd1562d6f89",
    "tying-hands-risk-n5-prior-0.999999999999": "d15089d3d462db47458aab97479b7b8f6771e18e7580aebe2d8075d2e77b74d7",
}


@pytest.mark.parametrize("case", sorted(FIND_ALL_DIGESTS))
def test_find_all_pbe_bytes_unchanged(case):
    assert certificates_digest(digest_games()[case]) == FIND_ALL_DIGESTS[case]


def tie_heavy_games() -> dict[str, DiscreteGame]:
    """24 games shaped like the oracle-ties benchmark's: every spec at 4, 5
    and 6 messages, drawn from one seeded stream. In the sunk and
    installment games the restrained type ties at every t2 cell, so their
    certificates run to the thousands."""
    shapes = random.Random(2425)
    games = {}
    for mech in Mechanism:
        for variant in Variant:
            for n in (4, 5, 6):
                c = shapes.uniform(0.2, 1.0)
                params = ModelParams(
                    c=c,
                    V_D=shapes.uniform(0.3, 2.0),
                    V_B=c + shapes.uniform(0.5, 2.0),
                    r=shapes.uniform(0.0, 1.5),
                    prior=shapes.uniform(0.2, 0.8),
                )
                signals = sorted(shapes.sample(range(10, 400), n - 1))
                games[f"{mech.value}-{variant.value}-n{n}"] = DiscreteGame(
                    MechanismSpec(mech, variant), params, (0.0, *(k / 100 for k in signals))
                )
    return games


#: sha256 of ``json.dumps([c.to_dict() for c in find_all_pbe(game)])`` per
#: tie-heavy game, recorded while each certificate was built in Python one
#: at a time
TIE_HEAVY_DIGESTS = {
    "tying-hands-base-n4": "28d7ea8811b3d9b3780deae1a25614275b825ff51a4cd41ab548405f7ad04016",
    "tying-hands-base-n5": "6f197ff683d14f6c58bd4c9f46472869e6ced868bdc781a43a2d57e6e26a4330",
    "tying-hands-base-n6": "a556dc9006016e689b0764bce7f0b0f47b9a2942831df7d477722287402283b2",
    "tying-hands-risk-n4": "dd00e9819b95bd617b7fe102ed3a03743dfdebeddf399a3e57812666f0a4c92e",
    "tying-hands-risk-n5": "d22fbd95c08d857cb334ffcdb40d07fe294b1a516c4b8e797fe14f755e09598e",
    "tying-hands-risk-n6": "5f3c99f8336bbae2e84489fb81a76b8d0ac2b01fe325c3e93c9a3dbe4d14cb74",
    "sunk-base-n4": "65a589eb3e3a4cb83d4cbbe2259db3d2f72be7585355fed444dca6647d6e8de4",
    "sunk-base-n5": "9f0247ca3506bcb9e3a1f282c9770cfced06005ee19ad22f002bfd9a60fb671e",
    "sunk-base-n6": "e8b08791c481afe7b4afb72eec2822c7665a6e6e0c2902fc6ccb71877ca918b1",
    "sunk-risk-n4": "5b4085dba1f761c668ea941df2639216662d465c54c9933948879c85cf7dc954",
    "sunk-risk-n5": "e301e59816aff6bf5a0a1784f73d19de85bd5763a02a31fb653506bcd2fd414d",
    "sunk-risk-n6": "602bc3f7d3f4219cfb78b96e5bbf4e5eba19c6fcf0bebf110770ceeca0b1833b",
    "installment-base-n4": "fb11d71a020b3bd07d095d54d467354a39c29a0e161e3f156272b5d8c45ff675",
    "installment-base-n5": "8afa4cf41012128c3625e67910684752ebd5e66e794208f58834c80911113aed",
    "installment-base-n6": "528fce8f133bf0fb2aa805fb1b696786abf602d140b45512bef1c9eef891dd04",
    "installment-risk-n4": "42932a743fc1978c77ee78f05a1547f8f079a9726b6b5fc88f28f7ea2fcb3508",
    "installment-risk-n5": "c629d2049ef682bf84a76d963a57d7f1321b64ad13007f83e7cf9516eade6619",
    "installment-risk-n6": "0093561618316cc59cb142cabd72bd4bb5493013ba60df81ab34344fb0d6aefe",
    "reducible-base-n4": "b0079ef4aa84c9f4a65d19686f6524a83811ddefb92b99631c6d2f0706a801ba",
    "reducible-base-n5": "025efd09eafe043eea664b596626a1ad6cf23410d0e4dd24367b2d2b521c56b7",
    "reducible-base-n6": "dcec6062f09f1164271ea23028f6de40e1f05b2ee3d1c8fa872e0b25ee3c13ea",
    "reducible-risk-n4": "ef54eaa5ea2b721b7f73840ef9e133269c95629e76388c54027817bbca24dad6",
    "reducible-risk-n5": "f72fb0f2c1f0d7695ff7a11c398dda9c55150f2760991f58689c8211d7be0912",
    "reducible-risk-n6": "5af1e1ccb9f901413a0344d14ce76010023a832a2584fe098acdbafa256372a9",
}


@pytest.mark.parametrize("case", sorted(TIE_HEAVY_DIGESTS))
def test_tie_heavy_certificates_bytes_unchanged(case):
    certs = find_all_pbe(tie_heavy_games()[case])
    for cert in certs:
        assert type(cert) is PBECertificate
        assert {type(cert.restraint), type(cert.fight), type(cert.posterior), type(cert.messages)} == {tuple}
    payload = json.dumps([c.to_dict() for c in certs])
    assert hashlib.sha256(payload.encode()).hexdigest() == TIE_HEAVY_DIGESTS[case]


def test_find_all_pbe_memory_per_certificate():
    # a certificate is one compact record; the public dataclasses are built
    # only when read
    game = DiscreteGame(
        MechanismSpec(Mechanism.SUNK),
        ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.6, prior=0.75),
        tuple(k * 3 / 10 for k in range(8)),
    )
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        certs = find_all_pbe(game)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(certs) == 4509
    assert retained / len(certs) <= 800, f"{retained / len(certs):.0f} bytes per certificate"


@pytest.mark.parametrize("case", [f"{mech.value}-{variant.value}-n6" for mech in Mechanism for variant in Variant])
def test_find_all_pbe_pays_its_fixed_cost_once(monkeypatch, case):
    # check (b) depends only on an option's restraint bits and fight bit and
    # on the kind of belief (off path, pooled, at either signal): at most
    # 8 x 4 verdicts a game. A message's admitted off-path options depend
    # only on the on-path values (v_R, v_A).
    verdicts, admissions = [], []
    supporting_belief, admit = oracle_module._supporting_belief, oracle_module._admit

    def counted_belief(*args):
        verdicts.append(args)
        return supporting_belief(*args)

    def recorded_admit(options, v_R, v_A):
        admissions.append((options, v_R, v_A))  # keeps options alive, so its id names one message
        return admit(options, v_R, v_A)

    monkeypatch.setattr(oracle_module, "_supporting_belief", counted_belief)
    monkeypatch.setattr(oracle_module, "_admit", recorded_admit)
    assert find_all_pbe(tie_heavy_games()[case])
    assert 0 < len(verdicts) <= 32
    keys = [(id(options), v_R, v_A) for options, v_R, v_A in admissions]
    assert keys and len(set(keys)) == len(keys)


def test_certificate_views_agree_with_record():
    rng = np.random.default_rng(2718)
    for mech in Mechanism:
        for variant in Variant:
            for prior in (1e-12, float(rng.uniform(0.05, 0.95)), 1 - 1e-12):
                c = float(rng.uniform(0.1, 2.0))
                params = ModelParams(
                    c=c,
                    V_D=float(rng.uniform(0.1, 3.0)),
                    V_B=c + float(rng.uniform(0.1, 3.0)),
                    r=float(rng.uniform(0.0, 2.0)),
                    prior=prior,
                )
                n = int(rng.integers(1, 6))
                messages = (0.0, *sorted(float(x) for x in rng.uniform(0.1, 4.0, n - 1)))
                game = DiscreteGame(MechanismSpec(mech, variant), params, messages)
                for cert in find_all_pbe(game):
                    assert cert == is_weak_pbe(game, cert.profile)
                    parsed = StrategyProfile.from_dict(json.loads(json.dumps(cert.to_dict()["profile"])))
                    assert is_weak_pbe(game, parsed) == cert
                    assert cert.to_dict() == {
                        "class": cert.pbe_class.value,
                        "profile": cert.profile.to_dict(),
                        "beliefs": cert.beliefs.to_dict(),
                    }


def near_tie_games() -> list:
    """Games of all 8 specs whose messages lie within TOL of each other, so
    that a type's values at two messages tie by the tie rule without being
    equal."""
    params = (ModelParams(0.5, 1.0, 2.0), ModelParams(0.5, 1.0, 2.0, r=0.5), ModelParams(1.0, 1.0, 2.0, r=0.6, prior=0.75))
    grids = ((0.0, 1e-10), (0.0, TOL / 2), (0.0, 3e-10, 6e-10))
    return [DiscreteGame(spec, p, messages) for spec in SPECS for p in params for messages in grids]


def test_is_weak_pbe_certifies_every_certificate_of_a_near_tie():
    # check (d) holds where a type's own value is at least its best value
    # by the tie rule; the factorized search and the profile check must
    # agree where those values differ by less than TOL
    certified = 0
    for game in near_tie_games():
        for cert in find_all_pbe(game):
            assert is_weak_pbe(game, cert.profile) == cert, game
            certified += 1
    assert certified == 1880


def test_hand_built_certificate_fight_bits_are_read_as_booleans():
    # bool("false") is True: a certificate's dict reads its fight bits as
    # its profile's dict does, so "false" is refused, not written as true
    cert = PBECertificate(1, 1, (True,) * 4, ("false", False), PBEClass.POOLING_ON_RESTRAINT, (0.5, 0.5), (0.0, 1.0))
    with pytest.raises(ParameterError, match=r"profile well-formed \(") as info:
        cert.to_dict()
    assert "'false' is not true or false" in str(info.value)


def test_writers_take_records_whose_bits_are_true_or_false():
    # the certificate writers index a bit's texts by the bit, with no check
    # per bit: they take the records the oracle builds, whose every bit is
    # True or False, and leave a hand-built record to to_dict's rule
    records = []
    for game in digest_games().values():
        certs = find_all_pbe(game)
        records += certs + [is_weak_pbe(game, cert.profile) for cert in certs]
    grid = [(ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=r, prior=0.5), m) for r in (0.3, 0.8) for m in (0.5, 1.2, 2.0)]
    for spec in (TH_RISK, RC_RISK):
        for entry in verify_against_closed_form(spec, grid).entries:
            records += entry.certificates
    assert len(records) > 1000
    assert {type(bit) for cert in records for bit in cert.restraint + cert.fight} == {bool}


def test_certificate_json_matches_one_json_dump():
    # written one certificate at a time, in the layout of one write_json
    head = {"messages": [0.0, 1.0], "counts": {}}
    games = digest_games()
    # two games' certificates in one list, so the per-game layout is rebuilt
    two_games = find_all_pbe(games["sunk-base-n3"])[:3] + find_all_pbe(games["tying-hands-risk-n5"])[:3]
    for certs in ([], *(find_all_pbe(game)[:3] for game in games.values()), two_games):
        written, dumped = io.StringIO(), io.StringIO()
        write_certificates_json(head, certs, written)
        write_json({**head, "certificates": [c.to_dict() for c in certs]}, dumped)
        assert written.getvalue() == dumped.getvalue()


def test_certificate_csv_matches_csv_writer():
    # written from a per-game layout without csv, byte for byte what
    # csv.writer makes of each record
    games = digest_games()
    two_games = find_all_pbe(games["sunk-base-n3"])[:3] + find_all_pbe(games["tying-hands-risk-n5"])[:3]
    # -0.0 == 0.0 is admitted as the null signal, but it prints as -0.0
    signed_zero = find_all_pbe(DiscreteGame(TH_BASE, BASE_PARAMS, (-0.0, 1.0)))
    assert signed_zero
    for certs in ([], *(find_all_pbe(game)[:3] for game in games.values()), two_games, signed_zero):
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["class", "signal_restrained", "signal_aggressive", "fight_after", "t2_actions", "posteriors"])
        for cert in certs:
            m = cert.messages
            cells = itertools.product(("restrained", "aggressive"), m)
            writer.writerow([
                cert.pbe_class.value,
                m[cert.j_R],
                m[cert.j_A],
                ";".join(f"{x}:{('yield', 'fight')[f]}" for x, f in zip(m, cert.fight)),
                ";".join(f"{t}@{x}:{('exploit', 'restraint')[r]}" for (t, x), r in zip(cells, cert.restraint)),
                ";".join(f"{x}:{q}" for x, q in zip(m, cert.posterior)),
            ])
        written = io.StringIO()
        write_certificates_csv(certs, written)
        assert written.getvalue() == expected.getvalue()
        # no field needs quotes: each line reads back as six fields
        rows = list(csv.reader(io.StringIO(written.getvalue())))
        assert len(rows) == len(certs) + 1 and all(len(row) == 6 for row in rows)
        for row, cert in zip(rows[1:], certs):
            assert row[:3] == [cert.pbe_class.value, str(cert.messages[cert.j_R]), str(cert.messages[cert.j_A])]
    assert "-0.0:" in written.getvalue()


def _exact(game: DiscreteGame) -> DiscreteGame:
    """The game over ``Fraction`` parameters and messages. ``DiscreteGame``
    coerces messages to float at its input boundary, so both are swapped in
    by ``_replace``, which builds the tuple without passing that boundary."""
    fields = {k: Fraction(v) for k, v in game.params.to_dict().items()}
    return game._replace(params=ModelParams(**fields), messages=tuple(map(Fraction, game.messages)))


def certificate_shapes(game: DiscreteGame) -> set:
    return {(c.j_R, c.j_A, c.pbe_class, c.restraint, c.fight) for c in find_all_pbe(game)}


def closed_form_verdicts(game: DiscreteGame) -> list:
    reports = [classify(game.spec, game.params, m) for m in game.messages]
    return [
        (r.pooling_on_restraint.holds, r.separating.holds, r.type_shift_refrain and r.type_shift_refrain.holds)
        for r in reports
    ]


def t2_verdicts(game: DiscreteGame) -> list:
    def u_A(t, outcome, m):
        return payoff(game.spec, game.params, t, outcome, m).u_A

    return [
        t2_options(u_A(t, Outcome.EXPLOIT, m), u_A(t, Outcome.RESTRAINT, m))
        for t in (R, A)
        for m in game.messages
    ]


def referee(monkeypatch, verdict, game: DiscreteGame) -> str:
    """``"agree"`` when the float verdict equals the exact one: the same
    code over ``Fraction`` with ``TOL`` an exact rational. ``"exempt"``
    when they differ but the float verdict itself moves as ``TOL`` moves by
    4 ulp of the game's scale. Else ``"disagree"``."""
    got = verdict(game)
    with monkeypatch.context() as patch:
        patch.setattr(game_module, "TOL", Fraction(TOL))
        if verdict(_exact(game)) == got:
            return "agree"
        p = game.params
        step = 4 * math.ulp(max(p.c, p.V_D, p.V_B, p.r, max(game.messages)))
        for tol in (TOL - step, TOL + step):
            patch.setattr(game_module, "TOL", tol)
            if verdict(game) != got:
                return "exempt"
    return "disagree"


def tie_prone_games(rng: random.Random, count: int):
    """Random 2-4 message games cycling through all 8 specs, drawn so that
    ties are common: V_D = c, V_B = 2c, m = V_D, m = V_D + r, p = c/V_B and a
    prior at B's cut 1 - c/V_B."""
    specs = [MechanismSpec(mech, variant) for mech in Mechanism for variant in Variant]
    for k in range(count):
        c = rng.choice([0.25, 0.5, 1.0, rng.uniform(0.1, 2.0)])
        V_D = rng.choice([c, 1.0, rng.uniform(0.1, 3.0)])
        V_B = rng.choice([2 * c, c + rng.uniform(0.1, 3.0)])
        r = rng.choice([0.0, c, 0.5, rng.uniform(0.0, 2.0)])
        p = rng.choice([0.0, c / V_B, rng.uniform(0.0, 1.0)])
        prior = rng.choice([0.5, 0.75, 1 - c / V_B, rng.uniform(0.05, 0.95)])
        pool = sorted({V_D, V_D + r, V_D + c, rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)})
        messages = (0.0, *sorted(rng.sample(pool, rng.randint(1, 3))))
        yield DiscreteGame(specs[k % len(specs)], ModelParams(c, V_D, V_B, r, p, prior), messages)


def test_float_verdicts_match_the_exact_referee(monkeypatch):
    outcomes = collections.Counter()
    for game in tie_prone_games(random.Random(16), 80):
        for verdict in (certificate_shapes, closed_form_verdicts, t2_verdicts):
            outcome = referee(monkeypatch, verdict, game)
            assert outcome != "disagree", (verdict.__name__, game)
            outcomes[outcome] += 1
    assert outcomes["agree"] >= 0.9 * sum(outcomes.values()), outcomes


def test_exact_run_never_touches_a_float_payoff(monkeypatch):
    monkeypatch.setattr(game_module, "TOL", Fraction(TOL))
    for game in map(_exact, tie_prone_games(random.Random(16), 8)):
        table = _GameTable(*game)
        options = [o for j in range(table.n) for found in _local_options(table, j) for o in found]
        payoffs = [
            table.u_b_fight,
            *table.u_b_action,
            *itertools.chain.from_iterable(table.uA_conflict),
            *itertools.chain.from_iterable(itertools.chain.from_iterable(table.uA_t2)),
            # values and tie floors per (t2 bit, fight), and as each option carries them
            *itertools.chain.from_iterable(
                itertools.chain(values, floors)
                for rows in table.option_values
                for by_fight in rows
                for values, floors in by_fight
            ),
            *(x for o in options for x in (o.value_R, o.value_A, o.floor_R, o.floor_A)),
            # check (b) at every kind of belief, the off-path midpoint included
            *(q for beliefs in table.verdicts.values() for q in beliefs if q is not None),
            *(q for cert in find_all_pbe(game) for q in cert.posterior),
        ]
        report = classify(game.spec, game.params, game.messages[-1])
        slacks = [c.slack for r in (report.pooling_on_restraint, report.separating) for c in r.clauses]
        assert {type(x) for x in payoffs + slacks} == {Fraction}, game.spec


def test_rounding_gap_is_visible_to_the_referee(monkeypatch):
    # the prior lies a hair outside B's tie band at one message. Check (b)
    # on path tests B's payoff there by the tie rule, not against a rounded
    # belief cut, so float and exact arithmetic certify the same 63 profiles
    game = DiscreteGame(
        MechanismSpec(Mechanism.SUNK),
        ModelParams(c=1, V_D=0.25, V_B=2, r=0.5, prior=0.5000000005),
        (0, 0.25, 1.75, 2.000000001),
    )
    assert len(find_all_pbe(game)) == 63
    with monkeypatch.context() as patch:
        patch.setattr(game_module, "TOL", Fraction(TOL))
        assert len(find_all_pbe(_exact(game))) == 63
    assert referee(monkeypatch, certificate_shapes, game) == "agree"
