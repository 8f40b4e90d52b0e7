"""Type-drift Monte Carlo tests."""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from restraint_games import (
    DiscreteGame,
    DriftMode,
    Mechanism,
    MechanismSpec,
    ModelParams,
    Outcome,
    ParameterError,
    SimConfig,
    StrategyProfile,
    TypeLabel,
    Variant,
    find_all_pbe,
    pooling_profile,
    simulate,
)
from restraint_games import montecarlo

R = TypeLabel.RESTRAINED
A = TypeLabel.AGGRESSIVE
TH_BASE = MechanismSpec(Mechanism.TYING_HANDS)


def config(**overrides) -> SimConfig:
    m = overrides.pop("m", 2.0)
    defaults = dict(
        spec=TH_BASE,
        params=ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.2, prior=0.5),
        m=m,
        profile=pooling_profile(m),
        n_trials=50_000,
        seed=11,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def all_restrained(p: float, prior: float = 1.0) -> ModelParams:
    return ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=p, prior=prior)


class TestSimulate:
    def test_drift_payoff_matches_expectation(self):
        cfg = config(
            params=all_restrained(p=0.2), allow_degenerate_prior=True, n_trials=200_000
        )
        result = simulate(cfg)
        assert abs(result.mean_u_B - (-0.4)) <= 3 * result.standard_error_u_B
        assert result.outcome_counts[Outcome.PREVENTIVE_CONFLICT] == 0

    @pytest.mark.parametrize("mode", list(DriftMode))
    def test_no_drift_is_pure_restraint(self, mode):
        # literal play has natively aggressive types exploit, so "no drift,
        # no exploit" needs every trial restrained up front; best-response
        # play restrains either way because V_D < m
        cfg = config(
            params=all_restrained(p=0.0),
            allow_degenerate_prior=True,
            drift_mode=mode,
        )
        result = simulate(cfg)
        assert result.outcome_counts == {
            Outcome.PREVENTIVE_CONFLICT: 0,
            Outcome.EXPLOIT: 0,
            Outcome.RESTRAINT: cfg.n_trials,
        }
        assert result.mean_u_B == 0.0
        assert result.mean_u_A == 0.0

    def test_no_drift_best_response_restrains_with_mixed_types(self):
        cfg = config(
            params=ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.0, prior=0.5),
            drift_mode=DriftMode.BEST_RESPONSE,
        )
        result = simulate(cfg)
        assert result.outcome_counts[Outcome.RESTRAINT] == cfg.n_trials
        assert result.mean_u_B == 0.0

    def test_best_response_never_exploits_past_threshold(self):
        # V_D - m = -1 < 0: even a drifted aggressive type restrains
        cfg = config(
            params=ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.5, prior=0.5),
            drift_mode=DriftMode.BEST_RESPONSE,
        )
        result = simulate(cfg)
        assert result.outcome_counts[Outcome.EXPLOIT] == 0

    def test_best_response_ties_restrain(self):
        # V_D = m: exploiting ties restraint and the tie goes to restraint
        cfg = config(
            m=1.0,
            params=ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=1.0, prior=0.5),
            drift_mode=DriftMode.BEST_RESPONSE,
        )
        assert simulate(cfg).outcome_counts[Outcome.EXPLOIT] == 0

    def test_best_response_follows_the_oracle_at_the_band_edge(self):
        # the aggressive type's exploit margin V_D - m + r rounds to a hair
        # over TOL: the oracle certifies restraint there, so play restrains
        m = 0.799999999
        spec = MechanismSpec(Mechanism.TYING_HANDS, Variant.RISK)
        params = ModelParams(c=0.5, V_D=0.3, V_B=2.0, r=0.5, p=0.2, prior=0.5)
        certified = find_all_pbe(DiscreteGame(spec, params, (0.0, m)))
        assert any(c.profile.t2_action[(A, m)] is Outcome.RESTRAINT for c in certified)
        cfg = config(
            spec=spec, params=params, m=m, n_trials=1_000, seed=1,
            drift_mode=DriftMode.BEST_RESPONSE,
        )
        assert simulate(cfg).outcome_counts[Outcome.EXPLOIT] == 0

    def test_bitwise_reproducible(self):
        first = simulate(config())
        second = simulate(config())
        assert first.to_dict() == second.to_dict()
        assert simulate(config(seed=12)).to_dict() != first.to_dict()

    def test_counts_sum_to_trials(self):
        result = simulate(config(n_trials=9_999))
        assert sum(result.outcome_counts.values()) == 9_999

    def test_exploit_frequency_tracks_prior_weighted_drift(self):
        cfg = config(n_trials=400_000)
        result = simulate(cfg)
        rate = (1 - cfg.params.prior) + cfg.params.prior * cfg.params.p
        got = result.outcome_counts[Outcome.EXPLOIT] / cfg.n_trials
        se = math.sqrt(rate * (1 - rate) / cfg.n_trials)
        assert abs(got - rate) <= 4 * se

    def test_threshold_sign_flip(self):
        # B's mean payoff crosses -c exactly where drift hits c / V_B = 0.25
        below = simulate(
            config(params=all_restrained(p=0.1), allow_degenerate_prior=True)
        )
        above = simulate(
            config(params=all_restrained(p=0.4), allow_degenerate_prior=True)
        )
        assert below.mean_u_B + 0.5 > 0
        assert above.mean_u_B + 0.5 < 0

    def test_prior_weighted_mode_reports_conditionals(self):
        cfg = config(drift_mode=DriftMode.PRIOR_WEIGHTED, n_trials=200_000)
        result = simulate(cfg)
        by_type = result.mean_u_B_by_initial_type
        assert by_type is not None
        # natively aggressive types always exploit under the literal play
        assert by_type["aggressive"] == pytest.approx(-2.0)
        # the restrained-conditional mean recovers the drift expectation
        assert by_type["restrained"] == pytest.approx(-0.4, abs=0.02)
        assert simulate(config()).mean_u_B_by_initial_type is None

    def test_fought_signal_ends_at_conflict(self):
        m = 2.0
        prof = StrategyProfile(
            signal_of={R: m, A: m},
            fight_after={0.0: False, m: True},
            t2_action={
                (R, 0.0): Outcome.RESTRAINT,
                (A, 0.0): Outcome.EXPLOIT,
                (R, m): Outcome.RESTRAINT,
                (A, m): Outcome.RESTRAINT,
            },
        )
        result = simulate(config(profile=prof, n_trials=1_000))
        assert result.outcome_counts[Outcome.PREVENTIVE_CONFLICT] == 1_000
        assert result.mean_u_B == -0.5
        assert result.standard_error_u_B == 0.0

    def test_trial_log(self):
        buf = io.StringIO()
        result = simulate(config(n_trials=500), trial_log=buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "trial,theta_initial,theta_final,message,fought,outcome,u_A,u_B"
        assert len(lines) == 501
        exploits = sum(1 for line in lines[1:] if line.split(",")[5] == "exploit")
        assert exploits == result.outcome_counts[Outcome.EXPLOIT]


class TestValidation:
    def test_degenerate_prior_needs_override(self):
        with pytest.raises(ParameterError) as exc:
            simulate(config(params=all_restrained(p=0.2)))
        assert exc.value.constraint == "0 < prior < 1"
        simulate(config(params=all_restrained(p=0.2), allow_degenerate_prior=True, n_trials=10))

    def test_trials_positive(self):
        with pytest.raises(ParameterError):
            simulate(config(n_trials=0))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", 1.5),
            ("seed", True),
            ("n_trials", True),
            ("n_trials", 2.5),
            ("n_trials", "x"),
            # int() reads these as 1000 trials and seed 1
            ("n_trials", Fraction(2001, 2)),
            ("n_trials", Decimal("1000.5")),
            ("seed", np.bool_(True)),
            ("seed", Fraction(3, 2)),
            # config() builds its default profile by pooling_profile(m), which
            # takes the signal rule too
            ("m", None),
            pytest.param("m", 10**400, id="m-10**400"),
            ("m", "x"),
            ("m", True),
        ],
    )
    def test_python_numbers_take_the_config_rule(self, field, value):
        # game.integer, as the CLI reads --trials and --seed: seed 1.5 or
        # True would run as seed 1, and n_trials True as one trial
        with pytest.raises(ParameterError):
            simulate(config(**{field: value}))

    def test_python_bool_signal_refused(self):
        # True >= 0: m = True would run ten trials as m = 1.0
        with pytest.raises(ParameterError) as exc:
            simulate(config(m=True, n_trials=10))
        assert exc.value.constraint == "m not a boolean"

    def test_integral_numbers_run_as_their_ints(self):
        assert simulate(config(n_trials=500.0, seed=11.0)) == simulate(config(n_trials=500, seed=11))

    def test_profile_must_cover_grid(self):
        prof = pooling_profile(1.0)  # wrong message set for m=2
        with pytest.raises(ParameterError):
            simulate(config(profile=prof))

    @pytest.mark.parametrize(
        "fight_after",
        [
            {0.0: "true", 2.0: "false"},
            {0.0: 1, 2.0: 0},
            {0.0: True, 2.0: None},
            {0.0: np.bool_(True), 2.0: np.bool_(False)},
        ],
        ids=["text", "int", "none", "numpy-bool"],
    )
    def test_fight_bits_are_true_or_false(self, fight_after):
        # bool("false") is True: these bits would play B fighting after m
        # (1 000 conflicts) or standing down after it, without a word
        cfg = config(params=ModelParams(c=0.5, V_D=1.0, V_B=2.0, p=0.3, prior=0.5), n_trials=1_000, seed=1)
        assert simulate(cfg).outcome_counts[Outcome.PREVENTIVE_CONFLICT] == 0
        prof = StrategyProfile(cfg.profile.signal_of, fight_after, cfg.profile.t2_action)
        with pytest.raises(ParameterError) as exc:
            simulate(config(params=cfg.params, profile=prof, n_trials=1_000, seed=1))
        assert exc.value.constraint == "profile well-formed (signal_of, fight_after, t2_action)"

    def test_profile_needs_no_t2_actions(self):
        # the drift mode decides every t2 action; the profile's are not read
        default = pooling_profile(2.0)
        bare = StrategyProfile(default.signal_of, default.fight_after, {})
        for mode in DriftMode:
            assert simulate(config(profile=bare, drift_mode=mode, n_trials=500)) == simulate(
                config(drift_mode=mode, n_trials=500)
            )

    def test_single_trial_has_zero_se(self):
        result = simulate(config(n_trials=1))
        assert result.standard_error_u_B == 0.0


def grid_profile(m: float, signal_R: float, signal_A: float, fought=()) -> StrategyProfile:
    """A profile on {0, m} with the given signals, fighting exactly `fought`."""
    messages = (0.0,) if m == 0 else (0.0, m)
    return StrategyProfile(
        signal_of={R: signal_R, A: signal_A},
        fight_after={msg: msg in fought for msg in messages},
        t2_action={(t, msg): Outcome.RESTRAINT for t in TypeLabel for msg in messages},
    )


def digest_configs() -> dict[str, SimConfig]:
    def case(mech, variant="base", m=1.5, profile=None, n_trials=2_000, seed=5, mode="literal", **params):
        values = dict(c=0.5, V_D=1.0, V_B=2.0, r=0.6, p=0.2, prior=0.5)
        values.update(params)
        return SimConfig(
            spec=MechanismSpec(Mechanism(mech), Variant(variant)),
            params=ModelParams(**values),
            m=m,
            profile=pooling_profile(m) if profile is None else profile,
            n_trials=n_trials,
            seed=seed,
            drift_mode=DriftMode(mode),
            allow_degenerate_prior=values["prior"] in (0.0, 1.0),
        )

    separating = grid_profile(1.2, 1.2, 0.0, fought={0.0})
    restrained_fought = grid_profile(1.2, 1.2, 0.0, fought={1.2})
    return {
        "tying-hands-base-literal-pooling": case("tying-hands", m=2.0, n_trials=20_000, seed=11),
        "tying-hands-risk-best-response-pooling": case(
            "tying-hands", "risk", m=0.5, mode="best-response", p=0.3, seed=1
        ),
        "tying-hands-base-best-response-tie": case(
            "tying-hands", m=1.0, mode="best-response", p=1.0, seed=2
        ),
        "sunk-base-prior-weighted-pooling": case(
            "sunk", mode="prior-weighted", p=0.5, prior=0.3, seed=3
        ),
        "sunk-risk-best-response-separating": case(
            "sunk", "risk", m=1.2, profile=separating, mode="best-response", r=0.4, p=0.4, seed=4
        ),
        "installment-base-literal-separating": case(
            "installment", m=1.2, profile=separating, seed=6
        ),
        "installment-risk-prior-weighted-restrained-fought": case(
            "installment", "risk", m=1.2, profile=restrained_fought, mode="prior-weighted", r=0.5, seed=7
        ),
        "installment-base-best-response-hybrid": case(
            "installment", m=0.7, profile=grid_profile(0.7, 0.0, 0.7), mode="best-response", p=0.6, seed=8
        ),
        "reducible-base-best-response-restrained-fought": case(
            "reducible", m=1.2, profile=restrained_fought, mode="best-response", seed=9
        ),
        "reducible-risk-literal-m0": case("reducible", "risk", m=0.0, p=0.25, seed=10),
        "tying-hands-base-best-response-m0": case("tying-hands", m=0.0, mode="best-response", seed=12),
        "sunk-base-prior-weighted-prior-0": case("sunk", mode="prior-weighted", prior=0.0, seed=13),
        "reducible-base-prior-weighted-prior-1": case(
            "reducible", mode="prior-weighted", prior=1.0, seed=14
        ),
        "tying-hands-risk-best-response-prior-1": case(
            "tying-hands", "risk", m=0.5, mode="best-response", prior=1.0, p=0.5, seed=15
        ),
        "installment-base-literal-p-0": case("installment", p=0.0, seed=16),
        "tying-hands-base-literal-p-1": case("tying-hands", p=1.0, prior=0.8, seed=17),
        "sunk-base-best-response-p-1": case("sunk", m=0.5, mode="best-response", p=1.0, seed=18),
        "tying-hands-base-literal-one-trial": case("tying-hands", n_trials=1, seed=19),
        "sunk-risk-prior-weighted-one-trial": case("sunk", "risk", mode="prior-weighted", n_trials=1, seed=20),
        "reducible-risk-literal-small-scale": case(
            "reducible", "risk", m=3e-8, c=5e-8, V_D=1e-7, V_B=2e-7, r=7e-8, p=0.4, seed=21
        ),
        "sunk-risk-best-response-large-scale": case(
            "sunk", "risk", m=2e16, c=5e9, V_D=3e16, V_B=1e17, r=0.1, p=0.5, mode="best-response", seed=22
        ),
        "tying-hands-risk-literal-inexact-sums": case(
            "tying-hands", "risk", m=0.1, c=3.7, V_D=12.3, V_B=45.1, r=0.3, p=0.35, seed=23
        ),
        "installment-risk-prior-weighted-multi-chunk": case(
            "installment", "risk", m=0.9, mode="prior-weighted", p=0.3, prior=0.6, n_trials=200_003, seed=24
        ),
    }


def simulation_digest(cfg: SimConfig) -> str:
    log = io.StringIO()
    result = simulate(cfg, trial_log=log)
    payload = json.dumps(result.to_dict()) + "\n" + log.getvalue()
    return hashlib.sha256(payload.encode()).hexdigest()


#: sha256 of ``json.dumps(result.to_dict())``, a newline and the trial log
#: per pinned config, recorded with the mask-per-outcome implementation
#: that the per-cell payoff table replaced. Nine were re-recorded when the
#: means and standard error became exact sums over the cell counts, rounded
#: once: in each, one or two of them moved 1-2 ulp to the correctly rounded
#: value, and the outcome counts and trial log kept their bytes.
SIMULATE_DIGESTS = {
    "installment-base-best-response-hybrid": "36fcad36338c20eb25f1f8eedc7b5d5507b65fd99f3fd3b7d248f4e904eab523",
    "installment-base-literal-p-0": "15ac1c861421905efe5fbcfa1691d6a3656a4c2a1d910e07adf8ea5d9ea743bf",
    "installment-base-literal-separating": "7fb75b675c1a715009a17f322015956dba712b739d8d6b2012da8fde1e3859d4",
    # recorded with the per-cell table's one-shot n x 2 draw matrix
    "installment-risk-prior-weighted-multi-chunk": "90a2016ae3c97fb310cfd04038a23eee4920165224d99996bb0b4fa0002ecc81",
    "installment-risk-prior-weighted-restrained-fought": "2a77cad6c9fcca8ab359f12b749f976f088c835e3f58cf163d5287af6a75592e",
    "reducible-base-best-response-restrained-fought": "f45ca83427840df9cbd9d470ec2d388ffb5e1b8308150737d070edbe78bb8d80",
    "reducible-base-prior-weighted-prior-1": "51ca583e3e202a7f7c88f57597ca02031fda38386080a47f65240aabf6a4c4d9",
    "reducible-risk-literal-m0": "27bc7e3b5dc04400851d47430f1a2f665ded566893a7a7494382c2220c547418",
    "reducible-risk-literal-small-scale": "b2660c24d19b7e175c1a30f4eabaf77646493e01d2c6f8ee12b96c18a94e0374",
    "sunk-base-best-response-p-1": "c3c6c95cd39d1a391f037af3ba6274086d5b54b77b65c5f980c72e628091d09d",
    "sunk-base-prior-weighted-pooling": "2a97387c50b9bc2faefe37f5cf67f5e90c9d9bad903a6631a323d7e8d3b44519",
    "sunk-base-prior-weighted-prior-0": "779fe6a855b705022577426d85a81017be2ae9ac3eb9ba5e92665dcb97393ddd",
    "sunk-risk-best-response-large-scale": "671ec5a00b8a2d748f1edee6cb83830bc1b2664e01720309f8cd7e14786cc699",
    "sunk-risk-best-response-separating": "abac33c0c08bd8e932046a713a3bcbe4f1043a76b821a27a87ac475d1e8ad167",
    "sunk-risk-prior-weighted-one-trial": "cf212b648af95277e784d0e4efea35e4ddc996c5e277575b22d613a6d8ef0186",
    "tying-hands-base-best-response-m0": "6abefce26a68b6be67cb0b5223c6842e8c513e41971b9129c72ab8f5ca8f6116",
    "tying-hands-base-best-response-tie": "63aaf546f1fa95831055e58fcc8bf295c5df6fd068f3df4df5a63ab6f7904356",
    "tying-hands-base-literal-one-trial": "05e05c89dfcde6806676a6c7b968d97be68499517526176f432a5d3077cf745a",
    "tying-hands-base-literal-p-1": "78003b69618d3c9d9145a35ee05fb19d6f579612746a9d2ce0f13b6d1e66ee84",
    "tying-hands-base-literal-pooling": "9f3557e8049aa72d30add18a958ddcf1c1df19eacd5aa8a47331be7dffb0afe2",
    "tying-hands-risk-best-response-pooling": "e7b0761e1b00869ff7d4ba9ae629e93d60058a3c761447c3761322fc678a9b27",
    "tying-hands-risk-best-response-prior-1": "75228a7ea64f179991a0cdd273571019859bc4cc991ae2e7a402c407838d3203",
    "tying-hands-risk-literal-inexact-sums": "3a798df64839b902c44c83c6d163c433e9864ba8e015d93a4d836e1443306708",
}


@pytest.mark.parametrize("case", sorted(SIMULATE_DIGESTS))
def test_simulate_bytes_unchanged(case):
    assert simulation_digest(digest_configs()[case]) == SIMULATE_DIGESTS[case]


def structure_digest(cfg: SimConfig) -> str:
    """sha256 of what no rounding of the summaries can move: the outcome
    counts, which conditional means exist, and the trial log."""
    log = io.StringIO()
    result = simulate(cfg, trial_log=log)
    by_type = result.mean_u_B_by_initial_type
    shape = {
        "outcome_counts": result.to_dict()["outcome_counts"],
        "missing_by_initial_type": None if by_type is None else {k: v is None for k, v in by_type.items()},
    }
    payload = json.dumps(shape) + "\n" + log.getvalue()
    return hashlib.sha256(payload.encode()).hexdigest()


#: ``structure_digest`` per pinned config, recorded with the summaries
#: taken by numpy's pairwise summation over per-trial payoff arrays.
STRUCTURE_DIGESTS = {
    "installment-base-best-response-hybrid": "52e5bbc213cd1aa002569238091ca92d7ad60ed680969c49cab2808b5deb32ca",
    "installment-base-literal-p-0": "527fb94fc1997ab2b7bf4a7745f368f176899476b4701832386d238edde27726",
    "installment-base-literal-separating": "0cb9627b7d7c0894eef7e37db104cef9c077a849ecc03d5f366be3c59e6472c6",
    "installment-risk-prior-weighted-multi-chunk": "1d7c670020f4a4a7e378025b98cf993ff932f26499d95fee071058dc49c3830c",
    "installment-risk-prior-weighted-restrained-fought": "0a9adc31b9bf95725e0cf04255503d8083524e46e46f8d44718dc020f11fc299",
    "reducible-base-best-response-restrained-fought": "6fad5d20aadea56d54b60a04dafe413c0c204b65d992fae268623ca87840bef1",
    "reducible-base-prior-weighted-prior-1": "7e52f4cc111d289b621aca91c54cfab886ab82b4fe3c9f1240df141e532016b9",
    "reducible-risk-literal-m0": "a9671a5f1da7a782fd05bfed9f644e031d30070990a16bafb975d3cda49b61e8",
    "reducible-risk-literal-small-scale": "c893f831547a24107c6522f1180fe7a3d241a070d6bc2dbede4cb98841b1b3c4",
    "sunk-base-best-response-p-1": "692b04a6639c395683b850a61c5a4b4718f522eb791715d7a3948ac0e5d8cab7",
    "sunk-base-prior-weighted-pooling": "d3ad9f48098bd4759bf9e1c1d73aab01257b6ef90507c48474d6e4099b52fdd0",
    "sunk-base-prior-weighted-prior-0": "4c5b6ce44e3b40f157f6e005c6a3e71b840244435a0c16b439601e3896d4f0a8",
    "sunk-risk-best-response-large-scale": "a0056b8a711a0b8fae6b19044adc56146679f9bce5edbb5e8118ae69c9629fa1",
    "sunk-risk-best-response-separating": "9680661f7a9b89f4c0c02157c743389ee675ded62483bdd05e8cc75c38e44555",
    "sunk-risk-prior-weighted-one-trial": "6a791f0d8954a3a3d3eba842c3da694571d8fd4a8e51287eb3501004c9a6b5d5",
    "tying-hands-base-best-response-m0": "5d649a5dd443a2869b56b0ddd36922d818e8321e584a55176204203022d12e11",
    "tying-hands-base-best-response-tie": "f2b87ca776420ae166e69a77edb9b89368a7c95f9404f5686558d5de18f59589",
    "tying-hands-base-literal-one-trial": "00c6082ef11c9961006795d721bd35f9fc55262d969170925affdddbee30816a",
    "tying-hands-base-literal-p-1": "5c59595093317a139920f6ffa511dbd5e6817d2e3def155f2edc38e36e40fca7",
    "tying-hands-base-literal-pooling": "db0c8d8456b682437a472f4e547bce2559f85ac329d8d2001fb023fc614dfbf4",
    "tying-hands-risk-best-response-pooling": "349d26fed872c52fc277697247d4cad0328dd65f4a91ad42fbbe8a3399631c93",
    "tying-hands-risk-best-response-prior-1": "b07b84467e387dd1cf02e2bbc78e107dfe51a58a204a4358953e8503c6aa4175",
    "tying-hands-risk-literal-inexact-sums": "99547cf95dd719a87832cbdafffc8562215fdb9eeef0e66d55f91424e6171b97",
}


@pytest.mark.parametrize("case", sorted(STRUCTURE_DIGESTS))
def test_simulate_structure_unchanged(case):
    assert structure_digest(digest_configs()[case]) == STRUCTURE_DIGESTS[case]


def exact_mean(cells: Counter) -> Fraction:
    return sum(count * Fraction(u) for u, count in cells.items()) / sum(cells.values())


@pytest.mark.parametrize("case", sorted(SIMULATE_DIGESTS))
def test_summaries_are_exact(case):
    # every trial of one (initial, final) type cell has the same payoffs, so
    # the exact means and standard error follow from the cell counts in the log
    log = io.StringIO()
    result = simulate(digest_configs()[case], trial_log=log)
    trials = [line.split(",") for line in log.getvalue().splitlines()[1:]]
    # (theta_initial, theta_final, u_A, u_B) per cell, with its count
    cells = Counter((t[1], t[2], float(t[6]), float(t[7])) for t in trials)
    u_A = Counter()
    u_B = {"": Counter(), "0": Counter(), "1": Counter()}
    for (initial, _, a, b), count in cells.items():
        u_A[a] += count
        for key in ("", initial):
            u_B[key][b] += count
    n = len(trials)
    mean_u_B = exact_mean(u_B[""])
    square_sum = sum(count * (Fraction(b) - mean_u_B) ** 2 for b, count in u_B[""].items())
    exact = {
        "mean_u_A": float(exact_mean(u_A)),
        "mean_u_B": float(mean_u_B),
        "standard_error_u_B": math.sqrt(square_sum / (n - 1)) / math.sqrt(n) if n > 1 else 0.0,
    }
    u_b = np.array([float(t[7]) for t in trials])
    pairwise = {
        "mean_u_A": np.array([float(t[6]) for t in trials]).mean(),
        "mean_u_B": u_b.mean(),
        "standard_error_u_B": u_b.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0,
    }
    if result.mean_u_B_by_initial_type is not None:
        for name, key in (("restrained", "0"), ("aggressive", "1")):
            exact[name] = float(exact_mean(u_B[key])) if u_B[key] else None
            picked = [float(t[7]) for t in trials if t[1] == key]
            pairwise[name] = np.array(picked).mean() if picked else None
    got = {**result.to_dict(), **(result.mean_u_B_by_initial_type or {})}
    for name, value in exact.items():
        assert got[name] == value, name
        if value is not None:
            assert abs(pairwise[name] - value) <= 4 * math.ulp(value), name


@pytest.mark.parametrize("exponent", [700, -700])
def test_standard_error_scales_exactly(exponent):
    # payoffs scaled by a power of two scale every summary by it exactly,
    # though the variance itself overflows or underflows a float here
    def run(scale):
        params = ModelParams(c=0.5 * scale, V_D=1.0 * scale, V_B=2.0 * scale, p=0.2, prior=0.5)
        return simulate(config(m=2.0 * scale, params=params, drift_mode=DriftMode.PRIOR_WEIGHTED))

    base, scaled = run(1.0), run(2.0**exponent)
    assert scaled.outcome_counts == base.outcome_counts
    assert scaled.standard_error_u_B == math.ldexp(base.standard_error_u_B, exponent)
    assert scaled.mean_u_B == math.ldexp(base.mean_u_B, exponent)
    assert scaled.mean_u_A == math.ldexp(base.mean_u_A, exponent)


@pytest.mark.parametrize("mode", list(DriftMode))
def test_simulate_memory_is_flat(mode):
    # the summaries come from three cell counts, so memory is one chunk's
    cfg = config(drift_mode=mode, n_trials=4 * 10**6)
    tracemalloc.start()
    try:
        simulate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("mode", list(DriftMode))
def test_simulate_memory_per_trial(mode):
    n = 10**6
    cfg = config(drift_mode=mode, n_trials=n)
    tracemalloc.start()
    try:
        simulate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n <= 20, f"{peak / n:.1f} bytes per trial"


@pytest.mark.parametrize("chunk", [1, 3, 7, montecarlo._CHUNK])
def test_chunking_is_invisible(chunk, monkeypatch):
    # consecutive draws continue one Philox stream, so any chunk size plays
    # trial i from row i and gives the same results and trial log
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    configs = digest_configs()
    for case in (
        "tying-hands-base-literal-one-trial",
        "sunk-base-prior-weighted-pooling",
        "installment-base-best-response-hybrid",
        "sunk-base-prior-weighted-prior-0",
        "tying-hands-base-literal-p-1",
    ):
        assert simulation_digest(configs[case]) == SIMULATE_DIGESTS[case], case


@pytest.mark.parametrize("counter", [0, 1, 2, 7, 1_000])
def test_philox_counter_continues_the_stream(counter):
    # simulate starts a segment at row lo from counter lo // 2: a Philox
    # block is four 64-bit words, and a row of two doubles reads two
    key = 0x5EED_1234_5678_9ABC_DEF0_1122_3344_5566
    stream = np.random.Philox(key=key).random_raw(4 * counter + 9)
    assert np.array_equal(np.random.Philox(key=key, counter=counter).random_raw(9), stream[4 * counter:])


def one_stream(cfg: SimConfig) -> dict:
    """The result of the one-stream path that a trial log forces."""
    return simulate(cfg, trial_log=io.StringIO()).to_dict()


def segment_cases() -> dict[str, SimConfig]:
    cases = digest_configs()
    shape = cases["sunk-base-prior-weighted-pooling"]
    for n in (2, 3, 5, 6, 13, 64):  # odd n, and n below twice the segment count
        cases[f"sunk-base-prior-weighted-n-{n}"] = replace(shape, n_trials=n, seed=100 + n)
    return cases


@pytest.fixture(scope="module")
def one_stream_results() -> dict[str, dict]:
    return {name: one_stream(cfg) for name, cfg in segment_cases().items()}


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_segments_are_invisible(workers, chunk, one_stream_results, monkeypatch):
    # without a trial log the rows are cut into counter-offset segments, one
    # thread each; every result must equal the one-stream run's
    monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    played = []
    count_cells = montecarlo._cell_counts

    def recorded(seed, lo, hi, rows_per_chunk, *args):
        played.append((lo, hi, rows_per_chunk))
        return count_cells(seed, lo, hi, rows_per_chunk, *args)

    monkeypatch.setattr(montecarlo, "_cell_counts", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # threads switch often, so a lost count would show
    try:
        for name, cfg in segment_cases().items():
            if chunk < 64:  # a one-row chunk costs a pass of the Python loop
                cfg = replace(cfg, n_trials=min(cfg.n_trials, 301))
                expected = one_stream(cfg)
            else:
                expected = one_stream_results[name]
            played.clear()
            assert simulate(cfg).to_dict() == expected, name
            n, segments = cfg.n_trials, len(played)
            played.sort()  # the threads finish in any order
            assert segments == max(1, min(workers, n // chunk)), name
            assert [lo for lo, _, _ in played[1:]] == [hi for _, hi, _ in played[:-1]], name
            assert (played[0][0], played[-1][1]) == (0, n), name
            assert all(lo % 2 == 0 and size == max(1, chunk // segments) for lo, _, size in played), name
    finally:
        sys.setswitchinterval(interval)


def test_failing_segment_fails_the_run_once(monkeypatch, capfd):
    # the second of three segments raises while the third still draws: the
    # caller re-raises that exception once all are joined, and no thread
    # reports it
    monkeypatch.setattr(montecarlo, "_workers", lambda: 3)
    monkeypatch.setattr(montecarlo, "_CHUNK", 1_000)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    failure = MemoryError("segment 2")
    last_done = threading.Event()
    count_cells = montecarlo._cell_counts

    def second_fails(seed, lo, hi, *args):
        if 0 < lo and hi < 10_000:
            raise failure
        if lo > 0:
            time.sleep(0.2)
        counts = count_cells(seed, lo, hi, *args)
        if lo > 0:
            last_done.set()
        return counts

    monkeypatch.setattr(montecarlo, "_cell_counts", second_fails)
    before = threading.active_count()
    with pytest.raises(MemoryError) as exc:
        simulate(config(n_trials=10_000))
    assert exc.value is failure
    assert last_done.is_set()
    assert threading.active_count() == before
    assert hooked == [] and capfd.readouterr().err == ""
