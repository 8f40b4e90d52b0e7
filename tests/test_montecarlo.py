"""Type-drift Monte Carlo tests."""

from __future__ import annotations

import hashlib
import io
import json
import math
import tracemalloc

import pytest

from restraint_games import (
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

    def test_profile_must_cover_grid(self):
        prof = pooling_profile(1.0)  # wrong message set for m=2
        with pytest.raises(ParameterError):
            simulate(config(profile=prof))

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
#: that the per-cell payoff table replaced.
SIMULATE_DIGESTS = {
    "installment-base-best-response-hybrid": "cf3194f08b08af1df194fe7647cab64ec7a7eae5a0d331e7b87c3d896b4793f1",
    "installment-base-literal-p-0": "0017de22b59726af41b2fafa37041d7489a959993caaca125f7fed2f2fe835fd",
    "installment-base-literal-separating": "12018a57c343893c80e8340f730e7768720560e63a5fa23bd87173c7ad298312",
    # recorded with the per-cell table's one-shot n x 2 draw matrix
    "installment-risk-prior-weighted-multi-chunk": "ab5d2110beabbc74764fa04165a2034f299604607578f7623399262eb2bee3b2",
    "installment-risk-prior-weighted-restrained-fought": "2a77cad6c9fcca8ab359f12b749f976f088c835e3f58cf163d5287af6a75592e",
    "reducible-base-best-response-restrained-fought": "2ea8d6818460d660eba5fd999a5c808cd7d5d502f916e749aeda30da62c02a3e",
    "reducible-base-prior-weighted-prior-1": "59bec6fecf91dd1e715df7b97750ae4f070b9218511b76fe3e6e0e60e6b56a65",
    "reducible-risk-literal-m0": "27bc7e3b5dc04400851d47430f1a2f665ded566893a7a7494382c2220c547418",
    "reducible-risk-literal-small-scale": "2984f55d8d65ece61063011cbe3ccc2930e5b69739d783d32985fa95299e1992",
    "sunk-base-best-response-p-1": "c3c6c95cd39d1a391f037af3ba6274086d5b54b77b65c5f980c72e628091d09d",
    "sunk-base-prior-weighted-pooling": "27a0615e4b578a943ec36aa599183dc000a74311e29e700ad29712c8ecb08722",
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
    "tying-hands-risk-literal-inexact-sums": "2839cb69d0fa77e7701202d5774a11524ce456e3c5cc531f0c85ba2d19f2d33a",
}


@pytest.mark.parametrize("case", sorted(SIMULATE_DIGESTS))
def test_simulate_bytes_unchanged(case):
    assert simulation_digest(digest_configs()[case]) == SIMULATE_DIGESTS[case]


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
