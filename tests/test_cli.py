"""Command-line interface tests: exit codes, formats, config round-trips."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from restraint_games.cli import main
from restraint_games.sweep import CSV_HEADER, Axis

GRID_CONFIG = {
    "mechanism": {"mechanism": "tying-hands", "variant": "base"},
    "axes": [
        {"symbol": "V_D", "min": 0.5, "max": 2.0, "steps": 4},
        {"symbol": "m", "min": 0.5, "max": 2.0, "steps": 4},
    ],
    "fixed": {"c": 0.5, "V_B": 2.0, "r": 0.0, "p": 0.0, "prior": 0.5},
}


RISK_GRID_CONFIG = {
    "mechanism": {"mechanism": "tying-hands", "variant": "risk"},
    "axes": [{"symbol": "m", "min": 1.1, "max": 1.4, "steps": 2}],
    "fixed": {"c": 0.5, "V_D": 1.0, "V_B": 2.0, "r": 0.8, "p": 0.0, "prior": 0.5},
}

#: Drift on (p > 0) and a c = 2.4 > V_B strip of Invalid rows, so its table
#: has empty cells and type-shift slacks.
DRIFT_GRID_CONFIG = {
    "mechanism": {"mechanism": "tying-hands", "variant": "base"},
    "axes": [
        {"symbol": "c", "min": 0.1, "max": 2.4, "steps": 5},
        {"symbol": "m", "min": 0.0, "max": 3.0, "steps": 4},
    ],
    "fixed": {"V_D": 1.0, "V_B": 2.0, "r": 0.6, "p": 0.2, "prior": 0.5},
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_json_report(self, capsys):
        code, out, err = run(
            "classify --mechanism tying-hands --variant base "
            "--c 0.5 --vd 1 --vb 2 --m 2 --format json".split(),
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["pooling_on_restraint"]["holds"] is True
        assert report["separating"]["holds"] is False

    def test_validation_error_names_constraint(self, capsys):
        code, out, err = run(
            "classify --mechanism tying-hands --c 0.5 --vd 1 --vb 0.4 --m 2".split(),
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: validation:")
        assert "V_B > c" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_flag_is_validation_error(self, capsys):
        code, _, err = run("classify --c 0.5 --vd 1 --vb 2 --m 2".split(), capsys)
        assert code == 1 and "--mechanism required" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            "classify --mechanism reducible --variant risk "
            "--c 0.5 --vd 1 --vb 2 --r 0.6 --m 2 --format csv".split(),
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1].split(",")[9] == "Both"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            f"classify --mechanism sunk --c 0.5 --vd 1 --vb 2 --m 2 -o {target}".split(),
            capsys,
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["pooling_on_restraint"]["holds"] is False


class TestSweep:
    def test_sweep_example(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(GRID_CONFIG))
        out_csv = tmp_path / "regions.csv"
        code, _, _ = run(
            f"sweep --config {config} --oracle-fraction 0.05 --seed 42 -o {out_csv}".split(),
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 17  # header + 4*4 points

    def test_sweep_json_format(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(GRID_CONFIG))
        code, out, _ = run(
            f"sweep --config {config} --oracle-fraction 0 --format json".split(), capsys
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 16 and list(rows[0].keys()) == CSV_HEADER

    def test_discrepancy_exit_code(self, tmp_path, capsys):
        # risk-variant pooling diverges from the closed form at r > c
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(RISK_GRID_CONFIG))
        code, out, err = run(
            f"sweep --config {config} --oracle-fraction 1.0 --seed 1".split(), capsys
        )
        assert code == 2
        assert err.startswith("error: discrepancy:")
        assert len(err.strip().splitlines()) == 1

    def test_size_guard_exit_code(self, tmp_path, capsys, monkeypatch):
        # 1001 x 1000 points: refused before any axis value is computed
        monkeypatch.setattr(Axis, "values", lambda axis: pytest.fail("grid points were built"))
        config = tmp_path / "grid.json"
        axes = [dict(GRID_CONFIG["axes"][0], steps=1001), dict(GRID_CONFIG["axes"][1], steps=1000)]
        config.write_text(json.dumps(dict(GRID_CONFIG, axes=axes)))
        code, out, err = run(f"sweep --config {config} --oracle-fraction 0".split(), capsys)
        assert (code, out) == (3, "")
        assert err == "error: size-guard: grid point count 1001000 exceeds budget 1000000\n"

    def test_sweep_requires_grid(self, capsys):
        code, _, err = run("sweep --oracle-fraction 0".split(), capsys)
        assert code == 1 and "grid" in err

    def test_sweep_dump_config_round_trip(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(GRID_CONFIG))
        dump1, dump2 = tmp_path / "run1.json", tmp_path / "run2.json"
        code, _, _ = run(
            f"sweep --config {config} --oracle-fraction 0.1 --seed 9 "
            f"--dump-config {dump1}".split(),
            capsys,
        )
        assert code == 0
        code, _, _ = run(
            ["sweep", "--config", str(dump1), "--dump-config", str(dump2)], capsys
        )
        assert code == 0
        assert json.loads(dump1.read_text()) == json.loads(dump2.read_text())


class TestOracle:
    def test_json_certificates(self, capsys):
        code, out, _ = run(
            "oracle --mechanism tying-hands --variant risk "
            "--c 0.5 --vd 1 --vb 2 --r 0.6 --messages 0,1.5".split(),
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"].get("Separating", 0) >= 1
        sep = [c for c in payload["certificates"] if c["class"] == "Separating"]
        assert sep[0]["profile"]["signal_of"] == {"restrained": 1.5, "aggressive": 0.0}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writers_get_the_oracle_records(self, fmt, capsys, monkeypatch):
        # the certificate writers take only records find_all_pbe built: the
        # CLI hands them its list itself
        from restraint_games import cli, oracle

        built, written = [], []

        def spy_on(module, name, seen, pick):
            call = getattr(module, name)

            def spy(*args):
                result = call(*args)
                seen.append(pick(args, result))
                return result

            monkeypatch.setattr(module, name, spy)

        spy_on(oracle, "find_all_pbe", built, lambda args, certs: certs)
        for name in ("write_certificates_csv", "write_certificates_json"):
            spy_on(cli, name, written, lambda args, _: args[-2])  # the certs, before ``out``
        argv = f"oracle --mechanism sunk --c 0.5 --vd 1 --vb 2 --r 0.6 --messages 0,0.5,1.5 --format {fmt}"
        code, _, _ = run(argv.split(), capsys)
        assert code == 0 and len(built) == len(written) == 1 and written[0] is built[0] and built[0]

    def test_size_guard_exit_code(self, capsys):
        messages = ",".join(str(float(i)) for i in range(18))
        code, _, err = run(
            f"oracle --mechanism sunk --c 0.5 --vd 1 --vb 2 --messages {messages}".split(),
            capsys,
        )
        assert code == 3
        assert err.startswith("error: size-guard:")

    def test_bad_messages(self, capsys):
        code, _, err = run(
            "oracle --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --messages 1,2".split(),
            capsys,
        )
        assert code == 1 and "messages contain 0" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            "oracle --mechanism tying-hands --c 0.5 --vd 1 --vb 2 "
            "--messages 0,2 --format csv".split(),
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("class,signal_restrained")
        assert any("PoolingOnRestraint" in line for line in lines[1:])


class TestSimulate:
    def test_defaults_to_pooling_profile(self, capsys):
        code, out, _ = run(
            "simulate --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --m 2 "
            "--p 0.2 --trials 20000 --seed 3".split(),
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert sum(result["outcome_counts"].values()) == 20000
        assert result["outcome_counts"]["conflict"] == 0

    def test_largest_philox_key_runs(self, capsys):
        # the seed keys Philox, which takes keys below 2**128
        argv = f"simulate --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --m 2 --trials 10 --seed {2**128 - 1}"
        code, out, _ = run(argv.split(), capsys)
        assert code == 0
        assert sum(json.loads(out)["outcome_counts"].values()) == 10

    def test_degenerate_prior_flag(self, capsys):
        argv = (
            "simulate --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --m 2 "
            "--p 0.2 --prior 1 --trials 50000 --seed 3"
        ).split()
        code, _, err = run(argv, capsys)
        assert code == 1 and "prior" in err
        code, out, _ = run(argv + ["--allow-degenerate-prior"], capsys)
        assert code == 0
        assert json.loads(out)["mean_u_B"] == pytest.approx(-0.4, abs=0.03)

    def test_dump_trials(self, tmp_path, capsys):
        log = tmp_path / "trials.csv"
        argv = (
            f"simulate --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --m 2 "
            f"--trials 100 --seed 3 --dump-trials {log}"
        ).split()
        code, _, _ = run(argv, capsys)
        assert code == 0
        written = log.read_text()
        lines = written.splitlines()
        assert lines[0] == "trial,theta_initial,theta_final,message,fought,outcome,u_A,u_B"
        assert len(lines) == 101
        # the dumped config keeps the trial log, and replaying it writes the log again
        dump = tmp_path / "run.json"
        code, _, _ = run(argv + ["--dump-config", str(dump)], capsys)
        assert code == 0
        dumped = json.loads(dump.read_text())
        assert list(dumped) == [
            "command", "mechanism", "params", "m", "profile", "drift_mode", "n_trials",
            "seed", "allow_degenerate_prior", "dump_trials", "output", "format",
        ]
        assert dumped["dump_trials"] == str(log)
        log.unlink()
        code, _, _ = run(["simulate", "--config", str(dump)], capsys)
        assert code == 0 and log.read_text() == written

    def test_csv_summary(self, capsys):
        code, out, _ = run(
            "simulate --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --m 2 "
            "--trials 1000 --seed 3 --format csv".split(),
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("conflict,exploit,restraint,mean_u_A")
        assert len(lines) == 2


class TestConfigHandling:
    def test_dump_config_round_trip(self, tmp_path, capsys):
        dump1 = tmp_path / "run1.json"
        dump2 = tmp_path / "run2.json"
        base = (
            "classify --mechanism tying-hands --variant risk "
            "--c 0.5 --vd 1 --vb 2 --r 0.7 --m 2 --format json"
        ).split()
        code, _, _ = run(base + ["--dump-config", str(dump1)], capsys)
        assert code == 0
        code, _, _ = run(
            ["classify", "--config", str(dump1), "--dump-config", str(dump2)], capsys
        )
        assert code == 0
        assert json.loads(dump1.read_text()) == json.loads(dump2.read_text())
        # and the reloaded run produces the same report as the flag run
        code, out_flags, _ = run(base, capsys)
        code2, out_config, _ = run(["classify", "--config", str(dump1)], capsys)
        assert (code, code2) == (0, 0) and out_flags == out_config
        # the output target is part of the run and replays with it
        target, dump3 = tmp_path / "report.json", tmp_path / "run3.json"
        code, _, _ = run(base + ["-o", str(target), "--dump-config", str(dump3)], capsys)
        assert code == 0 and not target.exists()
        code, out, _ = run(["classify", "--config", str(dump3)], capsys)
        assert code == 0 and out == ""
        assert target.read_text() == out_flags

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        run(
            (
                "classify --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --m 0.5 "
                f"--dump-config {cfg}"
            ).split(),
            capsys,
        )
        code, out, _ = run(["classify", "--config", str(cfg), "--m", "2"], capsys)
        assert code == 0
        assert json.loads(out)["pooling_on_restraint"]["holds"] is True

    def test_config_command_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        run(
            f"classify --mechanism sunk --c 0.5 --vd 1 --vb 2 --m 1 --dump-config {cfg}".split(),
            capsys,
        )
        code, _, err = run(["oracle", "--config", str(cfg)], capsys)
        assert code == 1 and "config command" in err

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(["classify", "--nonsense"], capsys)
        assert code == 1 and err.startswith("error: validation:")


POINT = {
    "mechanism": {"mechanism": "tying-hands", "variant": "base"},
    "params": {"c": 0.5, "V_D": 1.0, "V_B": 2.0},
    "m": 2.0,
}
PROFILE = {
    "signal_of": {"restrained": 2.0, "aggressive": 2.0},
    "fight_after": [[0.0, True], [2.0, False]],
    "t2_action": [[t, m, "restraint"] for t in ("restrained", "aggressive") for m in (0.0, 2.0)],
}
AXIS_WITHOUT_STEPS = dict(GRID_CONFIG, axes=[{"symbol": "m", "min": 0.5, "max": 2.0}])
MALFORMED = {
    "config-c-not-a-number": (
        "classify", dict(POINT, params={"c": "x", "V_D": 1.0, "V_B": 2.0}), ""
    ),
    "config-m-not-a-number": ("classify", dict(POINT, m="x"), ""),
    "config-n-trials-not-an-integer": ("simulate", dict(POINT, n_trials="abc"), ""),
    "config-n-trials-fractional": ("simulate", dict(POINT, n_trials=10.7), ""),
    "config-n-trials-infinite": ("simulate", dict(POINT, n_trials=math.inf), ""),
    "config-degenerate-prior-override-as-string": (
        "simulate",
        dict(POINT, params=dict(POINT["params"], prior=1.0), allow_degenerate_prior="false"),
        "--trials 10",
    ),
    "config-unknown-mechanism": ("classify", dict(POINT, mechanism={"mechanism": "moat"}), ""),
    "grid-unknown-mechanism": (
        "sweep", dict(GRID_CONFIG, mechanism={"mechanism": "moat"}), "--oracle-fraction 0"
    ),
    "grid-axis-without-steps": ("sweep", AXIS_WITHOUT_STEPS, "--oracle-fraction 0"),
    "grid-fractional-steps": (
        "sweep",
        dict(GRID_CONFIG, axes=[GRID_CONFIG["axes"][0], dict(GRID_CONFIG["axes"][1], steps=2.9)]),
        "--oracle-fraction 0",
    ),
    "grid-infinite-axis-bound": (
        "sweep",
        dict(
            GRID_CONFIG,
            axes=[{"symbol": "V_D", "min": 0.5, "max": float("inf"), "steps": 3}],
            fixed=dict(GRID_CONFIG["fixed"], m=1.0),
        ),
        "--oracle-fraction 0",
    ),
    "grid-axis-span-overflows": (
        "sweep",
        dict(
            GRID_CONFIG,
            axes=[{"symbol": "m", "min": -1e308, "max": 1e308, "steps": 3}],
            fixed=dict(GRID_CONFIG["fixed"], V_D=1.0),
        ),
        "--oracle-fraction 0",
    ),
    "config-messages-as-string": ("oracle", dict(POINT, messages="0,2"), ""),
    # a key that no run field declares would run silently with the default
    "config-unknown-top-level-key": ("simulate", dict(POINT, n_trails=5), ""),
    "config-unknown-mechanism-key": (
        "simulate", dict(POINT, mechanism=dict(POINT["mechanism"], varaint="risk")), "--trials 10"
    ),
    "config-unknown-params-key": (
        "simulate", dict(POINT, params=dict(POINT["params"], priro=0.9)), "--trials 10"
    ),
    # a bare grid's run keys, and misspelled grid keys, would be dropped
    "grid-unknown-key": ("sweep", dict(GRID_CONFIG, oracle_fraction=1.0, seed=5), ""),
    "grid-unknown-axis-key": (
        "sweep",
        dict(GRID_CONFIG, axes=[GRID_CONFIG["axes"][0], dict(GRID_CONFIG["axes"][1], stpes=9)]),
        "--oracle-fraction 0",
    ),
    "grid-unknown-mechanism-key": (
        "sweep",
        dict(GRID_CONFIG, mechanism=dict(GRID_CONFIG["mechanism"], varaint="risk")),
        "--oracle-fraction 0",
    ),
    # a profile key that no profile field declares would be dropped too
    "simulate-profile-unknown-key": (
        "simulate",
        dict(POINT, profile={**{k: v for k, v in PROFILE.items() if k != "t2_action"}, "t2_actions": []}),
        "--trials 10",
    ),
    # simulate reads a profile by the oracle's rule, so a t2 entry off {0, m}
    # is refused, although simulate never plays a t2 entry
    "simulate-profile-t2-off-grid": (
        "simulate",
        dict(POINT, profile=dict(PROFILE, t2_action=PROFILE["t2_action"] + [["aggressive", 5.0, "exploit"]])),
        "--trials 10",
    ),
    "config-top-level-list": ("classify", [POINT], ""),
    "config-params-a-number": ("classify", dict(POINT, params=2.0), ""),
    "config-mechanism-a-number": ("classify", dict(POINT, mechanism=1), ""),
    "simulate-negative-seed": ("simulate", POINT, "--trials 10 --seed -1"),
    "simulate-seed-past-philox-key": ("simulate", POINT, f"--trials 10 --seed {2**128}"),
    "sweep-negative-seed": ("sweep", GRID_CONFIG, "--oracle-fraction 0.5 --seed -1"),
    "sweep-zero-jobs": ("sweep", GRID_CONFIG, "--oracle-fraction 0 --jobs 0"),
    "classify-infinite-vd-and-m": ("classify", POINT, "--vd inf --m inf"),
    "classify-infinite-vb": ("classify", POINT, "--vb inf"),
    "classify-infinite-r": ("classify", POINT, "--variant risk --r inf"),
    "oracle-infinite-message": ("oracle", dict(POINT, messages=[0.0, 2.0]), "--messages 0,inf"),
    "simulate-infinite-m": (
        "simulate",
        dict(
            POINT,
            profile={
                "signal_of": {"restrained": 0.0, "aggressive": 0.0},
                "fight_after": [[0.0, False], [math.inf, True]],
                "t2_action": [
                    [t, m, "restraint"] for t in ("restrained", "aggressive") for m in (0.0, math.inf)
                ],
            },
        ),
        "--m inf --trials 10",
    ),
    "config-c-as-boolean": (
        "classify", dict(POINT, params={"c": True, "V_D": 1.0, "V_B": 2.0}), ""
    ),
    "config-message-as-boolean": ("oracle", dict(POINT, messages=[False, 2.0]), ""),
    "grid-fixed-as-boolean": (
        "sweep", dict(GRID_CONFIG, fixed=dict(GRID_CONFIG["fixed"], c=True)), "--oracle-fraction 0"
    ),
    "grid-axis-bound-as-boolean": (
        "sweep",
        dict(GRID_CONFIG, axes=[dict(GRID_CONFIG["axes"][0], min=True), GRID_CONFIG["axes"][1]]),
        "--oracle-fraction 0",
    ),
    "simulate-profile-as-pairs": (
        "simulate", dict(POINT, profile=[[key, value] for key, value in PROFILE.items()]), "--trials 10"
    ),
    "sweep-grid-as-pairs": (
        "sweep", {"grid": [[key, value] for key, value in GRID_CONFIG.items()]}, "--oracle-fraction 0"
    ),
    "simulate-profile-fight-flag-as-string": (
        "simulate",
        dict(POINT, profile=dict(PROFILE, fight_after=[[0.0, "false"], [2.0, "false"]])),
        "--trials 10",
    ),
    "simulate-profile-signal-as-boolean": (
        "simulate",
        dict(
            POINT,
            m=1.0,
            profile={
                "signal_of": {"restrained": True, "aggressive": 1.0},
                "fight_after": [[0.0, True], [1.0, False]],
                "t2_action": [
                    [t, m, "restraint"] for t in ("restrained", "aggressive") for m in (0.0, 1.0)
                ],
            },
        ),
        "--trials 10",
    ),
    "simulate-profile-repeated-fight-entry": (
        "simulate",
        dict(POINT, profile=dict(PROFILE, fight_after=[[0.0, True], [2.0, True], [2.0, False]])),
        "--trials 10",
    ),
    "simulate-profile-repeated-t2-row": (
        "simulate",
        dict(POINT, profile=dict(PROFILE, t2_action=PROFILE["t2_action"] + [["restrained", 2.0, "exploit"]])),
        "--trials 10",
    ),
    "simulate-profile-type-repeated-by-case": (
        "simulate",
        dict(
            POINT,
            profile=dict(PROFILE, signal_of={"restrained": 2.0, "Restrained": 0.0, "aggressive": 2.0}),
        ),
        "--trials 10",
    ),
    "config-c-overflows-float": (
        "classify", dict(POINT, params={"c": 10**400, "V_D": 1.0, "V_B": 2.0}), ""
    ),
    "grid-fixed-overflows-float": (
        "sweep", dict(GRID_CONFIG, fixed=dict(GRID_CONFIG["fixed"], c=10**400)), "--oracle-fraction 0"
    ),
    # json.dumps writes these as the literals NaN and Infinity, which json.load reads
    "grid-fixed-nan": (
        "sweep", dict(GRID_CONFIG, fixed=dict(GRID_CONFIG["fixed"], c=math.nan)), "--oracle-fraction 0"
    ),
    "grid-fixed-infinite": (
        "sweep", dict(GRID_CONFIG, fixed=dict(GRID_CONFIG["fixed"], prior=math.inf)), "--oracle-fraction 0"
    ),
    "config-message-overflows-float": ("oracle", dict(POINT, messages=[0.0, 10**400]), ""),
    "simulate-profile-unknown-action": (
        "simulate",
        dict(
            POINT,
            profile=dict(
                PROFILE, t2_action=[[t, m, "surrender"] for t, m, _ in PROFILE["t2_action"]]
            ),
        ),
        "",
    ),
    # B fights after every message, so every cell pays -c - m = -inf
    "simulate-payoff-overflows": (
        "simulate",
        {
            "mechanism": {"mechanism": "sunk", "variant": "base"},
            "params": {"c": 1e308, "V_D": 1.0, "V_B": 1.5e308},
            "m": 1e308,
            "profile": {
                "signal_of": {"restrained": 1e308, "aggressive": 1e308},
                "fight_after": [[0.0, True], [1e308, True]],
                "t2_action": [
                    [t, m, "restraint"] for t in ("restrained", "aggressive") for m in (0.0, 1e308)
                ],
            },
        },
        "--trials 10",
    ),
    # the pooling profile never fights, so no trial plays conflict at m, which pays
    # -c - m = -inf: simulate refuses the game's table as the oracle does
    "simulate-unplayed-payoff-overflows": (
        "simulate",
        {
            "mechanism": {"mechanism": "sunk", "variant": "base"},
            "params": {"c": 1e308, "V_D": 1.0, "V_B": 1.5e308},
            "m": 1e308,
        },
        "--trials 10",
    ),
    # the override admits a prior of 0 or 1, not one outside [0, 1]
    "simulate-degenerate-prior-out-of-range": ("simulate", POINT, "--prior 1.5 --allow-degenerate-prior --trials 10"),
    # conflict at m pays -c - m = -inf, which no certificate may be built on
    "oracle-payoff-overflows": (
        "oracle",
        {
            "mechanism": {"mechanism": "sunk", "variant": "base"},
            "params": {"c": 1e308, "V_D": 1.0, "V_B": 1.5e308},
            "messages": [0.0, 1e308],
        },
        "",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_validation_line(case, tmp_path, capsys):
    command, config, flags = MALFORMED[case]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run([command, "--config", str(path), *flags.split()], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")


@pytest.mark.parametrize(
    "text",
    [
        b'\xff\xfe{"m": 2}',  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested past the decoder's recursion limit
        b'{"m": ' + b"1" * 5000 + b"}",  # an integer literal past int() digit limit
    ],
    ids=["not-utf8", "nested-too-deep", "integer-too-long"],
)
def test_undecodable_config_is_one_validation_line(text, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_bytes(text)
    code, out, err = run(["classify", "--config", str(path)], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")


def _repeat(config, entry, again) -> bytes:
    """``config`` as JSON with ``again`` written right after ``entry``, so the entry's key is given twice."""
    text = json.dumps(config)
    assert text.count(entry) == 1
    return text.replace(entry, f"{entry}, {again}").encode()


#: name: (command, a config that repeats a key at one depth, flags, the key)
REPEATED = {
    "top-level": ("simulate", _repeat(dict(POINT, n_trials=5), '"n_trials": 5', '"n_trials": 2000'), "", "n_trials"),
    "params": ("classify", _repeat(POINT, '"c": 0.5', '"c": 0.7'), "", "c"),
    "grid-fixed": ("sweep", _repeat(GRID_CONFIG, '"V_B": 2.0', '"V_B": 3.0'), "--oracle-fraction 0", "V_B"),
    "profile-signal-of": (
        "simulate",
        _repeat(dict(POINT, profile=PROFILE), '"restrained": 2.0', '"restrained": 0.0'),
        "--trials 10",
        "restrained",
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED))
def test_repeated_key_is_one_validation_line(case, tmp_path, capsys):
    # json keeps the last of a repeated key, so the first would be dropped silently
    command, text, flags, key = REPEATED[case]
    path = tmp_path / "run.json"
    path.write_bytes(text)
    code, out, err = run([command, "--config", str(path), *flags.split()], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: validation: constraint violated: keys given once (config repeats {key!r})\n"


@pytest.mark.parametrize("drift_mode", ["literal", "prior-weighted", "best-response"])
def test_simulate_t2_action_does_not_change_play(drift_mode, tmp_path, capsys):
    # the drift mode decides every t2 action, so a profile's t2 entries
    # change neither the summary nor the trial log
    profiles = {
        "default": None,  # the default profile's entries, which differ by cell
        "restraint": dict(PROFILE, t2_action=[[t, m, "restraint"] for t, m, _ in PROFILE["t2_action"]]),
        "exploit": dict(PROFILE, t2_action=[[t, m, "exploit"] for t, m, _ in PROFILE["t2_action"]]),
    }
    outputs = [
        _simulate_bytes(profile, name, drift_mode, tmp_path, capsys) for name, profile in profiles.items()
    ]
    assert outputs == [outputs[0]] * len(profiles)


def test_simulate_profile_without_t2_action_prints_the_same_bytes(tmp_path, capsys):
    # simulate never reads t2_action, so a profile may leave it out
    absent = {k: v for k, v in PROFILE.items() if k != "t2_action"}
    for drift_mode in ("literal", "prior-weighted", "best-response"):
        default = _simulate_bytes(None, "default", drift_mode, tmp_path, capsys)
        assert _simulate_bytes(absent, "absent", drift_mode, tmp_path, capsys) == default


def _simulate_bytes(profile, name, drift_mode, tmp_path, capsys):
    """The summary and trial log of one seeded simulate run; None keeps the default profile."""
    path, log = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    path.write_text(json.dumps(POINT if profile is None else dict(POINT, profile=profile)))
    argv = f"simulate --config {path} --p 0.3 --trials 500 --seed 4 --drift-mode {drift_mode}"
    code, out, _ = run([*argv.split(), "--dump-trials", str(log)], capsys)
    assert code == 0
    return out, log.read_bytes()


#: Per CLI process: whether it may import numpy, and the package modules it
#: may load. Only `simulate` and a sweep that oracle-checks a point draw.
PROCESS_IMPORTS = {
    "classify --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --m 2": (False, "game conditions emit"),
    "classify --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --m 2 --format csv": (
        False,
        "game conditions emit sweep",
    ),
    "oracle --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --messages 0,2": (False, "game oracle emit"),
    "sweep --config {grid} --oracle-fraction 0": (False, "game conditions sweep emit"),
    "sweep --config {grid} --oracle-fraction 0.5": (True, "game conditions sweep emit oracle"),
    "simulate --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --m 2 --trials 10": (
        True,
        "game oracle montecarlo emit",
    ),
}
#: A numpy warning fails a CLI process, as it fails the suite.
ENV = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")


class TestProcessContract:
    def test_stdout_purity_and_logging(self, tmp_path):
        # subprocess so the env-var logging setup is exercised cleanly
        env = dict(ENV, RESTRAINT_GAMES_LOG="info")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "restraint_games.cli",
                "classify",
                "--mechanism",
                "tying-hands",
                "--c",
                "0.5",
                "--vd",
                "1",
                "--vb",
                "2",
                "--m",
                "2",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        json.loads(proc.stdout)  # stdout carries only the result
        assert "classify" in proc.stderr  # the info log went to stderr

    def test_closed_pipe_exits_141_without_a_stderr_line(self, tmp_path):
        # the reader closes after the first line, as `| head -1` does; the
        # 100x100 grid's rows fill more than a pipe holds
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(dict(GRID_CONFIG, axes=[dict(a, steps=100) for a in GRID_CONFIG["axes"]])))
        argv = [sys.executable, "-m", "restraint_games.cli", "sweep", "--config", str(grid), "--oracle-fraction", "0"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV) as proc:
            assert proc.stdout.readline().startswith(b"mechanism,")
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")

    def test_import_leaves_out_process_pools(self):
        # every CLI process pays for what `restraint_games.cli` imports
        code = (
            "import sys, restraint_games.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=ENV)
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, loads_numpy", [(argv, numpy) for argv, (numpy, _) in PROCESS_IMPORTS.items()])
    def test_numpy_only_where_draws_are_made(self, argv, loads_numpy, tmp_path):
        # `python -m restraint_games.cli ARGV`, reporting on stderr at exit
        # whether each of numpy, inspect, numbers, logging, dataclasses and
        # csv was ever imported, and which package modules were; inspect and
        # numbers come only with numpy, dataclasses only with montecarlo,
        # logging only with a log level, and csv never
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(GRID_CONFIG))
        code = (
            "import atexit, runpy, sys\n"
            "atexit.register(lambda: print(*(m in sys.modules for m in ('numpy', 'inspect', 'numbers', 'logging',"
            " 'dataclasses', 'csv')), *sorted(m for m in sys.modules if m.startswith('restraint_games.')), file=sys.stderr))\n"
            "runpy.run_module('restraint_games.cli', run_name='__main__', alter_sys=True)"
        )
        env = {k: v for k, v in ENV.items() if k != "RESTRAINT_GAMES_LOG"}
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv.format(grid=grid).split()], capture_output=True, text=True, env=env
        )
        names = PROCESS_IMPORTS[argv][1].split()
        modules = [f"restraint_games.{name}" for name in sorted(names)]
        loaded = [str(loads_numpy)] * 3 + ["False", str("montecarlo" in names), "False"]
        assert (proc.returncode, proc.stderr.split()) == (0, loaded + modules)

    def test_debug_log_reports_the_discrepancy_before_the_error_line(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(RISK_GRID_CONFIG))
        argv = ["sweep", "--config", str(config), "--oracle-fraction", "1.0", "--seed", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "restraint_games.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(ENV, RESTRAINT_GAMES_LOG="debug"),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        errors = [i for i, line in enumerate(lines) if line.startswith("error: ")]
        reports = [i for i, line in enumerate(lines) if "discrepancy report: [" in line]
        assert errors == [len(lines) - 1] and lines[-1].startswith("error: discrepancy:")
        assert len(reports) == 1 and reports[0] < errors[0]


SIM = "simulate --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --m 2 --p 0.2 --trials 2000 --seed 7"
TIES = "--mechanism installment --c 0.3 --vd 0.5 --vb 2 --prior 0.3 --messages 0,1.2,2.4"

#: sha256 of "exit <code>\n" + stdout for fixed runs of every subcommand x
#: format, recorded before the CLI was folded onto one resolve/emit path.
STDOUT_DIGESTS = {
    "classify-json": (
        "classify --mechanism tying-hands --variant base --c 0.5 --vd 1 --vb 2 --m 2 --format json",
        "2c927f18ec2246ce7cc1312cb4a023ab2e81e53996bfbc9295f9c8bc70ba17c5",
    ),
    "classify-csv": (
        "classify --mechanism reducible --variant risk --c 0.5 --vd 1 --vb 2 --r 0.6 --m 2 --format csv",
        "2557479a034b1b67b47882d5e3e078494fa56a621349382590eef408437d6415",
    ),
    "classify-invalid": (
        "classify --mechanism tying-hands --c 0.5 --vd 1 --vb 0.4 --m 2",
        "0c6868c2c44f053619cef1cc383e1d530743b574ca192ace9168a9ccf46a86e3",
    ),
    "oracle-json": (
        "oracle --mechanism tying-hands --variant risk --c 0.5 --vd 1 --vb 2 --r 0.6 --messages 0,1.5",
        "a4a08d89135e00ff05a482dcbd9042575733ffa099dbfef008cf14df127c6ebc",
    ),
    "oracle-json-ties": (
        f"oracle {TIES}",
        "58e677752726b6a78f65d58a98f5a6ae9e359df7c5d40202e18b0e5533dcd514",
    ),
    "oracle-csv-ties": (
        f"oracle {TIES} --format csv",
        "b005975282f70896c077b32bb8b66dc399be355920f0ff4904bf3424f3220e10",
    ),
    "oracle-size-guard": (
        "oracle --mechanism sunk --c 0.5 --vd 1 --vb 2 --messages " + ",".join(map(str, range(18))),
        "09f04881ea8a851192518e6a9f37b5c85d4fbb7004452eaddcbb4a557d218425",
    ),
    "sweep-csv": (
        "sweep --config {grid} --oracle-fraction 0.25 --seed 42",
        "0e8aa3fc7feabbd4ff5292d7fbd7a16243dfc3519fd4d0de7fed319834c78983",
    ),
    "sweep-json": (
        "sweep --config {grid} --oracle-fraction 0 --format json",
        "b8ecda4c715410c9858c2126ca6d1a2fa8d6563f6c3c859dd8708f9d88e867d5",
    ),
    "sweep-csv-invalid-drift": (
        "sweep --config {drift_grid} --oracle-fraction 0.25 --seed 3",
        "c1ab1701148d6876f93eea6d8249520b839214927c4ab6178a53be27168cb812",
    ),
    "sweep-json-invalid-drift": (
        "sweep --config {drift_grid} --oracle-fraction 0.25 --seed 3 --format json",
        "c29396cbbf8d6a42a2eb5f22ee5978cf0176d9ae5f28c16466f3ed4c7cdc8853",
    ),
    "sweep-discrepancy": (
        "sweep --config {risk_grid} --oracle-fraction 1.0 --seed 1",
        "5362fb632b157f283b9135804a517da6491d939d8635435911a91f389c9e4aff",
    ),
    "simulate-json": (
        SIM,
        "5322ddf46ff2829c17cd9d1ac3ff7eb3a80686e0df538e6b2f4e05003a2ca0a2",
    ),
    "simulate-csv": (
        f"{SIM} --format csv",
        "123eedcfe087cbdc58ef3551427abd185c5b36b3f29861da77cd351e720c869d",
    ),
    "simulate-json-prior-weighted": (
        f"{SIM} --drift-mode prior-weighted",
        "edbc969da674f24dd861f281d7e172d3e635d8055fe543b00978c9976028f93d",
    ),
    "simulate-csv-prior-weighted": (
        f"{SIM} --drift-mode prior-weighted --format csv",
        "6873af37fecee71836c619da3cd82c8e98c67afb275ca5561a467ce1036f42ad",
    ),
    # re-recorded when the standard error became exact from the cell counts
    "simulate-csv-prior-weighted-degenerate": (
        f"{SIM} --drift-mode prior-weighted --prior 1 --allow-degenerate-prior --format csv",
        "88897fced436b3af2c02badebf9eba965764d1903698a72724b5bb4de62ae392",
    ),
    "simulate-csv-best-response": (
        f"{SIM} --drift-mode best-response --format csv",
        "5144c679300fad6f70eae12c1cd0b97cf8e0c6b317263e5b9bdc96dad7631ca2",
    ),
    "classify-dump-config": (
        "classify --mechanism tying-hands --variant risk --c 0.5 --vd 1 --vb 2 --r 0.7 --m 2 "
        "--format csv --dump-config -",
        "f77ee692350c546467f047b607d8d7253cddfc116047798eff6bd6f906601589",
    ),
    "oracle-dump-config": (
        f"oracle {TIES} --dump-config -",
        "afb73cd95f6c641cb1112c1e1a957fed1b09ffdcf34faf94088374ea2898bf60",
    ),
    # re-recorded when the dump lost the no-op "jobs": 1
    "sweep-dump-config": (
        "sweep --config {grid} --seed 5 --dump-config -",
        "3f08334b787b9c7ce2f7074cf28d6015ab474c2348d4df2f6b3c0f1986f7918c",
    ),
}


@pytest.mark.parametrize("case", sorted(STDOUT_DIGESTS))
def test_stdout_bytes_unchanged(case, tmp_path, capsys):
    argv, expected = STDOUT_DIGESTS[case]
    configs = {}
    grids = (("grid", GRID_CONFIG), ("risk_grid", RISK_GRID_CONFIG), ("drift_grid", DRIFT_GRID_CONFIG))
    for name, config in grids:
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps(config))
    code, out, _ = run(argv.format(**configs).split(), capsys)
    digest = hashlib.sha256(f"exit {code}\n{out}".encode()).hexdigest()
    assert digest == expected
