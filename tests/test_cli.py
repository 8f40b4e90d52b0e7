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
from restraint_games.sweep import CSV_HEADER

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

    def test_sweep_requires_grid(self, capsys):
        code, _, err = run("sweep --oracle-fraction 0".split(), capsys)
        assert code == 1 and "grid" in err

    def test_jobs_do_not_change_output(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(GRID_CONFIG))
        base = f"sweep --config {config} --oracle-fraction 0 --seed 0".split()
        code1, out1, _ = run(base, capsys)
        code2, out2, _ = run(base + ["--jobs", "2"], capsys)
        assert (code1, code2) == (0, 0) and out1 == out2

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
    "config-messages-as-string": ("oracle", dict(POINT, messages="0,2"), ""),
    "simulate-negative-seed": ("simulate", POINT, "--trials 10 --seed -1"),
    "sweep-negative-seed": ("sweep", GRID_CONFIG, "--oracle-fraction 0.5 --seed -1"),
    "sweep-zero-jobs": ("sweep", GRID_CONFIG, "--oracle-fraction 0 --jobs 0"),
    "classify-infinite-vd-and-m": ("classify", POINT, "--vd inf --m inf"),
    "classify-infinite-vb": ("classify", POINT, "--vb inf"),
    "classify-infinite-r": ("classify", POINT, "--variant risk --r inf"),
    "oracle-infinite-message": ("oracle", dict(POINT, messages=[0.0, 2.0]), "--messages 0,inf"),
    "simulate-profile-without-t2-action": (
        "simulate", dict(POINT, profile={k: v for k, v in PROFILE.items() if k != "t2_action"}), ""
    ),
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_validation_line(case, tmp_path, capsys):
    command, config, flags = MALFORMED[case]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run([command, "--config", str(path), *flags.split()], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")


class TestProcessContract:
    def test_stdout_purity_and_logging(self, tmp_path):
        # subprocess so the env-var logging setup is exercised cleanly
        env = dict(os.environ, RESTRAINT_GAMES_LOG="info")
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

    def test_import_leaves_out_process_pools(self):
        # every CLI process pays for what `restraint_games.cli` imports
        code = (
            "import sys, restraint_games.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


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
    "sweep-dump-config": (
        "sweep --config {grid} --seed 5 --dump-config -",
        "67b8159ba5f3088dc16172e3b87439813484e982d8a283a78ee162d9af41b0d3",
    ),
}


@pytest.mark.parametrize("case", sorted(STDOUT_DIGESTS))
def test_stdout_bytes_unchanged(case, tmp_path, capsys):
    argv, expected = STDOUT_DIGESTS[case]
    configs = {}
    for name, config in (("grid", GRID_CONFIG), ("risk_grid", RISK_GRID_CONFIG)):
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps(config))
    code, out, _ = run(argv.format(**configs).split(), capsys)
    digest = hashlib.sha256(f"exit {code}\n{out}".encode()).hexdigest()
    assert digest == expected
