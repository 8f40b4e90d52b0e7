"""The byte pins of the CLI's long outputs, run in process through
``cli.main``: every pin of the former CI console-script step, plus a
certificate JSON document and a sampled sweep. A change to any pinned
byte fails the suite.

A pin also holds what CI checked of those bytes, since each held when the
bytes were recorded: the line count, ``csv.reader`` reading each CSV back
as rows of one width, and each JSON document being exactly what
``json.tool --indent 2`` makes of it."""

from __future__ import annotations

import hashlib
import json

import pytest

from restraint_games.cli import main

#: The 200x200 c x V_B grid.
GRID = {
    "mechanism": {"mechanism": "tying-hands"},
    "axes": [{"symbol": "c", "min": 0.1, "max": 2.4, "steps": 200}, {"symbol": "V_B", "min": 0.5, "max": 3.0, "steps": 200}],
    "fixed": {"V_D": 1, "r": 0.6, "p": 0.2, "prior": 0.5, "m": 1.5},
}
#: The 200x200 c x m grid, whose rows share one params object along m.
GRID_CM = {
    "mechanism": {"mechanism": "tying-hands", "variant": "risk"},
    "axes": [{"symbol": "c", "min": 0.1, "max": 2.4, "steps": 200}, {"symbol": "m", "min": 0, "max": 3.0, "steps": 200}],
    "fixed": {"V_D": 1, "V_B": 2, "r": 0.6, "p": 0.2, "prior": 0.5},
}
#: The configs an argv names by ``{name}``.
CONFIGS = {"grid": GRID, "grid_cm": GRID_CM, "grid_cm_base": dict(GRID_CM, mechanism={"mechanism": "tying-hands"})}

SUNK = "oracle --mechanism sunk --c 0.5 --vd 1 --vb 2 --r 0.6 --prior 0.75 --messages 0,0.3,0.6,0.9,1.2,1.5,1.8,2.1"

#: (pinned file, the argv that writes it to ``{out}``) -> (its lines, its sha256).
PINS = {
    # 10^7 trials are drawn in counter-offset segments, one thread per CPU,
    # and give the one-stream result
    ("drift.csv", "simulate --mechanism tying-hands --c 0.5 --vd 1 --vb 2 --m 2 --p 0.3 --drift-mode prior-weighted"
     " --trials 10000000 --format csv -o {out}"):
        (2, "e14ad8cae26acf076325ed12e228ec5932ab5f5ac081d0b2dbf5e1d18d5fd447"),
    # best-response reads its t2 play from the oracle's payoff table: in this
    # risk game a drifted type restrains where literal play exploits
    ("trials.csv", "simulate --mechanism tying-hands --variant risk --c 0.5 --vd 1 --vb 2 --r 0.6 --m 2 --p 0.3"
     " --drift-mode best-response --trials 20000 --seed 7 --dump-trials {out}"):
        (20001, "e1d42ac58bbe3403b7a78307e7a870cdfc2971feea26b5986f00273ee239d5c3"),
    # the certificate writer near the budget, in the canonical order
    ("certs.csv", SUNK + ",2.4,2.7 --format csv -o {out}"):
        (40582, "4137ede93dea20c4d56ff06c58704c5d6103952bfd86ceabc3bda0a16e43c1f2"),
    # certificate order where anchors interleave: 100 anchors, up to 3 per signal pair
    ("interleaved.csv", "oracle --mechanism installment --c 0.5 --vd 1 --vb 2 --r 0.6 --prior 0.75"
     " --messages 0,0.3,0.6,0.9,1.2,1.5,1.8 --format csv -o {out}"):
        (7968, "7eedd100083139fb27423970f1ac7f2a239502a9c669a86461059a6de7c813b1"),
    # the certificate JSON layout, filled per game: 4 509 certificates
    ("certs.json", SUNK + " --format json -o {out}"):
        (725978, "ceaa24381c413951b70b9d84d05a11999e580e1d34f6be0f87774698de8418bc"),
    ("rows.csv", "sweep --config {grid} --oracle-fraction 0 --format csv -o {out}"):
        (40001, "987303e98bfe6ec8eb4bf6f68914dd57a5683c70c913906def9692e2b11f1d92"),
    ("rows.json", "sweep --config {grid} --oracle-fraction 0 --format json -o {out}"):
        (680002, "c4e171a45adff7c61e737d8569750d4703632170f3cc6e53a401a29f337952a5"),
    ("rows-cm.csv", "sweep --config {grid_cm} --oracle-fraction 0 --format csv -o {out}"):
        (40001, "9efd64bf9001975dc0324fa81092a0eaa236300f80356ad45bff4ce48c2b87fc"),
    # the default fraction sets the oracle_checked column and mixes m = 0
    # points into the oracle sample
    ("rows-cm-base-sampled.csv", "sweep --config {grid_cm_base} --seed 7 --format csv -o {out}"):
        (40001, "b9841bcbf1807c16a7bb77f8cdc1c2ddaccebcfd60859d8eccab7159c7ef73be"),
}


@pytest.mark.parametrize("name, argv", list(PINS), ids=[name for name, _ in PINS])
def test_bytes_pinned(name, argv, tmp_path):
    paths = {"out": tmp_path / name}
    for key, config in CONFIGS.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(config))
    assert main(argv.format(**paths).split()) == 0
    data = paths["out"].read_bytes()
    assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == PINS[name, argv]
