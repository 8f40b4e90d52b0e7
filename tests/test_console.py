"""The byte pins of CI's console-script step, run in process through
``cli.main``: a change to any pinned byte fails the suite, not only CI."""

from __future__ import annotations

import hashlib
import json

import pytest

from restraint_games.cli import main

#: The 200x200 c x V_B grid of CI's row-writer checks.
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

#: (grid, arguments after the config, sha256 of the written file); the first
#: three are CI's pins, the last a sampled sweep of the c x m grid's base
#: variant at the default fraction, which sets the oracle_checked column
#: and mixes m = 0 points into the oracle sample.
PINS = {
    "rows-csv": (GRID, "--oracle-fraction 0 --format csv", "987303e98bfe6ec8eb4bf6f68914dd57a5683c70c913906def9692e2b11f1d92"),
    "rows-json": (GRID, "--oracle-fraction 0 --format json", "c4e171a45adff7c61e737d8569750d4703632170f3cc6e53a401a29f337952a5"),
    "rows-cm-csv": (GRID_CM, "--oracle-fraction 0 --format csv", "9efd64bf9001975dc0324fa81092a0eaa236300f80356ad45bff4ce48c2b87fc"),
    "rows-cm-base-sampled-csv": (
        dict(GRID_CM, mechanism={"mechanism": "tying-hands"}),
        "--seed 7 --format csv",
        "b9841bcbf1807c16a7bb77f8cdc1c2ddaccebcfd60859d8eccab7159c7ef73be",
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_sweep_bytes_pinned(case, tmp_path):
    grid, args, digest = PINS[case]
    config, out = tmp_path / "grid.json", tmp_path / "rows"
    config.write_text(json.dumps(grid))
    assert main(["sweep", "--config", str(config), *args.split(), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
