"""cli-mix: ``python -m restraint_games.cli`` subprocesses, one at a time,
cycling through classify, oracle, a small sweep and a small simulate in
both JSON and CSV, with one expected exit 1 (V_B < c) and one expected
exit 3 (a 30-message tie-heavy grid that any size guard must refuse).

Interpreter start and import dominate each op, so this is the one workload
where the cli layer, import cost and the inline oracle and simulate writers
matter.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import partial
from typing import Optional

from restraint_games import MechanismSpec, ModelParams

from . import OUT_DIR, PAYOFF_SYMBOLS, ROOT, TEMPLATE_SEED, draw_scale, reference as ref, subprocess_env
from .spans import Op

#: Host-speed reference (see ``hostspeed``): each op is a process start.
REFERENCE = "spawn"
#: Messages of the tie-heavy installment oracle game printed as CSV.
TIES_MESSAGES = {"full": 5, "tiny": 3}
GUARD_MESSAGES = 30
GRID_STEPS = {"full": 10, "tiny": 4}
SIM_TRIALS = {"full": 10**4, "tiny": 10**3}

ORACLE_CSV_HEADER = ["class", "signal_restrained", "signal_aggressive", "fight_after", "t2_actions", "posteriors"]
SIM_CSV_HEADER = ["conflict", "exploit", "restraint", "mean_u_A", "mean_u_B", "standard_error_u_B"]


@dataclass(frozen=True)
class Call:
    name: str
    argv: tuple
    expected_exit: int
    point: Optional[tuple] = None  # (spec, params, m) for classify / simulate
    rows: int = 0  # grid size, for sweep


@dataclass
class Inputs:
    workdir: str
    calls: list


def _flags(mech: str, variant: str, p: dict) -> list[str]:
    out = ["--mechanism", mech, "--variant", variant]
    for flag, key in (("--c", "c"), ("--vd", "V_D"), ("--vb", "V_B"), ("--r", "r"), ("--p", "p"), ("--prior", "prior")):
        if key in p:
            out += [flag, repr(p[key])]
    return out


def _point(mech: str, variant: str, p: dict, m: float) -> tuple:
    spec = MechanismSpec.from_dict({"mechanism": mech, "variant": variant})
    return (spec, ModelParams.from_dict(p), m)


def generate(seed: int, size: str) -> Inputs:
    """Fixed calls scaled by a seeded factor (see ``draw_scale``); the seed
    also draws the sweep and simulate seeds. Writes the sweep configs."""
    shapes = random.Random(TEMPLATE_SEED)
    rng = random.Random(seed)
    scale = draw_scale(rng)
    u = shapes.uniform
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-mix-", dir=OUT_DIR)

    def params(**kw):
        c = u(0.2, 0.8)
        p = {"c": c, "V_D": u(0.3, 2.0), "V_B": c + u(0.5, 2.0), "r": u(0.0, 1.5),
             "p": u(0.05, 0.4), "prior": u(0.2, 0.8)}
        p.update(kw)
        return {k: v * scale if k in PAYOFF_SYMBOLS else v for k, v in p.items()}

    def messages(n, lo, hi):
        picks = sorted(shapes.sample(range(int(lo * 100), int(hi * 100)), n - 1))
        return [0.0] + [scale * k / 100 for k in picks]

    def grid_file(name, mech, variant, axes):
        p = params()
        for sym, *_ in axes:
            p.pop(sym, None)
        if all(a[0] != "m" for a in axes):
            p["m"] = scale * u(0.5, 3.0)
        fixed = p
        steps = GRID_STEPS[size]
        grid = {"mechanism": {"mechanism": mech, "variant": variant},
                "axes": [{"symbol": s, "min": scale * lo, "max": scale * hi, "steps": steps}
                         for s, lo, hi in axes],
                "fixed": fixed}
        path = f"{workdir}/{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(grid, fh)
        return path

    def classify(name, mech, variant, fmt, expected_exit=0, **kw):
        p, m = params(**kw), scale * u(0.0, 3.0)
        argv = ("classify", *_flags(mech, variant, p), "--m", repr(m), "--format", fmt)
        point = _point(mech, variant, p, m) if expected_exit == 0 else None
        return Call(name, argv, expected_exit, point)

    def oracle(name, mech, variant, fmt, msgs, expected_exit=0, **kw):
        p = params(**kw)
        del p["p"]
        argv = ("oracle", *_flags(mech, variant, p), "--messages", ",".join(repr(m) for m in msgs), "--format", fmt)
        return Call(name, argv, expected_exit)

    def sweep(name, path, fmt, fraction):
        return Call(name, ("sweep", "--config", path, "--oracle-fraction", repr(fraction),
                           "--seed", str(rng.randrange(2**31)), "--format", fmt), 0,
                    rows=GRID_STEPS[size] ** 2)

    def sim(name, mech, variant, fmt, mode):
        p, m = params(), scale * u(0.0, 3.0)
        argv = ("simulate", *_flags(mech, variant, p), "--m", repr(m), "--trials", str(SIM_TRIALS[size]),
                "--seed", str(rng.randrange(2**32)), "--drift-mode", mode, "--format", fmt)
        return Call(name, argv, 0, _point(mech, variant, p, m))

    # both grids scale on both axes, and cross V_B = c
    th_grid = grid_file("tying-hands-base", "tying-hands", "base", [("c", 0.1, 2.0), ("m", 0.0, 3.0)])
    red_grid = grid_file("reducible-risk", "reducible", "risk", [("V_B", 0.2, 3.0), ("r", 0.0, 2.0)])
    c_guard = u(0.2, 0.8)
    calls = [
        classify("classify-json", "tying-hands", "base", "json"),
        classify("classify-csv", "reducible", "risk", "csv"),
        classify("classify-vb-below-c", "sunk", "base", "json", expected_exit=1, c=1.0, V_B=u(0.3, 0.9)),
        oracle("oracle-json", "tying-hands", "risk", "json", messages(2, 0.5, 3.0)),
        # every nonzero signal above V_D: about 1.5k certificates at 5 messages
        oracle("oracle-csv-ties", "installment", "base", "csv", messages(TIES_MESSAGES[size], 1.0, 3.6),
               c=u(0.25, 0.4), V_D=u(0.4, 0.6), prior=u(0.2, 0.35)),
        oracle("oracle-size-guard", "sunk", "base", "json", messages(GUARD_MESSAGES, 0.1, 9.0),
               expected_exit=3, c=c_guard, V_B=c_guard + 1.0),
        sweep("sweep-csv", th_grid, "csv", 0.05),
        sweep("sweep-json", red_grid, "json", 0.0),
        sim("simulate-json", "tying-hands", "base", "json", "literal"),
        sim("simulate-csv", "installment", "risk", "csv", "prior-weighted"),
        classify("classify-csv-sunk", "sunk", "risk", "csv"),
        oracle("oracle-csv-small", "sunk", "base", "csv", messages(3, 0.5, 3.0)),
    ]
    return Inputs(workdir, calls)


def cleanup(inputs: Inputs) -> None:
    shutil.rmtree(inputs.workdir, ignore_errors=True)


def describe(inputs: Inputs) -> list[dict]:
    return [{"name": c.name, "argv": list(c.argv), "expected_exit": c.expected_exit} for c in inputs.calls]


def points(inputs: Inputs):
    return [c.point for c in inputs.calls if c.point is not None]


def _run(call: Call, tr):
    with tr.span("cli.process") as s:
        proc = subprocess.run(
            [sys.executable, "-m", "restraint_games.cli", *call.argv],
            cwd=ROOT, env=subprocess_env(), capture_output=True, timeout=120,
        )
    if s is not None:
        s["counts"][f"exit_{proc.returncode}"] = 1
    return proc


def _parse_stdout(call: Call, text: str) -> Optional[str]:
    command, fmt = call.argv[0], call.argv[-1]
    if fmt == "json":
        data = json.loads(text)
        if command == "classify" and not {"pooling_on_restraint", "separating"} <= set(data):
            return "classify JSON lacks verdicts"
        if command == "oracle" and sum(data["counts"].values()) != len(data["certificates"]):
            return "oracle JSON counts do not add up to its certificates"
        if command == "sweep" and len(data) != call.rows:
            return "sweep JSON row count wrong"
        if command == "simulate" and sum(data["outcome_counts"].values()) != int(call.argv[call.argv.index("--trials") + 1]):
            return "simulate JSON outcome counts do not add up to the trials"
        return None
    table = list(csv.reader(io.StringIO(text)))
    header = {"classify": ref.CSV_HEADER, "sweep": ref.CSV_HEADER,
              "oracle": ORACLE_CSV_HEADER, "simulate": SIM_CSV_HEADER}[command]
    if table[0][: len(header)] != header:
        return f"{command} CSV header {table[0]}"
    if command == "classify" and len(table) != 2:
        return "classify CSV is not one row"
    if command == "sweep" and len(table) != call.rows + 1:
        return "sweep CSV row count wrong"
    if command == "oracle" and len(table) < 2:
        return "oracle CSV lists no certificate"
    if command == "simulate" and (len(table) != 2 or len(table[1]) != len(table[0])):
        return "simulate CSV is not one full row"
    return None


def check(call: Call, proc) -> Optional[str]:
    if proc.returncode != call.expected_exit:
        return f"exit {proc.returncode}, expected {call.expected_exit}: {proc.stderr.decode()[-300:]}"
    if call.expected_exit != 0:
        category = {1: "error: validation:", 3: "error: size-guard:"}[call.expected_exit]
        lines = proc.stderr.decode().splitlines()
        if proc.stdout or len(lines) != 1 or not lines[0].startswith(category):
            return f"expected one '{category}' line on stderr and no stdout, got {lines}"
        return None
    try:
        return _parse_stdout(call, proc.stdout.decode())
    except (ValueError, KeyError, IndexError) as exc:
        return f"stdout does not parse: {exc!r}"


def digest(proc) -> bytes:
    return b"exit %d\n" % proc.returncode + proc.stdout


def ops(inputs: Inputs) -> list[Op]:
    return [
        Op(id=c.name, run=partial(_run, c), check=partial(check, c), digest=digest)
        for c in inputs.calls
    ]


def trace_extras(tr, inputs: Inputs, outputs) -> None:
    """Process start and import on their own, and ``cli.main`` in this
    process over the same argument lists."""
    from . import tracing

    tracing.classify_points(tr, points(inputs))
    tracing.cli_startup(tr, samples=5)
    tracing.cli_main_in_process(tr, [c.argv for c in inputs.calls])
