"""Calls made only by traced rounds: they attribute time and work to the
package's layers over the workload's own inputs, and probe layers a
workload leaves idle."""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys

from restraint_games import (
    Axis,
    DiscreteGame,
    GridSpec,
    ModelParams,
    Outcome,
    ParameterError,
    SimConfig,
    TypeLabel,
    Variant,
    classify,
    find_all_pbe,
    payoff,
    pooling_profile,
    run_sweep,
    simulate,
    verify_against_closed_form,
    write_rows_csv,
    write_rows_json,
)
from restraint_games import cli

from . import ROOT, subprocess_env
from .spans import Tracer, count_certificates, count_rows

# --- calls made by every traced round -------------------------------------


def _valid(points):
    out = []
    for spec, params, m in points:
        try:
            params.validate()
        except ParameterError:
            continue
        if m >= 0:
            out.append((spec, params, m))
    return out


def _sample(items, k):
    if len(items) <= k:
        return list(items)
    step = len(items) / k
    return [items[int(i * step)] for i in range(k)]


def game_microbench(tr: Tracer, points, calls: int = 20_000) -> None:
    """Per-call cost of parameter validation and of one payoff cell, over a
    sample of the workload's own valid points."""
    sample = _sample(_valid(points), 2048)
    reps = max(1, calls // len(sample))
    params_list = [p for _, p, _ in sample] * reps
    with tr.span("game.validate", calls=len(params_list)):
        for p in params_list:
            p.validate()
    cells = [
        (spec, params, theta, outcome, m)
        for spec, params, m in sample
        for theta in TypeLabel
        for outcome in Outcome
    ]
    reps = max(1, calls // len(cells))
    with tr.span("game.payoff", calls=len(cells) * reps):
        for _ in range(reps):
            for cell in cells:
                payoff(*cell)


def classify_points(tr: Tracer, points, tag=None) -> None:
    """``classify`` over every point; invalid points raise and count too."""
    with tr.span("conditions.classify", tag=tag, calls=len(points)):
        for spec, params, m in points:
            try:
                classify(spec, params, m)
            except ParameterError:
                pass


def find_all_on(tr: Tracer, points) -> None:
    """``find_all_pbe`` on the two-message game {0, m} of each point."""
    for spec, params, m in points:
        messages = (0.0,) if m == 0 else (0.0, float(m))
        with tr.span("oracle.find_all_pbe") as s:
            certs = find_all_pbe(DiscreteGame(spec, params, messages))
        count_certificates(s, len(messages), certs)


def verify_on(tr: Tracer, points, tag=None) -> None:
    for spec, params, m in points:
        with tr.span("oracle.verify", tag=tag) as s:
            report = verify_against_closed_form(spec, [(params, m)])
        s["counts"]["discrepancies"] = len(report.entries)


def time_process(tr: Tracer, name: str, code: str) -> None:
    with tr.span(name):
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=subprocess_env(), check=True
        )


def cli_startup(tr: Tracer, samples: int) -> None:
    """Bare interpreter start, and start plus a fresh CLI import."""
    for _ in range(samples):
        time_process(tr, "cli.interpreter", "pass")
        time_process(tr, "cli.import", "import restraint_games.cli")


def cli_main_in_process(tr: Tracer, argvs) -> list[int]:
    """``cli.main`` in this process over the given argument lists."""
    codes = []
    for argv in argvs:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with tr.span("cli.main"):
                codes.append(cli.main(list(argv)))
    return codes


# --- probes for layers a workload leaves idle -----------------------------


def probe_idle_layers(tr: Tracer, points) -> list[str]:
    """Call each layer the round's spans never entered, once, small.

    Every per-layer metric is then measured on every workload; on a workload
    that leaves a layer idle, that layer's figures are the probe's alone.
    Returns the probed layer names.
    """
    valid = _valid(points)
    spec, params, m = next((pt for pt in valid if pt[2] > 0), valid[0])
    few = _sample(valid, 8)
    probed = []
    if not tr.has("oracle.find_all_pbe"):
        find_all_on(tr, few)
        probed.append("oracle.find_all_pbe")
    if not tr.has("oracle.verify"):
        verify_on(tr, few)
        probed.append("oracle.verify")
    if not tr.has("sweep.run_sweep"):
        _probe_sweep(tr, spec, params, m)
        probed.append("sweep")
    if not tr.has("montecarlo.simulate"):
        _probe_simulate(tr, spec, params, m)
        probed.append("montecarlo")
    if not tr.has("cli.process"):
        _probe_cli(tr, spec, params, m)
        probed.append("cli")
    return probed


def _probe_sweep(tr, spec, params, m) -> None:
    fixed = params.to_dict()
    vd = fixed.pop("V_D")
    grid = GridSpec(
        spec,
        (Axis("V_D", 0.5 * vd, 1.5 * vd, 12), Axis("m", 0.0, 2.0 * (m + vd), 12)),
        fixed,
    )
    # risk grids can hit the documented pooling gap; only base grids are
    # oracle-checked here
    fraction = 0.05 if spec.variant is Variant.BASE else 0.0
    with tr.span("sweep.run_sweep") as s:
        rows = run_sweep(grid, oracle_fraction=fraction, seed=0)
    count_rows(s, rows)
    for name, writer in (("sweep.write_csv", write_rows_csv), ("sweep.write_json", write_rows_json)):
        out = io.StringIO()
        with tr.span(name) as s:
            writer(rows, spec, out)
        s["counts"]["bytes"] = len(out.getvalue().encode())
    pts = [(spec, ModelParams.from_dict(r.coordinates), r.coordinates["m"]) for r in rows]
    classify_points(tr, pts, tag="sweep")
    verify_on(tr, [pt for pt, r in zip(pts, rows) if r.oracle_checked], tag="sweep")


def _probe_simulate(tr, spec, params, m, trials: int = 20_000) -> None:
    params = ModelParams.from_dict({**params.to_dict(), "p": 0.2})
    config = SimConfig(spec, params, m, pooling_profile(m), trials, seed=0)
    log = io.StringIO()
    with tr.span("montecarlo.simulate", tag="log") as s:
        simulate(config, trial_log=log)
    s["counts"].update(trials=trials, log_bytes=len(log.getvalue().encode()))
    with tr.span("montecarlo.simulate", tag="log-baseline") as s:
        simulate(config)
    s["counts"]["trials"] = trials


def _probe_cli(tr, spec, params, m) -> None:
    argv = [
        "classify",
        "--mechanism", spec.mechanism.value,
        "--variant", spec.variant.value,
        "--c", repr(params.c), "--vd", repr(params.V_D), "--vb", repr(params.V_B),
        "--r", repr(params.r), "--m", repr(float(m)),
    ]
    cli_startup(tr, samples=3)
    with tr.span("cli.process") as s:
        proc = subprocess.run(
            [sys.executable, "-m", "restraint_games.cli", *argv],
            cwd=ROOT, env=subprocess_env(), capture_output=True,
        )
    s["counts"][f"exit_{proc.returncode}"] = 1
    cli_main_in_process(tr, [argv])
