"""sweep-grid: ``run_sweep`` then ``write_rows_csv`` (one grid also through
``write_rows_json``) on 2-axis grids over every mechanism x variant spec.

Every grid has p > 0, so type-shift slacks are computed, and one axis
crosses V_B = c, so a strip of ``Invalid`` rows appears. Base grids are
oracle-checked at the default fraction 0.05, risk grids at 0; one extra
tying-hands risk grid is checked at 0.05 and must end in the documented
pooling-gap ``DiscrepancyError``. This loads conditions, sweep and emit, and
the oracle the opposite way to oracle-ties: thousands of two-message games
instead of a few large ones.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from restraint_games import (
    Axis,
    DiscrepancyError,
    GridSpec,
    Mechanism,
    MechanismSpec,
    ModelParams,
    Variant,
    run_sweep,
    write_rows_csv,
    write_rows_json,
)

from . import PAYOFF_SYMBOLS, TEMPLATE_SEED, draw_scale, reference as ref
from .spans import Op, count_rows

#: Steps per axis: (the one large grid, the other grids, the pooling-gap grid).
STEPS = {"full": (200, 60, 30), "tiny": (20, 12, 8)}
DEFAULT_FRACTION = 0.05


@dataclass(frozen=True)
class Case:
    name: str
    grid: GridSpec
    oracle_fraction: float
    seed: int
    emit_json: bool = False
    expect_gap: bool = False


@dataclass
class Output:
    rows: Optional[list] = None
    csv_text: str = ""
    json_text: str = ""
    error: Optional[DiscrepancyError] = None


def generate(seed: int, size: str) -> list[Case]:
    """Fixed grid shapes scaled by a seeded factor (see ``draw_scale``); the
    seed also draws each sweep's oracle sample."""
    shapes = random.Random(TEMPLATE_SEED)
    rng = random.Random(seed)
    scale = draw_scale(rng)
    u = shapes.uniform
    big, small, gap = STEPS[size]
    TH, SUNK, INST, RED = (
        Mechanism.TYING_HANDS, Mechanism.SUNK, Mechanism.INSTALLMENT, Mechanism.REDUCIBLE
    )

    def fixed():
        f = {"c": u(0.3, 0.7), "V_D": u(0.5, 1.5), "r": u(0.0, 1.0),
             "p": u(0.05, 0.5), "prior": u(0.2, 0.8)}
        f["V_B"] = f["c"] + u(1.0, 2.0)
        f["m"] = f["V_D"] + u(-0.5, 1.5)
        return f

    def case(name, mech, variant, axes, fraction, steps, f=None):
        f = f or fixed()
        axis_objs = []
        for sym, lo, hi in axes:
            axis_objs.append(_scaled_axis(Axis(sym, lo(f), hi(f), steps), scale))
            del f[sym]
        f = {k: v * scale if k in PAYOFF_SYMBOLS else v for k, v in f.items()}
        grid = GridSpec(MechanismSpec(mech, variant), tuple(axis_objs), f)
        return Case(name, grid, fraction, rng.randrange(2**31),
                    emit_json=name == "reducible-base", expect_gap=name == "gap")

    # axes that cross V_B = c, so every grid has a strip of Invalid rows
    c_axis = ("c", lambda f: 0.1 * f["V_B"], lambda f: 1.2 * f["V_B"])
    vb_axis = ("V_B", lambda f: 0.5 * f["c"], lambda f: 4.0 * f["c"])
    m_axis = ("m", lambda f: 0.0, lambda f: 3.0 * f["V_D"])
    vd_axis = ("V_D", lambda f: 0.2, lambda f: 2.0)
    p_axis = ("p", lambda f: 0.05, lambda f: 0.9)
    r_axis = ("r", lambda f: 0.0, lambda f: 2.0 * f["c"])
    # Pooling gap: m >= V_D everywhere, so the closed form pools, while
    # r > V_B > c on every valid point, so the risk game cannot pool.
    gap_fixed = fixed()
    gap_fixed["r"] = gap_fixed["V_B"] + u(0.1, 1.0)
    gap_m_axis = ("m", lambda f: f["V_D"], lambda f: f["V_D"] + 2.0)
    base, risk = Variant.BASE, Variant.RISK
    return [
        case("tying-hands-base", TH, base, (c_axis, m_axis), DEFAULT_FRACTION, big),
        case("sunk-base", SUNK, base, (vb_axis, vd_axis), DEFAULT_FRACTION, small),
        case("installment-base", INST, base, (c_axis, p_axis), DEFAULT_FRACTION, small),
        case("reducible-base", RED, base, (vb_axis, m_axis), DEFAULT_FRACTION, small),
        case("tying-hands-risk", TH, risk, (vb_axis, r_axis), 0.0, small),
        case("sunk-risk", SUNK, risk, (vb_axis, r_axis), 0.0, small),
        case("installment-risk", INST, risk, (c_axis, vd_axis), 0.0, small),
        case("reducible-risk", RED, risk, (vb_axis, r_axis), 0.0, small),
        case("gap", TH, risk, (c_axis, gap_m_axis), DEFAULT_FRACTION, gap, gap_fixed),
    ]


def _scaled_axis(axis: Axis, scale: float) -> Axis:
    if axis.symbol not in PAYOFF_SYMBOLS:
        return axis
    return Axis(axis.symbol, axis.min * scale, axis.max * scale, axis.steps)


def grid_coordinates(grid: GridSpec) -> list[dict]:
    """Row-major coordinates, computed here rather than by the package."""
    values = [
        [float(v) for v in np.linspace(a.min, a.max, a.steps)] for a in grid.axes
    ]
    out = []
    for combo in itertools.product(*values):
        pt = dict(grid.fixed)
        pt.update({a.symbol: v for a, v in zip(grid.axes, combo)})
        out.append(pt)
    return out


def describe(cases) -> list[dict]:
    return [
        {"name": c.name, "grid": c.grid.to_dict(), "oracle_fraction": c.oracle_fraction,
         "seed": c.seed, "emit_json": c.emit_json, "expect_gap": c.expect_gap}
        for c in cases
    ]


def points(cases):
    return [
        (c.grid.mechanism, ModelParams.from_dict(pt), pt["m"])
        for c in cases
        for pt in grid_coordinates(c.grid)
    ]


def _run(case: Case, tr) -> Output:
    spec = case.grid.mechanism
    with tr.span("sweep.run_sweep") as s:
        try:
            rows = run_sweep(case.grid, oracle_fraction=case.oracle_fraction, seed=case.seed)
        except DiscrepancyError as exc:
            if not case.expect_gap:
                raise
            return Output(error=exc)
    if s is not None:
        count_rows(s, rows)
    out = Output(rows=rows)
    buf = io.StringIO()
    with tr.span("sweep.write_csv") as s:
        write_rows_csv(rows, spec, buf)
    out.csv_text = buf.getvalue()
    if s is not None:
        s["counts"]["bytes"] = len(out.csv_text.encode())
    if case.emit_json:
        buf = io.StringIO()
        with tr.span("sweep.write_json") as s:
            write_rows_json(rows, spec, buf)
        out.json_text = buf.getvalue()
        if s is not None:
            s["counts"]["bytes"] = len(out.json_text.encode())
    return out


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def check_rows(case: Case, rows) -> Optional[str]:
    """Rows against the benchmark's own closed forms and grid."""
    spec = case.grid.mechanism
    mech, variant = spec.mechanism.value, spec.variant.value
    coords = grid_coordinates(case.grid)
    if len(rows) != len(coords):
        return f"{len(rows)} rows for a grid of {len(coords)} points"
    n_valid = 0
    for i, (row, pt) in enumerate(zip(rows, coords)):
        if any(row.coordinates[k] != pt[k] for k in ref.SYMBOLS):
            return f"row {i}: coordinates {row.coordinates} != {pt}"
        cls = row.classification.value
        if cls not in ref.allowed_classifications(mech, variant, pt):
            return f"row {i}: {cls} at {pt}"
        if cls == "Invalid":
            if row.oracle_checked or row.pooling_slack is not None:
                return f"row {i}: Invalid row carries slacks or an oracle check"
            continue
        n_valid += 1
        pooling, separating, typeshift = ref.slacks(mech, variant, pt)
        got_sep = [row.separating_slack_1] + (
            [row.separating_slack_2] if row.separating_slack_2 is not None else []
        )
        if (
            not ref.close(row.pooling_slack, pooling)
            or len(got_sep) != len(separating)
            or not all(ref.close(a, b) for a, b in zip(got_sep, separating))
            or (row.typeshift_slack is None) != (typeshift is None)
            or (typeshift is not None and not ref.close(row.typeshift_slack, typeshift))
        ):
            return f"row {i}: slacks differ from the closed forms at {pt}"
    checked = sum(1 for r in rows if r.oracle_checked)
    if checked != int(case.oracle_fraction * n_valid):
        return f"{checked} rows oracle-checked, expected int({case.oracle_fraction} * {n_valid})"
    return None


def check_emitted(case: Case, out: Output) -> Optional[str]:
    table = list(csv.reader(io.StringIO(out.csv_text)))
    if table[0] != ref.CSV_HEADER or len(table) != len(out.rows) + 1:
        return "CSV header or row count wrong"
    for line, row in zip(table[1:], out.rows):
        flat = row.to_flat_dict(case.grid.mechanism)
        if line != [_cell(flat[col]) for col in ref.CSV_HEADER]:
            return f"CSV line {line} does not match its row"
    if case.emit_json:
        data = json.loads(out.json_text)
        if [d["classification"] for d in data] != [r.classification.value for r in out.rows]:
            return "JSON classifications do not match the rows"
    return None


def check_gap(case: Case, error: DiscrepancyError) -> Optional[str]:
    n_valid = sum(1 for pt in grid_coordinates(case.grid) if ref.is_valid(pt))
    entries = error.report.entries
    if len(entries) != int(case.oracle_fraction * n_valid):
        return f"{len(entries)} discrepancies, expected every checked point to disagree"
    for e in entries:
        if not (e.closed_form_verdict["pooling"] and not e.oracle_verdict["pooling"]):
            return f"discrepancy is not the pooling gap: {e.to_dict()}"
    return None


def check(case: Case, out: Output) -> Optional[str]:
    if case.expect_gap:
        if out.error is None:
            return "expected the pooling-gap DiscrepancyError"
        return check_gap(case, out.error)
    return check_rows(case, out.rows) or check_emitted(case, out)


def digest(out: Output) -> bytes:
    if out.error is not None:
        return json.dumps(out.error.report.to_json_list()).encode()
    return (out.csv_text + out.json_text).encode()


def ops(cases) -> list[Op]:
    return [
        Op(id=c.name, run=partial(_run, c), check=partial(check, c), digest=digest)
        for c in cases
    ]


def trace_extras(tr, cases, outputs) -> None:
    """Classify and verify over the very points ``run_sweep`` classified and
    oracle-checked, so its own share can be derived."""
    from . import tracing

    tracing.classify_points(tr, points(cases), tag="sweep")
    checked = []
    for case in cases:
        out = outputs.get(case.name)
        if out is None:
            continue
        spec = case.grid.mechanism
        if out.error is not None:
            checked += [(spec, e.params, e.m) for e in out.error.report.entries]
        else:
            checked += [
                (spec, ModelParams.from_dict(r.coordinates), r.coordinates["m"])
                for r in out.rows
                if r.oracle_checked
            ]
    tracing.find_all_on(tr, checked)
    tracing.verify_on(tr, checked, tag="sweep")
