"""Grid sweep, region table, and boundary tracing tests."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restraint_games import (
    TOL,
    Axis,
    BudgetExceededError,
    Classification,
    DiscrepancyError,
    GridSpec,
    Mechanism,
    MechanismSpec,
    ModelParams,
    ParameterError,
    Variant,
    boundary_trace,
    classify,
    run_sweep,
    write_rows_csv,
    write_rows_json,
)
from restraint_games import emit
from restraint_games.emit import write_json
from restraint_games.game import ALL_SYMBOLS
from restraint_games.sweep import CSV_HEADER, SWEEPABLE, region_row_for_point

from conftest import params_strategy, signal_strategy, spec_strategy

TH_BASE = MechanismSpec(Mechanism.TYING_HANDS)
TH_RISK = MechanismSpec(Mechanism.TYING_HANDS, Variant.RISK)


def tying_grid(**overrides) -> GridSpec:
    fixed = {"c": 0.5, "V_B": 2.0, "r": 0.0, "p": 0.0, "prior": 0.5}
    fixed.update(overrides.pop("fixed", {}))
    return GridSpec(
        mechanism=overrides.pop("mechanism", TH_BASE),
        axes=overrides.pop(
            "axes", (Axis("V_D", 0.5, 2.0, 4), Axis("m", 0.5, 2.0, 4))
        ),
        fixed=fixed,
    )


class TestRunSweep:
    def test_four_by_four_pooling_region(self):
        rows = run_sweep(tying_grid(), oracle_fraction=0.0, seed=0)
        assert len(rows) == 16
        for row in rows:
            expected = (
                Classification.POOLING_ONLY
                if row.coordinates["V_D"] <= row.coordinates["m"]
                else Classification.NEITHER
            )
            assert row.classification is expected

    def test_row_major_order(self):
        rows = run_sweep(tying_grid(), oracle_fraction=0.0, seed=0)
        coords = [(row.coordinates["V_D"], row.coordinates["m"]) for row in rows]
        assert coords == sorted(coords)  # first axis outermost, second fastest

    def test_risk_axis_turns_on_separating(self):
        grid = GridSpec(
            mechanism=TH_RISK,
            axes=(Axis("r", 0.0, 1.0, 5),),
            fixed={"c": 0.5, "V_D": 1.0, "V_B": 2.0, "p": 0.0, "prior": 0.5, "m": 1.6},
        )
        rows = run_sweep(grid, oracle_fraction=0.0, seed=0)
        got = {row.coordinates["r"]: row.classification for row in rows}
        assert got == {
            0.0: Classification.POOLING_ONLY,
            0.25: Classification.POOLING_ONLY,
            0.5: Classification.BOTH,
            0.75: Classification.BOTH,
            1.0: Classification.BOTH,
        }

    def test_infeasible_points_kept_as_invalid(self):
        grid = GridSpec(
            mechanism=TH_BASE,
            axes=(Axis("V_B", 0.5, 2.0, 4),),
            fixed={"c": 0.5, "V_D": 1.0, "r": 0.0, "p": 0.0, "prior": 0.5, "m": 2.0},
        )
        rows = run_sweep(grid, oracle_fraction=0.0, seed=0)
        by_vb = {row.coordinates["V_B"]: row for row in rows}
        assert by_vb[0.5].classification is Classification.INVALID
        assert by_vb[0.5].pooling_slack is None
        assert by_vb[1.0].classification is Classification.POOLING_ONLY

    def test_deterministic_rows_and_sampling(self):
        grid = tying_grid()
        a = run_sweep(grid, oracle_fraction=0.5, seed=42)
        b = run_sweep(grid, oracle_fraction=0.5, seed=42)
        flat = lambda rows: [r.to_flat_dict(grid.mechanism) for r in rows]
        assert flat(a) == flat(b)
        assert sum(r.oracle_checked for r in a) == 8
        c = run_sweep(grid, oracle_fraction=0.5, seed=43)
        assert [r.oracle_checked for r in a] != [r.oracle_checked for r in c]

    def test_full_oracle_check_agrees_on_base_game(self):
        rows = run_sweep(tying_grid(), oracle_fraction=1.0, seed=0)
        assert all(
            row.oracle_checked
            for row in rows
            if row.classification is not Classification.INVALID
        )

    def test_classification_recomputable_from_slacks(self):
        grid = tying_grid(mechanism=TH_RISK, fixed={"r": 0.7})
        for row in run_sweep(grid, oracle_fraction=0.0, seed=0):
            if row.classification is Classification.INVALID:
                continue
            pooling = row.pooling_slack >= -TOL
            sep_slacks = [row.separating_slack_1]
            if row.separating_slack_2 is not None:
                sep_slacks.append(row.separating_slack_2)
            separating = all(s >= -TOL for s in sep_slacks)
            expected = {
                (True, True): Classification.BOTH,
                (True, False): Classification.POOLING_ONLY,
                (False, True): Classification.SEPARATING_ONLY,
                (False, False): Classification.NEITHER,
            }[(pooling, separating)]
            assert row.classification is expected

    def test_int_fixed_values_give_float_slacks(self):
        # a grid built in Python may fix ints; the slacks are those of
        # ModelParams.from_dict's floats, so -V_D prints as -1.0, not -1
        grid = GridSpec(
            mechanism=MechanismSpec(Mechanism.SUNK, Variant.RISK),
            axes=(Axis("m", 0.0, 2.0, 3), Axis("c", 1.0, 3.0, 3)),
            fixed={"V_D": 1, "V_B": 4, "r": 2, "p": 1, "prior": 0.5},
        )
        for row in run_sweep(grid, oracle_fraction=0.0, seed=0):
            got = (row.pooling_slack, row.separating_slack_1, row.typeshift_slack)
            assert [type(s) for s in got] == [float] * 3

    def test_python_bool_refused(self):
        # float(True) is 1.0: a bool fixed or bounding an axis from Python
        # would sweep as 1 and print True as the coordinate
        m_axis = Axis("m", 0.5, 2.0, 4)
        for grid in (
            tying_grid(fixed={"p": True}),
            tying_grid(fixed={"r": False}),
            tying_grid(axes=(Axis("V_D", False, 2.0, 4), m_axis)),
            tying_grid(axes=(Axis("V_D", 0.5, True, 4), m_axis)),
        ):
            with pytest.raises(ParameterError, match="not booleans"):
                run_sweep(grid, oracle_fraction=0.0, seed=0)
        # ints from Python keep working
        rows = run_sweep(tying_grid(fixed={"p": 1}, axes=(Axis("V_D", 0, 2, 3), m_axis)), 0.0, 0)
        assert len(rows) == 12 and rows[-1].coordinates["p"] == 1

    def test_python_numbers_take_the_config_rule(self):
        # game.real, as GridSpec.from_dict reads a config: an int past float
        # range or a non-number is a named constraint, not a builtin error
        m_axis = Axis("m", 0.5, 2.0, 4)
        for bad in (10**400, "x", None):
            for grid in (tying_grid(fixed={"c": bad}), tying_grid(axes=(Axis("V_D", 0.5, bad, 4), m_axis))):
                with pytest.raises(ParameterError):
                    run_sweep(grid, oracle_fraction=0.0, seed=0)
        # numeric text reads as its float, as in a config
        flat = lambda grid: [row.to_flat_dict(TH_BASE) for row in run_sweep(grid, 0.0, 0)]
        assert flat(tying_grid(fixed={"c": "0.5"})) == flat(tying_grid())

    def test_axis_steps_must_be_an_int(self):
        # a count built in Python that range() cannot take is a named
        # constraint, not a TypeError from inside the sweep
        for steps in (3.5, 3.0, True, "3"):
            with pytest.raises(ParameterError, match="steps an integer"):
                run_sweep(tying_grid(fixed={"V_D": 1.0}, axes=(Axis("m", 0.0, 2.0, steps),)), 0.0, 0)

    def test_risk_pooling_mismatch_aborts(self):
        # closed-form pooling tracks the base game; the oracle disagrees for
        # r > 0, and a full cross-check must abort with the report
        grid = GridSpec(
            mechanism=TH_RISK,
            axes=(Axis("m", 1.1, 1.4, 2),),
            fixed={"c": 0.5, "V_D": 1.0, "V_B": 2.0, "r": 0.8, "p": 0.0, "prior": 0.5},
        )
        with pytest.raises(DiscrepancyError) as exc:
            run_sweep(grid, oracle_fraction=1.0, seed=0)
        assert not exc.value.report.empty

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            tying_grid(axes=()).validate()
        with pytest.raises(ParameterError):
            tying_grid(axes=(Axis("V_D", 2.0, 0.5, 4), Axis("m", 0.5, 2.0, 4))).validate()
        with pytest.raises(ParameterError):
            tying_grid(axes=(Axis("V_D", 0.5, 2.0, 1), Axis("m", 0.5, 2.0, 4))).validate()
        with pytest.raises(ParameterError):
            tying_grid(axes=(Axis("prior", 0.1, 0.9, 3), Axis("m", 0.5, 2.0, 4))).validate()
        with pytest.raises(ParameterError):
            # m supplied on neither an axis nor fixed
            GridSpec(TH_BASE, (Axis("V_D", 0.5, 2.0, 4),), {"c": 0.5, "V_B": 2.0, "r": 0.0, "p": 0.0, "prior": 0.5}).validate()
        with pytest.raises(ParameterError, match="axis symbols distinct"):
            tying_grid(axes=(Axis("m", 0.5, 2.0, 4), Axis("m", 0.5, 2.0, 4)), fixed={"V_D": 1.0}).validate()
        with pytest.raises(ParameterError, match="fixed symbol in"):
            tying_grid(fixed={"V_X": 1.0}).validate()
        with pytest.raises(ParameterError, match="fixed and axes disjoint"):
            tying_grid(fixed={"m": 1.0}).validate()
        with pytest.raises(ParameterError):
            run_sweep(tying_grid(), oracle_fraction=1.5, seed=0)
        # the CLI's rule for --oracle-fraction and --seed: seed 1.5 or True
        # would reach SeedSequence or run as 1, and "x" a bare TypeError
        for fraction, seed in (("x", 0), (True, 0), (1.0, "x"), (1.0, 1.5), (1.0, True), (1.0, -1)):
            with pytest.raises(ParameterError):
                run_sweep(tying_grid(), oracle_fraction=fraction, seed=seed)
        assert run_sweep(tying_grid(), "0.5", "3") == run_sweep(tying_grid(), 0.5, 3)

    def test_size_guard_counts_points_before_building_any(self, monkeypatch):
        class Built(Exception):
            pass

        def values(axis):
            raise Built

        monkeypatch.setattr(Axis, "values", values)
        at_budget = (Axis("V_D", 0.5, 2.0, 1000), Axis("m", 0.5, 2.0, 1000))
        with pytest.raises(Built):
            run_sweep(tying_grid(axes=at_budget), oracle_fraction=0.0, seed=0)
        fixed = {"c": 0.5, "V_B": 2.0, "p": 0.0, "prior": 0.5}
        for r_steps in (101, 10**30):
            axes = (Axis("V_D", 0.5, 2.0, 1000), Axis("m", 0.5, 2.0, 10), Axis("r", 0.0, 1.0, r_steps))
            with pytest.raises(BudgetExceededError) as exc:
                run_sweep(GridSpec(TH_BASE, axes, fixed), oracle_fraction=0.0, seed=0)
            assert exc.value.budget == 10**6 < exc.value.count
        with pytest.raises(BudgetExceededError):
            boundary_trace(tying_grid(axes=(Axis("V_D", 0.5, 2.0, 1001), Axis("m", 0.5, 2.0, 1000))))

    def test_axis_span_must_be_finite(self):
        for lo, hi in ((-1e308, 1e308), (-math.inf, 1.0), (0.0, math.nan)):
            with pytest.raises(ParameterError, match="finite"):
                tying_grid(axes=(Axis("V_D", 0.5, 2.0, 4), Axis("m", lo, hi, 3))).validate()
        # the largest finite span is fine
        tying_grid(axes=(Axis("V_D", 0.5, 2.0, 4), Axis("m", -1e308, 7e307, 3))).validate()

    def test_spec_roundtrip(self):
        grid = tying_grid()
        assert GridSpec.from_dict(grid.to_dict()) == grid

    def test_unknown_keys_are_named_in_one_error(self):
        d = tying_grid().to_dict()
        d["oracle_fraction"] = 1.0
        d["mechanism"]["varaint"] = "risk"
        d["axes"][1]["stpes"] = 9
        with pytest.raises(ParameterError, match="grid keys are grid fields") as exc:
            GridSpec.from_dict(d)
        assert "'oracle_fraction' in grid, 'varaint' in mechanism, 'stpes' in axes[1]" in str(exc.value)

    def test_grid_of_pairs_is_one_error(self):
        # dict() would take a list of pairs; from_dict refuses it as a config's reader does
        with pytest.raises(ParameterError, match="grid values well-formed"):
            GridSpec.from_dict(list(tying_grid().to_dict().items()))


_BOUND = st.floats(allow_nan=False, allow_infinity=False)
_SPAN = st.one_of(
    st.tuples(_BOUND, _BOUND),
    _BOUND.map(lambda a: (a, a)),
    # subnormal and near-zero spans
    st.tuples(_BOUND, st.floats(-1e-300, 1e-300)).map(lambda t: (t[0], t[0] + t[1])),
)


def _bits(values) -> list[bytes]:
    # -0.0 and every NaN payload compare by their bits
    return [struct.pack("d", v) for v in values]


@settings(max_examples=300, deadline=None)
@given(span=_SPAN, n=st.integers(2, 500))
@example(span=(0.0, 5e-324), n=3)  # the step underflows to 0
@example(span=(1.5, 1.5), n=4)
@example(span=(-0.0, 0.0), n=2)
@example(span=(-1e308, 1e308), n=3)  # the span overflows
@example(span=(0.5, 2.0), n=4)
def test_axis_values_equal_linspace(span, n):
    a, b = span
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [float(v) for v in np.linspace(a, b, n)]
    assert _bits(Axis("m", a, b, n).values()) == _bits(expected)


class TestEmit:
    def test_csv_header_and_shape(self):
        grid = tying_grid()
        rows = run_sweep(grid, oracle_fraction=0.0, seed=0)
        buf = io.StringIO()
        write_rows_csv(rows, grid.mechanism, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 17
        first = lines[1].split(",")
        assert first[0] == "tying-hands" and first[1] == "base"
        assert first[-1] == "false"
        assert buf.getvalue().endswith("\n") and "\r" not in buf.getvalue()

    def test_json_same_field_names(self):
        grid = tying_grid()
        rows = run_sweep(grid, oracle_fraction=0.0, seed=0)
        buf = io.StringIO()
        write_rows_json(rows, grid.mechanism, buf)
        data = json.loads(buf.getvalue())
        assert len(data) == 16
        assert list(data[0].keys()) == CSV_HEADER
        assert data[0]["oracle_checked"] is False
        assert data[0]["typeshift_slack"] is None


class TestBoundaryTrace:
    def test_traces_the_pooling_frontier(self):
        points = boundary_trace(tying_grid())
        assert points
        for bp in points:
            # the V_D = m line passes within one cell width (0.5)
            assert abs(bp.coordinates["V_D"] - bp.coordinates["m"]) <= 0.5 + 1e-9

    def test_single_region_has_no_boundary(self):
        grid = tying_grid(axes=(Axis("V_D", 0.1, 0.4, 3), Axis("m", 1.0, 2.0, 3)))
        assert boundary_trace(grid) == []

    def test_type_shift_boundary(self):
        grid = GridSpec(
            mechanism=TH_BASE,
            axes=(Axis("p", 0.05, 0.95, 10), Axis("V_B", 1.0, 4.0, 10)),
            fixed={"c": 0.5, "V_D": 1.0, "r": 0.0, "prior": 0.5, "m": 2.0},
        )
        points = boundary_trace(grid)
        assert points
        cell_p = (0.95 - 0.05) / 9
        cell_vb = 3.0 / 9
        for bp in points:
            p, v_b = bp.coordinates["p"], bp.coordinates["V_B"]
            # p * V_B = c within one cell of the crossed axis
            slack = abs(p * v_b - 0.5)
            budget = cell_p * v_b if bp.axis == "p" else cell_vb * p
            assert slack <= budget + 1e-9

    def test_validates_the_grid_once(self, monkeypatch):
        calls = []
        validate = GridSpec.validate

        def counted(self):
            calls.append(self)
            return validate(self)

        monkeypatch.setattr(GridSpec, "validate", counted)
        boundary_trace(tying_grid())
        assert len(calls) == 1

    def test_needs_two_axes(self):
        grid = tying_grid(axes=(Axis("m", 0.5, 2.0, 4),), fixed={"V_D": 1.0})
        with pytest.raises(ParameterError):
            boundary_trace(grid)


def test_region_row_for_point_classifies_the_params_given(validate_calls):
    params = ModelParams(c=0.5, V_D=1.0, V_B=2.0)
    row = region_row_for_point(TH_BASE, params, 2.0)
    assert row.classification is Classification.POOLING_ONLY
    assert len(validate_calls) == 1 and validate_calls[0] is params


def test_python_bool_params_make_an_invalid_row():
    # True would read as c = 1, classify as PoolingOnly and print as True
    params = ModelParams(True, 1.0, 2.0)
    assert region_row_for_point(TH_BASE, params, 2.0).classification is Classification.INVALID
    with pytest.raises(ParameterError):
        classify(TH_BASE, params, 2.0)


@pytest.mark.parametrize("m", [True, False, 10**400], ids=["true", "false", "past-float-range"])
def test_python_bool_or_huge_signal_makes_an_invalid_row(m):
    # True would read as m = 1.0 and classify; 10**400 raised OverflowError
    params = ModelParams(0.5, 1.0, 2.0)
    assert region_row_for_point(TH_BASE, params, m).classification is Classification.INVALID
    with pytest.raises(ParameterError):
        classify(TH_BASE, params, m)


def test_python_params_past_float_range_make_an_invalid_row():
    # V_B = 10**400 would classify as PoolingOnly and print 401 digits
    params = ModelParams(0.5, 1.0, 10**400)
    assert region_row_for_point(TH_BASE, params, 2.0).classification is Classification.INVALID
    with pytest.raises(ParameterError):
        classify(TH_BASE, params, 2.0)


def test_run_sweep_validates_each_point_once_and_each_checked_point_once_more(validate_calls):
    # V_B crosses c, so Invalid rows too; the oracle check builds each
    # sampled point's grid game on the row's own params
    grid, _ = EMIT_CASES["invalid-strip"]
    rows = run_sweep(grid, oracle_fraction=0.5, seed=3)
    checked = [row.params for row in rows if row.oracle_checked]
    assert checked and any(row.classification is Classification.INVALID for row in rows)
    assert len(validate_calls) == len(rows) + len(checked)
    assert all(call is row.params for call, row in zip(validate_calls, rows))
    assert sorted(map(id, validate_calls[len(rows):])) == sorted(map(id, checked))


#: An axis's (lowest min, highest max) per symbol: V_B crosses c and r
#: goes below 0, so some grids hold Invalid strips.
_AXIS_SPAN = {
    "c": (0.1, 3.0), "V_D": (0.1, 3.0), "V_B": (0.1, 3.0), "r": (-0.5, 2.0), "p": (0.0, 1.0), "m": (0.0, 3.0)
}


@st.composite
def _grids(draw) -> GridSpec:
    """1 to 3 axes of any spec; fixed values are ints, floats or -0.0."""
    symbols = draw(st.lists(st.sampled_from(SWEEPABLE), min_size=1, max_size=3, unique=True))
    axes = []
    for sym in symbols:
        lowest, highest = _AXIS_SPAN[sym]
        lo = draw(st.floats(lowest, highest - 0.1))
        if sym == "p":  # no drift slack at p = 0
            lo = draw(st.just(0.0) | st.just(lo))
        axes.append(Axis(sym, lo, draw(st.floats(lo + 0.05, highest)), draw(st.integers(2, 4))))
    fixed = {}
    for sym in ALL_SYMBOLS:
        if sym == "prior":
            fixed[sym] = draw(st.floats(0.05, 0.95))
        elif sym not in symbols:
            lowest, highest = _AXIS_SPAN[sym]
            ints = st.integers(math.ceil(lowest), math.floor(highest))
            extra = st.just(-0.0) if sym == "r" else st.nothing()
            fixed[sym] = draw(ints | st.floats(lowest, highest) | extra)
    return GridSpec(draw(spec_strategy), tuple(axes), fixed)


def _exact(values) -> list:
    # floats by type and bits, so 1 != 1.0 and 0.0 != -0.0
    return [(type(v), struct.pack("d", v) if type(v) is float else v) for v in values]


@settings(max_examples=200, deadline=None)
@given(grid=_grids())
@example(
    grid=GridSpec(
        TH_RISK,
        (Axis("p", 0.0, 1.0, 3), Axis("V_B", 0.25, 2.0, 4)),
        {"c": 1, "V_D": 2, "r": -0.0, "prior": 0.5, "m": 3},
    )
)
@example(  # (m - c) - V_D overflows to -inf on most of the grid
    grid=GridSpec(
        TH_RISK,
        (Axis("c", 1e307, 1e308, 3), Axis("V_D", 1e308, 1.7e308, 3)),
        {"V_B": 1.79e308, "r": 0.5, "p": 0.1, "prior": 0.5, "m": 0.0},
    )
)
@example(  # a c x m grid: the rows along m share one ModelParams, c crosses V_B
    grid=GridSpec(
        TH_BASE,
        (Axis("c", 0.25, 2.5, 4), Axis("m", 0.0, 3.0, 4)),
        {"V_D": 1, "V_B": 2.0, "r": 0.3, "p": 0.2, "prior": 0.5},
    )
)
@example(  # m between two axes: each c runs over m, each m over a block of p
    grid=GridSpec(
        MechanismSpec(Mechanism.REDUCIBLE, Variant.RISK),
        (Axis("c", 0.5, 1.5, 2), Axis("m", 0.0, 3.0, 3), Axis("p", 0.0, 1.0, 3)),
        {"V_D": 1.0, "V_B": 2.0, "r": 0.7, "prior": 0.5},
    )
)
def test_a_row_is_its_params_and_m(grid):
    spec = grid.mechanism
    rows = run_sweep(grid, oracle_fraction=0.0, seed=0)
    combos = list(itertools.product(*[axis.values() for axis in grid.axes]))
    assert len(rows) == len(combos)
    fixed = {sym: float(value) for sym, value in grid.fixed.items()}
    for row, combo in zip(rows, combos):
        expected = dict(fixed, **{axis.symbol: v for axis, v in zip(grid.axes, combo)})
        coords = row.coordinates
        assert list(coords) == list(ALL_SYMBOLS)
        assert _exact(coords.values()) == _exact(expected[sym] for sym in ALL_SYMBOLS)
        flat = row.to_flat_dict(spec)
        assert _exact(flat[sym] for sym in ALL_SYMBOLS) == _exact(coords.values())
        again = region_row_for_point(spec, row.params, row.m)
        assert _exact(again.cells(spec)[:-1]) == _exact(row.cells(spec)[:-1])


def test_rows_that_share_params_keep_their_own_oracle_flag():
    # along m every row holds its c's one ModelParams; oracle_checked is the row's own
    grid = GridSpec(
        TH_BASE, (Axis("c", 0.5, 1.0, 3), Axis("m", 0.0, 3.0, 8)), {"V_D": 1.0, "V_B": 2.0, "r": 0.0, "p": 0.1, "prior": 0.5}
    )
    rows = run_sweep(grid, oracle_fraction=0.5, seed=1)
    by_params: dict[int, list] = {}
    for row in rows:
        by_params.setdefault(id(row.params), []).append(row)
    assert [len(same) for same in by_params.values()] == [8, 8, 8]
    # every point is valid, so the sample is the first half of the seeded shuffle of all rows
    chosen = set(np.random.default_rng(1).permutation(len(rows))[: len(rows) // 2].tolist())
    assert [row.oracle_checked for row in rows] == [k in chosen for k in range(len(rows))]
    assert all({row.oracle_checked for row in same} == {True, False} for same in by_params.values())


#: A fixed value's (low, high) per symbol, around a point where every
#: constraint holds, so only the axes cross into Invalid strips.
_FIXED_SPAN = {
    "c": (0.2, 1.0), "V_D": (0.5, 2.0), "V_B": (1.5, 3.0), "r": (0.0, 1.5),
    "p": (0.05, 0.95), "prior": (0.05, 0.95), "m": (0.0, 3.0),
}


def _boundary_grids(spec: MechanismSpec) -> list[GridSpec]:
    """Seeded random 2-axis grids of one spec, each in both axis orders:
    four with p = 0 and four that may drift (p fixed above 0 or an axis)."""
    rng = random.Random(f"{spec.mechanism.value}-{spec.variant.value}")
    grids = []
    for drift in (False, True):
        for _ in range(4):
            symbols = rng.sample([s for s in SWEEPABLE if drift or s != "p"], 2)
            axes = []
            for sym in symbols:
                lowest, highest = _AXIS_SPAN[sym]
                lo = rng.uniform(lowest, highest - 0.1)
                axes.append(Axis(sym, lo, rng.uniform(lo + 0.05, highest), rng.randint(4, 8)))
            fixed = {s: rng.uniform(*_FIXED_SPAN[s]) for s in ALL_SYMBOLS if s not in symbols}
            if not drift:
                fixed["p"] = 0.0
            grids += [GridSpec(spec, tuple(axes), fixed), GridSpec(spec, tuple(reversed(axes)), fixed)]
    return grids


#: sha256 of ``json.dumps`` of each grid's ``[bp.to_dict() for bp in
#: boundary_trace(grid)]`` over :func:`_boundary_grids`, per spec.
BOUNDARY_DIGESTS = {
    "tying-hands-base": "8b0dbe606c607dbe49e42b1a2b666e42a287148f494a1a36f64db8be9e97461f",
    "tying-hands-risk": "fe207de55d6b2ade1a3c5d241c04554abf6e4ed2a5572270ecef397ee0fba899",
    "sunk-base": "caf275a6efca8957d70f5fa9eb968bf7c85573daeb86882e84a44e7f54fa6f14",
    "sunk-risk": "39d8f12c59e6e9371f8896a413c54f1a13c66756ebfe00272465a205d6d7d8e0",
    "installment-base": "1530b52995ce24d4eb2e2973bdecb71921ae2d69a6ce9eb19e2592fcea747b91",
    "installment-risk": "4f262b98f3596c9f8a9fab614aabef792535fae4564dd615ee93c47b15f9ad4c",
    "reducible-base": "d62a3d9b56aaf640094cdad21712e79538197f0c950ebfcf1f63418d9bb7d7bf",
    "reducible-risk": "b071f87070ae5c6ba8f37121f7ef3a76470508aa414b2d788d328943f2679043",
}


def test_boundary_trace_unchanged():
    digests, sides = {}, []
    for spec in (MechanismSpec(mech, variant) for mech in Mechanism for variant in Variant):
        traces = [[bp.to_dict() for bp in boundary_trace(grid)] for grid in _boundary_grids(spec)]
        digests[f"{spec.mechanism.value}-{spec.variant.value}"] = hashlib.sha256(
            json.dumps(traces).encode()
        ).hexdigest()
        sides += [(bp["left"], bp["right"]) for trace in traces for bp in trace]
    # the pins cross Invalid strips, region edges and drift-tolerance edges
    assert any(left["classification"] == "Invalid" for left, _ in sides)
    assert any(left["classification"] not in ("Invalid", right["classification"]) for left, right in sides)
    assert any({left["type_shift_refrain"], right["type_shift_refrain"]} == {True, False} for left, right in sides)
    assert digests == BOUNDARY_DIGESTS


def _plain_csv(rows, spec) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        cells = row.cells(spec)
        cells[-1] = "true" if row.oracle_checked else "false"
        writer.writerow(cells)
    return buf.getvalue()


def _plain_json(rows, spec) -> str:
    buf = io.StringIO()
    write_json([row.to_flat_dict(spec) for row in rows], buf)
    return buf.getvalue()


#: (grid, oracle fraction) of sweeps whose emitted bytes must match a plain
#: ``csv.writer`` and ``json.dump`` of the same rows.
EMIT_CASES = {
    # r = -0.0 on every row beside m = 0.0 on the first column: 0.0 == -0.0,
    # but the two print differently; p = c/V_B makes a 0.0 type-shift slack
    "signed-zeros": (
        GridSpec(
            TH_RISK,
            (Axis("m", 0.0, 2.0, 5), Axis("V_D", 0.5, 2.0, 4)),
            {"c": 0.5, "V_B": 2.0, "r": -0.0, "p": 0.25, "prior": 0.5},
        ),
        0.0,
    ),
    # (m - c) - V_D overflows to -inf on part of the grid
    "overflow": (
        GridSpec(
            TH_BASE,
            (Axis("c", 1e307, 1.7e308, 5), Axis("V_D", 1e300, 1.7e308, 5)),
            {"V_B": 1.79e308, "r": 0.0, "p": 0.1, "prior": 0.5, "m": 0.0},
        ),
        0.0,
    ),
    # V_B crosses c, so a strip of Invalid rows; half the valid rows oracle-checked
    "invalid-strip": (
        GridSpec(
            TH_BASE,
            (Axis("V_B", 0.25, 2.0, 8), Axis("m", 0.5, 2.0, 4)),
            {"c": 0.5, "V_D": 1.0, "r": 0.0, "p": 0.3, "prior": 0.5},
        ),
        0.5,
    ),
    # ints fixed from Python are read as floats, as a config's are
    "python-numbers": (
        GridSpec(
            MechanismSpec(Mechanism.SUNK, Variant.RISK),
            (Axis("m", 0.0, 2.0, 3), Axis("c", 1.0, 3.0, 3)),
            {"V_D": 1, "V_B": 4, "r": 2, "p": 1, "prior": 0.5},
        ),
        0.0,
    ),
    "sunk-risk-no-drift": (
        GridSpec(
            MechanismSpec(Mechanism.SUNK, Variant.RISK),
            (Axis("c", 0.1, 3.0, 6), Axis("r", 0.0, 1.0, 3)),
            {"V_D": 1.0, "V_B": 2.0, "p": 0.0, "prior": 0.5, "m": 1.5},
        ),
        0.0,
    ),
}


class TestEmitBytes:
    @pytest.mark.parametrize("memo_size", [None, 3])
    @pytest.mark.parametrize("name", sorted(EMIT_CASES))
    def test_rows_match_plain_writers(self, name, memo_size, monkeypatch):
        if memo_size is not None:  # the float-text memo fills and is cleared many times
            monkeypatch.setattr(emit, "_MEMO_SIZE", memo_size)
        grid, fraction = EMIT_CASES[name]
        rows = run_sweep(grid, oracle_fraction=fraction, seed=3)
        texts = {str(v) for row in rows for v in row.cells(grid.mechanism)}
        expected = {
            "signed-zeros": {"0.0", "-0.0"},
            "overflow": {"-inf"},
            "invalid-strip": {"Invalid", "True"},
            "python-numbers": {"1.0"},
            "sunk-risk-no-drift": {"None"},
        }[name]
        assert expected <= texts  # the case shows what it is there for
        assert name != "python-numbers" or "1" not in texts
        for write, plain in ((write_rows_csv, _plain_csv), (write_rows_json, _plain_json)):
            buf = io.StringIO()
            write(rows, grid.mechanism, buf)
            assert buf.getvalue() == plain(rows, grid.mechanism)

    def test_no_rows(self):
        for write, plain in ((write_rows_csv, _plain_csv), (write_rows_json, _plain_json)):
            buf = io.StringIO()
            write([], TH_BASE, buf)
            assert buf.getvalue() == plain([], TH_BASE)


#: Params and m that a Python caller may pass: each row is Invalid and
#: keeps them, so the writers meet texts, lists and tuples, not only floats.
_HOSTILE_POINTS = [
    (ModelParams("1,5", 1.0, 2.0), 1.0),
    (ModelParams(0.5, 'say "no"', 2.0), 1.0),
    (ModelParams(0.5, 1.0, "two\nlines"), 1.0),
    (ModelParams(0.5, 1.0, 2.0, "a\r,b"), 1.0),
    (ModelParams(0.5, 1.0, 2.0), ""),
    (ModelParams(0.5, [1, 2], 2.0), (1.0, 'x"y')),
    (ModelParams(0.5, 1.0, 2.0, p="x,\n\"y\""), [0.5, "q"]),
]


def _hostile_rows():
    rows = [region_row_for_point(TH_BASE, params, m) for params, m in _HOSTILE_POINTS]
    assert all(row.classification is Classification.INVALID for row in rows)
    return rows


def test_hostile_invalid_rows_are_written_as_csv_writer_writes_them():
    # a text holding ',', '"' or a line feed is quoted and its '"' doubled,
    # an empty text is an empty cell; csv.reader reads each row back whole
    grid, fraction = EMIT_CASES["invalid-strip"]
    table = run_sweep(grid, oracle_fraction=fraction, seed=3)
    hostile = _hostile_rows()
    for rows in (hostile, table[:5] + hostile + table[5:]):
        written = io.StringIO()
        write_rows_csv(rows, TH_BASE, written)
        assert written.getvalue() == _plain_csv(rows, TH_BASE)
        read = list(csv.reader(io.StringIO(written.getvalue(), newline="")))
        assert len(read) == len(rows) + 1 and all(len(cells) == 15 for cells in read)
        assert [cells[2:9] for cells in read[1:]] == [
            ["" if v is None else str(v) for v in (*row.params, row.m)] for row in rows
        ]
    # csv.writer leaves a text whose only line end is '\r' unquoted, and so
    # does the writer; csv.reader cannot read such a row back as one record
    lone_cr = [region_row_for_point(TH_BASE, ModelParams(0.5, "a\rb", 2.0), "\r")]
    written = io.StringIO()
    write_rows_csv(lone_cr, TH_BASE, written)
    assert written.getvalue() == _plain_csv(lone_cr, TH_BASE)
    assert "a\rb" in written.getvalue()


def test_list_and_dict_cells_spread_as_json_dump_spreads_them():
    # a list, tuple or dict cell is spread over lines at its depth in the
    # document, as write_json spreads it, not written inline
    spread = [
        region_row_for_point(TH_BASE, ModelParams(0.5, [1, 2], 2.0), 1.0),
        region_row_for_point(TH_BASE, ModelParams(0.5, 1.0, 2.0), {"a": [1, 2], "b": (3.5, None), "c": {}}),
        region_row_for_point(TH_BASE, ModelParams(0.5, 1.0, 2.0, (0.25, [])), 1.0),
    ]
    grid, fraction = EMIT_CASES["invalid-strip"]
    table = run_sweep(grid, oracle_fraction=fraction, seed=3)
    for rows in (spread, _hostile_rows(), table[:5] + spread + table[5:]):
        written = io.StringIO()
        write_rows_json(rows, TH_BASE, written)
        assert written.getvalue() == _plain_json(rows, TH_BASE)
        assert json.loads(written.getvalue()) == json.loads(_plain_json(rows, TH_BASE))


_PARAM = st.one_of(
    st.floats(-0.5, 3.0),
    st.sampled_from([0.0, -0.0, 1e308, math.inf, -math.inf, math.nan]),
)


@settings(max_examples=400, deadline=None)
@given(
    spec=spec_strategy,
    # valid points, and points that break any constraint (Invalid rows)
    params=st.one_of(params_strategy(with_drift=True), st.builds(ModelParams, *[_PARAM] * 6)),
    m=st.one_of(signal_strategy, _PARAM),
)
@example(spec=TH_BASE, params=ModelParams(0.5, 1.0, 2.0), m=2.0)
@example(spec=TH_RISK, params=ModelParams(0.5, 1.0, 2.0, 0.7, 0.25, 0.5), m=1.5)  # drift slack 0.0
@example(spec=TH_BASE, params=ModelParams(1.7e308, 1.7e308, 1.79e308, 0.0, 0.1), m=0.0)  # -inf slack
@example(spec=TH_BASE, params=ModelParams(0.5, 1.0, 0.25), m=1.0)  # V_B < c
def test_region_row_agrees_with_classify(spec, params, m):
    row = region_row_for_point(spec, params, m)
    try:
        report = classify(spec, params, m)
    except ParameterError:
        assert row.classification is Classification.INVALID
        assert (row.pooling_slack, row.separating_slack_1, row.separating_slack_2, row.typeshift_slack) == (None,) * 4
        return
    separating = [cl.slack for cl in report.separating.clauses]
    type_shift = report.type_shift_refrain
    expected = [
        report.pooling_on_restraint.clauses[0].slack,
        separating[0],
        separating[1] if len(separating) > 1 else None,
        None if type_shift is None else type_shift.clauses[0].slack,
    ]
    got = [row.pooling_slack, row.separating_slack_1, row.separating_slack_2, row.typeshift_slack]
    assert [v is None for v in got] == [v is None for v in expected]
    assert _bits(v for v in got if v is not None) == _bits(v for v in expected if v is not None)
    assert row.classification is {
        (True, True): Classification.BOTH,
        (True, False): Classification.POOLING_ONLY,
        (False, True): Classification.SEPARATING_ONLY,
        (False, False): Classification.NEITHER,
    }[(report.pooling_on_restraint.holds, report.separating.holds)]
