"""Grid sweep, region table, and boundary tracing tests."""

from __future__ import annotations

import io
import json

import pytest

from restraint_games import (
    TOL,
    Axis,
    Classification,
    DiscrepancyError,
    GridSpec,
    Mechanism,
    MechanismSpec,
    ParameterError,
    Variant,
    boundary_trace,
    run_sweep,
    write_rows_csv,
    write_rows_json,
)
from restraint_games.sweep import CSV_HEADER

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
        with pytest.raises(ParameterError):
            run_sweep(tying_grid(), oracle_fraction=1.5, seed=0)

    def test_spec_roundtrip(self):
        grid = tying_grid()
        assert GridSpec.from_dict(grid.to_dict()) == grid


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

    def test_needs_two_axes(self):
        grid = tying_grid(axes=(Axis("m", 0.5, 2.0, 4),), fixed={"V_D": 1.0})
        with pytest.raises(ParameterError):
            boundary_trace(grid)
