"""Parameter-grid sweeps into equilibrium-region tables.

A sweep runs the closed-form checkers over a rectangular grid of 1 to 3
axes, classifies each point by which equilibria exist there, and emits
plot-ready rows. Grid points that violate a model constraint are kept and
marked ``Invalid`` so consumers can see the feasible region's shape. A
seeded fraction of the valid points is re-derived with the exhaustive
oracle; any disagreement aborts the sweep with the full discrepancy
report rather than emitting a table the oracle would not sign off on.

Every result table the package writes is formatted here: sweep rows as
CSV or JSON, oracle certificates and simulation summaries as CSV.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Optional

import numpy as np

from .conditions import classify
from .game import TOL, MechanismSpec, ModelParams, ParameterError, integer, real
from .montecarlo import SimResult
from .oracle import DiscrepancyError, PBECertificate, verify_against_closed_form

#: Symbols a sweep axis may range over. The prior is fixed-only: no
#: closed-form condition depends on it.
SWEEPABLE = ("c", "V_D", "V_B", "r", "p", "m")
ALL_SYMBOLS = ("c", "V_D", "V_B", "r", "p", "prior", "m")

CSV_HEADER = [
    "mechanism",
    "variant",
    "c",
    "V_D",
    "V_B",
    "r",
    "p",
    "prior",
    "m",
    "classification",
    "pooling_slack",
    "separating_slack_1",
    "separating_slack_2",
    "typeshift_slack",
    "oracle_checked",
]

CERTIFICATE_CSV_HEADER = [
    "class",
    "signal_restrained",
    "signal_aggressive",
    "fight_after",
    "t2_actions",
    "posteriors",
]


class Classification(Enum):
    POOLING_ONLY = "PoolingOnly"
    SEPARATING_ONLY = "SeparatingOnly"
    BOTH = "Both"
    NEITHER = "Neither"
    INVALID = "Invalid"


@dataclass(frozen=True)
class Axis:
    symbol: str
    min: float
    max: float
    steps: int

    def values(self) -> list[float]:
        return [float(v) for v in np.linspace(self.min, self.max, self.steps)]

    def to_dict(self) -> dict:
        return {"symbol": self.symbol, "min": self.min, "max": self.max, "steps": self.steps}

    @classmethod
    def from_dict(cls, d: dict) -> "Axis":
        return cls(str(d["symbol"]), real(d["min"]), real(d["max"]), integer(d["steps"]))


@dataclass(frozen=True)
class GridSpec:
    mechanism: MechanismSpec
    axes: tuple[Axis, ...]
    fixed: dict[str, float]

    def validate(self) -> None:
        if not 1 <= len(self.axes) <= 3:
            raise ParameterError("1 <= |axes| <= 3", f"got {len(self.axes)}")
        seen = set()
        for axis in self.axes:
            if axis.symbol not in SWEEPABLE:
                raise ParameterError(
                    f"axis symbol in {SWEEPABLE}", f"got {axis.symbol!r}"
                )
            if axis.symbol in seen:
                raise ParameterError("axis symbols distinct", f"{axis.symbol!r} repeated")
            seen.add(axis.symbol)
            if axis.steps < 2:
                raise ParameterError("steps >= 2", f"{axis.symbol}: {axis.steps}")
            if not -math.inf < axis.min < axis.max < math.inf:
                raise ParameterError(
                    "finite min < max", f"{axis.symbol}: [{axis.min}, {axis.max}]"
                )
        for sym in self.fixed:
            if sym not in ALL_SYMBOLS:
                raise ParameterError(f"fixed symbol in {ALL_SYMBOLS}", f"got {sym!r}")
            if sym in seen:
                raise ParameterError("fixed and axes disjoint", f"{sym!r} in both")
        missing = [s for s in ALL_SYMBOLS if s not in seen and s not in self.fixed]
        if missing:
            raise ParameterError(
                "fixed and axes cover all symbols", f"missing {missing}"
            )

    def to_dict(self) -> dict:
        return {
            "mechanism": self.mechanism.to_dict(),
            "axes": [a.to_dict() for a in self.axes],
            "fixed": dict(self.fixed),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        mechanism = MechanismSpec.from_dict(d.get("mechanism", {}))
        try:
            axes = tuple(Axis.from_dict(a) for a in d["axes"])
            fixed = {str(k): real(v) for k, v in d["fixed"].items()}
        except KeyError as exc:
            raise ParameterError("grid and axis keys present", f"missing {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParameterError("grid values well-formed", str(exc)) from exc
        return cls(mechanism=mechanism, axes=axes, fixed=fixed)


@dataclass
class RegionRow:
    coordinates: dict[str, float]
    classification: Classification
    pooling_slack: Optional[float]
    separating_slack_1: Optional[float]
    separating_slack_2: Optional[float]
    typeshift_slack: Optional[float]
    oracle_checked: bool = False

    def to_flat_dict(self, spec: MechanismSpec) -> dict:
        d = {
            "mechanism": spec.mechanism.value,
            "variant": spec.variant.value,
        }
        d.update({sym: self.coordinates[sym] for sym in ALL_SYMBOLS})
        d.update(
            {
                "classification": self.classification.value,
                "pooling_slack": self.pooling_slack,
                "separating_slack_1": self.separating_slack_1,
                "separating_slack_2": self.separating_slack_2,
                "typeshift_slack": self.typeshift_slack,
                "oracle_checked": self.oracle_checked,
            }
        )
        return d


def _evaluate_point(spec: MechanismSpec, coords: dict[str, float]) -> RegionRow:
    try:
        report = classify(spec, ModelParams.from_dict(coords), coords["m"])
    except ParameterError:
        return RegionRow(coords, Classification.INVALID, None, None, None, None)
    pooling = report.pooling_on_restraint
    separating = report.separating
    if pooling.holds and separating.holds:
        cls = Classification.BOTH
    elif pooling.holds:
        cls = Classification.POOLING_ONLY
    elif separating.holds:
        cls = Classification.SEPARATING_ONLY
    else:
        cls = Classification.NEITHER
    sep_slacks = [clause.slack for clause in separating.clauses]
    return RegionRow(
        coordinates=coords,
        classification=cls,
        pooling_slack=pooling.clauses[0].slack,
        separating_slack_1=sep_slacks[0],
        separating_slack_2=sep_slacks[1] if len(sep_slacks) > 1 else None,
        typeshift_slack=(
            report.type_shift_refrain.clauses[0].slack
            if report.type_shift_refrain is not None
            else None
        ),
        oracle_checked=False,
    )


def region_row_for_point(spec: MechanismSpec, params: ModelParams, m: float) -> RegionRow:
    """Classify a single parameter point into a sweep-style row."""
    coords = params.to_dict()
    coords["m"] = float(m)
    return _evaluate_point(spec, coords)


def grid_points(grid: GridSpec) -> list[dict[str, float]]:
    """All coordinate maps in row-major axis order."""
    grid.validate()
    axis_values = [axis.values() for axis in grid.axes]
    points = []
    for combo in itertools.product(*axis_values):
        coords = dict(grid.fixed)
        coords.update({axis.symbol: v for axis, v in zip(grid.axes, combo)})
        points.append(coords)
    return points


def run_sweep(
    grid: GridSpec,
    oracle_fraction: float = 0.05,
    seed: int = 0,
) -> list[RegionRow]:
    """Classify every grid point; oracle-check a seeded random subset.

    Points are evaluated one after another and rows come back in row-major
    axis order. The oracle subset is drawn without replacement via a seeded
    shuffle of the valid rows; ``int(oracle_fraction * n_valid)`` points
    are checked in one :func:`verify_against_closed_form` call, and any
    closed-form/oracle mismatch raises :class:`DiscrepancyError` with its
    report.
    """
    if not 0.0 <= oracle_fraction <= 1.0:
        raise ParameterError("0 <= oracle_fraction <= 1", f"got {oracle_fraction}")
    if seed < 0:
        raise ParameterError("seed >= 0", f"got {seed}")
    rows = [_evaluate_point(grid.mechanism, coords) for coords in grid_points(grid)]

    valid = [row for row in rows if row.classification is not Classification.INVALID]
    n_checked = int(oracle_fraction * len(valid))
    if n_checked > 0:
        order = np.random.default_rng(seed).permutation(len(valid))
        chosen = [valid[int(k)] for k in order[:n_checked]]
        points = [(ModelParams.from_dict(row.coordinates), row.coordinates["m"]) for row in chosen]
        report = verify_against_closed_form(grid.mechanism, points)
        if not report.empty:
            raise DiscrepancyError(report)
        for row in chosen:
            row.oracle_checked = True
    return rows


@dataclass(frozen=True)
class BoundaryPoint:
    """Grid-edge midpoint where the region signature flips."""

    coordinates: dict[str, float]
    axis: str
    left: dict
    right: dict

    def to_dict(self) -> dict:
        return {
            "coordinates": dict(self.coordinates),
            "axis": self.axis,
            "left": dict(self.left),
            "right": dict(self.right),
        }


def _signature(row: RegionRow) -> tuple:
    type_shift = (
        None if row.typeshift_slack is None else bool(row.typeshift_slack >= -TOL)
    )
    return (row.classification.value, type_shift)


def boundary_trace(grid: GridSpec) -> list[BoundaryPoint]:
    """Midpoints of grid edges whose endpoints classify differently.

    Requires exactly two axes. The signature compared across an edge is
    the classification plus, when drift is in play (p > 0), the type-shift
    refrain flag, so a (p, V_B) sweep traces the drift-tolerance boundary
    even though pooling/separating do not move.
    """
    grid.validate()
    if len(grid.axes) != 2:
        raise ParameterError("boundary_trace needs exactly 2 axes", f"got {len(grid.axes)}")
    rows = run_sweep(grid, oracle_fraction=0.0, seed=0)
    ax0, ax1 = grid.axes
    v0, v1 = ax0.values(), ax1.values()
    n0, n1 = len(v0), len(v1)

    def sig(i, j):
        return _signature(rows[i * n1 + j])

    def describe(i, j):
        row = rows[i * n1 + j]
        s = _signature(row)
        return {"classification": s[0], "type_shift_refrain": s[1]}

    out: list[BoundaryPoint] = []
    for i in range(n0):
        for j in range(n1):
            if i + 1 < n0 and sig(i, j) != sig(i + 1, j):
                coords = dict(rows[i * n1 + j].coordinates)
                coords[ax0.symbol] = 0.5 * (v0[i] + v0[i + 1])
                out.append(
                    BoundaryPoint(coords, ax0.symbol, describe(i, j), describe(i + 1, j))
                )
            if j + 1 < n1 and sig(i, j) != sig(i, j + 1):
                coords = dict(rows[i * n1 + j].coordinates)
                coords[ax1.symbol] = 0.5 * (v1[j] + v1[j + 1])
                out.append(
                    BoundaryPoint(coords, ax1.symbol, describe(i, j), describe(i, j + 1))
                )
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_rows_csv(rows: list[RegionRow], spec: MechanismSpec, out: IO[str]) -> None:
    """UTF-8, LF line endings, '.' decimal separator, fixed header."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        flat = row.to_flat_dict(spec)
        writer.writerow([_cell(flat[col]) for col in CSV_HEADER])


def write_json(data, out: IO[str]) -> None:
    """Two-space indented JSON plus a final newline."""
    json.dump(data, out, indent=2)
    out.write("\n")


def write_rows_json(rows: list[RegionRow], spec: MechanismSpec, out: IO[str]) -> None:
    write_json([row.to_flat_dict(spec) for row in rows], out)


def write_certificates_csv(certs: list[PBECertificate], out: IO[str]) -> None:
    """One row per certificate; each strategy map is a ';'-joined cell."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CERTIFICATE_CSV_HEADER)
    for cert in certs:
        d = cert.profile.to_dict()
        writer.writerow(
            [
                cert.pbe_class.value,
                d["signal_of"]["restrained"],
                d["signal_of"]["aggressive"],
                ";".join(f"{m}:{'fight' if f else 'yield'}" for m, f in d["fight_after"]),
                ";".join(f"{t}@{m}:{a}" for t, m, a in d["t2_action"]),
                ";".join(f"{m}:{q}" for m, q in cert.beliefs.to_dict()["posterior"]),
            ]
        )


def write_simulation_csv(result: SimResult, out: IO[str]) -> None:
    """Header plus one summary row. Prior-weighted results add State B's
    mean payoff by initial type, empty where no trial had that type."""
    counts = result.to_dict()["outcome_counts"]
    header = ["conflict", "exploit", "restraint", "mean_u_A", "mean_u_B", "standard_error_u_B"]
    values = [counts.get(name, 0) for name in header[:3]]
    values += [result.mean_u_A, result.mean_u_B, result.standard_error_u_B]
    by_type = result.mean_u_B_by_initial_type
    if by_type is not None:
        header += ["mean_u_B_initial_restrained", "mean_u_B_initial_aggressive"]
        values += [by_type["restrained"], by_type["aggressive"]]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerow([_cell(v) for v in values])
