"""Parameter-grid sweeps into equilibrium-region tables.

A sweep runs the closed-form checkers over a rectangular grid of 1 to 3
axes, classifies each point by which equilibria exist there, and emits
plot-ready rows. Grid points that violate a model constraint are kept and
marked ``Invalid`` so consumers can see the feasible region's shape. A
seeded fraction of the valid points is re-derived with the exhaustive
oracle; any disagreement aborts the sweep with the full discrepancy
report rather than emitting a table the oracle would not sign off on.

A point's row comes straight from :func:`~restraint_games.conditions.slacks`
and :func:`~restraint_games.conditions.holds`: the parameters are
validated once and no report objects are built.

Every result table the package writes is formatted here: sweep rows as
CSV or JSON, oracle certificates and simulation summaries as CSV. A sweep
row's layout is spelled out once, as :data:`CSV_HEADER` and
:meth:`RegionRow.cells`. ``csv`` writes the cells: an absent value is an
empty cell and a number is written as ``str(number)``. JSON rows are
written by hand in the layout of ``json.dump(..., indent=2)``, each key and
value encoded as ``json`` encodes it. Both writers format each distinct
float once per table, since fixed values repeat on every row and an axis
value on many.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import IO, Callable, Optional

from .conditions import holds, slacks
from .game import MechanismSpec, ModelParams, Outcome, ParameterError, integer, real, validate_signal
from .montecarlo import SimResult
from .oracle import BudgetExceededError, DiscrepancyError, PBECertificate, verify_against_closed_form

#: Symbols a sweep axis may range over. The prior is fixed-only: no
#: closed-form condition depends on it.
SWEEPABLE = ("c", "V_D", "V_B", "r", "p", "m")
ALL_SYMBOLS = ("c", "V_D", "V_B", "r", "p", "prior", "m")

#: A coordinate map's :class:`ModelParams` fields, in field order.
_PARAMS_OF = itemgetter("c", "V_D", "V_B", "r", "p", "prior")

#: Most grid points a sweep builds: each row is ~0.5 KB before any output.
GRID_POINT_BUDGET = 10**6

CSV_HEADER = [
    "mechanism",
    "variant",
    *ALL_SYMBOLS,
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
        """``np.linspace(min, max, steps)`` in Python floats: the same IEEE
        operations, so the same bits, without importing numpy."""
        lo, hi, n = float(self.min), float(self.max), self.steps
        div = max(n - 1, 1)  # a 1-point linspace is [min]
        step = (hi - lo) / div
        if step == 0:  # numpy's branch for a span too small to divide
            points = [i / div * (hi - lo) + lo for i in range(n)]
        else:
            points = [i * step + lo for i in range(n)]
        if n > 1:
            points[-1] = hi
        return points

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
            if isinstance(axis.min, bool) or isinstance(axis.max, bool):
                raise ParameterError("axis bounds not booleans", f"{axis.symbol}: [{axis.min}, {axis.max}]")
            # a finite span also rules out infinite bounds
            if not (axis.min < axis.max and math.isfinite(axis.max - axis.min)):
                raise ParameterError(
                    "min < max, finite max - min", f"{axis.symbol}: [{axis.min}, {axis.max}]"
                )
        for sym, value in self.fixed.items():
            if sym not in ALL_SYMBOLS:
                raise ParameterError(f"fixed symbol in {ALL_SYMBOLS}", f"got {sym!r}")
            if sym in seen:
                raise ParameterError("fixed and axes disjoint", f"{sym!r} in both")
            if isinstance(value, bool) or not math.isfinite(value):
                raise ParameterError("fixed values finite, not booleans", f"{sym}={value}")
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

    def cells(self, spec: MechanismSpec) -> list:
        """The row's values in :data:`CSV_HEADER` order, None where a
        slack does not apply: the one place the row layout is spelled out."""
        coords = self.coordinates
        return [
            spec.mechanism.value,
            spec.variant.value,
            *[coords[sym] for sym in ALL_SYMBOLS],
            self.classification.value,
            self.pooling_slack,
            self.separating_slack_1,
            self.separating_slack_2,
            self.typeshift_slack,
            self.oracle_checked,
        ]

    def to_flat_dict(self, spec: MechanismSpec) -> dict:
        return dict(zip(CSV_HEADER, self.cells(spec)))


#: Classification by whether (pooling, separating) hold.
_CLASSIFICATION = {
    (True, True): Classification.BOTH,
    (True, False): Classification.POOLING_ONLY,
    (False, True): Classification.SEPARATING_ONLY,
    (False, False): Classification.NEITHER,
}


def _evaluate_point(spec: MechanismSpec, params: ModelParams, coords: dict[str, float]) -> RegionRow:
    """The row of the point ``params`` at ``coords["m"]``; ``coords`` holds
    every symbol's value."""
    m = coords["m"]
    try:
        params.validate()
        validate_signal(m)
    except ParameterError:
        return RegionRow(coords, Classification.INVALID, None, None, None, None)
    pooling, separating, drift = slacks(spec, params, m)
    return RegionRow(
        coordinates=coords,
        classification=_CLASSIFICATION[holds(pooling), holds(separating)],
        pooling_slack=pooling[0],
        separating_slack_1=separating[0],
        separating_slack_2=separating[1] if len(separating) > 1 else None,
        typeshift_slack=drift,
    )


def region_row_for_point(spec: MechanismSpec, params: ModelParams, m: float) -> RegionRow:
    """Classify a single parameter point into a sweep-style row."""
    coords = params.to_dict()
    coords["m"] = float(m)
    return _evaluate_point(spec, params, coords)


def grid_points(grid: GridSpec) -> list[dict[str, float]]:
    """All coordinate maps in row-major axis order. More than
    :data:`GRID_POINT_BUDGET` points raises :class:`BudgetExceededError`
    before any is built."""
    grid.validate()
    n_points = math.prod(axis.steps for axis in grid.axes)
    if n_points > GRID_POINT_BUDGET:
        raise BudgetExceededError(n_points, GRID_POINT_BUDGET, "grid point")
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
    spec = grid.mechanism
    # float() as in ModelParams.from_dict: a grid built in Python may fix an int
    rows = [
        _evaluate_point(spec, ModelParams(*map(float, _PARAMS_OF(coords))), coords)
        for coords in grid_points(grid)
    ]

    valid = [row for row in rows if row.classification is not Classification.INVALID]
    n_checked = int(oracle_fraction * len(valid))
    if n_checked > 0:
        import numpy as np  # here, so a sweep without an oracle sample skips importing numpy
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


def _signature(row: RegionRow) -> dict:
    type_shift = None if row.typeshift_slack is None else holds((row.typeshift_slack,))
    return {"classification": row.classification.value, "type_shift_refrain": type_shift}


def boundary_trace(grid: GridSpec) -> list[BoundaryPoint]:
    """Midpoints of grid edges whose endpoints classify differently.

    Requires exactly two axes. The signature compared across an edge is
    the classification plus, when drift is in play (p > 0), the type-shift
    refrain flag, so a (p, V_B) sweep traces the drift-tolerance boundary
    even though pooling/separating do not move.
    """
    if len(grid.axes) != 2:
        raise ParameterError("boundary_trace needs exactly 2 axes", f"got {len(grid.axes)}")
    rows = run_sweep(grid, oracle_fraction=0.0, seed=0)
    ax0, ax1 = grid.axes
    v0, v1 = ax0.values(), ax1.values()
    n0, n1 = len(v0), len(v1)
    sigs = [_signature(row) for row in rows]

    out: list[BoundaryPoint] = []
    for i in range(n0):
        for j in range(n1):
            k = i * n1 + j
            if i + 1 < n0 and sigs[k] != sigs[k + n1]:
                coords = dict(rows[k].coordinates)
                coords[ax0.symbol] = 0.5 * (v0[i] + v0[i + 1])
                out.append(
                    BoundaryPoint(coords, ax0.symbol, dict(sigs[k]), dict(sigs[k + n1]))
                )
            if j + 1 < n1 and sigs[k] != sigs[k + 1]:
                coords = dict(rows[k].coordinates)
                coords[ax1.symbol] = 0.5 * (v1[j] + v1[j + 1])
                out.append(
                    BoundaryPoint(coords, ax1.symbol, dict(sigs[k]), dict(sigs[k + 1]))
                )
    return out


#: Most float texts a table writer remembers at once; it forgets them all
#: when full, so a grid of unique slacks costs a bounded memo, not one entry
#: per row, while repeated values are formatted about once per refill.
_MEMO_SIZE = 4096


def _memo_floats(fmt: Callable[[object], str]) -> Callable[[object], str]:
    """``fmt``, remembering its text of each distinct float for one table:
    fixed values repeat on every row and an axis value on many. Zeros are
    not remembered, since 0.0 == -0.0 but the two print differently, nor is
    any value that is not a float, since True == 1.0."""
    texts: dict[float, str] = {}

    def text(value) -> str:
        if type(value) is not float or not value:
            return fmt(value)
        t = texts.get(value)
        if t is None:
            if len(texts) >= _MEMO_SIZE:
                texts.clear()
            t = texts[value] = fmt(value)
        return t

    return text


def _csv_text(value) -> str:
    """A cell as ``csv`` writes it."""
    return "" if value is None else str(value)


_JSON_LITERALS = {None: "null", True: "true", False: "false"}


def _json_text(value) -> str:
    """A value as ``json`` encodes it, whose float text is the float's repr."""
    if value is None or type(value) is bool:
        return _JSON_LITERALS[value]
    if type(value) is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value)


def write_rows_csv(rows: list[RegionRow], spec: MechanismSpec, out: IO[str]) -> None:
    """UTF-8, LF line endings, '.' decimal separator, fixed header."""
    text = _memo_floats(_csv_text)

    def lines():
        for row in rows:
            cells = list(map(text, row.cells(spec)))
            cells[-1] = "true" if row.oracle_checked else "false"  # csv would write True
            yield cells

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(lines())


def write_json(data, out: IO[str]) -> None:
    """Two-space indented JSON plus a final newline."""
    json.dump(data, out, indent=2)
    out.write("\n")


def write_rows_json(rows: list[RegionRow], spec: MechanismSpec, out: IO[str]) -> None:
    """:func:`write_json` of the rows' flat dicts, written row by row in
    the same layout: ``indent`` would force the pure-Python encoder."""
    text = _memo_floats(_json_text)
    fields = ",\n".join(f"    {json.dumps(key)}: %s" for key in CSV_HEADER)
    row_format = "\n  {\n" + fields + "\n  }"
    out.write("[")
    sep = ""
    for row in rows:
        out.write(sep + row_format % tuple(map(text, row.cells(spec))))
        sep = ","
    out.write("\n]\n" if rows else "]\n")


def write_certificates_csv(certs: list[PBECertificate], out: IO[str]) -> None:
    """One row per certificate; each strategy map is a ';'-joined cell,
    formatted from the certificate's record."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CERTIFICATE_CSV_HEADER)
    messages = None
    for cert in certs:
        if cert.messages is not messages:
            # a game's certificates share its messages, so each message's
            # text is formatted once per game rather than once per row
            messages = cert.messages
            fights = [(f"{m}:yield", f"{m}:fight") for m in messages]
            actions = [
                (f"{t}@{m}:exploit", f"{t}@{m}:restraint")
                for t in ("restrained", "aggressive")
                for m in messages
            ]
            belief_at = [f"{m}:" for m in messages]
        writer.writerow(
            [
                cert.pbe_class.value,
                messages[cert.j_R],
                messages[cert.j_A],
                ";".join([texts[f] for texts, f in zip(fights, cert.fight)]),
                ";".join([texts[r] for texts, r in zip(actions, cert.restraint)]),
                ";".join([f"{prefix}{q}" for prefix, q in zip(belief_at, cert.posterior)]),
            ]
        )


def write_simulation_csv(result: SimResult, out: IO[str]) -> None:
    """Header plus one summary row. Prior-weighted results add State B's
    mean payoff by initial type, empty where no trial had that type."""
    header = ["conflict", "exploit", "restraint", "mean_u_A", "mean_u_B", "standard_error_u_B"]
    values = [result.outcome_counts.get(outcome, 0) for outcome in Outcome]
    values += [result.mean_u_A, result.mean_u_B, result.standard_error_u_B]
    by_type = result.mean_u_B_by_initial_type
    if by_type is not None:
        header += ["mean_u_B_initial_restrained", "mean_u_B_initial_aggressive"]
        values += [by_type["restrained"], by_type["aggressive"]]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(values)
