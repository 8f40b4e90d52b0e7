"""Parameter-grid sweeps into equilibrium-region tables.

A sweep runs the closed-form checkers over a rectangular grid of 1 to 3
axes, classifies each point by which equilibria exist there, and emits
plot-ready rows. Grid points that violate a model constraint are kept and
marked ``Invalid`` so consumers can see the feasible region's shape. A
seeded fraction of the valid points is re-derived with the exhaustive
oracle; any disagreement aborts the sweep with the full discrepancy
report rather than emitting a table the oracle would not sign off on.

A point is its :class:`~.game.ModelParams` and signal m, from the grid to
the oracle check; the points that differ only in m share one params
object. :func:`region_row_for_point` makes its row straight from the
slacks and verdicts of the spec's :func:`~.conditions.slack_rule`: the
params are validated once per row and no report objects are built. A
row's layout is :data:`~.emit.CSV_HEADER`; :mod:`.emit` writes the rows
and :func:`boundary_trace` compares each with its next rows, both as
they are. A grid's numbers and keys are read by
:func:`~.game.real` and :func:`~.game.refuse_unknown_keys`, as a config's
are. The oracle is imported only when a sample is drawn.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional

from .conditions import holds, slack_rule
from .emit import CSV_HEADER, row_fields
from .game import (
    ALL_SYMBOLS,
    BudgetExceededError,
    DiscrepancyError,
    MechanismSpec,
    ModelParams,
    ParameterError,
    integer,
    real,
    refuse_unknown_keys,
    validate_signal,
)

#: Symbols a sweep axis may range over. The prior is fixed-only: no
#: closed-form condition depends on it.
SWEEPABLE = ("c", "V_D", "V_B", "r", "p", "m")

#: Most grid points a sweep builds: it holds every row until it returns
#: (retained bytes per row in BENCH_sweep_rows.json).
GRID_POINT_BUDGET = 10**6


class Classification(Enum):
    POOLING_ONLY = "PoolingOnly"
    SEPARATING_ONLY = "SeparatingOnly"
    BOTH = "Both"
    NEITHER = "Neither"
    INVALID = "Invalid"


class Axis(NamedTuple):
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
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> "Axis":
        return cls(str(d["symbol"]), real(d["min"]), real(d["max"]), integer(d["steps"]))


class GridSpec(NamedTuple):
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
            if type(axis.steps) is not int:  # range() takes no float, and True is 1
                raise ParameterError("steps an integer", f"{axis.symbol}: {axis.steps!r}")
            if axis.steps < 2:
                raise ParameterError("steps >= 2", f"{axis.symbol}: {axis.steps}")
            bounds = f"{axis.symbol}: [{axis.min!r}, {axis.max!r}]"
            try:  # as a config's bounds are read
                lo, hi = real(axis.min), real(axis.max)
            except ValueError as exc:
                raise ParameterError("axis bounds real numbers, not booleans", bounds) from exc
            # a finite span also rules out infinite bounds
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ParameterError("min < max, finite max - min", bounds)
        for sym, value in self.fixed.items():
            if sym not in ALL_SYMBOLS:
                raise ParameterError(f"fixed symbol in {ALL_SYMBOLS}", f"got {sym!r}")
            if sym in seen:
                raise ParameterError("fixed and axes disjoint", f"{sym!r} in both")
            try:  # as a config's values are read
                finite = math.isfinite(real(value))
            except ValueError:
                finite = False
            if not finite:
                raise ParameterError("fixed values finite, not booleans", f"{sym}={value!r}")
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
        try:
            axes = tuple(Axis.from_dict(a) for a in d["axes"])
            fixed = {str(k): real(v) for k, v in d["fixed"].items()}
        except KeyError as exc:
            raise ParameterError("grid and axis keys present", f"missing {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParameterError("grid values well-formed", str(exc)) from exc
        mechanism = MechanismSpec.from_dict(d.get("mechanism", {}))
        refuse_unknown_keys("grid keys are grid fields", (
            ("in grid", d, cls._fields), ("in mechanism", d.get("mechanism"), MechanismSpec._fields),
            *((f"in axes[{i}]", a, Axis._fields) for i, a in enumerate(d["axes"]))))
        return cls(mechanism=mechanism, axes=axes, fixed=fixed)


class RegionRow:
    """One grid point's row, None where a slack does not apply: a mutable
    record compared by value. :func:`run_sweep` sets ``oracle_checked`` on
    the rows it samples, and the benchmark's checks edit copied rows."""

    __slots__ = ("params", "m", "classification", "pooling_slack", "separating_slack_1",
                 "separating_slack_2", "typeshift_slack", "oracle_checked")
    __hash__ = None

    def __init__(self, params: ModelParams, m: float, classification: Classification,
                 pooling_slack: Optional[float], separating_slack_1: Optional[float],
                 separating_slack_2: Optional[float], typeshift_slack: Optional[float], oracle_checked: bool = False):
        self.params = params
        self.m = m
        self.classification = classification
        self.pooling_slack = pooling_slack
        self.separating_slack_1 = separating_slack_1
        self.separating_slack_2 = separating_slack_2
        self.typeshift_slack = typeshift_slack
        self.oracle_checked = oracle_checked

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"RegionRow({', '.join(f'{f}={v!r}' for f, v in zip(self.__slots__, self._values()))})"

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    @property
    def coordinates(self) -> dict[str, float]:
        """Every symbol's value at the row's point, built when read."""
        return {**self.params.to_dict(), "m": self.m}

    def cells(self, spec: MechanismSpec) -> list:
        """The row's values in :data:`CSV_HEADER` order, None where a
        slack does not apply, its fields from m on read by their column names."""
        m, classification, *rest = row_fields(self)
        return [spec.mechanism.value, spec.variant.value, *self.params, m, classification.value, *rest]

    def to_flat_dict(self, spec: MechanismSpec) -> dict:
        return dict(zip(CSV_HEADER, self.cells(spec)))


#: Classification by whether (pooling, separating) hold.
_CLASSIFICATION = {
    (True, True): Classification.BOTH,
    (True, False): Classification.POOLING_ONLY,
    (False, True): Classification.SEPARATING_ONLY,
    (False, False): Classification.NEITHER,
}


def _row_rule(spec: MechanismSpec) -> Callable[[ModelParams, float], RegionRow]:
    """The row of a point for ``spec``: the one row evaluator, its slack
    rule, and so its tie floor, made once."""
    rule, invalid = slack_rule(spec), Classification.INVALID

    def row(params: ModelParams, m: float) -> RegionRow:
        try:
            params.validate()
            validate_signal(m)  # before float(), which reads a bool as 1 or 0
        except ParameterError:
            return RegionRow(params, m, invalid, None, None, None, None)
        m = float(m)
        (pooling,), separating, drift, pools, separates = rule(params, m)
        # a separating tuple holds one or two slacks
        return RegionRow(params, m, _CLASSIFICATION[pools, separates], pooling, separating[0],
                         separating[1] if len(separating) > 1 else None, drift)

    return row


def region_row_for_point(spec: MechanismSpec, params: ModelParams, m: float) -> RegionRow:
    """Classify a single parameter point into a sweep-style row, as
    :func:`run_sweep` and ``classify``'s CSV row do."""
    return _row_rule(spec)(params, m)


def grid_points(grid: GridSpec) -> Iterator[tuple[ModelParams, float]]:
    """Every point's params and m in row-major axis order, read lazily, the
    points that differ only in m sharing one :class:`~.game.ModelParams`.
    More than :data:`GRID_POINT_BUDGET` points raises
    :class:`BudgetExceededError` before any is built."""
    grid.validate()
    n_points = math.prod(axis.steps for axis in grid.axes)
    if n_points > GRID_POINT_BUDGET:
        raise BudgetExceededError(n_points, GRID_POINT_BUDGET, "grid point")
    # one working dict of the symbols, float() because a grid built in
    # Python may fix an int; m leaves it, so it holds the ModelParams fields
    coords = {sym: float(grid.fixed.get(sym, 0.0)) for sym in ALL_SYMBOLS}
    values = {axis.symbol: axis.values() for axis in grid.axes}
    k = list(values).index("m") if "m" in values else 0
    m_values = values.pop("m", [coords.pop("m")])  # m's axis, or its fixed value as a first axis
    table = []  # one ModelParams per combination of the other axes, row-major
    for combo in itertools.product(*values.values()):
        coords.update(zip(values, combo))
        table.append(ModelParams(*coords.values()))
    # each combination of the axes before m runs over m, each m over one
    # block of params, the combinations of the axes after it
    block = math.prod(len(v) for v in list(values.values())[k:])
    return ((table[o + i], m) for o in range(0, len(table), block) for m in m_values for i in range(block))


def run_sweep(
    grid: GridSpec,
    oracle_fraction: float = 0.05,
    seed: int = 0,
) -> list[RegionRow]:
    """Classify every grid point; oracle-check a seeded random subset.

    Points are evaluated one after another by :func:`region_row_for_point`'s
    rule, made once per call, into one mutable row each, in
    row-major axis order. The oracle subset is drawn without replacement
    via a seeded shuffle of the valid rows; ``int(oracle_fraction *
    n_valid)`` points are checked in one :func:`verify_against_closed_form`
    call, and any mismatch raises :class:`DiscrepancyError` with its report.
    A grid's values are floats, so the oracle's vectorized referee decides
    the sampled points with m > 0 once a block of the sample holds its
    break-even count of them; the anchor search decides the rest and each
    point where the referee disagrees with the closed forms, and builds the
    report.
    """
    try:  # as the CLI reads --oracle-fraction and --seed
        oracle_fraction, seed = real(oracle_fraction), integer(seed)
    except ValueError as exc:
        raise ParameterError("oracle_fraction and seed numbers", str(exc)) from exc
    if not (0.0 <= oracle_fraction <= 1.0 and seed >= 0):
        raise ParameterError("0 <= oracle_fraction <= 1, seed >= 0", f"got {oracle_fraction}, {seed}")
    spec = grid.mechanism
    rows = list(itertools.starmap(_row_rule(spec), grid_points(grid)))

    invalid = Classification.INVALID
    valid = [row for row in rows if row.classification is not invalid]
    n_checked = int(oracle_fraction * len(valid))
    if n_checked > 0:
        # here, so a sweep without an oracle sample imports neither numpy nor the oracle
        import numpy as np

        from .oracle import verify_against_closed_form

        order = np.random.default_rng(seed).permutation(len(valid))
        chosen = [valid[int(k)] for k in order[:n_checked]]
        report = verify_against_closed_form(spec, [(row.params, row.m) for row in chosen])
        if not report.empty:
            raise DiscrepancyError(report)
        for row in chosen:
            row.oracle_checked = True
    return rows


class BoundaryPoint(NamedTuple):
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
    type_shift = None if row.typeshift_slack is None else holds(row.typeshift_slack)
    return row.classification, type_shift


def boundary_trace(grid: GridSpec) -> list[BoundaryPoint]:
    """Midpoints of grid edges whose endpoints classify differently.

    Requires exactly two axes. The signature compared across an edge is
    the classification plus, when drift is in play (p > 0), the type-shift
    refrain flag, so a (p, V_B) sweep traces the drift-tolerance boundary
    even though pooling/separating do not move. Rows are row-major: a
    point's next neighbour along the first axis is one line of rows on,
    along the second the next row unless the point ends its line.
    """
    if len(grid.axes) != 2:
        raise ParameterError("boundary_trace needs exactly 2 axes", f"got {len(grid.axes)}")
    rows = run_sweep(grid, oracle_fraction=0.0, seed=0)
    line = grid.axes[1].steps
    sigs = [_signature(row) for row in rows]

    out: list[BoundaryPoint] = []
    for k, sig in enumerate(sigs):
        for axis, nxt in zip(grid.axes, (k + line, k + 1 if (k + 1) % line else len(rows))):
            if nxt < len(rows) and sigs[nxt] != sig:
                coords = rows[k].coordinates
                coords[axis.symbol] = 0.5 * (coords[axis.symbol] + rows[nxt].coordinates[axis.symbol])
                left, right = ({"classification": c.value, "type_shift_refrain": t} for c, t in (sig, sigs[nxt]))
                out.append(BoundaryPoint(coords, axis.symbol, left, right))
    return out
