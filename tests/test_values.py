"""Value semantics of the package's public value types.

For one instance of each: its ``repr`` text, equality and hash by value,
inequality when one field differs, a field that refuses assignment, and
its ``to_dict()``/``from_dict()`` round trip (or its ``to_dict()`` where
there is no ``from_dict``).
"""

from __future__ import annotations

import math

import pytest

from restraint_games import (
    Axis,
    BeliefAssignment,
    BoundaryPoint,
    Clause,
    ConditionReport,
    Discrepancy,
    DiscrepancyReport,
    DiscreteGame,
    EquilibriumReport,
    GridSpec,
    Mechanism,
    MechanismSpec,
    ModelParams,
    Outcome,
    ParameterError,
    PBECertificate,
    PBEClass,
    RegionRow,
    StrategyProfile,
    TypeLabel,
    Variant,
)
from restraint_games.sweep import Classification

R, A = TypeLabel.RESTRAINED, TypeLabel.AGGRESSIVE
TH_RISK = MechanismSpec(Mechanism.TYING_HANDS, Variant.RISK)
FIXED = {"c": 0.5, "V_D": 1.0, "V_B": 2.0, "r": 0.0, "p": 0.0, "prior": 0.5}

SPEC = "MechanismSpec(mechanism=<Mechanism.TYING_HANDS: 'tying-hands'>, variant=<Variant.RISK: 'risk'>)"
PARAMS = "ModelParams(c=0.5, V_D=1.0, V_B=2.0, r=0.0, p=0.0, prior=0.5)"
CLAUSE = "Clause(name='exploit_deterred', expression='V_D <= m', slack=1.0)"
REPORT = f"ConditionReport(holds=True, clauses=({CLAUSE},), metrics={{}})"
AXIS = "Axis(symbol='m', min=0.0, max=2.0, steps=3)"


def _with(make, **fields):
    """``make``'s instance: its own keyword fields, overridden by ``fields``."""
    return lambda **overrides: make(**{**fields, **overrides})


_params = _with(ModelParams, c=0.5, V_D=1.0, V_B=2.0)
_clause = _with(Clause, name="exploit_deterred", expression="V_D <= m", slack=1.0)
_report = _with(ConditionReport, holds=True, clauses=(_clause(),), metrics={})
_discrepancy = _with(
    Discrepancy,
    params=_params(),
    m=2.0,
    closed_form_verdict={"pooling": True, "separating": False},
    oracle_verdict={"pooling": False, "separating": False},
    certificates=(),
)

#: Per type: a maker of one instance from keyword overrides, the override
#: that changes one field, its repr, and whether it hashes (a dict field
#: makes the instance unhashable, and a RegionRow is mutable).
CASES = {
    "MechanismSpec": (
        _with(MechanismSpec, mechanism=Mechanism.TYING_HANDS, variant=Variant.RISK),
        {"variant": Variant.BASE},
        SPEC,
        True,
    ),
    "ModelParams": (_params, {"prior": 0.25}, PARAMS, True),
    "Clause": (_clause, {"slack": 0.5}, CLAUSE, True),
    "ConditionReport": (_report, {"holds": False}, REPORT, False),
    "EquilibriumReport": (
        _with(EquilibriumReport, mechanism=TH_RISK, m=2.0, pooling_on_restraint=_report(), separating=_report()),
        {"m": 1.5},
        f"EquilibriumReport(mechanism={SPEC}, m=2.0, pooling_on_restraint={REPORT}, separating={REPORT},"
        " type_shift_refrain=None)",
        False,
    ),
    "DiscreteGame": (
        _with(DiscreteGame, spec=TH_RISK, params=_params(), messages=(0.0, 2.0)),
        {"messages": (0.0, 1.0)},
        f"DiscreteGame(spec={SPEC}, params={PARAMS}, messages=(0.0, 2.0))",
        True,
    ),
    "StrategyProfile": (
        _with(
            StrategyProfile,
            signal_of={R: 2.0, A: 2.0},
            fight_after={0.0: True, 2.0: False},
            t2_action={(R, 2.0): Outcome.RESTRAINT},
        ),
        {"fight_after": {0.0: False, 2.0: False}},
        "StrategyProfile(signal_of={<TypeLabel.RESTRAINED: 0>: 2.0, <TypeLabel.AGGRESSIVE: 1>: 2.0},"
        " fight_after={0.0: True, 2.0: False},"
        " t2_action={(<TypeLabel.RESTRAINED: 0>, 2.0): <Outcome.RESTRAINT: 'restraint'>})",
        False,
    ),
    "BeliefAssignment": (
        _with(BeliefAssignment, posterior={0.0: 0.5, 2.0: 0.5}),
        {"posterior": {0.0: 0.25, 2.0: 0.5}},
        "BeliefAssignment(posterior={0.0: 0.5, 2.0: 0.5})",
        False,
    ),
    "Discrepancy": (
        _discrepancy,
        {"m": 1.5},
        f"Discrepancy(params={PARAMS}, m=2.0, closed_form_verdict={{'pooling': True, 'separating': False}},"
        " oracle_verdict={'pooling': False, 'separating': False}, certificates=())",
        False,
    ),
    "DiscrepancyReport": (
        _with(DiscrepancyReport, spec=TH_RISK),
        {"spec": MechanismSpec(Mechanism.SUNK)},
        f"DiscrepancyReport(spec={SPEC}, entries=())",
        True,
    ),
    "Axis": (_with(Axis, symbol="m", min=0.0, max=2.0, steps=3), {"steps": 4}, AXIS, True),
    "GridSpec": (
        _with(GridSpec, mechanism=TH_RISK, axes=(Axis("m", 0.0, 2.0, 3),), fixed=FIXED),
        {"fixed": {**FIXED, "prior": 0.25}},
        f"GridSpec(mechanism={SPEC}, axes=({AXIS},), fixed={FIXED!r})",
        False,
    ),
    "RegionRow": (
        _with(
            RegionRow,
            params=_params(),
            m=2.0,
            classification=Classification.POOLING_ONLY,
            pooling_slack=1.0,
            separating_slack_1=0.5,
            separating_slack_2=-0.5,
            typeshift_slack=None,
        ),
        {"m": 1.5},
        f"RegionRow(params={PARAMS}, m=2.0, classification=<Classification.POOLING_ONLY: 'PoolingOnly'>,"
        " pooling_slack=1.0, separating_slack_1=0.5, separating_slack_2=-0.5, typeshift_slack=None,"
        " oracle_checked=False)",
        False,
    ),
    "BoundaryPoint": (
        _with(
            BoundaryPoint,
            coordinates={**FIXED, "m": 1.0},
            axis="m",
            left={"classification": "Neither", "type_shift_refrain": None},
            right={"classification": "PoolingOnly", "type_shift_refrain": None},
        ),
        {"axis": "c"},
        f"BoundaryPoint(coordinates={ {**FIXED, 'm': 1.0}!r}, axis='m',"
        " left={'classification': 'Neither', 'type_shift_refrain': None},"
        " right={'classification': 'PoolingOnly', 'type_shift_refrain': None})",
        False,
    ),
    "PBECertificate": (
        _with(
            PBECertificate,
            j_R=1,
            j_A=1,
            restraint=(True, True, False, True),
            fight=(True, False),
            pbe_class=PBEClass.POOLING_ON_RESTRAINT,
            posterior=(0.5, 0.5),
            messages=(0.0, 2.0),
        ),
        {"fight": (False, False)},
        "PBECertificate(j_R=1, j_A=1, restraint=(True, True, False, True), fight=(True, False),"
        " pbe_class=<PBEClass.POOLING_ON_RESTRAINT: 'PoolingOnRestraint'>, posterior=(0.5, 0.5),"
        " messages=(0.0, 2.0))",
        True,
    ),
}

#: The types whose fields refuse assignment: all but the mutable row.
FROZEN = [name for name in CASES if name != "RegionRow"]

#: ``to_dict()`` of the types without a ``from_dict``.
TO_DICT = {
    "Clause": {"name": "exploit_deterred", "expression": "V_D <= m", "slack": 1.0},
    "ConditionReport": {"holds": True, "clauses": [{"name": "exploit_deterred", "expression": "V_D <= m", "slack": 1.0}]},
    "BeliefAssignment": {"posterior": [[0.0, 0.5], [2.0, 0.5]]},
    "Discrepancy": {
        "params": FIXED,
        "m": 2.0,
        "closed_form_verdict": {"pooling": True, "separating": False},
        "oracle_verdict": {"pooling": False, "separating": False},
        "certificates": [],
    },
    "BoundaryPoint": {
        "coordinates": {**FIXED, "m": 1.0},
        "axis": "m",
        "left": {"classification": "Neither", "type_shift_refrain": None},
        "right": {"classification": "PoolingOnly", "type_shift_refrain": None},
    },
    "PBECertificate": {
        "class": "PoolingOnRestraint",
        "profile": {
            "signal_of": {"restrained": 2.0, "aggressive": 2.0},
            "fight_after": [[0.0, True], [2.0, False]],
            "t2_action": [
                ["restrained", 0.0, "restraint"],
                ["restrained", 2.0, "restraint"],
                ["aggressive", 0.0, "exploit"],
                ["aggressive", 2.0, "restraint"],
            ],
        },
        "beliefs": {"posterior": [[0.0, 0.5], [2.0, 0.5]]},
    },
}


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, _, text, _ = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_equal_by_value(name):
    make, change, _, hashable = CASES[name]
    a, b, changed = make(), make(), make(**change)
    assert a is not b and a == b and not a != b
    assert changed != a and not changed == a
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", FROZEN)
def test_fields_refuse_assignment(name):
    make, change, _, _ = CASES[name]
    value = make()
    [(field, new)] = change.items()
    old = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, new)
    assert getattr(value, field) == old


@pytest.mark.parametrize("name", ["MechanismSpec", "ModelParams", "StrategyProfile", "Axis", "GridSpec"])
def test_dict_round_trip(name):
    make, _, _, _ = CASES[name]
    value = make()
    assert type(value).from_dict(value.to_dict()) == value


@pytest.mark.parametrize("name", TO_DICT)
def test_to_dict(name):
    make, _, _, _ = CASES[name]
    assert make().to_dict() == TO_DICT[name]


def test_reports_and_rows_as_dicts():
    report = CASES["EquilibriumReport"][0]()
    assert report.to_dict() == {
        "mechanism": {"mechanism": "tying-hands", "variant": "risk"},
        "m": 2.0,
        "pooling_on_restraint": TO_DICT["ConditionReport"],
        "separating": TO_DICT["ConditionReport"],
    }
    assert DiscrepancyReport(TH_RISK).to_json_list() == [] and DiscrepancyReport(TH_RISK).empty
    entries = (_discrepancy(),)
    assert DiscrepancyReport(TH_RISK, entries).to_json_list() == [TO_DICT["Discrepancy"]]
    row = CASES["RegionRow"][0]()
    assert row.coordinates == {**FIXED, "m": 2.0}
    assert list(row.to_flat_dict(TH_RISK).values()) == [
        "tying-hands", "risk", *FIXED.values(), 2.0, "PoolingOnly", 1.0, 0.5, -0.5, None, False
    ]


def test_discrete_game_reads_messages_as_floats():
    game = DiscreteGame(TH_RISK, _params(), [0, 1])
    assert game.messages == (0.0, 1.0) and {type(m) for m in game.messages} == {float}
    assert DiscreteGame(spec=TH_RISK, params=_params(), messages=["0", 2]).messages == (0.0, 2.0)


@pytest.mark.parametrize(
    "params, messages, constraint",
    [
        (_params(), [0.0, "x"], "messages real numbers"),
        (_params(), [0.0, True], "messages real numbers"),
        (_params(), [0.0, 10**400], "messages real numbers"),
        (_params(V_B=0.25), [0.0, 2.0], "V_B > c"),
        (_params(), [], "messages nonempty"),
        (_params(), [-1.0, 0.0], "m >= 0"),
        (_params(), [0.0, math.inf], "m finite"),
        (_params(), [0.0, 2.0, 2.0], "messages strictly ascending"),
        (_params(), [1.0, 2.0], "messages contain 0"),
    ],
)
def test_discrete_game_refusals(params, messages, constraint):
    with pytest.raises(ParameterError) as exc:
        DiscreteGame(TH_RISK, params, messages)
    assert exc.value.constraint == constraint
