"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from restraint_games import Mechanism, MechanismSpec, ModelParams, Variant

finite = dict(allow_nan=False, allow_infinity=False)


def params_strategy(with_drift: bool = False) -> st.SearchStrategy[ModelParams]:
    """Valid ModelParams with bounded magnitudes (keeps float slop tiny)."""

    def build(c, vb_gap, vd, r, p, prior):
        return ModelParams(c=c, V_D=vd, V_B=c + vb_gap, r=r, p=p, prior=prior)

    return st.builds(
        build,
        c=st.floats(min_value=0.01, max_value=100.0, **finite),
        vb_gap=st.floats(min_value=0.01, max_value=100.0, **finite),
        vd=st.floats(min_value=0.01, max_value=100.0, **finite),
        r=st.floats(min_value=0.0, max_value=100.0, **finite),
        p=st.floats(min_value=0.0, max_value=1.0, **finite)
        if with_drift
        else st.just(0.0),
        prior=st.floats(min_value=0.01, max_value=0.99, **finite),
    )


signal_strategy = st.floats(min_value=0.0, max_value=200.0, **finite)

mechanism_strategy = st.sampled_from(list(Mechanism))
variant_strategy = st.sampled_from(list(Variant))
spec_strategy = st.builds(MechanismSpec, mechanism_strategy, variant_strategy)


@pytest.fixture
def validate_calls(monkeypatch) -> list[ModelParams]:
    """Every ``ModelParams.validate`` call's params, in call order."""
    calls = []
    validate = ModelParams.validate

    def counted(self, *args, **kwargs):
        calls.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(ModelParams, "validate", counted)
    return calls
