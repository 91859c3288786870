"""Property tests over the CLI's family table: build, file round trip, operator report
and both pipelines on the default grid.

Each family's parameters are drawn as strings and go through that family's
own parsers in build_state, so a family added to the table with the
existing parsers is drawn with no edit here. The ranges keep every state
that builds at D <= 256; only refused values reach past it. The run is
derandomized and keeps no example database, so every run draws the same
examples.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from macroq import (
    StateValidationError,
    TruncationError,
    as_density,
    load_state,
    measure_report,
    save_state,
)
from macroq.cli import _TABLE, _parse_bool, _parse_complex, build_state, main

# a derandomized test draws its examples from a hash of its own source, so the
# test bodies keep the name _bits
from oracles import brute_force_C, brute_force_I, brute_force_purity
from oracles import state_bits as _bits

MAX_DIM = 256
NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])

# parameter strings by parser: fock n and fock-mixture d up to 254 levels,
# thermal a <= 4.4 (N = 247), coherent and cat |alpha| <= 8 sqrt(2) (N = 213)
STRINGS = {
    int: st.integers(-2, MAX_DIM - 2).map(str),
    float: st.one_of(st.floats(0.5, 4.4).map(repr), NON_FINITE),
    _parse_complex: st.one_of(
        st.builds(complex, st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)).map(repr),
        st.floats(-8.0, 8.0).map(repr), NON_FINITE),
    _parse_bool: st.sampled_from(["true", "false", "1", "0", "yes", "no", "maybe"]),
}


@st.composite
def family_inputs(draw) -> tuple[str, dict[str, str], int | None]:
    """A family, its parameters as strings (an optional one left out) and a truncation."""
    family = draw(st.sampled_from(sorted(_TABLE)))
    params = {}
    for name, parse, default in _TABLE[family].params:
        if default is None or draw(st.booleans()):
            params[name] = draw(STRINGS[parse])
    truncation = draw(st.one_of(st.none(), st.integers(-1, MAX_DIM)))
    return family, params, truncation


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family_inputs())
def test_built_states_round_trip_and_match_the_oracles(inputs):
    family, params, truncation = inputs
    try:
        state, _ = build_state(family, params, truncation)
    except (StateValidationError, TruncationError, ValueError):
        return  # a refusal; any other exception, ConsistencyError included, fails the test
    spec = state.spec
    assert spec.total_dim <= MAX_DIM
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        save_state(state, path)
        loaded = load_state(path)
    assert type(loaded) is type(state) and loaded.spec == spec
    assert np.array_equal(_bits(loaded), _bits(state))
    report = measure_report(state)
    mat = as_density(state).matrix
    m, n = spec.num_modes, spec.truncation
    assert report.I == pytest.approx(brute_force_I(mat, m, n), rel=1e-9, abs=1e-12)
    assert report.C == pytest.approx(brute_force_C(mat, m, n), rel=1e-9, abs=1e-12)
    assert report.P == pytest.approx(brute_force_purity(mat), rel=1e-9, abs=1e-12)


@settings(derandomize=True, database=None, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family_inputs())
def test_both_pipelines_agree_on_the_default_grid(inputs):
    # every state a family accepts is measured on both pipelines at the
    # default grid; only a resource limit may refuse it, never the grid
    family, params, truncation = inputs
    try:
        state, _ = build_state(family, params, truncation)
    except (StateValidationError, TruncationError, ValueError):
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        save_state(state, path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["measure", str(path), "--method", "both"])
    assert code == 0 or (code == 3 and "out of memory" in err.getvalue()), err.getvalue()
    if code == 0:
        assert max(json.loads(out.getvalue())["cross_deltas"].values()) <= 1e-10
