"""Property tests: the operator traces against the dense brute-force oracles,
and the state file round trip.

Random mixed states at M <= 2 and D <= 256, drawn so that the band-limited
walks skip tile pairs and the corner term of a populated top level is
exercised; random pure and mixed states, and products of them, through
save_state and load_state. The runs are derandomized and keep no example
database, so every run draws the same examples.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import macroq.states
from macroq import (DensityMatrix, ModeSpec, load_state, measure_C, measure_I_forms,
                    product_state, purity, random_mixed_state, random_pure_state, save_state)

# a derandomized test draws its examples from a hash of its own source, so the
# test bodies keep the name _bits
from oracles import brute_force_C, brute_force_I, brute_force_purity
from oracles import state_bits as _bits

MAX_DIM = 256
TILE = macroq.states._TILE


@st.composite
def mixed_states(draw) -> DensityMatrix:
    """A mixture of up to four random vectors, each on one run of consecutive basis states.

    A short run gives a narrow band; a run that ends on the last basis state
    populates the top level of the last mode.
    """
    num_modes = draw(st.sampled_from([1, 2]))
    if num_modes == 1:  # small, or past one tile so that walks can skip tile pairs
        truncation = draw(st.one_of(st.integers(2, 40), st.integers(TILE - 1, MAX_DIM)))
    else:
        truncation = draw(st.integers(2, 16))
    spec = ModeSpec(num_modes, truncation)
    dim = spec.total_dim
    rank = draw(st.integers(1, 4))
    run = draw(st.integers(1, dim))
    at_top = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for weight in rng.dirichlet(np.ones(rank)):
        start = dim - run if at_top else int(rng.integers(0, dim - run + 1))
        psi = np.zeros(dim, dtype=np.complex128)
        psi[start:start + run] = rng.standard_normal(run) + 1j * rng.standard_normal(run)
        psi /= np.linalg.norm(psi)
        mat += weight * np.outer(psi, psi.conj())
    return DensityMatrix(spec, mat)


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mixed_states())
def test_traces_match_the_brute_force_oracles(rho):
    m, n = rho.spec.num_modes, rho.spec.truncation
    expected_I = brute_force_I(rho.matrix, m, n)
    three, two = measure_I_forms(rho)
    assert three == pytest.approx(expected_I, abs=1e-12)
    assert two == pytest.approx(expected_I, abs=1e-12)
    assert measure_C(rho) == pytest.approx(brute_force_C(rho.matrix, m, n), abs=1e-12)
    assert purity(rho) == pytest.approx(brute_force_purity(rho.matrix), abs=1e-12)


@st.composite
def random_states(draw, spec: ModeSpec):
    """A random pure state on spec, or a random mixture of one to four of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    components = draw(st.integers(0, 4))  # 0: the pure state itself
    if components == 0:
        return random_pure_state(spec, rng)
    return random_mixed_state(spec, rng, components)


@st.composite
def stored_states(draw):
    """A state at M <= 2 and D <= 256, drawn whole or as a product of two single-mode ones."""
    if draw(st.booleans()):
        num_modes = draw(st.sampled_from([1, 2]))
        truncation = draw(st.integers(2, MAX_DIM if num_modes == 1 else 16))
        return draw(random_states(ModeSpec(num_modes, truncation)))
    single = ModeSpec(1, draw(st.integers(2, 16)))
    return product_state(draw(random_states(single)), draw(random_states(single)))


@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stored_states())
def test_state_files_round_trip_bit_exact(state):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        save_state(state, path)
        loaded = load_state(path)
    assert type(loaded) is type(state) and loaded.spec == state.spec
    assert np.array_equal(_bits(loaded), _bits(state))
