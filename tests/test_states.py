"""State constructors, their invariants, and the JSON round trip."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from macroq import (
    DensityMatrix,
    GaussianSpec,
    ModeSpec,
    PureState,
    StateValidationError,
    TruncationError,
    as_density,
    cat_mixture,
    cat_state,
    coherent_state,
    default_coherent_truncation,
    default_thermal_truncation,
    displaced,
    fock_mixture,
    fock_state,
    load_state,
    measure_I,
    mix,
    product_state,
    purity,
    random_mixed_state,
    random_pure_state,
    save_state,
    thermal_state,
)

from macroq.config import TOL
from macroq.states import _blocks, _survey

from oracles import (
    brute_force_I,
    brute_force_purity,
    coherent_vector,
    connected_blocks,
    state_document_pairs,
)

SQRT2 = math.sqrt(2.0)


def blocks_of(mat: np.ndarray) -> list[np.ndarray]:
    """_blocks on the pattern and band that validation's walk measures."""
    _, band, linked = _survey(mat)
    return _blocks(linked, band)


class TestFockState:
    def test_occupation_expectation(self):
        spec = ModeSpec(1, 10)
        psi = fock_state(spec, 3).amplitudes
        assert np.abs(psi) ** 2 @ np.arange(10) == pytest.approx(3.0, abs=1e-12)

    def test_multimode_indexing(self):
        spec = ModeSpec(2, 4)
        psi = fock_state(spec, (1, 2)).amplitudes
        assert psi[1 * 4 + 2] == 1.0
        assert np.count_nonzero(psi) == 1

    def test_rejects_guard_level(self):
        # a cutoff too small for the occupation, named as in fock_mixture
        with pytest.raises(TruncationError, match=r"^fock_state occupies level 4, truncation 5 "
                                                  r"requires top level <= 3; use N >= 6$"):
            fock_state(ModeSpec(1, 5), 4)
        with pytest.raises(TruncationError, match=r"use N >= 11$"):  # enough for every mode
            fock_state(ModeSpec(2, 6), (7, 9))

    def test_rejects_negative_occupation(self):
        with pytest.raises(ValueError, match="^occupation must be non-negative, got -1$"):
            fock_state(ModeSpec(1, 5), -1)

    def test_rejects_occupation_count_unlike_mode_count(self):
        with pytest.raises(ValueError, match="^got 1 occupation numbers for 2 modes$"):
            fock_state(ModeSpec(2, 4), 1)

    def test_numpy_integer_is_one_occupation(self):
        spec = ModeSpec(1, 12)
        for n in (np.int64(2), np.int32(2), np.uint8(2)):
            assert np.array_equal(fock_state(spec, n).amplitudes, fock_state(spec, 2).amplitudes)
        with pytest.raises(TruncationError, match="use N >= 6"):
            fock_state(ModeSpec(1, 5), np.int64(4))

    @pytest.mark.parametrize("n", [True, np.bool_(True), 2.0, "1", None])
    def test_non_integer_occupation_refused(self, n):
        with pytest.raises(ValueError, match=r"occupation must be an integer, got "):
            fock_state(ModeSpec(1, 12), n)

    @pytest.mark.parametrize("n", [(1, 2.0), (True, 1), [1, 0.5]])
    def test_non_integer_occupation_in_tuple_refused(self, n):
        with pytest.raises(ValueError, match=r"occupation must be an integer, got "):
            fock_state(ModeSpec(2, 4), n)

    def test_numpy_integer_occupations_in_tuple(self):
        psi = fock_state(ModeSpec(2, 4), (np.int64(1), np.uint8(2)))
        assert np.array_equal(psi.amplitudes, fock_state(ModeSpec(2, 4), (1, 2)).amplitudes)


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        psi = coherent_state(ModeSpec(1, 12), 0.0).amplitudes
        assert psi[0] == 1.0
        assert np.count_nonzero(psi) == 1

    def test_mean_occupation(self):
        spec = ModeSpec(1, 40)
        psi = coherent_state(spec, 2.0).amplitudes
        assert np.abs(psi) ** 2 @ np.arange(40) == pytest.approx(4.0, abs=1e-8)

    def test_matches_exact_factorial_expansion(self):
        spec = ModeSpec(1, 25)
        got = coherent_state(spec, 1.3 + 0.4j).amplitudes
        assert np.max(np.abs(got - coherent_vector(25, 1.3 + 0.4j))) < 1e-13

    def test_inadequate_truncation_names_requirement(self):
        with pytest.raises(TruncationError, match=r"use at least N=30\b"):
            coherent_state(ModeSpec(1, 8), 2.0)

    def test_overlap_identity(self):
        spec = ModeSpec(1, 35)
        for alpha in (0.5, 1.0, 1.7):
            plus = coherent_state(spec, alpha).amplitudes
            minus = coherent_state(spec, -alpha).amplitudes
            overlap = np.vdot(plus, minus)
            assert overlap.real == pytest.approx(math.exp(-2 * alpha * alpha), abs=1e-10)
            assert abs(overlap.imag) < 1e-12


class TestCatState:
    def test_even_cat_at_zero_is_vacuum(self):
        psi = cat_state(ModeSpec(1, 12), 0.0, 0.0).amplitudes
        assert psi[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("phase", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, phase):
        with pytest.raises(ValueError, match=f"relative_phase must be finite, got {phase}"):
            cat_state(ModeSpec(1, 12), 1.0, phase)

    def test_odd_cat_at_zero_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            cat_state(ModeSpec(1, 12), 0.0, math.pi)

    @pytest.mark.parametrize("alpha", [8.0, 10.0])
    def test_inadequate_truncation_judged_on_component(self, alpha):
        # at N=20 the even cat's top level 19 is empty, so its own tail says
        # nothing; at alpha=10 its norm fell below the odd-cat guard before
        with pytest.raises(TruncationError, match=r"too small for cat .* use at least N="):
            cat_state(ModeSpec(1, 20), alpha)

    def test_odd_cat_has_only_odd_levels(self):
        psi = cat_state(ModeSpec(1, 20), 1.0, math.pi).amplitudes
        assert np.max(np.abs(psi[0::2])) < 1e-15

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 3.0, 0.6 + 0.8j, -2.0 - 1.0j])
    def test_even_cat_odd_levels_are_exactly_zero(self, alpha):
        # |-alpha> is |alpha> with its odd entries negated, so they cancel exactly
        psi = cat_state(ModeSpec(1, default_coherent_truncation(alpha)), alpha).amplitudes
        assert not np.any(psi[1::2])
        assert np.all(psi[0::2] != 0)


class TestCatMixture:

    @pytest.mark.parametrize("levels, alpha", [(54, 3.0), (26, 0.6 + 0.8j), (19, -1.0j)])
    def test_parity_sectors_are_exactly_apart(self, levels, alpha):
        mat = cat_mixture(ModeSpec(1, levels), alpha).matrix
        n = np.arange(levels)
        assert not np.any(mat[(n[:, None] + n[None, :]) % 2 == 1])
        found = sorted(row.tolist() for sizes in blocks_of(mat) for row in sizes)
        assert found == [n[0::2].tolist(), n[1::2].tolist()]
        # and the mixture is still that of the separately expanded |alpha> and |-alpha>
        plus = coherent_state(ModeSpec(1, levels), alpha).amplitudes
        minus = coherent_state(ModeSpec(1, levels), -alpha).amplitudes
        expected = 0.5 * (np.outer(plus, plus.conj()) + np.outer(minus, minus.conj()))
        assert np.allclose(mat, expected, rtol=0.0, atol=1e-15)


class TestFockMixture:
    def test_range_must_fit_truncation(self):
        with pytest.raises(TruncationError, match="use N >= 7"):
            fock_mixture(ModeSpec(1, 6), 5, include_vacuum=False)


class TestThermalState:
    def test_inadequate_truncation_names_requirement(self):
        with pytest.raises(TruncationError, match=r"use at least N="):
            thermal_state(ModeSpec(1, 12), GaussianSpec(2.0))

    @pytest.mark.parametrize("a", [1e7, 1e10, 1e150])
    def test_top_level_judged_after_renormalizing(self, a):
        # nbar >> N: the untruncated top level holds under tail_tol, the
        # truncated state's a tenth
        with pytest.raises(TruncationError, match="truncation 10 too small for thermal"):
            thermal_state(ModeSpec(1, 10), GaussianSpec(a))

    def test_width_below_one_rejected(self):
        with pytest.raises(ValueError, match="a >= 1"):
            GaussianSpec(0.9)


class TestDefaultTruncations:
    def test_wide_thermal_cutoff_is_the_linear_rule(self):
        # log(nbar) and log1p(nbar) coincide in floating point from nbar ~ 1e16
        a = 1e9
        nbar = (a * a - 1.0) / 2.0
        assert default_thermal_truncation(a) == math.ceil(20.0 * nbar + 20.0)

    def test_coherent_default_meets_tail_rule_up_to_dimension_cap(self):
        # |alpha| = 60 has the largest default cutoff within 4096 levels
        for r in np.linspace(0.05, 60.0, 25):
            for phase in (0.0, 0.7):
                alpha = r * np.exp(1j * phase)
                n_levels = default_coherent_truncation(alpha)
                assert n_levels <= 4096
                coherent_state(ModeSpec(1, n_levels), alpha)


class TestMix:
    def test_single_component_identity(self):
        rho = cat_mixture(ModeSpec(1, 19), 1.0)
        assert np.array_equal(mix([(1.0, rho)]).matrix, rho.matrix)

    def test_equal_mix_reproduces_cat_mixture(self):
        spec = ModeSpec(1, 19)
        plus = as_density(coherent_state(spec, 1.0))
        minus = as_density(coherent_state(spec, -1.0))
        built = mix([(0.5, plus), (0.5, minus)])
        assert np.max(np.abs(built.matrix - cat_mixture(spec, 1.0).matrix)) < 1e-12

    def test_orthogonal_mix_purity(self):
        spec = ModeSpec(1, 8)
        rho = mix([
            (0.5, as_density(fock_state(spec, 0))),
            (0.5, as_density(fock_state(spec, 1))),
        ])
        assert purity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_bad_weights_rejected(self):
        rho = as_density(fock_state(ModeSpec(1, 8), 0))
        with pytest.raises(ValueError, match="sum"):
            mix([(0.7, rho), (0.2, rho)])
        with pytest.raises(ValueError, match="nonnegative"):
            mix([(1.5, rho), (-0.5, rho)])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"finite and nonnegative, got \[(nan|inf)\]"):
                mix([(bad, rho)])

    def test_spec_mismatch_rejected(self):
        a = as_density(fock_state(ModeSpec(1, 8), 0))
        b = as_density(fock_state(ModeSpec(1, 9), 0))
        with pytest.raises(ValueError, match="ModeSpec"):
            mix([(0.5, a), (0.5, b)])

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError, match="^mix requires at least one component$"):
            mix([])

    def test_pure_components_mix_as_their_projectors(self):
        spec = ModeSpec(1, 19)
        plus, minus = coherent_state(spec, 1.0), coherent_state(spec, -1.0)
        built = mix([(0.25, plus), (0.75, minus)])
        expected = mix([(0.25, as_density(plus)), (0.75, as_density(minus))])
        assert np.array_equal(built.matrix, expected.matrix)


class TestDisplaced:
    @pytest.mark.parametrize("mode", [1, 2])
    def test_pure_state_is_displaced_as_its_projector(self, mode):
        psi = product_state(coherent_state(ModeSpec(1, 20), 0.5), fock_state(ModeSpec(1, 20), 1))
        assert isinstance(psi, PureState)
        moved = displaced(psi, 0.3 + 0.2j, mode)
        assert np.array_equal(moved.matrix, displaced(as_density(psi), 0.3 + 0.2j, mode).matrix)


class TestProductState:
    def test_two_mode_vacuum(self):
        vac = as_density(fock_state(ModeSpec(1, 8), 0))
        prod = product_state(vac, vac)
        assert prod.spec.num_modes == 2
        assert measure_I(prod) == pytest.approx(0.0, abs=1e-12)

    def test_pure_factors_give_a_pure_product(self, rng):
        left = random_pure_state(ModeSpec(1, 13), rng)
        right = coherent_state(ModeSpec(1, 13), 0.3)
        prod = product_state(left, right)
        assert isinstance(prod, PureState)
        assert np.array_equal(prod.amplitudes, np.kron(left.amplitudes, right.amplitudes))
        mixed = product_state(as_density(left), right)
        assert isinstance(mixed, DensityMatrix)
        dense = np.kron(as_density(left).matrix, as_density(right).matrix)
        assert np.array_equal(mixed.matrix, dense)
        assert np.allclose(mixed.matrix, prod.projector().matrix, rtol=0, atol=1e-15)

    def test_purity_factorizes(self, rng):
        left = random_mixed_state(ModeSpec(1, 10), rng)
        right = random_mixed_state(ModeSpec(1, 10), rng)
        prod = product_state(left, right)
        assert purity(prod) == pytest.approx(purity(left) * purity(right), abs=1e-10)

    def test_coherence_composition_thermal_times_cat_mixture(self):
        thermal = thermal_state(ModeSpec(1, 26), GaussianSpec(SQRT2))
        catmix = cat_mixture(ModeSpec(1, 26), 1.0)
        prod = product_state(thermal, catmix)
        composed = (purity(catmix) * measure_I(thermal)
                    + purity(thermal) * measure_I(catmix))
        direct = brute_force_I(prod.matrix, 2, 26)
        assert measure_I(prod) == pytest.approx(composed, abs=1e-9)
        assert direct == pytest.approx(composed, abs=1e-9)

    def test_unequal_truncations_rejected(self):
        with pytest.raises(ValueError, match="^product requires equal per-mode truncations, "
                                             "got 12 and 13$"):
            product_state(fock_state(ModeSpec(1, 12), 0), fock_state(ModeSpec(1, 13), 0))

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("MACROQ_MAX_DIM", "200")
        left = as_density(fock_state(ModeSpec(1, 15), 0))
        with pytest.raises(TruncationError, match="budget"):
            product_state(left, left)


@pytest.mark.parametrize("name, build", [
    ("coherent_state", lambda spec: coherent_state(spec, 1.0)),
    ("cat_state", lambda spec: cat_state(spec, 1.0)),
    ("cat_mixture", lambda spec: cat_mixture(spec, 1.0)),
    ("fock_mixture", lambda spec: fock_mixture(spec, 2)),
    ("thermal_state", lambda spec: thermal_state(spec, GaussianSpec(1.5))),
])
def test_single_mode_constructor_refuses_two_modes(name, build):
    with pytest.raises(ValueError, match=f"^{name} builds single-mode states; "
                                         "combine with product_state$"):
        build(ModeSpec(2, 6))


class TestPurity:
    def test_agrees_with_brute_force(self, rng):
        rho = random_mixed_state(ModeSpec(1, 12), rng)
        assert purity(rho) == pytest.approx(brute_force_purity(rho.matrix), abs=1e-13)


class TestValidation:
    def test_non_hermitian_rejected(self):
        mat = np.eye(4, dtype=complex)
        mat[0, 1] = 1e-3
        with pytest.raises(StateValidationError, match="Hermiticity"):
            DensityMatrix(ModeSpec(1, 4), mat)

    def test_wrong_trace_rejected(self):
        with pytest.raises(StateValidationError, match="trace deviates"):
            DensityMatrix(ModeSpec(1, 4), 0.225 * np.eye(4, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        mat = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(StateValidationError, match="positive semidefinite"):
            DensityMatrix(ModeSpec(1, 4), mat)

    @pytest.mark.parametrize("num_modes,truncation", [(1, 6), (2, 3)])
    def test_psd_floor_boundary(self, num_modes, truncation, rng):
        # the floor is -1e-8: a minimum eigenvalue of -2e-8 lies below it,
        # -5e-9 above it
        spec = ModeSpec(num_modes, truncation)
        dim = spec.total_dim
        basis, _ = np.linalg.qr(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))

        def with_min_eigenvalue(low):
            eigs = np.full(dim, (1.0 - low) / (dim - 1))
            eigs[0] = low
            mat = (basis * eigs) @ basis.conj().T
            return (mat + mat.conj().T) / 2.0

        with pytest.raises(StateValidationError,
                           match="positive semidefinite: min eigenvalue -2.00e-08"):
            DensityMatrix(spec, with_min_eigenvalue(-2e-8))
        rho = DensityMatrix(spec, with_min_eigenvalue(-5e-9))
        assert np.linalg.eigvalsh(rho.matrix)[0] == pytest.approx(-5e-9, abs=1e-12)

    def test_norm_deviation_rejected(self):
        with pytest.raises(StateValidationError, match="norm"):
            PureState(ModeSpec(1, 4), np.array([1.0, 1.0, 0, 0], dtype=complex))

    # a state takes over a contiguous complex128 input: no copy, made read-only
    # only once every check has passed
    def test_valid_input_is_stored_and_frozen(self):
        amps = np.array([0.6, 0.8j, 0.0, 0.0])
        assert PureState(ModeSpec(1, 4), amps).amplitudes is amps
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        assert DensityMatrix(ModeSpec(1, 4), mat).matrix is mat
        assert not amps.flags.writeable and not mat.flags.writeable

    def test_refused_input_stays_writeable(self):
        amps = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(StateValidationError, match="norm"):
            PureState(ModeSpec(1, 4), amps)
        mat = np.eye(4, dtype=complex) / 4.0
        mat[0, 1] = 1e-3
        with pytest.raises(StateValidationError, match="Hermiticity"):
            DensityMatrix(ModeSpec(1, 4), mat)
        assert amps.flags.writeable and mat.flags.writeable

    def test_float_input_is_copied(self):
        amps = np.array([0.6, 0.8, 0.0, 0.0])
        mat = np.diag([0.5, 0.5, 0.0, 0.0])
        psi, rho = PureState(ModeSpec(1, 4), amps), DensityMatrix(ModeSpec(1, 4), mat)
        assert psi.amplitudes.dtype == rho.matrix.dtype == np.complex128
        assert amps.flags.writeable and mat.flags.writeable
        assert np.array_equal(amps, [0.6, 0.8, 0.0, 0.0])
        assert np.array_equal(mat, np.diag([0.5, 0.5, 0.0, 0.0]))

    def test_random_pure_state_leaves_guard_level_empty(self, rng):
        psi = random_pure_state(ModeSpec(2, 6), rng)
        pops = psi.mode_level_populations()
        assert pops.take(5, axis=0).sum() == 0.0
        assert pops.take(5, axis=1).sum() == 0.0
        assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0, abs=1e-12)

    def test_random_mixed_state_is_valid(self, rng):
        rho = random_mixed_state(ModeSpec(1, 9), rng)
        assert purity(rho) <= 1.0 + 1e-10


def _thermal_times_cat_mixture() -> np.ndarray:
    thermal = thermal_state(ModeSpec(1, 26), GaussianSpec(SQRT2))
    return product_state(thermal, cat_mixture(ModeSpec(1, 26), 0.6 + 0.8j)).matrix.copy()


def _permuted_blocks(rng) -> np.ndarray:
    """Random Hermitian blocks of sizes 1..6, one with a negative eigenvalue,
    scattered over the indices by a random permutation."""
    sizes = [1, 3, 6, 2, 6, 4, 1, 3]
    perm = rng.permutation(sum(sizes))
    mat = np.zeros((len(perm), len(perm)), dtype=complex)
    start = 0
    for size in sizes:
        vecs = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        if size == 4:  # rank 3, shifted down: smallest eigenvalue -0.1
            vecs[:, 0] = 0.0
        block = vecs @ vecs.conj().T - (0.1 * np.eye(size) if size == 4 else 0.0)
        index = perm[start:start + size]
        mat[np.ix_(index, index)] = block
        start += size
    return mat


def _permuted_path(rng, dim: int) -> np.ndarray:
    """1 + A for the adjacency A of a randomly ordered path: eigenvalues
    1 + 2 cos(k pi / (dim + 1)), so the smallest is near -1."""
    order = rng.permutation(dim)
    mat = np.eye(dim, dtype=complex)
    mat[order[:-1], order[1:]] = mat[order[1:], order[:-1]] = 1.0
    return mat


def _one_link(dim: int, i: int, j: int) -> np.ndarray:
    """A diagonal plus the pair (i, j), (j, i): the only link, and it spans the band."""
    mat = np.diag(np.linspace(2.0, 1.0, dim)).astype(complex)
    mat[i, j] = mat[j, i] = 0.5
    return mat


def _whole_matrix_verdict(mat: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(mat - TOL.psd_floor * np.eye(len(mat)))
    except np.linalg.LinAlgError:
        return False
    return True


class TestBlockPositivity:
    """Positivity is checked on the connected components of rho's nonzero pattern."""

    CASES = {
        "diagonal": lambda rng: thermal_state(ModeSpec(1, default_thermal_truncation(3.0)),
                                             GaussianSpec(3.0)).matrix,
        "cat mixture": lambda rng: cat_mixture(ModeSpec(1, 30), 1.5).matrix,
        "thermal x cat mixture": lambda rng: _thermal_times_cat_mixture(),
        "permuted blocks": _permuted_blocks,
        "zero rows": lambda rng: random_mixed_state(ModeSpec(2, 7), rng).matrix,
        "permuted path": lambda rng: _permuted_path(rng, 512),
        "upper-triangle entry": lambda rng: np.diag([0.4, 0.3, 0.2, 0.1, 0.0]).astype(complex)
        + np.eye(5, k=3) * 1e-12,
        "corner pair": lambda rng: _one_link(300, 0, 299),
        # the link's row ends one tile and its column starts the one after next
        "link between tile edges": lambda rng: _one_link(300, 127, 256),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_blocks_match_breadth_first_search(self, case, rng):
        mat = self.CASES[case](rng)
        found = blocks_of(mat)
        assert [index.shape[1] for index in found] == sorted({index.shape[1] for index in found})
        for index in found:
            assert np.all(np.diff(index, axis=1) > 0)
        assert {frozenset(row.tolist()) for index in found for row in index} == connected_blocks(mat)

    @pytest.mark.parametrize("case", list(CASES))
    def test_verdict_is_the_whole_matrix_choleskys(self, case, rng):
        mat = self.CASES[case](rng)
        mat = mat / np.trace(mat)
        spec = ModeSpec(1, len(mat))
        if _whole_matrix_verdict(mat):
            DensityMatrix(spec, mat)
        else:
            min_eig = np.linalg.eigvalsh(mat)[0]
            with pytest.raises(StateValidationError, match="^matrix is not positive "
                               f"semidefinite: min eigenvalue {min_eig:.2e}$"):
                DensityMatrix(spec, mat)

    def test_refused_cases_are_exercised(self, rng):
        verdicts = {case: _whole_matrix_verdict(build(rng)) for case, build in self.CASES.items()}
        assert not verdicts["permuted blocks"] and not verdicts["permuted path"]
        assert verdicts["thermal x cat mixture"] and verdicts["upper-triangle entry"]

    def test_negative_eigenvalue_hidden_in_one_block(self):
        mat = _thermal_times_cat_mixture()
        index = 26 * 5 + np.arange(0, 26, 2)  # thermal level 5, even-parity cat-mixture block
        assert any(set(index) == set(row) for found in blocks_of(mat) for row in found)
        eigs, vecs = np.linalg.eigh(mat[np.ix_(index, index)])
        eigs[-1] += eigs[0] + 1e-6  # keep the trace
        eigs[0] = -1e-6
        mat[np.ix_(index, index)] = (vecs * eigs) @ vecs.conj().T
        full = np.linalg.eigvalsh(mat)[0]
        by_block = min(np.linalg.eigvalsh(mat[index[:, :, None], index[:, None, :]]).min()
                       for index in blocks_of(mat))
        assert by_block == pytest.approx(full, rel=1e-12)
        with pytest.raises(StateValidationError,
                           match=f"positive semidefinite: min eigenvalue {full:.2e}$"):
            DensityMatrix(ModeSpec(2, 26), mat)

    @pytest.mark.parametrize("low, accepted", [(-0.5e-8, True), (-2e-8, False)])
    def test_psd_floor_on_a_small_block(self, low, accepted, rng):
        # a 3 x 3 block with smallest eigenvalue low among Fock-diagonal levels
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        block = (basis * [low, 0.1, 0.2 - low]) @ basis.conj().T
        mat = np.diag([0.3, 0.0, 0.2, 0.2, 0.0, 0.0, 0.0]).astype(complex)
        index = np.array([1, 4, 6])
        mat[np.ix_(index, index)] = (block + block.conj().T) / 2.0
        assert len(blocks_of(mat)) == 2 and blocks_of(mat)[1].tolist() == [[1, 4, 6]]
        if accepted:
            DensityMatrix(ModeSpec(1, 7), mat)
        else:
            with pytest.raises(StateValidationError, match="min eigenvalue -2.00e-08$"):
                DensityMatrix(ModeSpec(1, 7), mat)


class TestSerialization:
    def test_pure_round_trip_is_exact(self, tmp_path, rng):
        state = cat_state(ModeSpec(1, 22), 1.2 + 0.3j, 0.7)
        path = tmp_path / "cat.json"
        save_state(state, path, metadata={"note": "round trip"})
        loaded = load_state(path)
        assert isinstance(loaded, PureState)
        assert loaded.spec == state.spec
        assert np.array_equal(loaded.amplitudes, state.amplitudes)

    def test_mixed_round_trip_is_exact(self, tmp_path):
        state = thermal_state(ModeSpec(1, 31), GaussianSpec(SQRT2))
        path = tmp_path / "thermal.json"
        save_state(state, path)
        loaded = load_state(path)
        assert isinstance(loaded, DensityMatrix)
        assert np.array_equal(loaded.matrix, state.matrix)

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_signed_zeros_round_trip(self, kind, tmp_path):
        # array_equal counts -0.0 equal to 0.0, so compare the bits
        amps = np.array([complex(-0.0, 0.6), complex(0.8, -0.0), complex(-0.0, -0.0)])
        if kind == "pure":
            state, values = PureState(ModeSpec(1, 3), amps), amps
        else:
            values = np.diag([0.5, 0.5, 0.0]).astype(complex)
            values[0, 1], values[1, 0], values[2, 2] = complex(-0.0, 0.0), -0.0j, -0.0j
            state = DensityMatrix(ModeSpec(1, 3), values)
        assert np.any(np.signbit(values.view(np.float64)) & (values.view(np.float64) == 0))
        save_state(state, tmp_path / "zeros.json")
        loaded = load_state(tmp_path / "zeros.json")
        got = loaded.amplitudes if kind == "pure" else loaded.matrix
        assert np.array_equal(got.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_one_line_document_round_trips_bit_exactly(self, kind, tmp_path, rng):
        spec = ModeSpec(2, 5)
        if kind == "pure":
            state, field = random_pure_state(spec, rng), "amplitudes"
        else:
            state, field = random_mixed_state(spec, rng), "matrix"
        path = tmp_path / f"{kind}.json"
        save_state(state, path, metadata={"note": "round trip"})
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        loaded = load_state(path)
        assert type(loaded) is type(state)
        assert np.array_equal(getattr(loaded, field), getattr(state, field))
        save_state(loaded, path, metadata={"note": "round trip"})
        assert path.read_text() == text

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_document_is_the_sorted_key_dump(self, kind, tmp_path, rng):
        # the streamed writer must give exactly json.dumps of the whole document
        spec = ModeSpec(2, 5)
        if kind == "pure":
            state = random_pure_state(spec, rng)
            values = state.amplitudes
        else:
            state = random_mixed_state(spec, rng)
            values = state.matrix
        metadata = {"note": "byte for byte", "points": [1, 2.5]}
        path = tmp_path / f"{kind}.json"
        save_state(state, path, metadata=metadata)
        doc = {
            "format_version": 1,
            "spec": {"num_modes": 2, "truncation": 5},
            "kind": kind,
            "data": np.stack((values.real, values.imag), axis=-1).tolist(),
            "metadata": metadata,
        }
        assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"

    @pytest.mark.parametrize("kind, spec", [("pure", ModeSpec(2, 64)), ("mixed", ModeSpec(2, 17))])
    def test_blocks_of_rows_write_the_per_row_bytes(self, kind, spec, tmp_path, rng):
        # the data go out a block of rows per json.dumps call; the bytes must
        # be those of one call per row (a pure state's rows are its pairs)
        if kind == "pure":
            state = random_pure_state(spec, rng)
            values = state.amplitudes
        else:
            state = random_mixed_state(spec, rng)
            values = state.matrix
        metadata = {"note": "blocks"}
        rest = json.dumps({
            "format_version": 1,
            "spec": {"num_modes": spec.num_modes, "truncation": spec.truncation},
            "kind": kind,
            "metadata": metadata,
        }, sort_keys=True)
        rows = np.stack((values.real, values.imag), axis=-1)
        per_row = ('{"data": [' + ", ".join(json.dumps(row.tolist()) for row in rows)
                   + "], " + rest[1:] + "\n")
        path = tmp_path / f"{kind}.json"
        save_state(state, path, metadata=metadata)
        assert path.read_text() == per_row

    def test_write_peak_memory_is_below_two_matrices(self, tmp_path):
        state = thermal_state(ModeSpec(1, default_thermal_truncation(4.0)), GaussianSpec(4.0))
        tracemalloc.start()
        try:
            save_state(state, tmp_path / "thermal.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * state.matrix.nbytes

    def test_read_peak_memory_is_below_three_matrices(self, tmp_path):
        # the rows become float arrays as they are decoded: the text, the rows
        # and their stacked copy, never the entries as Python pairs
        state = thermal_state(ModeSpec(1, default_thermal_truncation(4.0)), GaussianSpec(4.0))
        save_state(state, tmp_path / "thermal.json")
        tracemalloc.start()
        try:
            loaded = load_state(tmp_path / "thermal.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.matrix, state.matrix)
        assert peak < 3 * state.matrix.nbytes

    def test_indented_layout_still_loads(self, tmp_path, rng):
        # files in the indented layout (same keys and [re, im] pairs, one
        # value per line) exist and must keep loading
        state = random_mixed_state(ModeSpec(1, 9), rng)
        path = tmp_path / "indented.json"
        save_state(state, path)
        path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=1) + "\n")
        assert path.read_text().count("\n") > 9 * 9 * 2
        assert np.array_equal(load_state(path).matrix, state.matrix)

    def test_corrupted_trace_names_invariant(self, tmp_path):
        state = thermal_state(ModeSpec(1, 31), GaussianSpec(SQRT2))
        path = tmp_path / "bad.json"
        save_state(state, path)
        doc = json.loads(path.read_text())
        doc["data"] = [[[0.9 * re, 0.9 * im] for re, im in row] for row in doc["data"]]
        path.write_text(json.dumps(doc))
        with pytest.raises(StateValidationError, match="trace deviates from 1 by 1.00e-01"):
            load_state(path)

    @pytest.mark.parametrize("key, value", [
        ("num_modes", 1.7),
        ("num_modes", True),
        ("truncation", 12.9),
    ])
    def test_non_integer_spec_field_rejected(self, tmp_path, key, value):
        path = tmp_path / "spec.json"
        save_state(fock_state(ModeSpec(1, 12), 1), path)
        doc = json.loads(path.read_text())
        doc["spec"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(StateValidationError, match=f"spec {key} must be an integer"):
            load_state(path)

    @pytest.mark.parametrize("kind, data, message", [
        ("pure", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
         "pure data must be \\[re, im\\] pairs"),
        ("mixed", [[1.0, 0.0], [0.0, 0.0]], "mixed data must be rows of \\[re, im\\] pairs"),
        ("pure", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "pure data must be \\[re, im\\] pairs"),
        ("squeezed", [[1.0, 0.0], [0.0, 0.0]], "unknown state kind 'squeezed'"),
        (["pure"], [[1.0, 0.0], [0.0, 0.0]], "unknown state kind \\['pure'\\]"),
    ], ids=["pure-matrix", "mixed-vector", "triples", "unknown-kind", "list-kind"])
    def test_decoder_refusals(self, tmp_path, kind, data, message):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"format_version": 1, "spec": {"num_modes": 1, "truncation": 2},
                                    "kind": kind, "data": data, "metadata": {}}))
        with pytest.raises(StateValidationError, match=f": {message}$"):
            load_state(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(StateValidationError, match="format_version"):
            load_state(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {{{")
        with pytest.raises(StateValidationError, match="JSON"):
            load_state(path)

    @pytest.mark.parametrize("text", [
        b'{"format_version": 1, "kind": "\xff"}',
        b'{"format_version": 1, "data": [[1' + b"0" * 5000 + b', 0.0]]}',
    ], ids=["not-utf8", "over-json-digit-limit"])
    def test_unreadable_text_refused_with_the_file(self, tmp_path, text):
        path = tmp_path / "unreadable.json"
        path.write_bytes(text)
        with pytest.raises(StateValidationError, match=f"^{re.escape(str(path))}: not valid JSON"):
            load_state(path)


def _object_text(members: list[tuple[str, object]]) -> str:
    """One JSON object with these members in this order, duplicates kept."""
    return "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value)}"
                           for key, value in members) + "}"


class TestReaderAgainstJsonLoads:
    """load_state walks the document; json.loads of the whole text is the oracle.

    Each text must load the oracle's arrays bit for bit exactly when the
    oracle accepts it, and otherwise be refused with the file named.
    """

    @pytest.fixture(params=["pure", "mixed"])
    def document(self, request, tmp_path, rng):
        """The writer's text of a small state, and its members in order."""
        spec = ModeSpec(1, 4)
        state = (random_pure_state(spec, rng) if request.param == "pure"
                 else random_mixed_state(spec, rng))
        save_state(state, tmp_path / "state.json", metadata={"note": "oracle"})
        text = (tmp_path / "state.json").read_text()
        return text, list(json.loads(text).items())

    def assert_agrees(self, path, text):
        """Check load_state of text against the oracle; True when both accept it."""
        path.write_text(text)
        expected = state_document_pairs(text)
        if expected is None:
            with pytest.raises(StateValidationError, match=f"^{re.escape(str(path))}: "):
                load_state(path)
            return False
        state = load_state(path)
        got = state.amplitudes if isinstance(state, PureState) else state.matrix
        assert np.array_equal(got.view(np.uint64).reshape(expected.shape),
                              expected.view(np.uint64))
        return True

    def test_layouts_and_members(self, tmp_path, document):
        text, members = document
        data = dict(members)["data"]
        rest = [(key, value) for key, value in members if key != "data"]
        variants = {
            "as-written": text,
            "data-first": _object_text([("data", data)] + rest),
            "data-middle": _object_text(rest[:2] + [("data", data)] + rest[2:]),
            "data-last": _object_text(rest + [("data", data)]),
            "escaped-data-key": _object_text(rest).replace("{", '{"d\\u0061ta": '
                                                           + json.dumps(data) + ", ", 1),
            "duplicate-data-last-wins": _object_text([("data", "stale")] + rest + [("data", data)]),
            "duplicate-data-last-stale": _object_text([("data", data)] + rest + [("data", "stale")]),
            "duplicate-data-shorter-first": _object_text([("data", data[:1])] + rest
                                                         + [("data", data)]),
            "duplicate-kind": _object_text([("data", data)] + rest + [("kind", "squeezed")]),
            "indented": json.dumps(dict(members), indent=1),
            "indented-tabs": json.dumps(dict(members), indent="\t"),
            "surrounding-whitespace": "\n\t " + text + " \r\n",
            "trailing-text": text + "x",
            "trailing-object": text + " {}",
            "trailing-comma": text.rstrip()[:-1] + ", }",
            "member-comma-replaced": text.replace(', "kind"', ' ;"kind"', 1),
            "row-comma-replaced": text.replace("]], [[", "]] ;[[", 1),
            "number-key": "{1: 2, " + text[1:],
            "colon-replaced": text.replace('"kind":', '"kind";', 1),
            "not-an-object": json.dumps([dict(members)]),
            "empty-object": "{}",
            "data-empty-array": _object_text(rest + [("data", [])]),
            "data-string": _object_text(rest + [("data", json.dumps(data))]),
            "data-object": _object_text(rest + [("data", {"re": 1.0, "im": 0.0})]),
            "data-ragged": _object_text(rest + [("data", data[:-1] + [data[-1][:-1]])]),
            "data-deeper-row": _object_text(rest + [("data", [data] + data[1:])]),
            "data-extra-string-row": _object_text(rest + [("data", data + ["x"])]),
        }
        accepted = {name for name, variant in variants.items()
                    if self.assert_agrees(tmp_path / f"{name}.json", variant)}
        assert {"as-written", "data-first", "data-middle", "data-last", "escaped-data-key",
                "duplicate-data-last-wins", "duplicate-data-shorter-first", "indented",
                "indented-tabs", "surrounding-whitespace"} <= accepted
        assert "trailing-text" not in accepted and "data-string" not in accepted

    def test_truncated_at_every_offset(self, tmp_path, document):
        text, _ = document
        accepted = [cut for cut in range(len(text) + 1)
                    if self.assert_agrees(tmp_path / "cut.json", text[:cut])]
        assert accepted == [len(text) - 1, len(text)]  # with and without the newline
