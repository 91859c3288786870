"""State constructors, their invariants, and the JSON round trip."""

import json
import math

import numpy as np
import pytest

from macroq import (
    DensityMatrix,
    GaussianSpec,
    GridSpec,
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
    fock_mixture,
    fock_state,
    gaussian_wigner,
    load_state,
    measure_I,
    mix,
    number_op,
    product_state,
    purity,
    random_mixed_state,
    random_pure_state,
    save_state,
    thermal_state,
    wigner_from_density,
)

from oracles import (
    brute_force_I,
    brute_force_purity,
    cat_mixture_purity,
    coherent_vector,
    even_cat_I,
)

SQRT2 = math.sqrt(2.0)


class TestFockState:
    def test_vacuum_has_unit_purity(self):
        rho = as_density(fock_state(ModeSpec(1, 12), 0))
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_occupation_expectation(self):
        spec = ModeSpec(1, 10)
        psi = fock_state(spec, 3).amplitudes
        n = number_op(spec).matrix
        assert np.vdot(psi, n @ psi).real == pytest.approx(3.0, abs=1e-12)

    def test_coherence_measure_equals_occupation(self):
        spec = ModeSpec(1, 10)
        rho = as_density(fock_state(spec, 3))
        assert brute_force_I(rho.matrix, 1, 10) == pytest.approx(3.0, abs=1e-10)
        assert measure_I(rho) == pytest.approx(3.0, abs=1e-10)

    def test_multimode_indexing(self):
        spec = ModeSpec(2, 4)
        psi = fock_state(spec, (1, 2)).amplitudes
        assert psi[1 * 4 + 2] == 1.0
        assert np.count_nonzero(psi) == 1

    def test_rejects_guard_level(self):
        with pytest.raises(ValueError, match="guard"):
            fock_state(ModeSpec(1, 5), 4)


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        psi = coherent_state(ModeSpec(1, 12), 0.0).amplitudes
        assert psi[0] == 1.0
        assert np.count_nonzero(psi) == 1

    def test_mean_occupation(self):
        spec = ModeSpec(1, 40)
        psi = coherent_state(spec, 2.0).amplitudes
        n = number_op(spec).matrix
        assert np.vdot(psi, n @ psi).real == pytest.approx(4.0, abs=1e-8)

    def test_zero_coherence_measure(self):
        rho = as_density(coherent_state(ModeSpec(1, 30), 2.0))
        assert abs(measure_I(rho)) < 1e-9

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

    def test_even_cat_coherence_closed_form(self):
        rho = as_density(cat_state(ModeSpec(1, 30), 2.0))
        expected = even_cat_I(2.0)
        assert expected == pytest.approx(3.9973171989562686, rel=1e-12)
        assert measure_I(rho) == pytest.approx(expected, abs=1e-9)
        assert brute_force_I(rho.matrix, 1, 30) == pytest.approx(expected, abs=1e-9)

    def test_even_cat_structure_measure(self):
        from macroq import measure_chi2

        rho = as_density(cat_state(ModeSpec(1, 30), 2.0))
        assert measure_chi2(rho) == pytest.approx(4 * even_cat_I(2.0) + 2.0, abs=1e-8)
        assert measure_chi2(rho) == pytest.approx(17.989268795825076, abs=1e-8)

    def test_odd_cat_at_zero_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            cat_state(ModeSpec(1, 12), 0.0, math.pi)

    def test_odd_cat_has_only_odd_levels(self):
        psi = cat_state(ModeSpec(1, 20), 1.0, math.pi).amplitudes
        assert np.max(np.abs(psi[0::2])) < 1e-15


class TestCatMixture:
    def test_degenerate_overlap_is_vacuum_projector(self):
        rho = cat_mixture(ModeSpec(1, 12), 0.0)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_coherence_carries_overlap_residue(self):
        # cross terms through the lowering operator leave -|a|^2 exp(-4|a|^2)
        rho = cat_mixture(ModeSpec(1, 19), 1.0)
        expected = -math.exp(-4.0)
        assert brute_force_I(rho.matrix, 1, 19) == pytest.approx(expected, abs=1e-12)
        assert measure_I(rho) == pytest.approx(expected, abs=1e-12)

    def test_purity_closed_form(self):
        for alpha in (0.5, 1.0, 2.0):
            rho = cat_mixture(ModeSpec(1, 32), alpha)
            assert purity(rho) == pytest.approx(cat_mixture_purity(alpha), abs=1e-9)
        assert cat_mixture_purity(1.0) == pytest.approx(0.5091578194443671, rel=1e-14)


class TestFockMixture:
    def test_single_level_with_vacuum_is_vacuum(self):
        from macroq import measure_chi2

        rho = fock_mixture(ModeSpec(1, 12), 1, include_vacuum=True)
        assert measure_I(rho) == pytest.approx(0.0, abs=1e-15)
        assert measure_chi2(rho) == pytest.approx(2.0, abs=1e-12)

    def test_vacuum_anchored_range_has_zero_coherence(self):
        rho = fock_mixture(ModeSpec(1, 12), 5, include_vacuum=True)
        assert abs(brute_force_I(rho.matrix, 1, 12)) < 1e-12
        assert abs(measure_I(rho)) < 1e-12

    def test_shifted_range_coherence_is_inverse_square(self):
        rho = fock_mixture(ModeSpec(1, 12), 5, include_vacuum=False)
        assert brute_force_I(rho.matrix, 1, 12) == pytest.approx(0.04, abs=1e-12)
        assert measure_I(rho) == pytest.approx(1.0 / 25.0, abs=1e-12)

    def test_range_must_fit_truncation(self):
        with pytest.raises(TruncationError, match="use N >= 7"):
            fock_mixture(ModeSpec(1, 6), 5, include_vacuum=False)


class TestThermalState:
    def test_unit_width_is_vacuum(self):
        rho = thermal_state(ModeSpec(1, 12), GaussianSpec(1.0))
        assert rho.matrix[0, 0] == pytest.approx(1.0)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_purity_matches_inverse_square_width(self):
        a = SQRT2
        rho = thermal_state(ModeSpec(1, default_thermal_truncation(a)), GaussianSpec(a))
        assert purity(rho) == pytest.approx(0.5, abs=1e-9)
        rho2 = thermal_state(ModeSpec(1, default_thermal_truncation(2.0)), GaussianSpec(2.0))
        assert purity(rho2) == pytest.approx(0.25, abs=1e-9)

    def test_coherence_measure_closed_form(self):
        a = SQRT2
        rho = thermal_state(ModeSpec(1, default_thermal_truncation(a)), GaussianSpec(a))
        assert measure_I(rho) == pytest.approx(-0.125, abs=1e-9)

    def test_inadequate_truncation_names_requirement(self):
        with pytest.raises(TruncationError, match=r"use at least N="):
            thermal_state(ModeSpec(1, 12), GaussianSpec(2.0))

    def test_width_below_one_rejected(self):
        with pytest.raises(ValueError, match="a >= 1"):
            GaussianSpec(0.9)

    def test_phase_space_profile_matches_analytic_gaussian(self):
        a = SQRT2
        cut = default_thermal_truncation(a)
        rho = thermal_state(ModeSpec(1, cut), GaussianSpec(a))
        gs = GridSpec(half_width=math.sqrt(2 * cut) + 5, nq=128, np=128)
        sampled = wigner_from_density(rho, gs)
        analytic = gaussian_wigner(GaussianSpec(a), gs)
        assert np.max(np.abs(sampled.values - analytic.values)) < 1e-6


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

    def test_spec_mismatch_rejected(self):
        a = as_density(fock_state(ModeSpec(1, 8), 0))
        b = as_density(fock_state(ModeSpec(1, 9), 0))
        with pytest.raises(ValueError, match="ModeSpec"):
            mix([(0.5, a), (0.5, b)])


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

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("MACROQ_MAX_DIM", "200")
        left = as_density(fock_state(ModeSpec(1, 15), 0))
        with pytest.raises(TruncationError, match="budget"):
            product_state(left, left)


class TestPurity:
    def test_pure_projector(self):
        assert purity(as_density(cat_state(ModeSpec(1, 25), 1.5))) == pytest.approx(
            1.0, abs=1e-10)

    def test_uniform_four_level_mixture(self):
        rho = fock_mixture(ModeSpec(1, 10), 4, include_vacuum=True)
        assert purity(rho) == pytest.approx(0.25, abs=1e-14)

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

    def test_random_pure_state_leaves_guard_level_empty(self, rng):
        psi = random_pure_state(ModeSpec(2, 6), rng)
        pops = psi.mode_level_populations()
        assert pops.take(5, axis=0).sum() == 0.0
        assert pops.take(5, axis=1).sum() == 0.0
        assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0, abs=1e-12)

    def test_random_mixed_state_is_valid(self, rng):
        rho = random_mixed_state(ModeSpec(1, 9), rng)
        assert purity(rho) <= 1.0 + 1e-10


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
