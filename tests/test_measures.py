"""Measure evaluation: values, identities, and consistency guards."""

import math
import tracemalloc

import numpy as np
import pytest

import macroq.fock
from macroq import (
    ConsistencyError,
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
    default_thermal_truncation,
    displaced,
    fock_mixture,
    fock_state,
    measure_C,
    measure_I,
    measure_I_forms,
    measure_chi2,
    measure_report,
    product_state,
    pure_state_measures,
    purity,
    random_mixed_state,
    random_pure_state,
    thermal_state,
)

from oracles import (
    brute_force_C,
    brute_force_I,
    brute_force_purity,
    cat_mixture_chi2,
    cat_mixture_I,
    embed,
    even_cat_I,
    expm_reference,
    ladder_matrix,
    thermal_chi2,
    thermal_I,
)

SQRT2 = math.sqrt(2.0)


def _thermal(a: float):
    return thermal_state(ModeSpec(1, default_thermal_truncation(a)), GaussianSpec(a))


class TestSliceTracesAgainstOracle:
    """The slice-product traces against the dense brute-force products."""

    @pytest.mark.parametrize("num_modes,truncation", [(1, 12), (2, 5), (3, 3)])
    def test_every_trace_matches(self, num_modes, truncation, rng):
        rho = random_mixed_state(ModeSpec(num_modes, truncation), rng)
        self._check_traces(rho, num_modes, truncation)

    @pytest.mark.parametrize("num_modes,truncation", [(1, 12), (2, 5), (3, 3)])
    def test_every_trace_matches_with_top_levels_populated(self, num_modes, truncation, rng):
        # a stale edge row in a reused scratch buffer meets only empty top
        # levels in a guard-respecting state; full support gives it weight
        spec = ModeSpec(num_modes, truncation)
        g = (rng.standard_normal((spec.total_dim,) * 2)
             + 1j * rng.standard_normal((spec.total_dim,) * 2))
        gram = g @ g.conj().T
        rho = DensityMatrix(spec, gram / np.trace(gram).real)
        assert np.min(rho.top_level_mass()) > 1e-3
        self._check_traces(rho, num_modes, truncation)

    @staticmethod
    def _check_traces(rho, num_modes, truncation):
        expected_I = brute_force_I(rho.matrix, num_modes, truncation)
        three, two = measure_I_forms(rho)
        assert three == pytest.approx(expected_I, abs=1e-12)
        assert two == pytest.approx(expected_I, abs=1e-12)
        assert measure_C(rho) == pytest.approx(
            brute_force_C(rho.matrix, num_modes, truncation), abs=1e-12)
        assert purity(rho) == pytest.approx(brute_force_purity(rho.matrix), abs=1e-12)

    def test_no_embedded_operator_is_built(self, monkeypatch, rng):
        def refuse(*args):
            raise AssertionError("the measure path built an embedded D x D operator")

        monkeypatch.setattr(macroq.fock, "_embedded_matrix", refuse)
        report = measure_report(random_mixed_state(ModeSpec(2, 5), rng))
        assert report.identity_residual < 1e-9
        pure = pure_state_measures(random_pure_state(ModeSpec(2, 5), rng))
        assert pure.pure_relation_residual < 1e-10


class TestMeasureI:
    def test_vacuum(self):
        assert measure_I(as_density(fock_state(ModeSpec(1, 12), 0))) == pytest.approx(
            0.0, abs=1e-14)

    def test_thermal_sqrt2(self):
        assert measure_I(_thermal(SQRT2)) == pytest.approx(-0.125, abs=1e-9)

    def test_cat_mixture_overlap_residue(self):
        rho = cat_mixture(ModeSpec(1, 19), 1.0)
        assert measure_I(rho) == pytest.approx(cat_mixture_I(1.0), abs=1e-12)

    def test_fock_projector(self):
        rho = as_density(fock_state(ModeSpec(1, 12), 2))
        assert measure_I(rho) == pytest.approx(2.0, abs=1e-10)

    def test_agrees_with_brute_force_oracle(self, rng):
        for _ in range(3):
            rho = random_mixed_state(ModeSpec(1, 10), rng)
            assert measure_I(rho) == pytest.approx(
                brute_force_I(rho.matrix, 1, 10), abs=1e-12)

    def test_two_mode_agrees_with_brute_force(self, rng):
        rho = random_mixed_state(ModeSpec(2, 5), rng)
        assert measure_I(rho) == pytest.approx(
            brute_force_I(rho.matrix, 2, 5), abs=1e-12)

    def test_three_and_two_term_forms_agree(self, rng):
        states = [
            cat_mixture(ModeSpec(1, 19), 1.0),
            _thermal(SQRT2),
            random_mixed_state(ModeSpec(1, 12), rng),
        ]
        for rho in states:
            three, two = measure_I_forms(rho)
            assert abs(three - two) < 1e-10


class TestMeasureC:
    def test_vacuum(self):
        assert measure_C(as_density(fock_state(ModeSpec(1, 12), 0))) == pytest.approx(
            1.0, abs=1e-12)

    def test_thermal_sqrt2(self):
        assert measure_C(_thermal(SQRT2)) == pytest.approx(0.25, abs=1e-9)

    def test_cat_mixture_tracks_identity(self):
        # C - P = 2I exactly; the two sides approach each other only as the
        # overlap correction dies off at large amplitude
        rho = cat_mixture(ModeSpec(1, 19), 1.0)
        assert measure_C(rho) - purity(rho) == pytest.approx(
            2.0 * measure_I(rho), abs=1e-12)
        rho_large = cat_mixture(ModeSpec(1, 44), 3.0)
        assert measure_C(rho_large) == pytest.approx(purity(rho_large), abs=1e-9)

    def test_agrees_with_brute_force_oracle(self, rng):
        rho = random_mixed_state(ModeSpec(1, 10), rng)
        assert measure_C(rho) == pytest.approx(brute_force_C(rho.matrix, 1, 10), abs=1e-12)


class TestMeasureChi2:
    def test_coherent_state(self):
        rho = as_density(coherent_state(ModeSpec(1, 30), 2.0))
        assert measure_chi2(rho) == pytest.approx(2.0, abs=1e-8)

    def test_thermal_sqrt2(self):
        assert measure_chi2(_thermal(SQRT2)) == pytest.approx(1.0, abs=1e-8)

    def test_cat_mixture_closed_form(self):
        for alpha in (0.5, 1.0, 3.0):
            rho = cat_mixture(ModeSpec(1, 44), alpha)
            assert measure_chi2(rho) == pytest.approx(cat_mixture_chi2(alpha), abs=1e-9)

    def test_thermal_family_range(self):
        for a in (1.2, 2.0, 5.0):
            chi2 = measure_chi2(_thermal(a))
            assert chi2 == pytest.approx(thermal_chi2(a), rel=1e-9)
            assert 0.0 < chi2 < 2.0


class TestMeasureReport:
    def test_vacuum_row(self):
        report = measure_report(as_density(fock_state(ModeSpec(1, 12), 0)))
        assert report.I == pytest.approx(0.0, abs=1e-12)
        assert report.C == pytest.approx(1.0, abs=1e-12)
        assert report.P == pytest.approx(1.0, abs=1e-12)
        assert report.chi2 == pytest.approx(2.0, abs=1e-12)
        assert report.num_modes == 1

    def test_thermal_two_row(self):
        report = measure_report(_thermal(2.0))
        assert report.I == pytest.approx(-3.0 / 32.0, abs=1e-9)
        assert report.C == pytest.approx(1.0 / 16.0, abs=1e-9)
        assert report.P == pytest.approx(0.25, abs=1e-9)
        assert report.chi2 == pytest.approx(0.5, abs=1e-9)

    def test_fock_mixture_row(self):
        report = measure_report(fock_mixture(ModeSpec(1, 12), 3, include_vacuum=True))
        assert report.I == pytest.approx(0.0, abs=1e-12)
        assert report.chi2 == pytest.approx(2.0, abs=1e-10)

    def test_chi2_consistent_with_components(self, rng):
        report = measure_report(random_mixed_state(ModeSpec(1, 12), rng))
        assert report.chi2 == pytest.approx(2.0 * report.C / report.P, rel=1e-12)
        assert report.identity_residual < 1e-9

    def test_serializes_every_field(self):
        report = measure_report(_thermal(SQRT2), provenance={"family": "thermal"})
        doc = report.to_dict()
        for key in ("I", "C", "P", "chi2", "num_modes", "truncation",
                    "identity_residual", "method", "convention_note", "provenance"):
            assert key in doc
        assert doc["method"] == "operator"
        assert "integrates to 1" in doc["convention_note"]


class TestPureStateMeasures:
    def test_single_excitation(self):
        report = pure_state_measures(fock_state(ModeSpec(1, 12), 1))
        assert report.I == pytest.approx(1.0, abs=1e-10)
        assert report.chi2 == pytest.approx(6.0, abs=1e-9)
        assert report.pure_relation_residual < 1e-10

    def test_large_coherent(self):
        report = pure_state_measures(coherent_state(ModeSpec(1, 43), 3.0))
        assert report.I == pytest.approx(0.0, abs=1e-8)
        assert report.chi2 == pytest.approx(2.0, abs=1e-7)

    def test_even_cat_closed_form(self):
        report = pure_state_measures(cat_state(ModeSpec(1, 30), 2.0))
        assert report.chi2 == pytest.approx(4.0 * even_cat_I(2.0) + 2.0, abs=1e-8)

    def test_relation_on_random_states(self, rng):
        for _ in range(10):
            report = pure_state_measures(random_pure_state(ModeSpec(1, 12), rng))
            assert report.pure_relation_residual < 1e-10


def _peak_bytes(func, *args):
    """Peak of the memory traced by tracemalloc while func(*args) runs."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPureVectorPath:
    """pure_state_measures from the amplitude vector, never the projector."""

    @staticmethod
    def _off_norm(spec, rng):
        # squared norm 1 + 5e-11, inside norm_tol; mostly vacuum so I < 1 and
        # the pure relation, which carries I (1 - 1/P), stays inside its 1e-10
        vac = np.zeros(spec.total_dim, dtype=complex)
        vac[0] = 1.0
        mixed = vac + 0.3 * random_pure_state(spec, rng).amplitudes
        return PureState(spec, mixed / np.linalg.norm(mixed) * math.sqrt(1.0 + 5e-11))

    @pytest.mark.parametrize("num_modes,truncation", [(1, 12), (2, 5), (3, 3)])
    def test_matches_projector_and_oracle(self, num_modes, truncation, rng):
        spec = ModeSpec(num_modes, truncation)
        off_norm = self._off_norm(spec, rng)
        assert abs(float(np.vdot(off_norm.amplitudes, off_norm.amplitudes).real)
                   - 1.0 - 5e-11) < 1e-14
        for psi in (random_pure_state(spec, rng), off_norm):
            report = pure_state_measures(psi)
            dense = measure_report(as_density(psi))
            projector = np.outer(psi.amplitudes, psi.amplitudes.conj())
            oracle = {
                "I": brute_force_I(projector, num_modes, truncation),
                "C": brute_force_C(projector, num_modes, truncation),
                "P": brute_force_purity(projector),
            }
            for key, want in oracle.items():
                assert getattr(report, key) == pytest.approx(want, abs=1e-12)
                assert getattr(report, key) == pytest.approx(getattr(dense, key), abs=1e-12)
            assert report.chi2 == pytest.approx(dense.chi2, abs=1e-12)
            assert report.identity_residual < 1e-12
            assert report.pure_relation_residual < 1e-10

    def test_report_of_a_pure_state_takes_the_vector_path(self, monkeypatch, rng):
        psi = random_pure_state(ModeSpec(2, 8), rng)
        expected = pure_state_measures(psi, provenance={"tag": "t"})
        monkeypatch.setattr(PureState, "projector", None)
        assert measure_report(psi, provenance={"tag": "t"}) == expected

    def test_large_state_never_builds_projector(self, monkeypatch, rng):
        def refuse(self):
            raise AssertionError("pure_state_measures built the D x D projector")

        psi = random_pure_state(ModeSpec(2, 64), rng)
        monkeypatch.setattr(PureState, "projector", refuse)
        # the projector alone would be 16 D^2 bytes = 256 MiB
        assert _peak_bytes(pure_state_measures, psi) <= 4 * 2 ** 20
        report = pure_state_measures(psi)
        assert report.P == pytest.approx(1.0, abs=1e-14)
        assert report.pure_relation_residual < 1e-10
        assert report.identity_residual < 1e-10


class TestMixedPathBounds:
    @pytest.mark.parametrize("a", [6.0, 8.0, 12.0])
    def test_thermal_chi2_without_cancellation(self, a):
        # C is a sum of squared commutator norms, not a difference of traces
        assert abs(measure_chi2(_thermal(a)) / thermal_chi2(a) - 1.0) < 1e-13

    def test_report_scratch_memory(self, rng):
        rho = random_mixed_state(ModeSpec(1, 512), rng)
        # three D x D complex scratch buffers (12 MiB at D = 512) plus slack
        bound = 3.25 * 16 * rho.spec.total_dim ** 2
        assert _peak_bytes(measure_report, rho) <= bound


class TestIdentity:
    def test_identity_on_random_mixtures(self, rng):
        for _ in range(5):
            rho = random_mixed_state(ModeSpec(1, 12), rng)
            lhs = measure_I(rho)
            rhs = (measure_C(rho) - purity(rho)) / 2.0
            assert abs(lhs - rhs) < 1e-9

    def test_identity_on_two_mode_product(self):
        thermal = thermal_state(ModeSpec(1, 26), GaussianSpec(SQRT2))
        catmix = cat_mixture(ModeSpec(1, 26), 1.0)
        prod = product_state(thermal, catmix)
        lhs = measure_I(prod)
        rhs = (measure_C(prod) - 2.0 * purity(prod)) / 2.0
        assert abs(lhs - rhs) < 1e-9


class TestDisplacement:
    def test_invariance_for_interior_state(self):
        rho = as_density(coherent_state(ModeSpec(1, 40), 0.5))
        i_ref = measure_I(rho)
        chi_ref = measure_chi2(rho)
        for beta in (0.4, 0.5 + 0.5j):
            moved = displaced(rho, beta)
            assert measure_I(moved) == pytest.approx(i_ref, abs=1e-7)
            assert measure_chi2(moved) == pytest.approx(chi_ref, abs=1e-6)

    @pytest.mark.parametrize("mode", [1, 2])
    def test_axiswise_matches_embedded_conjugation(self, mode, rng):
        # a random 2-mode mixed state on levels 0..2 of each mode, padded into
        # N = 12 so the displacement guard passes
        small = random_mixed_state(ModeSpec(2, 4), rng).matrix.reshape(4, 4, 4, 4)
        padded = np.zeros((12, 12, 12, 12), dtype=complex)
        padded[:4, :4, :4, :4] = small
        rho = DensityMatrix(ModeSpec(2, 12), padded.reshape(144, 144))
        beta = 0.3 - 0.2j
        a = ladder_matrix(12)
        e = embed(expm_reference(beta * a.conj().T - np.conj(beta) * a), mode, 2, 12)
        moved = displaced(rho, beta, mode)
        assert np.max(np.abs(moved.matrix - e @ rho.matrix @ e.conj().T)) < 1e-13

    def test_guard_rejects_state_near_cutoff(self):
        rho = as_density(fock_state(ModeSpec(1, 40), 20))
        with pytest.raises(TruncationError, match="headroom"):
            displaced(rho, 1.0)

    def test_guard_rejects_oversized_displacement(self):
        rho = as_density(fock_state(ModeSpec(1, 12), 0))
        with pytest.raises(TruncationError, match="too large"):
            displaced(rho, 1.0)


class TestConsistencyGuards:
    def test_imaginary_residue_detected(self):
        # a non-Hermitian perturbation injected behind the type's back; the
        # base state must be non-diagonal so the corrupted traces close
        # (and not alpha=1, whose amplitudes cancel this residue exactly)
        rho = as_density(coherent_state(ModeSpec(1, 22), 1.3))
        corrupted = rho.matrix.copy()
        corrupted[1, 0] += 1e-4j
        object.__setattr__(rho, "matrix", corrupted)
        with pytest.raises(ConsistencyError, match="imaginary residue"):
            measure_I(rho)

    @staticmethod
    def _corrupted():
        # same corruption as test_imaginary_residue_detected
        rho = as_density(coherent_state(ModeSpec(1, 22), 1.3))
        corrupted = rho.matrix.copy()
        corrupted[1, 0] += 1e-4j
        object.__setattr__(rho, "matrix", corrupted)
        return rho

    def test_imaginary_residue_detected_in_C(self):
        with pytest.raises(ConsistencyError, match="measure C has imaginary residue"):
            measure_C(self._corrupted())

    def test_imaginary_residue_detected_in_purity(self):
        with pytest.raises(StateValidationError, match="purity has imaginary residue"):
            purity(self._corrupted())

    def test_thermal_family_signs(self):
        for a in (1.2, 2.0, 5.0):
            report = measure_report(_thermal(a))
            assert report.I < 0.0
            assert report.I == pytest.approx(thermal_I(a), rel=1e-9)
