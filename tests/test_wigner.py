"""Phase-space transform and grid-measure tests.

The number-basis dyad recurrence in tests/oracles.py is the independent
judge of the vectorised defining integral (wigner_from_density);
closed-form Gaussians and cat states anchor it.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from macroq import (
    ConsistencyError,
    GaussianSpec,
    GridSpec,
    ModeSpec,
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
    measure_C,
    measure_C_wigner,
    measure_P_wigner,
    measure_report,
    product_state,
    thermal_state,
    wigner_from_density,
    wigner_measure_report,
)
from macroq.config import TOL
from macroq.wigner import PhaseSpaceGrid, _eta_sampling, default_grid_spec

from oracles import even_cat_wigner, oscillator_eigenfunctions, wigner_dyad_recurrence

SQRT2 = math.sqrt(2.0)


def _vacuum(n_levels=12):
    return as_density(fock_state(ModeSpec(1, n_levels), 0))


def _grid(n_levels, points):
    return default_grid_spec(n_levels, points)


def _oracle_gap(rho, grid):
    """Largest |W - oracle| over the grid, the oracle's imaginary part included."""
    oracle = wigner_dyad_recurrence(rho.matrix, grid.q_vector(), grid.p_vector())
    return float(np.max(np.abs(grid.values - oracle)))


class TestKernelTransform:
    def test_vacuum_peak_is_inverse_pi(self):
        grid = wigner_from_density(_vacuum(), _grid(12, 257))
        assert np.max(grid.values) == pytest.approx(1.0 / np.pi, abs=1e-8)
        peak = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert grid.q_vector()[peak[0]] == pytest.approx(0.0, abs=1e-12)

    def test_single_excitation_negative_at_origin(self):
        rho = as_density(fock_state(ModeSpec(1, 12), 1))
        gs = _grid(12, 65)
        kernel = wigner_from_density(rho, gs)
        center = (gs.nq // 2, gs.np // 2)
        assert kernel.values[center] == pytest.approx(-1.0 / np.pi, abs=1e-6)
        assert _oracle_gap(rho, kernel) < 1e-10

    def test_thermal_matches_analytic_gaussian(self):
        a = SQRT2
        cut = default_thermal_truncation(a)
        rho = thermal_state(ModeSpec(1, cut), GaussianSpec(a))
        gs = _grid(cut, 128)
        sampled = wigner_from_density(rho, gs)
        analytic = gaussian_wigner(GaussianSpec(a), gs)
        assert np.max(np.abs(sampled.values - analytic.values)) < 1e-6

    def test_pure_state_is_transformed_through_its_projector(self):
        psi = cat_state(ModeSpec(1, 25), 1.5)
        gs = _grid(25, 128)
        direct = wigner_from_density(psi, gs)
        assert np.array_equal(direct.values, wigner_from_density(as_density(psi), gs).values)

    def test_multimode_rejected(self):
        vac = _vacuum(6)
        two_mode = product_state(vac, vac)
        with pytest.raises(ValueError, match="single-mode"):
            wigner_from_density(two_mode)

    def test_every_grid_is_normalized(self):
        states = [
            _vacuum(),
            as_density(cat_state(ModeSpec(1, 25), 1.5)),
            cat_mixture(ModeSpec(1, 19), 1.0),
        ]
        for rho in states:
            grid = wigner_from_density(rho, _grid(rho.spec.truncation, 128))
            assert grid.normalization() == pytest.approx(1.0, abs=1e-6)

    def test_undersized_window_rejected(self):
        with pytest.raises(TruncationError, match="integrates"):
            wigner_from_density(_vacuum(), GridSpec(half_width=0.8, nq=32, np=32))


class TestEtaSampling:
    """Each branch of the eta-step choice, and a non-square grid, against the oracle."""

    @pytest.mark.parametrize("make, nq, np_, refine, stride", [
        (lambda: _vacuum(), 33, 33, 2, 1),
        (lambda: as_density(fock_state(ModeSpec(1, 12), 5)), 512, 512, 1, 8),
        (lambda: as_density(cat_state(ModeSpec(1, 25), 1.5 * np.exp(0.7j))), 64, 96, 2, 1),
    ])
    def test_matches_dyad_oracle(self, make, nq, np_, refine, stride):
        rho = make()
        gs = GridSpec(default_grid_spec(rho.spec.truncation).half_width, nq=nq, np=np_)
        assert _eta_sampling(gs) == (refine, stride)
        grid = wigner_from_density(rho, gs)
        assert grid.values.shape == (nq, np_)
        assert _oracle_gap(rho, grid) < 1e-10

    def test_eta_step_keeps_images_outside_window(self):
        for points in (32, 33, 64, 128, 256, 257, 512, 1024):
            for n_levels in (12, 54, 115, 315):
                gs = default_grid_spec(n_levels, points)
                refine, stride = _eta_sampling(gs)
                step = 2.0 * gs.half_width / (gs.nq - 1) / refine
                assert stride * step <= math.pi / gs.half_width
                assert (stride + 1) * step > math.pi / gs.half_width
                assert refine == 1 or stride == 1

    @pytest.mark.parametrize("alpha, points", [(5.0, 512), (7.0, 1024)])
    def test_large_cat_normalized_and_analytic(self, alpha, points):
        n_levels = default_coherent_truncation(alpha)
        rho = as_density(cat_state(ModeSpec(1, n_levels), alpha))
        gs = _grid(n_levels, points)
        grid = wigner_from_density(rho, gs)
        assert abs(grid.normalization() - 1.0) < TOL.grid_norm_tol
        analytic = even_cat_wigner(alpha, gs.q_vector(), gs.p_vector())
        assert np.max(np.abs(grid.values - analytic)) < 1e-7

    def test_peak_memory_of_refined_kernel(self):
        a = 5.0
        n_levels = default_thermal_truncation(a)
        rho = thermal_state(ModeSpec(1, n_levels), GaussianSpec(a))
        gs = _grid(n_levels, 256)
        assert _eta_sampling(gs) == (3, 1)
        tracemalloc.start()
        try:
            grid = wigner_from_density(rho, gs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.normalization() == pytest.approx(1.0, abs=TOL.grid_norm_tol)
        assert peak <= 64 * 2 ** 20


class TestDirectTransform:
    """wigner_from_density compared point by point with closed forms and the oracle."""

    def test_vacuum_matches_analytic(self):
        gs = _grid(12, 49)
        grid = wigner_from_density(_vacuum(), gs)
        q = gs.q_vector()[:, None]
        p = gs.p_vector()[None, :]
        analytic = np.exp(-(q ** 2 + p ** 2)) / np.pi
        assert np.max(np.abs(grid.values - analytic)) < 1e-6

    def test_coherent_peak_position(self):
        rho = as_density(coherent_state(ModeSpec(1, 19), 1.0))
        gs = _grid(19, 81)
        grid = wigner_from_density(rho, gs)
        peak = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        cell = grid.dq
        assert abs(grid.q_vector()[peak[0]] - SQRT2) <= cell
        assert abs(grid.p_vector()[peak[1]] - 0.0) <= cell

    @pytest.mark.parametrize("make", [
        lambda: _vacuum(),
        lambda: as_density(coherent_state(ModeSpec(1, 19), 1.0)),
        lambda: as_density(cat_state(ModeSpec(1, 25), 1.5)),
        lambda: thermal_state(ModeSpec(1, 31), GaussianSpec(SQRT2)),
    ])
    def test_agrees_with_kernel_transform(self, make):
        rho = make()
        gs = _grid(rho.spec.truncation, 61)
        kernel = wigner_from_density(rho, gs)
        assert _oracle_gap(rho, kernel) < 1e-10


class TestGaussianProfile:
    def test_origin_values(self):
        gs = GridSpec(half_width=10.0, nq=65, np=65)
        assert gaussian_wigner(GaussianSpec(1.0), gs).values[32, 32] == pytest.approx(
            1.0 / np.pi, rel=1e-12)
        assert gaussian_wigner(GaussianSpec(2.0), gs).values[32, 32] == pytest.approx(
            1.0 / (4.0 * np.pi), rel=1e-12)

    def test_normalization_on_wide_window(self):
        for a in (1.0, 2.0):
            gs = GridSpec(half_width=5.0 * a + 1.0, nq=256, np=256)
            grid = gaussian_wigner(GaussianSpec(a), gs)
            assert grid.normalization() == pytest.approx(1.0, abs=1e-8)


class TestGridMeasures:
    def test_vacuum_purity(self):
        grid = wigner_from_density(_vacuum(), _grid(12, 256))
        assert measure_P_wigner(grid) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_purity(self):
        gs = GridSpec(half_width=12.0, nq=256, np=256)
        grid = gaussian_wigner(GaussianSpec(SQRT2), gs)
        assert measure_P_wigner(grid) == pytest.approx(0.5, abs=1e-6)

    def test_two_level_mixture_purity(self):
        rho = fock_mixture(ModeSpec(1, 12), 2, include_vacuum=True)
        grid = wigner_from_density(rho, _grid(12, 256))
        assert measure_P_wigner(grid) == pytest.approx(0.5, abs=1e-5)

    def test_gaussian_structure_functional(self):
        gs = GridSpec(half_width=12.0, nq=256, np=256)
        grid = gaussian_wigner(GaussianSpec(SQRT2), gs)
        assert measure_C_wigner(grid) == pytest.approx(0.25, abs=1e-4)

    def test_vacuum_structure_functional(self):
        gs = GridSpec(half_width=10.0, nq=256, np=256)
        grid = gaussian_wigner(GaussianSpec(1.0), gs)
        assert measure_C_wigner(grid) == pytest.approx(1.0, abs=1e-4)

    def test_cat_mixture_ratio_tracks_operator_value(self):
        rho = cat_mixture(ModeSpec(1, 19), 1.0)
        grid = wigner_from_density(rho, _grid(19, 256))
        ratio = measure_C_wigner(grid) / measure_P_wigner(grid)
        from oracles import cat_mixture_chi2

        assert ratio == pytest.approx(cat_mixture_chi2(1.0) / 2.0, abs=1e-3)

    def test_large_cat_mixture_ratio_approaches_one(self):
        rho = cat_mixture(ModeSpec(1, 44), 3.0)
        grid = wigner_from_density(rho, _grid(44, 256))
        ratio = measure_C_wigner(grid) / measure_P_wigner(grid)
        assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_resolution_guard_fires_on_coarse_grid(self):
        # cat alpha=7 at 256 points is below Nyquist: its grid C is 99% off;
        # at 1024 points the guard admits it and C is exact to round-off
        n_levels = default_coherent_truncation(7.0)
        rho = as_density(cat_state(ModeSpec(1, n_levels), 7.0))
        grid = wigner_from_density(rho, _grid(n_levels, 256))
        with pytest.raises(TruncationError, match="finer grid"):
            measure_C_wigner(grid)
        fine = wigner_from_density(rho, _grid(n_levels, 1024))
        assert measure_C_wigner(fine) == pytest.approx(measure_C(rho), rel=1e-12)

    def test_resolution_guard_passes_resolved_grids(self):
        for rho, points in ((as_density(cat_state(ModeSpec(1, 25), 1.5)), 128),
                            (as_density(cat_state(ModeSpec(1, 43), 3.0)), 256)):
            grid = wigner_from_density(rho, _grid(rho.spec.truncation, points))
            assert measure_C_wigner(grid) == pytest.approx(measure_C(rho), rel=1e-12)

    def test_spectral_refinement(self):
        # Parseval converges exponentially: cat alpha=1.5 goes from under-resolved
        # at 65 points to round-off at 129; the Gaussian-like states are at
        # round-off on all three grids
        cases = (
            (_vacuum(), 0.0, 1e-12),
            (as_density(coherent_state(ModeSpec(1, 19), 1.0)), 0.0, 1e-12),
            (as_density(cat_state(ModeSpec(1, 25), 1.5)), 1e-4, 1e-2),
        )
        for rho, coarse_low, coarse_high in cases:
            reference = measure_C(rho)
            errs = []
            for points in (65, 129, 257):
                grid = wigner_from_density(rho, _grid(rho.spec.truncation, points))
                value = measure_C_wigner(grid, check_resolution=False)
                errs.append(abs(value - reference) / reference)
            assert coarse_low <= errs[0] < coarse_high, errs
            assert max(errs[1:]) < 1e-12, errs

    def test_marginal_recovers_position_density(self):
        states = [
            _vacuum(),
            thermal_state(ModeSpec(1, 31), GaussianSpec(SQRT2)),
        ]
        for rho in states:
            gs = _grid(rho.spec.truncation, 257)
            grid = wigner_from_density(rho, gs)
            row = grid.values[gs.nq // 2]  # q = 0 lives at the middle sample
            dp = grid.dp
            weights = np.full(row.size, dp)
            weights[0] *= 0.5
            weights[-1] *= 0.5
            marginal = float(row @ weights)
            basis = oscillator_eigenfunctions(np.array([0.0]), rho.spec.truncation)[0]
            density = float((basis @ rho.matrix @ basis).real)
            assert marginal == pytest.approx(density, abs=1e-5)


class TestWignerReport:
    def test_thermal_row(self):
        a = SQRT2
        cut = default_thermal_truncation(a)
        rho = thermal_state(ModeSpec(1, cut), GaussianSpec(a))
        report = wigner_measure_report(rho, _grid(cut, 256))
        assert report.I == pytest.approx(-0.125, abs=1e-3)
        assert report.C == pytest.approx(0.25, abs=1e-3)
        assert report.P == pytest.approx(0.5, abs=1e-3)
        assert report.chi2 == pytest.approx(1.0, abs=1e-3)
        assert report.method == "wigner"

    def test_vacuum_row(self):
        report = wigner_measure_report(_vacuum(), _grid(12, 256))
        for got, expected in ((report.I, 0.0), (report.C, 1.0),
                              (report.P, 1.0), (report.chi2, 2.0)):
            assert got == pytest.approx(expected, abs=1e-3)

    def test_single_excitation_matches_operator_path(self):
        rho = as_density(fock_state(ModeSpec(1, 12), 1))
        report = wigner_measure_report(rho, _grid(12, 256))
        assert max(report.cross_deltas.values()) < 1e-3

    def test_disagreement_raises_with_both_values(self):
        rho = as_density(cat_state(ModeSpec(1, 25), 1.5))
        with pytest.raises(ConsistencyError, match="pipelines disagree"):
            wigner_measure_report(rho, _grid(25, 64))

    def test_multimode_rejected(self):
        vac = _vacuum(6)
        with pytest.raises(ValueError, match="single-mode"):
            wigner_measure_report(product_state(vac, vac))

    def test_keeps_the_operator_report_it_was_checked_against(self):
        cut = default_thermal_truncation(SQRT2)
        rho = thermal_state(ModeSpec(1, cut), GaussianSpec(SQRT2))
        report = wigner_measure_report(rho, _grid(cut, 256), provenance={"tag": "t"})
        operator = measure_report(rho, provenance={"tag": "t"})
        assert report.checked_against == operator
        assert report.cross_deltas == {
            "C": abs(report.C - operator.C) / abs(operator.C),
            "P": abs(report.P - operator.P) / operator.P,
            "chi2": abs(report.chi2 - operator.chi2) / abs(operator.chi2),
        }
        assert "checked_against" not in report.to_dict()


class TestGridExport:
    def test_csv_round_trips_at_full_precision(self, tmp_path):
        grid = wigner_from_density(_vacuum(), _grid(12, 33))
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "q,p,w"
        assert len(lines) == 1 + 33 * 33
        q0, p0, w0 = (float(x) for x in lines[1].split(","))
        assert q0 == grid.q_vector()[0]
        assert p0 == grid.p_vector()[0]
        assert w0 == grid.values[0, 0]

    def test_json_envelope(self, tmp_path):
        grid = wigner_from_density(_vacuum(), _grid(12, 33))
        doc = grid.to_json_dict()
        assert doc["grid_spec"]["nq"] == 33
        parsed = json.loads(json.dumps(doc))
        assert np.array_equal(np.array(parsed["values"]), grid.values)

    def test_grid_invariants(self):
        with pytest.raises(ValueError, match="ordered"):
            PhaseSpaceGrid(1.0, -1.0, -1.0, 1.0, 33, 33, np.zeros((33, 33)))
        with pytest.raises(ValueError, match="at least 32"):
            GridSpec(half_width=5.0, nq=8, np=8)
        with pytest.raises(ValueError, match="non-finite"):
            PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, 33, 33,
                           np.full((33, 33), np.nan))
