"""Phase-space transform and grid-measure tests.

The number-basis dyad recurrence in tests/oracles.py is the independent
judge of the vectorised defining integral (wigner_from_density);
closed-form Gaussians and cat states anchor it.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import macroq.wigner
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
    fock_state,
    measure_C,
    measure_C_wigner,
    measure_report,
    product_state,
    thermal_state,
    wigner_from_density,
    wigner_measure_report,
)
from macroq.cli import build_state
from macroq.config import TOL
from macroq.wigner import (
    PhaseSpaceGrid,
    _defining_integral,
    _ETA_BLOCK,
    _kernel,
    _eta_sampling,
    _finish,
    _hermite_functions,
    _imaginary_residue,
    _phases,
    DEFAULT_GRID_POINTS,
    default_grid_spec,
)

from oracles import (
    eigenfunction_at,
    even_cat_wigner,
    gaussian_wigner,
    kernel_reach_points,
    oscillator_eigenfunctions,
    parseval_C,
    wigner_dyad_recurrence,
)

SQRT2 = math.sqrt(2.0)


def _vacuum(n_levels=12):
    return as_density(fock_state(ModeSpec(1, n_levels), 0))


def _grid(n_levels, points):
    return default_grid_spec(n_levels, points)


def _eta_sum_pair_by_pair(mat, gs):
    """The transform's eta sum, one q row and one kernel pair at a time."""
    refine, stride = _eta_sampling(gs)
    d_eta = stride * 2.0 * gs.half_width / (refine * (gs.nq - 1))
    reach = refine * (gs.nq - 1) // stride
    eta = d_eta * np.arange(-reach - 1, reach + 2)
    p = gs.p_vector()
    expected = np.zeros((gs.nq, gs.np), dtype=complex)
    for i, qi in enumerate(gs.q_vector()):
        e = eta[abs(qi) + np.abs(eta) / 2 <= gs.half_width * (1 + 1e-9)]
        left = oscillator_eigenfunctions(qi + e / 2, mat.shape[0])
        right = oscillator_eigenfunctions(qi - e / 2, mat.shape[0])
        kernel = np.einsum("jn,nm,jm->j", left, mat, right, optimize=True)
        expected[i] = kernel @ np.exp(-1j * np.outer(e, p)) * d_eta / (2.0 * np.pi)
    return expected


def _raw_transform(mat, gs):
    """The transform's real plane and half-plane terms of Im W, with no resolution check."""
    return _defining_integral(_kernel([mat], gs)[0], gs)


def _assembled(gs, values, imag_terms):
    """Complex W from the transform's real plane and the half-plane terms of Im W."""
    a, b = imag_terms
    a = 0.0 if a is None else a  # a real kernel has no a
    cut = gs.np // 2
    imag = np.empty((gs.nq, gs.np))
    imag[:, cut:] = a - b
    imag[:, cut - 1::-1] = (a + b)[:, gs.np % 2:]
    return values + 1j * imag


def _class_count(gs):
    """M = 2cm' residue classes of the kernel sites, c = 2r/g and m' = m/g."""
    refine, stride = _eta_sampling(gs)
    lattice = math.gcd(2 * refine, stride)
    return 2 * (2 * refine // lattice) * (stride // lattice)


# (half_width, nq, np, g, eta reach) of windows too small for W, with odd and
# non-square p counts: M = 64, 28, 8, 8, 2, 4 and 12 kernel classes. The
# last two reach across three and four eta blocks, whose q rows narrow
# block by block (by a row step of 2r = 6, so the first row of a block is
# rounded up, and of 2r = 4)
PAIR_BY_PAIR_SHAPES = [
    (0.8, 32, 40, 2, 0),
    (2.5, 32, 41, 1, 4),
    (2.5, 33, 32, 2, 4),
    (7.0, 32, 40, 1, 62),
    (7.0, 64, 41, 2, 31),
    (7.0, 40, 33, 1, 39),
    (4.2, 40, 41, 1, 13),
    (15.0, 64, 33, 1, 189),
    (15.0, 100, 48, 1, 198),
]


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
        analytic = gaussian_wigner(a, gs.q_vector(), gs.p_vector())
        assert np.max(np.abs(sampled.values - analytic)) < 1e-6

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

    @pytest.mark.parametrize("count", [1, 2, 54, 1424])
    def test_eigenfunction_table_is_the_oracle_transposed(self, count):
        # one row per level, filled by the oracle's recurrence in the same
        # operations, so every entry is bit-identical; at 1424 levels the
        # window passes |x| = 38.6, where the oracle rescales at every step
        # and the table every 32 steps, by exact powers of two
        x = default_grid_spec(count, 513).q_vector()
        table = _hermite_functions(x, count)
        assert table.shape == (count, x.size) and table.flags.c_contiguous
        assert np.array_equal(table, oscillator_eigenfunctions(x, count).T)

    def test_eigenfunctions_where_psi_0_underflows(self):
        # psi_0(40) = pi^-1/4 exp(-800) is below every float, psi_1600(40) is not
        x = np.array([-40.0, 40.0, 55.0])
        table = _hermite_functions(x, 1611)
        for n in range(1590, 1611):
            expected = [eigenfunction_at(float(v), n) for v in x]
            assert table[n] == pytest.approx(expected, rel=1e-11, abs=1e-13)
        assert np.abs(table[1600, :2]).min() > 0.09

    def test_top_levels_orthonormal_past_their_turning_point(self):
        # N = 1682 (thermal a = 12): psi_n oscillates out to sqrt(2N + 1) = 58.0;
        # a step of 0.04 resolves the products psi_m psi_n, whose spectra end
        # near 2 * 58, so the sum is the integral to rounding
        count, step = 1682, 0.04
        x = np.arange(-68.0, 68.0 + step / 2, step)
        band = _hermite_functions(x, count)[count - 12:]
        gram = band @ band.T * step
        assert np.abs(gram - np.eye(12)).max() < 1e-11

    @pytest.mark.parametrize("nq, np_", [(31, 32), (32, 31)])
    def test_grid_below_the_floor_rejected(self, nq, np_):
        with pytest.raises(ValueError, match=f"at least 32 points per axis, got {nq}x{np_}"):
            GridSpec(half_width=5.0, nq=nq, np=np_)

    def test_undersized_window_rejected(self):
        with pytest.raises(TruncationError, match="integrates"):
            wigner_from_density(_vacuum(), GridSpec(half_width=0.8, nq=32, np=32))


class TestEtaSampling:
    """Each branch of the eta-step choice, and a non-square grid, against the oracle."""

    # The kernel is formed on the sites that are multiples of g = gcd(2r, m),
    # in M = 2cm' residue classes: M = 2 (the parity split, g = 2) on an even
    # and an odd site count, M = 4 (g = 1), and M = 8 from g = 2 with m = 8
    # and from r = 2, on odd, even and non-square point counts.
    @pytest.mark.parametrize("make, nq, np_, refine, stride", [
        (lambda: _vacuum(), 61, 61, 2, 1),
        (lambda: thermal_state(ModeSpec(1, default_thermal_truncation(2.0)), GaussianSpec(2.0)),
         160, 160, 1, 1),
        (lambda: as_density(cat_state(ModeSpec(1, 25), 1.5)), 188, 188, 1, 2),
        (lambda: as_density(cat_state(ModeSpec(1, 25), 1.5)), 189, 189, 1, 2),
        (lambda: as_density(fock_state(ModeSpec(1, 12), 5)), 512, 512, 1, 8),
        (lambda: as_density(cat_state(ModeSpec(1, 25), 1.5 * np.exp(0.7j))), 90, 96, 2, 1),
        # 101 points: the vacuum, a coherent state off the origin (its W is not even
        # in q), an even cat, and a thermal state whose kernel needs r = 2
        (lambda: _vacuum(), 101, 101, 1, 1),
        (lambda: as_density(coherent_state(ModeSpec(1, 19), 1.0)), 101, 101, 1, 1),
        (lambda: as_density(cat_state(ModeSpec(1, 25), 1.5)), 101, 101, 1, 1),
        (lambda: thermal_state(ModeSpec(1, 31), GaussianSpec(SQRT2)), 101, 101, 2, 1),
    ])
    def test_matches_dyad_oracle(self, make, nq, np_, refine, stride):
        rho = make()
        gs = GridSpec(default_grid_spec(rho.spec.truncation).half_width, nq=nq, np=np_)
        assert _eta_sampling(gs) == (refine, stride)
        grid = wigner_from_density(rho, gs)
        assert grid.values.shape == (nq, np_)
        assert _oracle_gap(rho, grid) < 1e-10

    @pytest.mark.parametrize("half_width, nq, np_, lattice, reach", PAIR_BY_PAIR_SHAPES)
    def test_eta_sum_pair_by_pair(self, half_width, nq, np_, lattice, reach):
        # Windows too small for W, judged on the transform's own eta sum: the
        # kernel is large at their edges, so a pair leaving the window must
        # read zero and nothing else. reach = 0 keeps eta = 0 alone. An odd
        # p count computes its p = 0 column; every other column p < 0 is the
        # mirror of one at p > 0.
        a = 2.0
        rho = thermal_state(ModeSpec(1, default_thermal_truncation(a)), GaussianSpec(a))
        gs = GridSpec(half_width, nq=nq, np=np_)
        refine, stride = _eta_sampling(gs)
        assert math.gcd(2 * refine, stride) == lattice
        assert refine * (nq - 1) // stride == reach
        expected = _eta_sum_pair_by_pair(rho.matrix, gs)
        raw = _assembled(gs, *_raw_transform(rho.matrix, gs))
        assert np.max(np.abs(raw.real - expected.real)) < 1e-12
        assert np.max(np.abs(raw.imag - expected.imag)) < 1e-12

    def test_pair_by_pair_shapes_cover_every_class_count(self):
        # the sites split into M = 2cm' residue classes, one kernel block each;
        # M = 2 is the parity split, and a pair leaving the window can sit in
        # any class
        counts = {_class_count(GridSpec(h, nq=nq, np=np_)) for h, nq, np_, _, _ in
                  PAIR_BY_PAIR_SHAPES}
        assert counts == {2, 4, 8, 12, 28, 64}
        # and the eta blocks, with the q rows each one reads, are judged
        # beyond the first block, with odd and even p counts
        wide = {np_ % 2 for _, _, np_, _, reach in PAIR_BY_PAIR_SHAPES
                if reach >= 2 * _ETA_BLOCK}
        assert wide == {0, 1}

    @pytest.mark.parametrize("half_width, nq, np_", [
        (7.0, 64, 41), (7.0, 40, 33), (2.5, 33, 32), (4.2, 40, 41), (2.5, 32, 41),
        (0.8, 32, 40), (15.0, 64, 33), (15.0, 100, 48),
    ])
    def test_non_hermitian_input_on_every_class_count(self, half_width, nq, np_):
        # a matrix with no symmetry at all: every block and its partner hold
        # unrelated entries, so a swapped pair or class would show in W. Its
        # levels reach past the window edge, sqrt(2N + 1) >= half_width, so
        # every eta block carries pairs that a row it skips would need. Its
        # real part takes the real kernel, whose residue sum D_j sin is still
        # formed and refused; with eta = 0 alone there is no sine term, and
        # the W of a real matrix is real.
        levels = max(20, math.ceil(half_width ** 2 / 2))
        rng = np.random.default_rng(nq * np_)
        mat = rng.standard_normal((levels, levels)) + 1j * rng.standard_normal((levels, levels))
        gs = GridSpec(half_width, nq=nq, np=np_)
        refine, stride = _eta_sampling(gs)
        for field, one in ((np.float64, mat.real), (np.complex128, mat)):
            assert _kernel([one], gs)[0][0].dtype == field
            values, imag_terms = _raw_transform(one, gs)
            expected = _eta_sum_pair_by_pair(one, gs)
            raw = _assembled(gs, values, imag_terms)
            assert np.max(np.abs(raw.real - expected.real)) < 1e-12
            assert np.max(np.abs(raw.imag - expected.imag)) < 1e-12
            if field is np.float64 and refine * (nq - 1) // stride == 0:
                assert not raw.imag.any()
                continue
            with pytest.raises(ConsistencyError, match="imaginary residue"):
                _finish(values, imag_terms, gs, "non-Hermitian input")

    def test_imaginary_residue_is_formed_and_refused(self):
        # DensityMatrix would refuse this matrix; the raw transform must carry
        # its anti-Hermitian part into Im W, and _finish must refuse that.
        a = 2.0
        rho = thermal_state(ModeSpec(1, default_thermal_truncation(a)), GaussianSpec(a))
        # complex noise, so S and D have real and imaginary parts on both sides of p = 0
        noise = np.random.default_rng(11).standard_normal((2,) + rho.matrix.shape)
        mat = rho.matrix + 1e-6 * (noise[0] + 1j * noise[1])
        gs = GridSpec(default_grid_spec(rho.spec.truncation).half_width, nq=48, np=33)
        values, imag_terms = _raw_transform(mat, gs)
        expected = _eta_sum_pair_by_pair(mat, gs)
        raw = _assembled(gs, values, imag_terms)
        assert np.max(np.abs(raw.real - expected.real)) < 1e-12
        assert np.max(np.abs(raw.imag - expected.imag)) < 1e-12
        residue = np.max(np.abs(expected.imag))
        assert residue > TOL.imag_residue_tol
        assert _imaginary_residue(imag_terms, gs) == pytest.approx(residue, rel=1e-12)
        with pytest.raises(ConsistencyError, match=f"imaginary residue {residue:.2e} "):
            _finish(values, imag_terms, gs, "non-Hermitian input")

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                        reason="long double is no wider than float64 here")
    def test_phase_tables_as_accurate_as_direct_evaluation(self):
        # every eta step of thermal a = 12's default grid, J = 2561: the tables turned
        # block by block against cos and sin of the rounded float64 products, both
        # judged by a long-double evaluation of the exact products
        gs = _grid(default_thermal_truncation(12.0), DEFAULT_GRID_POINTS)
        refine, stride = _eta_sampling(gs)
        d_eta = stride * 2.0 * gs.half_width / (refine * (gs.nq - 1))
        reach = refine * (gs.nq - 1) // stride
        p = gs.p_vector()[gs.np // 2:]
        scale = d_eta / (2.0 * np.pi)
        tables = [np.concatenate(part) / scale for part in zip(*_phases(d_eta, p, reach))]
        theta = np.outer(np.arange(reach + 1) * d_eta, p)
        exact = np.outer(np.arange(reach + 1, dtype=np.longdouble) * np.longdouble(d_eta),
                         p.astype(np.longdouble))
        assert reach + 1 == 2561 and tables[0].shape == theta.shape
        for table, direct, reference in ((tables[0], np.cos(theta), np.cos(exact)),
                                         (tables[1], np.sin(theta), np.sin(exact))):
            assert np.max(np.abs(table - reference)) <= np.max(np.abs(direct - reference))

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
        assert peak <= 24 * 2 ** 20


class TestGaussianProfile:
    def test_origin_values(self):
        gs = GridSpec(half_width=10.0, nq=65, np=65)
        q, p = gs.q_vector(), gs.p_vector()
        assert gaussian_wigner(1.0, q, p)[32, 32] == pytest.approx(1.0 / np.pi, rel=1e-12)
        assert gaussian_wigner(2.0, q, p)[32, 32] == pytest.approx(
            1.0 / (4.0 * np.pi), rel=1e-12)

    def test_normalization_on_wide_window(self):
        for a in (1.0, 2.0):
            gs = GridSpec(half_width=5.0 * a + 1.0, nq=256, np=256)
            grid = PhaseSpaceGrid(gs, gaussian_wigner(a, gs.q_vector(), gs.p_vector()))
            assert grid.normalization() == pytest.approx(1.0, abs=1e-8)


class TestKernelReach:
    """The point count from the kernel's eta reach, against a dense kernel, and the
    default grid it sets across the sizes of each family."""

    @pytest.mark.parametrize("family, params", [
        ("cat", {"alpha": "1.5"}), ("cat", {"alpha": "3"}), ("cat", {"alpha": "7"}),
        ("cat", {"alpha": "7j"}), ("fock", {"n": "66"}), ("thermal", {"a": "5"}),
        ("cat-mixture", {"alpha": "1"}),
    ])
    def test_counts_match_the_dense_kernel(self, family, params):
        # 64 points are fewer than the count of each window's last eta, so the reach is
        # measured, and the counts hardly depend on the grid they are measured on
        rho = as_density(build_state(family, params, None)[0])
        gs = _grid(rho.spec.truncation, 64)
        turn = (-1j) ** np.arange(rho.spec.truncation)
        counts = [full for full, _ in _kernel([np.outer(turn, turn.conj()) * rho.matrix,
                                               rho.matrix], gs)[1]]
        assert counts == pytest.approx(kernel_reach_points(rho.matrix, gs.half_width), rel=0.03)

    @pytest.mark.parametrize("family, params, points, field", [
        ("thermal", {"a": "2"}, 256, np.float64), ("fock", {"n": "5"}, 256, np.float64),
        ("cat", {"alpha": "3"}, 256, np.float64), ("cat", {"alpha": "1+1j"}, 256, np.complex128),
        ("coherent", {"alpha": "2"}, 128, np.float64),
    ])
    def test_kernel_is_in_the_field_of_rho(self, family, params, points, field, monkeypatch):
        # rho real in the Fock basis has a real kernel; the coherent state's
        # quarter turn is complex, and measuring its reach on a 128-point grid
        # leaves rho's own kernel real
        formed = []

        def kernel(mats, gs):
            formed.append((mats, _kernel(mats, gs)))
            return formed[-1][1]
        monkeypatch.setattr(macroq.wigner, "_kernel", kernel)
        rho = as_density(build_state(family, params, None)[0])
        wigner_from_density(rho, _grid(rho.spec.truncation, points))
        [(mats, ((flat, *_), counts))] = formed
        assert flat.dtype == field
        if family == "coherent":
            assert len(counts) == 2 and np.iscomplexobj(mats[0]) and mats[0].imag.any()

    def test_grid_with_the_window_count_is_not_measured(self):
        # the eta sum ends at the window, so a grid that samples its last eta
        # resolves every W on it: the kernel is formed once, its count is the window's
        rho = as_density(cat_state(ModeSpec(1, 25), 1.5))
        (flat, *_), counts = _kernel([rho.matrix, rho.matrix], _grid(25, 256))
        assert counts == [(186, 186)]
        assert np.array_equal(flat, _kernel([rho.matrix], _grid(25, 256))[0][0])

    def test_default_grid(self):
        # 257 points, which sample the origin, resolve the kernel's reach here
        psi = coherent_state(ModeSpec(1, 19), 1.0)
        grid = wigner_from_density(psi)
        assert grid.spec == default_grid_spec(19, 257)
        assert np.array_equal(grid.values,
                              wigner_from_density(psi, default_grid_spec(19, 257)).values)

    @pytest.mark.parametrize("family, params", [
        ("cat", {"alpha": "3"}), ("cat", {"alpha": "5"}), ("cat", {"alpha": "7"}),
        ("cat", {"alpha": "7j"}), ("cat", {"alpha": "10"}), ("fock", {"n": "66"}),
        ("fock", {"n": "72"}), ("fock", {"n": "150"}), ("fock-mixture", {"d": "100"}),
        ("thermal", {"a": "5"}),
    ])
    def test_default_grid_resolves_every_size(self, family, params):
        # at 256 points the cats from alpha = 7, Fock n = 72 and the d = 100
        # mixture were refused, and Fock n = 66 was 1.9e-4 off
        report = wigner_measure_report(build_state(family, params, None)[0])
        assert max(report.cross_deltas.values()) <= 3.3e-11


class TestGridMeasures:
    def test_resolution_guard_fires_on_coarse_grid(self):
        # cat alpha=7's fringes run along p, and 256 points sample them below
        # Nyquist (its grid C was 99% off there): the transform refuses the
        # grid, naming the count that its kernel's reach needs; the default
        # grid takes that count, and its C is exact to round-off
        n_levels = default_coherent_truncation(7.0)
        rho = as_density(cat_state(ModeSpec(1, n_levels), 7.0))
        with pytest.raises(TruncationError, match=r"wigner_from_density: the 256x256 grid "
                           r"under-samples W; the reach of its kernel needs 219x362 points"):
            wigner_from_density(rho, _grid(n_levels, 256))
        grid = wigner_from_density(rho)
        assert grid.spec == _grid(n_levels, 363)
        assert measure_C_wigner(grid) == pytest.approx(measure_C(rho), rel=1e-12)
        # the count a refusal names is enough on that count's own grid
        assert wigner_from_density(rho, _grid(n_levels, 362)).values.shape == (362, 362)

    def test_resolution_guard_passes_resolved_grids(self):
        for rho, points in ((as_density(cat_state(ModeSpec(1, 25), 1.5)), 128),
                            (as_density(cat_state(ModeSpec(1, 43), 3.0)), 256)):
            grid = wigner_from_density(rho, _grid(rho.spec.truncation, points))
            assert measure_C_wigner(grid) == pytest.approx(measure_C(rho), rel=1e-12)

    def test_spectral_refinement(self):
        # Parseval converges exponentially: cat alpha=1.5 goes from under-resolved
        # at 65 points to round-off at 129; the Gaussian-like states are at
        # round-off on all three grids. The 65-point cat is sampled by the raw
        # transform, since wigner_from_density refuses it (its reach needs 99).
        cases = (
            (_vacuum(), 0.0, 1e-12),
            (as_density(coherent_state(ModeSpec(1, 19), 1.0)), 0.0, 1e-12),
            (as_density(cat_state(ModeSpec(1, 25), 1.5)), 1e-4, 1e-2),
        )
        for rho, coarse_low, coarse_high in cases:
            reference = measure_C(rho)
            errs = []
            for points in (65, 129, 257):
                gs = _grid(rho.spec.truncation, points)
                values = _raw_transform(rho.matrix, gs)[0]
                c_value = measure_C_wigner(PhaseSpaceGrid(gs, values))
                errs.append(abs(c_value - reference) / reference)
            assert coarse_low <= errs[0] < coarse_high, errs
            assert max(errs[1:]) < 1e-12, errs
        with pytest.raises(TruncationError, match="the 65x65 grid under-samples W; the reach "
                           "of its kernel needs 70x99 points or more"):
            wigner_from_density(rho, _grid(25, 65))

    @pytest.mark.parametrize("shape", [(64, 64), (65, 65), (64, 65), (48, 81), (256, 256),
                                       (257, 257), (363, 363), (300, 211), (61, 41)])
    def test_half_spectrum_matches_full_spectrum(self, shape):
        # random samples carry power up to Nyquist, where a wrong column weight shows;
        # odd and even np, so the Nyquist column is there or not, and dq != dp off the square
        values = np.random.default_rng(sum(shape)).standard_normal(shape)
        gs = GridSpec(1.0, *shape)
        dq, dp = gs.dq, gs.dp
        k_q = 2.0 * np.pi * np.fft.fftfreq(shape[0], d=dq)
        k_p = 2.0 * np.pi * np.fft.fftfreq(shape[1], d=dp)
        power = np.abs(np.fft.fft2(values)) ** 2
        full = np.pi * dq * dp / values.size * np.sum(
            (k_q[:, None] ** 2 + k_p[None, :] ** 2) * power)
        half = parseval_C(values, dq, dp)
        assert half == pytest.approx(full, rel=1e-12)
        assert abs(measure_C_wigner(PhaseSpaceGrid(gs, values)) - half) <= 1e-15 * half

    @pytest.mark.parametrize("shape", [(512, 512), (300, 211)])
    def test_C_works_in_one_half_spectrum_plane(self, shape):
        grid = PhaseSpaceGrid(GridSpec(1.0, *shape),
                              np.random.default_rng(sum(shape)).standard_normal(shape))
        tracemalloc.start()
        try:
            measure_C_wigner(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * shape[0] * (shape[1] // 2 + 1) * 16

    def test_marginal_recovers_position_density(self):
        states = [
            _vacuum(),
            thermal_state(ModeSpec(1, 31), GaussianSpec(SQRT2)),
        ]
        for rho in states:
            gs = _grid(rho.spec.truncation, 257)
            grid = wigner_from_density(rho, gs)
            row = grid.values[gs.nq // 2]  # q = 0 lives at the middle sample
            dp = grid.spec.dp
            weights = np.full(row.size, dp)
            weights[0] *= 0.5
            weights[-1] *= 0.5
            marginal = float(row @ weights)
            basis = oscillator_eigenfunctions(np.array([0.0]), rho.spec.truncation)[0]
            density = float((basis @ rho.matrix @ basis).real)
            assert marginal == pytest.approx(density, abs=1e-5)


class TestWignerReport:
    def test_under_sampled_grid_is_refused_before_the_cross_check(self):
        # 64 points under-sample the fringes: a truncation error naming the
        # count, not a disagreement between the pipelines
        rho = as_density(cat_state(ModeSpec(1, 25), 1.5))
        with pytest.raises(TruncationError, match="the 64x64 grid under-samples W; the "
                           "reach of its kernel needs 69x99 points or more"):
            wigner_measure_report(rho, _grid(25, 64))

    def test_unexplained_gap_on_resolved_grid_is_a_consistency_error(self, monkeypatch):
        # 256 points resolve the kernel's reach, so a gap past the tolerance
        # is a bug, reported with both sets of values
        rho = as_density(cat_state(ModeSpec(1, 25), 1.5))
        monkeypatch.setattr(macroq.wigner, "TOL",
                            dataclasses.replace(TOL, dual_pipeline_rel=1e-18))
        with pytest.raises(ConsistencyError,
                           match="pipelines disagree on the 256x256 grid: grid C=") as info:
            wigner_measure_report(rho, _grid(25, 256))
        assert "operator C=" in str(info.value)

    def test_multimode_rejected(self):
        vac = _vacuum(6)
        with pytest.raises(ValueError, match="single-mode"):
            wigner_measure_report(product_state(vac, vac))

    @pytest.mark.parametrize("a", [11.0, 12.0])
    def test_widest_thermal_states_on_the_default_grid(self, a, monkeypatch):
        # N = 1424 and 1682: the default windows reach past |x| = 38.6, where psi_0 underflows;
        # the report's own grid is judged, so each state is transformed once. Its
        # kernel's reach asks for far fewer than the 257 points of the floor.
        rho = thermal_state(ModeSpec(1, default_thermal_truncation(a)), GaussianSpec(a))
        grids = []
        transform = macroq.wigner._sampled

        def kept(*args, **kwargs):
            grids.append(transform(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(macroq.wigner, "_sampled", kept)
        report = wigner_measure_report(rho)
        assert max(report.cross_deltas.values()) < 1e-11
        (grid,) = grids
        assert grid.spec == default_grid_spec(rho.spec.truncation)
        expected = gaussian_wigner(a, grid.q_vector(), grid.p_vector())
        assert np.abs(grid.values - expected).max() < 1e-12

    def test_default_grid_and_C_are_the_public_functions(self, monkeypatch):
        # the report samples W through wigner_from_density and takes C from
        # measure_C_wigner: cat alpha = 7 grows from the floor to its reach's count
        rho = as_density(cat_state(ModeSpec(1, default_coherent_truncation(7.0)), 7.0))
        grids = []
        measure = macroq.wigner.measure_C_wigner

        def kept(grid):
            grids.append(grid)
            return measure(grid)

        monkeypatch.setattr(macroq.wigner, "measure_C_wigner", kept)
        report = wigner_measure_report(rho)
        (grid,) = grids
        alone = wigner_from_density(rho)
        assert grid.spec == alone.spec == GridSpec(alone.spec.half_width, nq=363, np=363)
        assert np.array_equal(grid.values, alone.values)
        assert report.C == measure(alone)

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
        grid = wigner_from_density(_vacuum(), _grid(12, 65))
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "q,p,w"
        assert len(lines) == 1 + 65 * 65
        q0, p0, w0 = (float(x) for x in lines[1].split(","))
        assert q0 == grid.q_vector()[0]
        assert p0 == grid.p_vector()[0]
        assert w0 == grid.values[0, 0]

    def test_csv_matches_per_element_writer(self, tmp_path):
        values = np.random.default_rng(5).standard_normal((33, 47)) * 1e-3
        grid = PhaseSpaceGrid(GridSpec(3.7, 33, 47), values)
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        q, p = grid.q_vector(), grid.p_vector()
        reference = ["q,p,w\n"]
        for i in range(grid.nq):
            for j in range(grid.np):
                reference.append(f"{q[i]:.17g},{p[j]:.17g},{grid.values[i, j]:.17g}\n")
        assert path.read_bytes() == "".join(reference).encode()

    def test_json_envelope(self, tmp_path):
        grid = wigner_from_density(_vacuum(), default_grid_spec(12, 65))
        doc = grid.to_json_dict()
        h = math.sqrt(24.0) + 5.0
        assert doc["grid_spec"] == {"q_min": -h, "q_max": h, "p_min": -h, "p_max": h,
                                    "nq": 65, "np": 65}
        parsed = json.loads(json.dumps(doc))
        assert np.array_equal(np.array(parsed["values"]), grid.values)

    def test_grid_invariants(self):
        assert [f.name for f in dataclasses.fields(PhaseSpaceGrid)] == ["spec", "values"]
        for half_width in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="half_width must be positive and finite"):
                GridSpec(half_width=half_width, nq=33, np=33)
        with pytest.raises(ValueError, match="at least 32"):
            GridSpec(half_width=5.0, nq=8, np=8)
        for counts, name in (((64.5, 64), "nq"), ((64, 64.0), "np"), ((True, 64), "nq"),
                             ((64, np.bool_(True)), "np"), (("64", 64), "nq")):
            with pytest.raises(ValueError, match=f"grid {name} must be an integer"):
                GridSpec(6.0, *counts)
        gs = GridSpec(6.0, np.int64(48), np.int32(41))
        assert (type(gs.nq), type(gs.np)) == (int, int)
        assert gs == GridSpec(6.0, 48, 41)
        assert wigner_from_density(_vacuum(), gs).values.shape == (48, 41)
        with pytest.raises(ValueError, match=r"values shape \(41, 48\) does not match 48x41"):
            PhaseSpaceGrid(gs, np.zeros((41, 48)))
        with pytest.raises(ValueError, match="non-finite"):
            PhaseSpaceGrid(GridSpec(1.0, 33, 33), np.full((33, 33), np.nan))
