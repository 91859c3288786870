"""Measure evaluation: values, identities, and consistency guards."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

import macroq.fock
import macroq.measures
import macroq.wigner
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
    default_grid_spec,
    default_thermal_truncation,
    displaced,
    fock_mixture,
    fock_state,
    measure_C,
    measure_I,
    measure_I_forms,
    measure_report,
    mix,
    product_state,
    pure_state_measures,
    purity,
    random_mixed_state,
    random_pure_state,
    thermal_state,
    wigner_measure_report,
)

from oracles import (
    brute_force_C,
    brute_force_I,
    brute_force_purity,
    embed,
    expm_reference,
    ladder_matrix,
    thermal_chi2,
)

SQRT2 = math.sqrt(2.0)
TILE = macroq.states._TILE
_tile_pairs = macroq.states._tile_pairs


def _thermal(a: float):
    return thermal_state(ModeSpec(1, default_thermal_truncation(a)), GaussianSpec(a))


class TestSliceTracesAgainstOracle:
    """The slice-product traces against the dense brute-force products."""

    @pytest.mark.parametrize("num_modes,truncation", [
        (1, 12), (2, 5), (3, 3),
        # tiles: D = B, a one-row last tile, D not a multiple of B, and
        # mode strides that cross tile boundaries mid-mode
        (1, TILE), (1, TILE + 1), (1, 2 * TILE + 44), (2, 13), (3, 7), (2, 23),
    ])
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

        monkeypatch.setattr(macroq.fock, "_placed", refuse)
        report = measure_report(random_mixed_state(ModeSpec(2, 5), rng))
        assert report.identity_residual < 1e-9
        pure = pure_state_measures(random_pure_state(ModeSpec(2, 5), rng))
        assert pure.pure_relation_residual < 1e-10


class TestTiledTraces:
    """Residue checks and refusals where a tile pair, not one tile, holds the fault."""

    @staticmethod
    def _corrupted_off_diagonal_tile():
        # (|3> + |B+5>)/sqrt(2); the corruption sits in tile (2, 1), its mirror
        # entry rho[3, B+5] = 1/2 in tile (1, 2)
        spec = ModeSpec(1, TILE + 8)
        amps = np.zeros(spec.total_dim, dtype=complex)
        amps[[3, TILE + 5]] = 1.0 / SQRT2
        rho = as_density(PureState(spec, amps))
        corrupted = rho.matrix.copy()
        corrupted[TILE + 5, 3] += 1e-4j
        object.__setattr__(rho, "matrix", corrupted)
        return rho

    @pytest.mark.parametrize("trace,error,what", [
        (measure_I, ConsistencyError, "measure I"),
        (measure_C, ConsistencyError, "measure C"),
        (purity, ConsistencyError, "purity"),
    ])
    def test_residue_in_off_diagonal_tile_detected(self, trace, error, what):
        with pytest.raises(error, match=f"{what} has imaginary residue"):
            trace(self._corrupted_off_diagonal_tile())

    def test_non_hermitian_off_diagonal_tile_refused(self):
        spec = ModeSpec(1, TILE + 8)
        mat = np.eye(spec.total_dim, dtype=complex) / spec.total_dim
        mat[TILE + 5, 3] = 1e-3
        with pytest.raises(StateValidationError, match="Hermiticity violated"):
            DensityMatrix(spec, mat)

    @pytest.mark.parametrize("trace", [measure_I, measure_I_forms, measure_C, purity])
    def test_pure_state_refused_by_name(self, trace):
        psi = coherent_state(ModeSpec(1, 20), 1.0)
        with pytest.raises(TypeError, match="DensityMatrix.*measure_report.*as_density"):
            trace(psi)


def _corner_pair() -> DensityMatrix:
    """A diagonal rho plus one pair of entries at its corners, so w = D - 1."""
    diag = np.linspace(2.0, 1.0, 3 * TILE - 20)
    diag[-1] = 0.0
    mat = np.diag(diag / diag.sum()).astype(complex)
    mat[0, -1] = mat[-1, 0] = 1e-8
    return DensityMatrix(ModeSpec(1, len(mat)), mat)


def _across_tiles() -> DensityMatrix:
    """Thermal mixed with (|B-2> + |B+2>)/sqrt(2): band 4, one coherence across tiles."""
    spec = ModeSpec(1, 2 * TILE + 44)
    amps = np.zeros(spec.total_dim, dtype=complex)
    amps[[TILE - 2, TILE + 2]] = 1.0 / SQRT2
    thermal = thermal_state(spec, GaussianSpec(1.5))
    return mix([(0.5, thermal), (0.5, as_density(PureState(spec, amps)))])


class TestBandLimitedWalks:
    """Every walk skips the tile pairs beyond rho's band and gives the full walk's bits."""

    STATES = {
        "thermal": lambda rng: _thermal(6.0),
        "thermal x cat mixture": lambda rng: product_state(
            thermal_state(ModeSpec(1, 26), GaussianSpec(SQRT2)),
            cat_mixture(ModeSpec(1, 26), 0.6 + 0.8j)),
        "fock mixture": lambda rng: fock_mixture(ModeSpec(1, TILE + 12), 7, False),
        "cat mixture": lambda rng: cat_mixture(ModeSpec(1, 163), 9.0),
        "dense random": lambda rng: random_mixed_state(ModeSpec(1, 2 * TILE + 44), rng),
        "corner pair": lambda rng: _corner_pair(),
        "M=3, stride > w": lambda rng: product_state(
            thermal_state(ModeSpec(1, 8), GaussianSpec(1.01)),
            product_state(fock_mixture(ModeSpec(1, 8), 3), cat_mixture(ModeSpec(1, 8), 0.2))),
        "across tiles": lambda rng: _across_tiles(),
    }
    # the band each state must have: D - 1 marks a full walk
    BANDS = {"thermal": 0, "thermal x cat mixture": 24, "fock mixture": 0, "cat mixture": 162,
             "dense random": 2 * TILE + 42, "corner pair": 3 * TILE - 21, "M=3, stride > w": 6,
             "across tiles": 4}

    @staticmethod
    def _every_pair(rho: DensityMatrix) -> DensityMatrix:
        full = copy.copy(rho)
        object.__setattr__(full, "_band", rho.spec.total_dim - 1)
        return full

    @staticmethod
    def _values(rho: DensityMatrix) -> str:
        return repr((measure_I_forms(rho), measure_C(rho), purity(rho),
                     measure_report(rho).identity_residual))

    @pytest.mark.parametrize("case", list(STATES))
    def test_band_is_the_widest_nonzero_reach(self, case, rng):
        rho = self.STATES[case](rng)
        rows, cols = np.nonzero(rho.matrix)
        assert rho._band == np.max(np.abs(rows - cols)) == self.BANDS[case]

    @pytest.mark.parametrize("case", list(STATES))
    def test_traces_match_the_walk_over_every_pair(self, case, rng):
        rho = self.STATES[case](rng)
        assert self._values(rho) == self._values(self._every_pair(rho))

    def test_stride_exceeds_the_band(self, rng):
        rho = self.STATES["M=3, stride > w"](rng)
        strides = [rho.spec.truncation ** (3 - mode) for mode in (1, 2, 3)]
        assert rho.spec.total_dim > 2 * TILE
        assert [stride > rho._band for stride in strides] == [True, True, False]

    @pytest.mark.parametrize("dim", [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 44, 676])
    def test_full_band_walks_every_tile_pair(self, dim):
        count = -(-dim // TILE)
        assert len(_tile_pairs(dim, dim - 1)) == count * (count + 1) // 2
        assert len(_tile_pairs(dim, 0)) == count
        assert len(_tile_pairs(dim, 1)) == 2 * count - 1
        assert _tile_pairs(dim, dim - 1) == _tile_pairs(dim, 10 ** 9)

    def test_hermiticity_violation_far_off_the_band_refused(self):
        mat = _thermal(6.0).matrix.copy()
        mat[-5, 2] = 1e-3
        with pytest.raises(StateValidationError, match="Hermiticity violated: .* 1.00e-03"):
            DensityMatrix(ModeSpec(1, len(mat)), mat)

    @pytest.mark.parametrize("trace,what", [
        (measure_I, "measure I"), (measure_C, "measure C"), (purity, "purity")])
    def test_non_hermitian_perturbation_in_the_band_detected(self, trace, what):
        rho = _across_tiles()
        assert rho._band == 4
        corrupted = rho.matrix.copy()
        corrupted[TILE + 2, TILE - 2] += 1e-4j  # tile pair (1, 0)
        object.__setattr__(rho, "matrix", corrupted)
        with pytest.raises(ConsistencyError, match=f"{what} has imaginary residue"):
            trace(rho)


class TestMeasureI:
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

    def test_disagreeing_forms_refused(self, monkeypatch):
        monkeypatch.setattr(macroq.measures, "measure_I_forms", lambda rho: (1.0, 1.0 + 2e-10))
        with pytest.raises(ConsistencyError, match="three-term and two-term evaluations of I "
                                                   r"disagree: 1\.0 vs 1\.0000000002"):
            measure_I(_thermal(2.0))


class TestMeasureC:
    def test_agrees_with_brute_force_oracle(self, rng):
        rho = random_mixed_state(ModeSpec(1, 10), rng)
        assert measure_C(rho) == pytest.approx(brute_force_C(rho.matrix, 1, 10), abs=1e-12)


class TestMeasureChi2:

    # Each report kind refuses chi2 <= 0 after the identity has held: I is
    # made consistent with C = 0, so only the positivity check can object.
    def test_mixed_report_refuses_nonpositive_chi2(self, monkeypatch):
        def traces(rho):
            i_value = -rho.spec.num_modes * purity(rho) / 2.0
            return complex(i_value), complex(i_value), 0j, complex(purity(rho))

        monkeypatch.setattr(macroq.measures, "_traces", traces)
        with pytest.raises(ConsistencyError, match="chi2 must be positive"):
            measure_report(_thermal(2.0))

    def test_pure_report_refuses_nonpositive_chi2(self, monkeypatch):
        def measures(amps, spec, norm_sq):
            value = -spec.num_modes * norm_sq * norm_sq / 2.0
            return value, value, 0.0

        monkeypatch.setattr(macroq.measures, "_pure_measures", measures)
        with pytest.raises(ConsistencyError, match="chi2 must be positive"):
            measure_report(coherent_state(ModeSpec(1, 19), 1.0))

    def test_grid_report_refuses_nonpositive_chi2(self, monkeypatch):
        monkeypatch.setattr(macroq.wigner, "measure_C_wigner", lambda grid: 0.0)
        with pytest.raises(ConsistencyError, match="chi2 must be positive"):
            wigner_measure_report(fock_mixture(ModeSpec(1, 12), 3))


class TestMeasureReport:
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

    @pytest.mark.parametrize("kind", ["operator", "pure", "grid"])
    def test_every_value_is_a_python_float(self, kind):
        # a numpy scalar would print as np.float64(...) in verify's notes
        # and a numpy bool would not serialize
        rho = cat_mixture(ModeSpec(1, 19), 1.0)
        report = {"operator": lambda: measure_report(rho),
                  "pure": lambda: measure_report(cat_state(ModeSpec(1, 19), 1.0)),
                  "grid": lambda: wigner_measure_report(rho, default_grid_spec(19))}[kind]()
        values = [report.I, report.C, report.P, report.chi2, report.identity_residual]
        values += [report.pure_relation_residual] if kind == "pure" else []
        values += list(report.cross_deltas.values()) if kind == "grid" else []
        assert [type(value) for value in values] == [float] * len(values)

    def test_mixed_report_walks_rho_once(self, monkeypatch, rng):
        # every walk over rho's tile pairs enumerates them through _tile_pairs
        walks = []
        tile_pairs = macroq.states._tile_pairs

        def counted(dim, band):
            walks.append(band)
            return tile_pairs(dim, band)

        rho = random_mixed_state(ModeSpec(2, 12), rng)
        for module in (macroq.states, macroq.measures):
            monkeypatch.setattr(module, "_tile_pairs", counted)
        report = measure_report(rho)
        assert len(walks) == 1
        assert report.C == pytest.approx(brute_force_C(rho.matrix, 2, 12), abs=1e-12)


class TestPureStateMeasures:
    def test_relation_on_random_states(self, rng):
        for _ in range(10):
            report = pure_state_measures(random_pure_state(ModeSpec(1, 12), rng))
            assert report.pure_relation_residual < 1e-10

    def test_nearly_normalized_state_is_measured(self):
        # squared norm 1 + 9e-11, inside norm_tol: I and P carry that factor
        # squared and chi2 does not, so |I - (chi2/4 - M/2)| would be 1.6e-9
        cat = cat_state(ModeSpec(1, 43), 3.0)
        psi = PureState(cat.spec, cat.amplitudes * math.sqrt(1.0 + 9e-11))
        report = pure_state_measures(psi)
        assert report.I == pytest.approx(measure_I(as_density(psi)), abs=1e-12)
        assert report.pure_relation_residual < 1e-12
        assert abs(report.I / report.P - (report.chi2 / 4.0 - 0.5)) < 1e-12

    def test_relation_break_inside_identity_tolerance_refused(self, monkeypatch):
        # I moved by 5e-10: the identity (1e-9) holds, the relation (1e-10) must not
        measures = macroq.measures._pure_measures

        def shifted(amps, spec, norm_sq):
            three, two, c_value = measures(amps, spec, norm_sq)
            return three + 5e-10, two + 5e-10, c_value

        monkeypatch.setattr(macroq.measures, "_pure_measures", shifted)
        with pytest.raises(ConsistencyError, match=r"^pure-state relation violated: "
                                                   r"\|I/P - \(chi2/4 - M/2\)\| = 5\.00e-10$"):
            pure_state_measures(coherent_state(ModeSpec(1, 19), 1.0))


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
        # squared norm 1 + 5e-11, inside norm_tol
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
        assert abs(measure_report(_thermal(a)).chi2 / thermal_chi2(a) - 1.0) < 1e-13

    def test_report_scratch_memory(self, rng):
        # rho is 16 MiB at D = 1024; the traces hold O(B^2) tiles, not D x D copies
        rho = random_mixed_state(ModeSpec(2, 32), rng)
        assert _peak_bytes(measure_report, rho) < 4 * 2 ** 20


class TestIdentity:
    def test_identity_on_random_mixtures(self, rng):
        for _ in range(5):
            rho = random_mixed_state(ModeSpec(1, 12), rng)
            lhs = measure_I(rho)
            rhs = (measure_C(rho) - purity(rho)) / 2.0
            assert abs(lhs - rhs) < 1e-9

    def test_identity_violation_refused(self, monkeypatch):
        # C moved by 4e-9 puts the residual at 2e-9, past its 1e-9 tolerance
        traces = macroq.measures._traces

        def moved(rho):
            three, two, c_value, p_value = traces(rho)
            return three, two, c_value + 4e-9, p_value

        monkeypatch.setattr(macroq.measures, "_traces", moved)
        with pytest.raises(ConsistencyError, match=r"identity residual \|I - \(C - M\*P\)/2\| "
                                                   "= 2.00e-09"):
            measure_report(_thermal(2.0))

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_populated_top_level_refused_by_the_tail_rule(self, kind):
        # built directly, so no constructor ran the tail rule; the identity's corner
        # term (residual 8.4e-3) must not be what refuses it, as a broken build
        amps = np.zeros(12, dtype=complex)
        amps[[0, -1]] = math.sqrt(1.0 - 1.4e-3), math.sqrt(1.4e-3)
        state = (PureState(ModeSpec(1, 12), amps) if kind == "pure"
                 else DensityMatrix(ModeSpec(1, 12), np.outer(amps, amps.conj())))
        with pytest.raises(TruncationError, match=r"^top Fock level holds 1\.40e-03 "):
            measure_report(state)


class TestDisplacement:
    def test_invariance_for_interior_state(self):
        rho = as_density(coherent_state(ModeSpec(1, 40), 0.5))
        i_ref = measure_I(rho)
        chi_ref = measure_report(rho).chi2
        for beta in (0.4, 0.5 + 0.5j):
            moved = displaced(rho, beta)
            assert measure_I(moved) == pytest.approx(i_ref, abs=1e-7)
            assert measure_report(moved).chi2 == pytest.approx(chi_ref, abs=1e-6)

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
        with pytest.raises(ConsistencyError, match="purity has imaginary residue"):
            purity(self._corrupted())
