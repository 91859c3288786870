"""Mode operator construction and truncated-commutator behavior."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from macroq import (
    ModeSpec,
    TruncationError,
    annihilation_op,
    as_density,
    coherent_state,
    creation_op,
    displaced,
    quadrature_p,
    quadrature_q,
)

from macroq.fock import _single_mode_displacement

from oracles import embed, expm_reference, ladder_matrix

SQRT2 = math.sqrt(2.0)


class TestLadderOperators:
    def test_annihilation_entries(self):
        a = annihilation_op(ModeSpec(1, 3)).matrix
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = SQRT2
        assert np.array_equal(a, expected)

    def test_lowers_single_excitation_to_vacuum(self):
        a = annihilation_op(ModeSpec(1, 5)).matrix
        one = np.zeros(5, dtype=complex)
        one[1] = 1.0
        assert np.allclose(a @ one, np.eye(5, dtype=complex)[0])

    def test_second_mode_embedding_matches_kron(self):
        spec = ModeSpec(2, 4)
        got = annihilation_op(spec, mode=2).matrix
        manual = np.kron(np.eye(4), ladder_matrix(4))
        assert np.array_equal(got, manual)

    def test_first_mode_embedding_matches_kron(self):
        spec = ModeSpec(2, 4)
        got = annihilation_op(spec, mode=1).matrix
        manual = np.kron(ladder_matrix(4), np.eye(4))
        assert np.array_equal(got, manual)

    @pytest.mark.parametrize("num_modes, truncation, mode", [(1, 7, 1), (2, 4, 2)])
    def test_creation_is_adjoint_of_annihilation(self, num_modes, truncation, mode):
        spec = ModeSpec(num_modes, truncation)
        a = annihilation_op(spec, mode=mode).matrix
        assert np.array_equal(creation_op(spec, mode=mode).matrix, a.conj().T)

    def test_creation_entries(self):
        adag = creation_op(ModeSpec(1, 3)).matrix
        assert adag[1, 0] == 1.0
        assert adag[2, 1] == pytest.approx(SQRT2)

    def test_creation_raises_vacuum(self):
        adag = creation_op(ModeSpec(1, 5)).matrix
        vac = np.eye(5, dtype=complex)[0]
        assert np.allclose(adag @ vac, np.eye(5, dtype=complex)[1])

    def test_creation_annihilates_top_level(self):
        n_levels = 6
        adag = creation_op(ModeSpec(1, n_levels)).matrix
        top = np.eye(n_levels, dtype=complex)[n_levels - 1]
        assert np.allclose(adag @ top, 0.0)

    @pytest.mark.parametrize("builder, single_mode", [
        (annihilation_op, lambda a: a),
        (creation_op, lambda a: a.conj().T),
        (quadrature_q, lambda a: (a + a.conj().T) / SQRT2),
        (quadrature_p, lambda a: (a - a.conj().T) / (1j * SQRT2)),
    ], ids=["a", "adag", "q", "p"])
    @pytest.mark.parametrize("num_modes, mode", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_placement_matches_the_kron_oracle(self, builder, single_mode, num_modes, mode):
        n_levels = 4
        got = builder(ModeSpec(num_modes, n_levels), mode=mode).matrix
        expected = embed(single_mode(ladder_matrix(n_levels)), mode, num_modes, n_levels)
        assert np.array_equal(got, expected)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            annihilation_op(ModeSpec(2, 4), mode=3)


class TestQuadratures:
    def test_q_two_level_matrix(self):
        q = quadrature_q(ModeSpec(1, 2)).matrix
        assert np.allclose(q, np.array([[0.0, 1 / SQRT2], [1 / SQRT2, 0.0]]))

    def test_p_two_level_matrix(self):
        p = quadrature_p(ModeSpec(1, 2)).matrix
        assert np.allclose(p, np.array([[0.0, -1j / SQRT2], [1j / SQRT2, 0.0]]))

    @pytest.mark.parametrize("builder", [quadrature_q, quadrature_p])
    def test_hermitian(self, builder):
        op = builder(ModeSpec(1, 9)).matrix
        assert np.array_equal(op, op.conj().T)

    def test_coherent_q_expectation(self):
        spec = ModeSpec(1, 40)
        psi = coherent_state(spec, 1.5).amplitudes
        q = quadrature_q(spec).matrix
        assert np.vdot(psi, q @ psi).real == pytest.approx(SQRT2 * 1.5, abs=1e-8)

    def test_coherent_p_expectation(self):
        spec = ModeSpec(1, 40)
        alpha = 1.0 + 0.5j
        psi = coherent_state(spec, alpha).amplitudes
        p = quadrature_p(spec).matrix
        assert np.vdot(psi, p @ psi).real == pytest.approx(SQRT2 * 0.5, abs=1e-8)


class TestNumberOperator:
    def test_equals_creation_times_annihilation(self):
        # sqrt(n)*sqrt(n) rounds one ulp away from n for some n, so the
        # agreement is exact arithmetic up to that last bit
        spec = ModeSpec(1, 8)
        product = creation_op(spec).matrix @ annihilation_op(spec).matrix
        assert np.max(np.abs(np.diag(np.arange(8)) - product)) < 1e-14


class TestCommutators:
    def test_canonical_commutator_interior(self):
        n_levels = 8
        spec = ModeSpec(1, n_levels)
        q = quadrature_q(spec).matrix
        p = quadrature_p(spec).matrix
        comm = q @ p - p @ q
        interior = comm[: n_levels - 1, : n_levels - 1]
        assert np.max(np.abs(interior - 1j * np.eye(n_levels - 1))) < 1e-12
        off_diag = comm - np.diag(np.diag(comm))
        assert np.max(np.abs(off_diag)) < 1e-12
        # the corner entry is the truncation artifact i(1 - N)
        assert comm[-1, -1] == pytest.approx(1j * (1 - n_levels))

    def test_cross_mode_commutator_vanishes(self):
        spec = ModeSpec(2, 5)
        q1 = quadrature_q(spec, mode=1).matrix
        p2 = quadrature_p(spec, mode=2).matrix
        assert np.max(np.abs(q1 @ p2 - p2 @ q1)) < 1e-12

    def test_quadrature_square_sum_interior(self):
        n_levels = 8
        spec = ModeSpec(1, n_levels)
        q = quadrature_q(spec).matrix
        p = quadrature_p(spec).matrix
        lhs = q @ q + p @ p
        rhs = 2.0 * np.diag(np.arange(n_levels)) + np.eye(n_levels)
        block = slice(0, n_levels - 1)
        assert np.max(np.abs(lhs[block, block] - rhs[block, block])) < 1e-12


class TestModeSpec:
    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError):
            ModeSpec(1, 1)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            ModeSpec(0, 4)

    @pytest.mark.parametrize("num_modes,truncation,field", [
        (1.7, 12, "num_modes"), (True, 12, "num_modes"), (1, 12.0, "truncation"),
    ])
    def test_rejects_non_integer_fields(self, num_modes, truncation, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ModeSpec(num_modes, truncation)

    def test_accepts_numpy_integers(self):
        spec = ModeSpec(np.int64(2), np.int32(5))
        assert spec == ModeSpec(2, 5)
        assert type(spec.total_dim) is int
        # 64^20 wraps to 0 in int64 arithmetic, which would pass the budget
        with pytest.raises(TruncationError, match="budget"):
            ModeSpec(np.int64(20), np.int64(64))

    def test_dimension_budget(self, monkeypatch):
        monkeypatch.setenv("MACROQ_MAX_DIM", "100")
        with pytest.raises(TruncationError, match="budget"):
            ModeSpec(2, 11)
        assert ModeSpec(2, 10).total_dim == 100

    @pytest.mark.parametrize("num_modes,truncation,named", [
        (3, 10 ** 200, "N=1.000e+200, M=3"), (10 ** 6, 2, "N=2, M=1000000"),
    ], ids=["N=1e200", "M=1e6"])
    def test_budget_refusal_is_brief(self, num_modes, truncation, named):
        # N^M has 601 and 301 030 digits; the message must not spell it out
        with pytest.raises(TruncationError, match="exceeds the budget") as info:
            ModeSpec(num_modes, truncation)
        assert named in str(info.value)
        assert len(str(info.value)) < 200

    def test_built_matrices_are_read_only(self):
        op = annihilation_op(ModeSpec(1, 6)).matrix
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


class TestDisplacementOperator:
    @pytest.mark.parametrize("n_levels, beta", [(40, 0.5 + 0.5j), (12, 0.3), (12, 0.3j)])
    def test_matches_taylor_oracle_and_is_unitary(self, n_levels, beta):
        # test_measures.py's test_axiswise_matches_embedded_conjugation judges
        # the two-mode embedding through displaced
        op = _single_mode_displacement(n_levels, beta)
        a = ladder_matrix(n_levels)
        expected = expm_reference(beta * a.conj().T - np.conj(beta) * a)
        assert np.max(np.abs(op - expected)) < 1e-13
        assert np.max(np.abs(op @ op.conj().T - np.eye(n_levels))) < 1e-13

    @pytest.mark.parametrize("beta", [math.inf, math.nan, math.nan * 1j])
    def test_non_finite_beta_is_named(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            displaced(as_density(coherent_state(ModeSpec(1, 30), 0.5)), beta)


class TestRuntimeDependencies:
    def test_import_and_displacement_load_no_scipy(self):
        script = (
            "import sys\n"
            "import macroq\n"
            "from macroq import ModeSpec, as_density, coherent_state, displaced\n"
            "displaced(as_density(coherent_state(ModeSpec(1, 30), 0.5)), 0.3)\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
