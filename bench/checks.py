"""Output checks for the benchmark, coded apart from macroq.

Nothing here imports the package. Expected values come from closed forms
(thermal, Fock, coherent, even and odd cat, cat mixture), from exact
relations between the measures, and from an independent O(M*D^2) evaluation
of I, C and P as shifted-slice sums over the reshaped density tensor. Every
checker raises `CheckFailure` naming the quantity, the value it got and the
value it expected.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import laguerre

# Operator-path values agree with the closed forms to round-off; grid values
# carry discretisation error up to the package's dual-pipeline tolerance.
OPERATOR_RTOL = 1e-8
GRID_RTOL = 1e-3
RELATION_TOL = 1e-9
WIGNER_ATOL = 1e-7
NORM_TOL = 1e-6


class CheckFailure(AssertionError):
    """A program output disagrees with its independently computed value."""


def close(what: str, got: float, want: float, rtol: float) -> None:
    """|got - want| <= rtol * max(1, |want|); NaN and inf never pass."""
    got, want = float(got), float(want)
    if not (math.isfinite(got) and abs(got - want) <= rtol * max(1.0, abs(want))):
        raise CheckFailure(f"{what}: got {got!r}, expected {want!r} (rtol {rtol:g})")


# ---------------------------------------------------------------------------
# closed forms: each returns {"I", "C", "P"}; chi2 = 2C/P
# ---------------------------------------------------------------------------

def _from_I_P(i_value: float, p_value: float, num_modes: int) -> dict:
    return {"I": i_value, "C": 2.0 * i_value + num_modes * p_value, "P": p_value}


def thermal(a: float) -> dict:
    return {"I": (1.0 - a * a) / (2.0 * a ** 4), "C": 1.0 / a ** 4, "P": 1.0 / (a * a)}


def fock(n: int) -> dict:
    return _from_I_P(float(n), 1.0, 1)


def coherent() -> dict:
    return _from_I_P(0.0, 1.0, 1)


def cat(alpha: complex, odd: bool) -> dict:
    """Even (phase 0) or odd (phase pi) cat: I = <n> - |<a>|^2 with <a> = 0."""
    r_sq = abs(alpha) ** 2
    s = math.exp(-2.0 * r_sq)
    ratio = (1.0 + s) / (1.0 - s) if odd else (1.0 - s) / (1.0 + s)
    return _from_I_P(r_sq * ratio, 1.0, 1)


def cat_mixture(alpha: complex) -> dict:
    r_sq = abs(alpha) ** 2
    s_sq = math.exp(-4.0 * r_sq)
    return _from_I_P(-r_sq * s_sq, (1.0 + s_sq) / 2.0, 1)


def product(left: dict, right: dict, num_modes: int) -> dict:
    """Composition rule I(r1 x r2) = P2 I1 + P1 I2 and P(r1 x r2) = P1 P2."""
    i_value = right["P"] * left["I"] + left["P"] * right["I"]
    return _from_I_P(i_value, left["P"] * right["P"], num_modes)


# ---------------------------------------------------------------------------
# independent evaluation on the density tensor
# ---------------------------------------------------------------------------

def _axis_vector(values: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = values.size
    return values.reshape(shape)


def slice_measures(matrix: np.ndarray, num_modes: int, levels: int) -> dict:
    """I, C and P of rho from shifted slices of its 2M-index tensor.

    With rho[i, j] split into row and column multi-indices, Tr[rho^2 X] for a
    diagonal X is sum rho_ij rho_ji X_ii, and
    Tr[rho a_m rho a_m^+] = sum sqrt((i_m+1)(j_m+1)) rho_ij rho_(j+e_m),(i+e_m).
    C uses q^2 + p^2 = a a^+ + a^+ a and rho q rho q + rho p rho p =
    rho a rho a^+ + rho a^+ rho a. No embedded operator is formed.
    """
    m_count = num_modes
    ndim = 2 * m_count
    t = np.asarray(matrix, dtype=np.complex128).reshape((levels,) * ndim)
    swap = list(range(m_count, ndim)) + list(range(m_count))
    pair = t * np.transpose(t, swap)              # rho_ij rho_ji
    n = np.arange(levels, dtype=float)
    both = 2.0 * n + 1.0                          # (a^+ a + a a^+)_ii
    both[-1] = levels - 1.0                       # a a^+ vanishes on the top level
    root = np.sqrt(np.arange(1, levels, dtype=float))
    i_total = 0.0 + 0.0j
    c_total = 0.0 + 0.0j
    for m in range(m_count):
        lo = [slice(None)] * ndim
        hi = [slice(None)] * ndim
        lo[m] = lo[m_count + m] = slice(0, levels - 1)
        hi[m] = hi[m_count + m] = slice(1, levels)
        shifted = np.transpose(t[tuple(hi)], swap)
        weight = _axis_vector(root, m, ndim) * _axis_vector(root, m_count + m, ndim)
        hop = np.sum(t[tuple(lo)] * weight * shifted)
        i_total += np.sum(pair * _axis_vector(n, m, ndim)) - hop
        c_total += np.sum(pair * _axis_vector(both, m, ndim)) - 2.0 * hop
    p_total = np.sum(pair)
    for what, value in (("I", i_total), ("C", c_total), ("P", p_total)):
        if abs(value.imag) > 1e-9:
            raise CheckFailure(f"independent {what} has imaginary part {value.imag:.2e}")
    return {"I": i_total.real, "C": c_total.real, "P": p_total.real}


def pure_measures(amplitudes: np.ndarray, num_modes: int, levels: int) -> dict:
    """I = sum_m (<n_m> - |<a_m>|^2) on the amplitude tensor; P = 1."""
    psi = np.asarray(amplitudes, dtype=np.complex128).reshape((levels,) * num_modes)
    prob = np.abs(psi) ** 2
    n = np.arange(levels, dtype=float)
    root = np.sqrt(np.arange(1, levels, dtype=float))
    i_value = 0.0
    for m in range(num_modes):
        lo = [slice(None)] * num_modes
        hi = [slice(None)] * num_modes
        lo[m] = slice(0, levels - 1)
        hi[m] = slice(1, levels)
        mean_n = float(np.sum(prob * _axis_vector(n, m, num_modes)))
        mean_a = np.sum(np.conj(psi[tuple(lo)]) * _axis_vector(root, m, num_modes)
                        * psi[tuple(hi)])
        i_value += mean_n - abs(mean_a) ** 2
    return _from_I_P(i_value, 1.0, num_modes)


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def check_report(label: str, report: dict, want: dict, num_modes: int,
                 rtol: float, pure: bool = False) -> None:
    """Values against the expectation, then the identities every report obeys."""
    for key in ("I", "C", "P"):
        close(f"{label} {key}", float(report[key]), want[key], rtol)
    close(f"{label} chi2", float(report["chi2"]), 2.0 * want["C"] / want["P"], rtol)
    i_value, c_value, p_value, chi2 = (float(report[k]) for k in ("I", "C", "P", "chi2"))
    close(f"{label} identity I = (C - M*P)/2", i_value, (c_value - num_modes * p_value) / 2.0,
          RELATION_TOL)
    close(f"{label} chi2 = 2C/P", chi2, 2.0 * c_value / p_value, RELATION_TOL)
    if not chi2 > 0.0:
        raise CheckFailure(f"{label}: chi2 = {chi2!r} is not positive")
    if pure:
        close(f"{label} pure relation chi2 = 4I + 2M", chi2, 4.0 * i_value + 2.0 * num_modes,
              RELATION_TOL)


# ---------------------------------------------------------------------------
# phase-space values
# ---------------------------------------------------------------------------

def _coherent_dyad(beta: complex, gamma: complex, z: np.ndarray) -> np.ndarray:
    """Wigner function of |beta><gamma| with z = (q + ip)/sqrt(2)."""
    overlap = np.exp(-0.5 * abs(beta) ** 2 - 0.5 * abs(gamma) ** 2 + np.conj(gamma) * beta)
    return overlap * np.exp(-2.0 * (z - beta) * (np.conj(z) - np.conj(gamma))) / math.pi


def wigner_value(family: str, params: dict, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Analytic W(q, p), normalised to integrate to 1."""
    r_sq = q * q + p * p
    z = (q + 1j * p) / math.sqrt(2.0)
    if family == "thermal":
        a_sq = params["a"] ** 2
        return np.exp(-r_sq / a_sq) / (math.pi * a_sq)
    if family == "fock":
        n = params["n"]
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        return (-1) ** n * laguerre.lagval(2.0 * r_sq, coeffs) * np.exp(-r_sq) / math.pi
    alpha = params["alpha"]
    if family == "coherent":
        return _coherent_dyad(alpha, alpha, z).real
    if family == "cat-mixture":
        return 0.5 * (_coherent_dyad(alpha, alpha, z) + _coherent_dyad(-alpha, -alpha, z)).real
    if family == "cat":
        phi = params["phi"]
        norm = 1.0 / (2.0 * (1.0 + math.cos(phi) * math.exp(-2.0 * abs(alpha) ** 2)))
        total = (_coherent_dyad(alpha, alpha, z) + _coherent_dyad(-alpha, -alpha, z)
                 + np.exp(-1j * phi) * _coherent_dyad(alpha, -alpha, z)
                 + np.exp(1j * phi) * _coherent_dyad(-alpha, alpha, z))
        return (norm * total).real
    raise ValueError(f"no analytic Wigner function for {family!r}")


def trapezoid_2d(values: np.ndarray, dq: float, dp: float) -> float:
    return float(np.trapezoid(np.trapezoid(values, dx=dp, axis=1), dx=dq))


def check_grid(label: str, family: str, params: dict, q: np.ndarray, p: np.ndarray,
               values: np.ndarray, picks: np.ndarray) -> None:
    """Analytic W at the sampled nodes `picks` (index pairs) and integral W = 1."""
    if values.shape != (q.size, p.size):
        raise CheckFailure(f"{label}: grid shape {values.shape} is not {q.size}x{p.size}")
    qi, pj = picks[:, 0], picks[:, 1]
    want = wigner_value(family, params, q[qi], p[pj])
    got = values[qi, pj]
    worst = int(np.argmax(np.abs(got - want)))
    if not abs(got[worst] - want[worst]) <= WIGNER_ATOL:
        raise CheckFailure(
            f"{label}: W({q[qi[worst]]:.6g}, {p[pj[worst]]:.6g}) = {float(got[worst])!r}, "
            f"analytic {float(want[worst])!r}")
    norm = trapezoid_2d(values, q[1] - q[0], p[1] - p[0])
    if not abs(norm - 1.0) <= NORM_TOL:
        raise CheckFailure(f"{label}: grid integrates to {norm!r}, not 1")


def parse_grid_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major q,p,w table back to (q, p, W[q, p])."""
    lines = text.splitlines()
    if not lines or lines[0] != "q,p,w":
        raise CheckFailure(f"grid CSV header is {lines[:1]!r}, expected 'q,p,w'")
    table = np.array([row.split(",") for row in lines[1:]], dtype=float)
    q = np.unique(table[:, 0])
    p = np.unique(table[:, 1])
    if table.shape[0] != q.size * p.size:
        raise CheckFailure(f"grid CSV has {table.shape[0]} rows for a {q.size}x{p.size} grid")
    return q, p, table[:, 2].reshape(q.size, p.size)


# ---------------------------------------------------------------------------
# sweep CSV and verify output
# ---------------------------------------------------------------------------

def check_sweep_csv(label: str, text: str, expected: list, rtol: float = OPERATOR_RTOL) -> None:
    """Row k's parameter, I, C, P, chi2 against `expected[k] = (parameter, values)`."""
    lines = text.splitlines()
    if not lines or lines[0] != "parameter,I,C,P,chi2,errors":
        raise CheckFailure(f"{label}: CSV header is {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(expected):
        raise CheckFailure(f"{label}: {len(rows)} rows, expected {len(expected)}")
    for row, (param, want) in zip(rows, expected):
        if len(row) != 6 or row[5]:
            raise CheckFailure(f"{label}: row {row!r} is malformed or reports an error")
        close(f"{label} parameter", float(row[0]), float(param), 1e-15)
        values = dict(zip(("I", "C", "P", "chi2"), (float(x) for x in row[1:5])))
        check_report(f"{label} at {param}", values, want, 1, rtol)


def check_verify_output(text: str, checks: int = 11) -> None:
    lines = text.splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    failed = [line for line in lines if line.startswith("FAIL ")]
    summary = f"summary: {checks}/{checks} checks passed"
    if failed or len(passed) != checks or not any(line.startswith(summary) for line in lines):
        raise CheckFailure(f"verify output lacks '{summary}' with {checks} PASS lines: "
                           f"{lines[-1:]!r}, {len(failed)} FAIL lines")
