"""Independent brute-force oracles.

Everything here is built from first principles with plain numpy loops and
exact integer factorials, sharing no code with the package, so agreement
with the package is evidence rather than tautology.
"""

import math

import numpy as np


def ladder_matrix(n_levels: int) -> np.ndarray:
    a = np.zeros((n_levels, n_levels), dtype=complex)
    for n in range(1, n_levels):
        a[n - 1, n] = math.sqrt(n)
    return a


def embed(op: np.ndarray, mode: int, num_modes: int, n_levels: int) -> np.ndarray:
    """Place a single-mode operator on 1-based mode index, mode 1 slowest."""
    out = np.eye(1, dtype=complex)
    for m in range(1, num_modes + 1):
        factor = op if m == mode else np.eye(n_levels, dtype=complex)
        out = np.kron(out, factor)
    return out


def coherent_vector(n_levels: int, alpha: complex) -> np.ndarray:
    """Truncated coherent expansion with exact factorials, renormalized."""
    amps = np.array(
        [alpha ** n / math.sqrt(math.factorial(n)) for n in range(n_levels)],
        dtype=complex,
    ) * math.exp(-abs(alpha) ** 2 / 2.0)
    return amps / np.linalg.norm(amps)


def brute_force_I(rho: np.ndarray, num_modes: int, n_levels: int) -> float:
    """Literal three-trace evaluation of the coherence measure."""
    total = 0.0 + 0.0j
    for mode in range(1, num_modes + 1):
        a = embed(ladder_matrix(n_levels), mode, num_modes, n_levels)
        adag = a.conj().T
        num = adag @ a
        total += 0.5 * np.trace(rho @ rho @ num)
        total += 0.5 * np.trace(rho @ num @ rho)
        total -= np.trace(rho @ a @ rho @ adag)
    assert abs(total.imag) < 1e-10
    return total.real


def brute_force_C(rho: np.ndarray, num_modes: int, n_levels: int) -> float:
    """Literal quadrature-trace evaluation of the structure functional."""
    total = 0.0 + 0.0j
    for mode in range(1, num_modes + 1):
        a = embed(ladder_matrix(n_levels), mode, num_modes, n_levels)
        adag = a.conj().T
        q = (a + adag) / math.sqrt(2.0)
        p = (a - adag) / (1j * math.sqrt(2.0))
        total += np.trace(rho @ rho @ q @ q)
        total += np.trace(rho @ rho @ p @ p)
        total -= np.trace(rho @ q @ rho @ q)
        total -= np.trace(rho @ p @ rho @ p)
    assert abs(total.imag) < 1e-10
    return total.real


def brute_force_purity(rho: np.ndarray) -> float:
    value = np.trace(rho @ rho)
    assert abs(value.imag) < 1e-12
    return value.real


def oscillator_eigenfunctions(x: np.ndarray, count: int) -> np.ndarray:
    """psi_n(x) columns via the normalized recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((x.size, count))
    out[:, 0] = math.pi ** -0.25 * np.exp(-(x ** 2) / 2.0)
    if count > 1:
        out[:, 1] = math.sqrt(2.0) * x * out[:, 0]
    for n in range(2, count):
        out[:, n] = (math.sqrt(2.0 / n) * x * out[:, n - 1]
                     - math.sqrt((n - 1) / n) * out[:, n - 2])
    return out


def wigner_dyad_recurrence(rho: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Full complex sum over number-basis dyads, sum_mn rho_mn T_mn(q, p).

    T_mn = <n| Delta(q, p) |m> / pi is generated row by row: T_00 is the
    Gaussian exp(-2|a|^2) / pi with a = (q + ip) / sqrt(2), T_0n climbs the
    first row, each next row starts from the previous one, and
    T_nm = conj(T_mn) closes the lower triangle. Every kernel carries the
    Gaussian damping from the start, which keeps it stable for N up to
    about 40. The imaginary part of the result is returned, not dropped.
    """
    dim = rho.shape[0]
    a = (np.asarray(q, dtype=float)[:, None] + 1j * np.asarray(p, dtype=float)[None, :])
    a = a / math.sqrt(2.0)
    row = [np.zeros_like(a) for _ in range(dim)]
    row[0] = np.exp(-2.0 * np.abs(a) ** 2) / math.pi
    total = rho[0, 0] * row[0]
    for n in range(1, dim):
        row[n] = 2.0 * a * row[n - 1] / math.sqrt(n)
        total = total + rho[0, n] * row[n] + rho[n, 0] * np.conj(row[n])
    for m in range(1, dim):
        above = row[m]
        row[m] = (2.0 * np.conj(a) * above - math.sqrt(m) * row[m - 1]) / math.sqrt(m)
        total = total + rho[m, m] * row[m]
        for n in range(m + 1, dim):
            advanced = (2.0 * a * row[n - 1] - math.sqrt(m) * above) / math.sqrt(n)
            above = row[n]
            row[n] = advanced
            total = total + rho[m, n] * row[n] + rho[n, m] * np.conj(row[n])
    return total


def even_cat_wigner(alpha: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W of the untruncated (|alpha> + |-alpha>) / norm for real alpha."""
    q0 = math.sqrt(2.0) * alpha
    q = np.asarray(q, dtype=float)[:, None]
    p = np.asarray(p, dtype=float)[None, :]
    lobes = np.exp(-(q - q0) ** 2 - p ** 2) + np.exp(-(q + q0) ** 2 - p ** 2)
    fringes = 2.0 * np.exp(-q ** 2 - p ** 2) * np.cos(2.0 * q0 * p)
    return (lobes + fringes) / (2.0 * math.pi * (1.0 + math.exp(-2.0 * alpha * alpha)))


# closed forms for the analytic families ------------------------------------

def thermal_I(a: float) -> float:
    return (1.0 - a * a) / (2.0 * a ** 4)


def thermal_C(a: float) -> float:
    return 1.0 / a ** 4


def thermal_P(a: float) -> float:
    return 1.0 / (a * a)


def thermal_chi2(a: float) -> float:
    return 2.0 / (a * a)


def even_cat_I(alpha: float) -> float:
    s = math.exp(-2.0 * alpha * alpha)
    return alpha * alpha * (1.0 - s) / (1.0 + s)


def cat_mixture_I(alpha: float) -> float:
    r_sq = alpha * alpha
    return -r_sq * math.exp(-4.0 * r_sq)


def cat_mixture_chi2(alpha: float) -> float:
    r_sq = alpha * alpha
    s_sq = math.exp(-4.0 * r_sq)
    return 2.0 - 8.0 * r_sq * s_sq / (1.0 + s_sq)


def cat_mixture_purity(alpha: float) -> float:
    s = math.exp(-2.0 * alpha * alpha)
    return (1.0 + s * s) / 2.0
