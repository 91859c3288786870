"""Independent brute-force oracles.

Everything here is built from first principles with plain numpy loops and
exact integer factorials, sharing no code with the package, so agreement
with the package is evidence rather than tautology.
"""

import collections
import json
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


def expm_reference(gen: np.ndarray) -> np.ndarray:
    """exp(gen) by scaling and squaring a Taylor series.

    gen is halved s times until its 1-norm is at most 1/2, where 30 Taylor
    terms leave a remainder below 0.5^31 / 31!, far under rounding; the
    sum is then squared s times.
    """
    norm = np.abs(gen).sum(axis=0).max()
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0 else 0
    x = gen / 2.0 ** squarings
    term = np.eye(gen.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 31):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
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


def connected_blocks(mat: np.ndarray) -> set[frozenset[int]]:
    """Index sets linked by entries that are not exactly 0, on either side
    of the diagonal, found by breadth-first search in plain Python."""
    dim = len(mat)
    neighbours = [set() for _ in range(dim)]
    for i, row in enumerate(mat.tolist()):
        for j, value in enumerate(row):
            if value != 0:
                neighbours[i].add(j)
                neighbours[j].add(i)
    seen = [False] * dim
    blocks = set()
    for start in range(dim):
        if seen[start]:
            continue
        seen[start] = True
        block, queue = [start], collections.deque([start])
        while queue:
            for j in neighbours[queue.popleft()]:
                if not seen[j]:
                    seen[j] = True
                    block.append(j)
                    queue.append(j)
        blocks.add(frozenset(block))
    return blocks


def oscillator_eigenfunctions(x: np.ndarray, count: int) -> np.ndarray:
    """psi_n(x) columns via the normalized recurrence.

    Where psi_0 is below the normal range, the recurrence runs instead on
    psi_n * 2^-e with one exponent e per point: it starts from
    pi^-1/4 exp(-(x^2/2 - k ln 2)) with e = -k, k = floor(x^2 / (2 ln 2)),
    and at every step both of the last two values are divided by the binary
    power of the larger, which is exact. Entries below the normal range are
    stored as 0.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((x.size, count))
    out[:, 0] = math.pi ** -0.25 * np.exp(-(x ** 2) / 2.0)
    if count > 1:
        out[:, 1] = math.sqrt(2.0) * x * out[:, 0]
    for n in range(2, count):
        out[:, n] = (math.sqrt(2.0 / n) * x * out[:, n - 1]
                     - math.sqrt((n - 1) / n) * out[:, n - 2])
    tiny = np.finfo(float).tiny
    deep = out[:, 0] < tiny
    x = x[deep]
    shift = np.floor(x ** 2 / 2.0 / math.log(2.0))
    cur = math.pi ** -0.25 * np.exp(-(x ** 2 / 2.0 - shift * math.log(2.0)))
    prev = np.zeros_like(cur)
    exponent = -shift.astype(int)
    for n in range(count):
        if n:
            prev, cur = cur, (math.sqrt(2.0 / n) * x * cur
                              - math.sqrt((n - 1) / n) * prev)
        _, power = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))
        cur, prev, exponent = np.ldexp(cur, -power), np.ldexp(prev, -power), exponent + power
        column = np.ldexp(cur, exponent)
        column[np.abs(column) < tiny] = 0.0
        out[deep, n] = column
    return out


def eigenfunction_at(x: float, n: int) -> float:
    """psi_n(x) at one point in plain Python floats.

    Each value of the recurrence is held as a mantissa and a binary exponent
    (math.frexp), so none underflows; psi_0's Gaussian is a product of
    factors exp(-x^2 / 2j) that each stay in the normal range.
    """
    pieces = max(1, math.ceil(x * x / 1000.0))
    mantissa, exponent = math.pi ** -0.25, 0
    for _ in range(pieces):
        mantissa, power = math.frexp(mantissa * math.exp(-x * x / (2.0 * pieces)))
        exponent += power
    prev, cur = (0.0, 0), (mantissa, exponent)
    for level in range(1, n + 1):
        value = (math.sqrt(2.0 / level) * x * cur[0]
                 - math.sqrt((level - 1) / level) * math.ldexp(prev[0], prev[1] - cur[1]))
        mantissa, power = math.frexp(value)
        prev, cur = cur, (mantissa, cur[1] + power)
    return math.ldexp(*cur)


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


def kernel_reach_points(rho: np.ndarray, half_width: float, step: float = 0.05
                        ) -> tuple[int, int]:
    """Points per axis that W needs in q and in p, from the dense position kernel.

    K(x, y) = <x|rho|y> is formed in full on a lattice of spacing <= step
    over [-half_width, half_width]; the energy |K|^2 of each separation
    eta = x - y, summed over every pair inside the window and weighted by
    1 + eta^2, is cut where at most 1e-16 of it lies beyond (the package's
    share, dual_pipeline_rel * grid_norm_tol), and W sampled in p to that
    reach needs ceil(2 * half_width * reach / pi) + 1 points. The q count
    is the same rule on R rho R^dagger, R = diag((-i)^n), whose W is W
    turned a quarter.
    """
    sites = math.ceil(2.0 * half_width / step) + 1
    x = np.linspace(-half_width, half_width, sites)
    psi = oscillator_eigenfunctions(x, rho.shape[0])
    turn = np.diag((-1j) ** np.arange(rho.shape[0]))
    apart = np.abs(np.arange(sites)[:, None] - np.arange(sites)[None, :])
    counts = []
    for mat in (turn @ rho @ turn.conj().T, rho):
        kernel = psi @ mat @ psi.T
        energy = np.bincount(apart.ravel(), (np.abs(kernel) ** 2).ravel())
        eta = (x[1] - x[0]) * np.arange(sites)
        energy *= 1.0 + eta ** 2
        beyond = energy[::-1].cumsum()[::-1]
        reach = eta[np.flatnonzero(np.append(beyond[1:], 0.0) <= 1e-16 * beyond[0])[0]]
        counts.append(math.ceil(2.0 * half_width * reach / math.pi) + 1)
    return tuple(counts)


def parseval_C(values: np.ndarray, dq: float, dp: float) -> float:
    """pi * integral(|dW/dq|^2 + |dW/dp|^2) of samples periodic over the window, by Parseval.

    The sum of (k_q^2 + k_p^2)|FFT2(W)|^2 runs over the half spectrum
    rfft2(W): a column whose mirror -k_p is another column (0 < k < np/2)
    counts twice, the zero and Nyquist columns once.
    """
    nq, np_ = values.shape
    spectrum = np.fft.rfft2(values)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    k_q = 2.0 * np.pi * np.fft.fftfreq(nq, d=dq)
    k_p = 2.0 * np.pi * np.fft.rfftfreq(np_, d=dp)
    column = np.arange(k_p.size)
    weight = np.where((column > 0) & (2 * column < np_), 2.0, 1.0)
    return float(np.pi * dq * dp / values.size
                 * np.sum(weight * (k_q[:, None] ** 2 + k_p ** 2) * power))


def even_cat_wigner(alpha: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W of the untruncated (|alpha> + |-alpha>) / norm for real alpha."""
    q0 = math.sqrt(2.0) * alpha
    q = np.asarray(q, dtype=float)[:, None]
    p = np.asarray(p, dtype=float)[None, :]
    lobes = np.exp(-(q - q0) ** 2 - p ** 2) + np.exp(-(q + q0) ** 2 - p ** 2)
    fringes = 2.0 * np.exp(-q ** 2 - p ** 2) * np.cos(2.0 * q0 * p)
    return (lobes + fringes) / (2.0 * math.pi * (1.0 + math.exp(-2.0 * alpha * alpha)))


def gaussian_wigner(a: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Isotropic Gaussian profile exp(-(q^2+p^2)/a^2) / (pi a^2), the thermal W of width a."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    return np.exp(-(q[:, None] ** 2 + p[None, :] ** 2) / (a * a)) / (np.pi * a * a)


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


def state_bits(state) -> np.ndarray:
    """A state's stored amplitudes or matrix as a uint64 view: equal views are equal bits."""
    values = state.amplitudes if hasattr(state, "amplitudes") else state.matrix
    return np.ascontiguousarray(values).view(np.uint64)


def state_document_pairs(text: str) -> np.ndarray | None:
    """The float [re, im] array a version-1 state document holds, read whole
    by json.loads, or None where the document's structure is refused.

    Only the structure is judged (JSON object, integer format_version 1, a
    known kind, spec and data present, data of the spec's shape); the values
    are taken to form a valid state.
    """
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    if not isinstance(doc, dict) or not {"format_version", "spec", "kind", "data"} <= doc.keys():
        return None
    version, kind, spec = doc["format_version"], doc["kind"], doc["spec"]
    if type(version) is not int or version != 1 or kind not in ("pure", "mixed"):
        return None
    dim = spec["truncation"] ** spec["num_modes"]
    try:
        pairs = np.asarray(doc["data"], dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    shape = (dim,) * (1 if kind == "pure" else 2) + (2,)
    return pairs if pairs.shape == shape else None
