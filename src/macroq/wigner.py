"""Single-mode phase-space pipeline.

Every grid comes from the defining integral

    W(q, p) = (1/2pi) integral d_eta <q + eta/2| rho |q - eta/2> exp(-i eta p),

vectorised (the idea of QuTiP's FFT Wigner method, Johansson, Nation & Nori,
Comput. Phys. Commun. 183, 1760 (2012)): the position kernel Psi rho Psi^T
is formed from the oscillator eigenfunctions on a position grid refined
from the q grid, and only on the site pairs that the gather reads. The
sites fall into M residue classes, each of which meets a single partner
class, so the kernel is one block per class: about S^2 N / M multiply-adds
for S sites and N levels, on real GEMMs. Each q row gathers its
anti-diagonal from the blocks, a block of eta pairs at a time and only on
the q rows with room for it, since q +- eta/2 must stay in the window. The
kernel is in rho's own field: real blocks, gathers and products for a rho
whose Fock matrix is real (thermal states, number mixtures, Fock states,
cats at real alpha), complex ones otherwise. The eta sum is split by
parity into a cosine and a sine transform, each one real matrix product
evaluated on the columns p >= 0 only; the columns p < 0 are their mirror,
W(q, -p) = C + i S where W(q, p) = C - i S. Their cos and sin factors
come from one table over the first block of eta steps, turned to each
later block by angle addition. The real part of W is assembled into one
real plane, which the grid keeps; every term of the imaginary part that
can be nonzero is formed as a half-plane term and checked, never assumed
zero. The eta step is the largest multiple of the position step not above
pi/half_width, so the periodic images of W in p stay outside the window.
The independent judge of the transform, a number-basis dyad recurrence,
lives in the test suite.

Measures on a sampled grid: P = 2pi * integral(W^2) by composite trapezoid,
C = pi * integral(|dW/dq|^2 + |dW/dp|^2) by Parseval over the half
spectrum of W: a real FFT along p, then a complex FFT along q written in
place, whose entries are squared in place, so one half-spectrum plane is
the whole working memory. The sum treats W as periodic over the window
and converges exponentially once W is negligible at its edge (Trefethen &
Weideman, SIAM Rev. 56, 385 (2014)).
Grids cover a square of half-width sqrt(2N) + 5, outside which an
N-truncated state's W has decayed far below the quadrature tolerances.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .config import TOL
from .errors import ConsistencyError, TruncationError
from .fock import _store_integers
from .measures import MeasureReport, _checked_report, measure_report
from .states import State, as_density

# points per axis of a default grid, unless W needs more; odd, so that the origin is a sample
DEFAULT_GRID_POINTS = 257
_TINY = np.finfo(np.float64).tiny  # the smallest normal float


@dataclass(frozen=True)
class GridSpec:
    """Square sampling window: half-width and per-axis sample counts."""

    half_width: float
    nq: int
    np: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        _store_integers(self, "grid", ("nq", "np"))
        if self.nq < 32 or self.np < 32:
            raise ValueError(f"grids need at least 32 points per axis, got {self.nq}x{self.np}")

    def q_vector(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.nq)

    def p_vector(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.np)

    @property
    def dq(self) -> float:
        return 2.0 * self.half_width / (self.nq - 1)

    @property
    def dp(self) -> float:
        return 2.0 * self.half_width / (self.np - 1)


def default_grid_spec(truncation: int, points: int = DEFAULT_GRID_POINTS) -> GridSpec:
    """Window sized to the truncated state's support radius sqrt(2N), buffered."""
    return GridSpec(half_width=math.sqrt(2.0 * truncation) + 5.0, nq=points, np=points)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Sampled real W(q_i, p_j) on the window of its GridSpec.

    A contiguous float64 plane is taken over, not copied, and made read-only.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (self.nq, self.np):
            raise ValueError(f"values shape {vals.shape} does not match {self.nq}x{self.np}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid contains non-finite values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    # read-throughs to the spec, for callers that take counts and axes off the grid
    @property
    def nq(self) -> int:
        return self.spec.nq

    @property
    def np(self) -> int:
        return self.spec.np

    def q_vector(self) -> np.ndarray:
        return self.spec.q_vector()

    def p_vector(self) -> np.ndarray:
        return self.spec.p_vector()

    def normalization(self) -> float:
        return _trapezoid_2d(self.values, self.spec.dq, self.spec.dp)

    def to_csv(self, path: str | Path) -> None:
        """Row-major q,p,w table at 17 significant digits."""
        q = [f"{x:.17g}," for x in self.q_vector().tolist()]
        p = [f"{x:.17g}," for x in self.p_vector().tolist()]
        with open(path, "w", newline="") as fh:
            fh.write("q,p,w\n")
            for qi, row in zip(q, self.values.tolist()):
                fh.write("".join([f"{qi}{pj}{w:.17g}\n" for pj, w in zip(p, row)]))

    def to_json_dict(self) -> dict:
        h = self.spec.half_width
        return {
            "grid_spec": {"q_min": -h, "q_max": h, "p_min": -h, "p_max": h,
                          "nq": self.nq, "np": self.np},
            "values": self.values.tolist(),
        }


def _trapezoid_2d(values: np.ndarray, dq: float, dp: float) -> float:
    wq = np.full(values.shape[0], dq)
    wq[0] *= 0.5
    wq[-1] *= 0.5
    wp = np.full(values.shape[1], dp)
    wp[0] *= 0.5
    wp[-1] *= 0.5
    return float(wq @ values @ wp)


def _require_single_mode(rho: State, what: str) -> None:
    if rho.spec.num_modes != 1:
        raise ValueError(
            f"{what} supports single-mode states only, got M={rho.spec.num_modes}; "
            "multimode measures use the operator path"
        )


def _imaginary_residue(imag_terms: tuple[np.ndarray | None, np.ndarray], gs: GridSpec) -> float:
    """max |Im W| over every sample, from the half-plane terms (a, b) of _defining_integral.

    Im W = a - b at p >= 0 and a + b at -p, and the larger of the two is
    |a| + |b|. Only the unmirrored p = 0 column of an odd count is a - b alone.
    A real kernel has no a (None), and |Im W| = |b| everywhere.
    """
    a, b = imag_terms
    worst = np.abs(b)
    if a is not None:
        worst += np.abs(a)
        if gs.np % 2:
            worst[:, 0] = np.abs(a[:, 0] - b[:, 0])
    return float(np.max(worst))


def _finish(values: np.ndarray, imag_terms: tuple[np.ndarray | None, np.ndarray],
            gs: GridSpec, what: str) -> PhaseSpaceGrid:
    """The grid on the real plane of W, once its imaginary residue and normalization pass."""
    residue = _imaginary_residue(imag_terms, gs)
    if residue > TOL.imag_residue_tol:
        raise ConsistencyError(
            f"{what}: imaginary residue {residue:.2e} in the transform "
            f"(allowed {TOL.imag_residue_tol:.0e})"
        )
    grid = PhaseSpaceGrid(gs, values)
    norm = grid.normalization()
    if abs(norm - 1.0) > TOL.grid_norm_tol:
        raise TruncationError(f"{what}: grid integrates to {norm!r}, not 1; "
                              "enlarge the half-width")
    return grid


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

# eta pairs gathered and transformed at a time: keeps the transient arrays
# of the transform at a few (block x nq) beside the position kernel, and
# lets each block skip the q rows that have no room for its pairs
_ETA_BLOCK = 64


def _eta_sampling(gs: GridSpec) -> tuple[int, int]:
    """Refinement r of the position grid over the q grid, and eta stride m.

    The eta step m*dq/r is the largest multiple of the refined step dq/r
    that is at most pi/half_width. W sampled that way is periodic in p with
    period 2pi/d_eta >= 2*half_width, so its images fall outside the window.
    A stride beyond the kernel's width samples eta = 0 alone, so m is capped
    there, which keeps it finite for tiny windows. A refinement whose
    2r(nq - 1) + 1 position sites are more than one float64 array can hold
    is refused before anything is allocated.
    """
    limit = math.pi / gs.half_width
    steps = gs.dq / limit
    if not math.isfinite(steps):
        raise TruncationError(f"half-width {gs.half_width!r} needs an eta step of "
                              f"pi/half-width = {limit:.3g}, which no finite refinement "
                              f"of the q step {gs.dq:.3g} reaches")
    refine = max(1, math.ceil(steps))
    sites = 2 * refine * (gs.nq - 1) + 1
    if sites > np.iinfo(np.intp).max // np.dtype(np.float64).itemsize:
        raise TruncationError(f"half-width {gs.half_width:.6g} needs 2r(nq - 1) + 1 = "
                              f"{Decimal(sites):.3g} position sites (refinement r = "
                              f"{refine:.3g}), more than one float64 array can hold")
    stride = max(1, math.floor(min(limit * refine / gs.dq, 2 * refine * gs.nq)))
    return refine, stride


def _kernel(mats: list[np.ndarray], gs: GridSpec) -> tuple[tuple, list[tuple[int, int]]]:
    """The kernel <x_a|rho|x_b> = Psi rho Psi^T of the last of mats, formed after the others,
    with its layout, and the point counts each one's eta reach asks.

    The kernel lives on x_a = -h + a*dq/(2r), where q_i sits at a = 2ri and
    q_i +- eta_j/2 at a, b = 2ri +- mj. Every such a and b is a multiple of
    g = gcd(2r, m). On the S sites s = a/g the pairs read are
    (s_a, s_b) = (ci + m'j, ci - m'j), with c = 2r/g and m' = m/g coprime,
    so s_b = s_a (mod 2m') and s_b = -s_a (mod 2c): the class of s_a modulo
    M = 2cm' fixes that of s_b. The sites are split into these M classes,
    each padded to n = ceil(S/M) with sites whose eigenfunctions are set to
    zero, and the kernel is formed as one n x n block per class, Psi_k rho
    Psi_pi(k)^T for the partner class pi(k) of the s_b sites: about
    S^2 N / M multiply-adds beside the S N^2 of Psi rho. Every pair of a
    block is a (q_i, eta_j) pair, and every pair read is in one block. One
    zero sentinel after the blocks stands in for every pair that leaves the
    window. Each kernel is in its matrix's own field: float64 when the
    matrix has no nonzero imaginary part, as Psi is real, else complex128.
    Both products are real GEMMs on float views, so no complex copy of Psi
    is made: the eigenfunction table is stored (N x S), so each class is a
    transposed view of it, Psi_pi(k) rho.view(float64) gives the rows of
    Psi rho on class pi(k), and Psi_k times the float view of their
    transpose stores block k transposed, with the s_b sites as rows.

    Reach rule: the kernel along eta is W's Fourier transform in p. |K|^2 is summed along
    each block diagonal (one eta step), weighted by 1 + eta^2 as C weighs it; W sampled in p
    to the eta beyond which at most dual_pipeline_rel * grid_norm_tol of that lies takes
    ceil(2 h eta / pi) + 1 points, and one eta step less gives the second count. The eta sum
    ends at the window, so a grid with the count of its last eta is not measured.
    """
    refine, stride = _eta_sampling(gs)
    size = 2 * refine * (gs.nq - 1) + 1
    lattice = math.gcd(2 * refine, stride)
    row_step, step = 2 * refine // lattice, stride // lattice
    classes = 2 * row_step * step
    count = (size - 1) // lattice + 1
    rows = -(-count // classes)
    # class k holds the sites k, k + M, k + 2M, ...; the padding sites are zero
    x = np.zeros(classes * rows)
    x[:count] = np.linspace(-gs.half_width, gs.half_width, size)[::lattice]
    psi = _hermite_functions(x.reshape(rows, classes).T.ravel(), len(mats[-1]))
    psi[:, (np.arange(x.size) >= count).reshape(rows, classes).T.ravel()] = 0.0
    psi = psi.reshape(len(mats[-1]), classes, rows)
    # the partner of class k holds the site k - 2m'j whose sum with k is a multiple of 2c
    label = np.arange(classes)
    partner = (label - 2 * step * (label * pow(step, -1, row_step) % row_step)) % classes
    d_eta = stride * 2.0 * gs.half_width / (refine * (gs.nq - 1))

    def points(j: int) -> int:
        return math.ceil(2.0 * gs.half_width * d_eta * j / math.pi) + 1
    whole = points((size - 1) // (2 * stride))
    measured = min(gs.nq, gs.np) < whole
    if measured:
        # diagonal t = column - row of block k holds s_a - s_b = pi(k) - k + Mt = 2m' j
        diagonal = (np.arange(rows) - np.arange(rows)[:, None] + rows - 1).ravel()
        apart = (np.abs((partner - label)[:, None] + classes * np.arange(1 - rows, rows))
                 // (2 * step))
        weight = 1.0 + (d_eta * np.arange(apart.max() + 1)) ** 2
    counts = [] if measured else [(whole, whole)]
    for mat in mats if measured else mats[-1:]:
        # each matrix's kernel is in its own field: real blocks for a real matrix. The last
        # matrix's kernel is allocated once the one before it is freed
        field = np.complex128 if mat.imag.any() else np.float64
        flat = blocks = power = None
        flat = np.empty(classes * rows * rows + 1, dtype=field)
        flat[-1] = 0.0  # the sentinel
        blocks = flat[:-1].view(np.float64).reshape(classes, rows, -1)
        real = np.ascontiguousarray(mat if field is np.complex128 else mat.real, dtype=field)
        for k, other in enumerate(partner.tolist()):
            inner = (psi[:, other].T @ real.view(np.float64)).view(field)
            np.matmul(psi[:, k].T, np.ascontiguousarray(inner.T).view(np.float64),
                      out=blocks[k])
        if measured:
            power = np.square(blocks)
            if field is np.complex128:
                power = power[..., 0::2] + power[..., 1::2]
            energy = [np.bincount(diagonal, one.ravel()) for one in power]
            beyond = np.cumsum((weight * np.bincount(apart.ravel(), np.ravel(energy)))[::-1])
            steps = np.count_nonzero(beyond[-2::-1] > TOL.dual_pipeline_rel * TOL.grid_norm_tol
                                     * beyond[-1])
            counts.append((points(steps), points(max(steps - 1, 0))))
    return (flat, refine, stride, size, row_step, step, classes, rows, d_eta), counts


def _defining_integral(kernel: tuple, gs: GridSpec) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(1/2pi) sum_j d_eta <q_i + eta_j/2| rho |q_i - eta_j/2> exp(-i eta_j p_k) from _kernel.

    The eta sum is regrouped by parity: with S_j = K_j + K_-j (S_0 = K_0)
    and D_j = K_j - K_-j it is sum_j S_j cos(eta_j p) - i sum_j D_j sin(eta_j p)
    over j >= 0, an even and an odd function of p. Both are taken only on
    the columns p >= 0 of the symmetric p grid. Row q_i has room for
    eta_j only while m*j <= room_i, its distance to the nearer window edge
    in refined steps, so a block of eta pairs from j = first on is read only
    by the rows [low, nq - low), low = ceil(m*first / 2r): it is gathered
    from the kernel blocks as (eta, q) on those rows alone, and its cosine
    and sine sums, real products on the float views of the S and D columns,
    are added into the same rows of the accumulators. A pair of those rows
    that leaves the window still reads the sentinel. The cos and sin
    factors, d_eta/2pi included, come from _phases.

    Returned: the real plane of W, (nq, np) and contiguous, with
    Re W(q, +-p) = Re C +- Im S at p >= 0 (on an odd count the p = 0 column
    is computed, not mirrored), and the two half-plane terms (a, b) of its
    imaginary part, a = sum Im S_j cos and b = sum Re D_j sin on the columns
    p >= 0, so that Im W = a - b there and a + b at -p. A real kernel has
    real S and D, so Im S and a are zero and are not formed: its sums are
    C and b alone, Re W = C at +-p, and a is returned as None. Nothing
    assumes rho Hermitian: every term of the imaginary part that can be
    nonzero is formed and left for _finish to judge.
    """
    flat, refine, stride, size, row_step, step, classes, rows, d_eta = kernel
    centre = 2 * refine * np.arange(gs.nq)
    room = np.minimum(centre, size - 1 - centre)
    # K_j at q_i pairs s_a = ci + m'j with s_b = ci - m'j: block s_b % M, row
    # s_b // M, column s_a // M; K_-j swaps the two. One more step of 2c in j
    # moves s_a a class period up and s_b one down, so the entry moves by
    # 1 - n for K_j and n - 1 for K_-j: the offsets are tabulated for
    # j = 0..2c-1 alone
    period = 2 * row_step
    site = row_step * np.arange(gs.nq)
    phase = step * np.arange(period)[:, None]
    upper_row, upper_class = np.divmod(site + phase, classes)
    lower_row, lower_class = np.divmod(site - phase, classes)
    ahead_at = lower_class * (rows * rows) + lower_row * rows + upper_row
    behind_at = upper_class * (rows * rows) + upper_row * rows + lower_row
    reach = (size - 1) // (2 * stride)
    cut = gs.np // 2
    width = 2 if np.iscomplexobj(flat) else 1
    # the cosine and sine sums; in a complex kernel's, rows 2i and 2i + 1 are Re and Im at q_i
    even, odd = np.empty((2, width * gs.nq, cut + gs.np % 2))
    phases = _phases(d_eta, gs.p_vector()[cut:], reach)
    for first, (cos, sin) in zip(range(0, reach + 1, _ETA_BLOCK), phases):
        j = np.arange(first, first + len(cos))
        # the rows with room for eta_first; the window is symmetric about q = 0
        low = -(-stride * first // (2 * refine))
        read = slice(low, gs.nq - low)
        turns, offset = np.divmod(j, period)
        outside = stride * j[:, None] > room[read]
        at = ahead_at[offset, read]
        at += ((1 - rows) * turns)[:, None]
        np.copyto(at, flat.size - 1, where=outside)
        ahead = flat[at]
        # K_0 is read once
        outside[j == 0] = True
        at = behind_at[offset, read]
        at += ((rows - 1) * turns)[:, None]
        np.copyto(at, flat.size - 1, where=outside)
        behind = flat[at]
        summed = ahead + behind
        diff = np.subtract(ahead, behind, out=ahead)
        if first:
            even[width * low:width * (gs.nq - low)] += summed.view(np.float64).T @ cos
            odd[width * low:width * (gs.nq - low)] += diff.view(np.float64).T @ sin
        else:
            np.matmul(summed.view(np.float64).T, cos, out=even)
            np.matmul(diff.view(np.float64).T, sin, out=odd)
        # freed before the next block allocates, so that it reuses their memory
        del outside, at, ahead, behind, summed, diff, cos, sin
    values = np.empty((gs.nq, gs.np))
    mirrored = slice(gs.np % 2, None)
    if width == 1:
        # a real kernel: Re W = C is even in p and Im W = -b at p >= 0
        values[:, cut:] = even
        values[:, cut - 1::-1] = even[:, mirrored]
        return values, (None, odd)
    # Re W = Re C + Im S at the columns p >= 0 and Re C - Im S at their mirrors -p
    np.add(even[0::2], odd[1::2], out=values[:, cut:])
    np.subtract(even[0::2, mirrored], odd[1::2, mirrored], out=values[:, cut - 1::-1])
    return values, (even[1::2], odd[0::2])


def _phases(d_eta: float, p: np.ndarray, reach: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """cos(eta_j p) and sin(eta_j p) times d_eta/2pi, for j = 0..reach in blocks of _ETA_BLOCK.

    One table over the offsets t < min(_ETA_BLOCK, reach + 1) is evaluated
    directly and is the first block; the block from j = first on is that
    table turned by the angle A = first*d_eta*p, with cos(A + B) =
    cos A cos B - sin A sin B and sin(A + B) = sin A cos B + cos A sin B,
    so each later block costs one row of cos and sin, four products and two sums.
    """
    theta = np.outer(d_eta * np.arange(min(_ETA_BLOCK, reach + 1)), p)
    cos, sin = table = np.stack((np.cos(theta), np.sin(theta)))
    table *= d_eta / (2.0 * np.pi)
    yield cos, sin
    for first in range(_ETA_BLOCK, reach + 1, _ETA_BLOCK):
        # the angle in long double where it is wider: the rounding of the float64 product
        # first*d_eta*p would otherwise be the table's largest error
        angle = first * np.longdouble(d_eta) * p
        turn_cos, turn_sin = np.cos(angle).astype(np.float64), np.sin(angle).astype(np.float64)
        rows = slice(0, min(_ETA_BLOCK, reach + 1 - first))
        yield (cos[rows] * turn_cos - sin[rows] * turn_sin,
               sin[rows] * turn_cos + cos[rows] * turn_sin)


def _sampled(rho: State, gs: GridSpec, grow: bool) -> PhaseSpaceGrid:
    """W on gs, or with grow at least gs, once its counts resolve the kernel's reach (_kernel)."""
    _require_single_mode(rho, "wigner_from_density")
    rho = as_density(rho)
    # R rho R^dagger, R = diag((-i)^n), turns W a quarter; a rho of band 0 is its own turn
    turn = np.array([1.0, -1.0j, -1.0, 1.0j])[np.arange(rho.spec.truncation) % 4]
    mats = [turn[:, None] * rho.matrix * turn.conj()] if rho._band else []
    kernel, counts = _kernel(mats + [rho.matrix], gs)
    q_need, p_need = counts[0], counts[-1]
    if grow and (need := max(q_need[0], p_need[0])) > gs.nq:
        gs = GridSpec(gs.half_width, nq=need, np=need)
        kernel = _kernel([rho.matrix], gs)[0]
    elif gs.nq < q_need[1] or gs.np < p_need[1]:
        raise TruncationError(f"wigner_from_density: the {gs.nq}x{gs.np} grid under-samples W; the "
                              f"reach of its kernel needs {q_need[0]}x{p_need[0]} points or more")
    return _finish(*_defining_integral(kernel, gs), gs, "wigner_from_density")


def wigner_from_density(rho: State, gs: GridSpec | None = None) -> PhaseSpaceGrid:
    """Sample W for a single-mode state, pure or mixed, by the vectorised defining integral,
    on gs or on the default window sqrt(2N) + 5, sampled as wigner_on_window samples it."""
    if gs is None:
        return wigner_on_window(rho, default_grid_spec(rho.spec.truncation).half_width)
    return _sampled(rho, gs, grow=False)


def wigner_on_window(rho: State, half_width: float) -> PhaseSpaceGrid:
    """W on the square window of that half-width, at DEFAULT_GRID_POINTS per axis, or at the
    count its kernel's reach needs there if that is more."""
    gs = GridSpec(half_width, nq=DEFAULT_GRID_POINTS, np=DEFAULT_GRID_POINTS)
    return _sampled(rho, gs, grow=True)


def _hermite_functions(x: np.ndarray, count: int) -> np.ndarray:
    """Normalized oscillator eigenfunctions psi_n(x), shape (count, len(x)).

    One contiguous row per step of the three-term recurrence. The points
    where psi_0 is below the normal range, |x| > 37.6, are redone by _rescaled.
    """
    out = np.empty((count, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    if count > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(2, count):
        out[n] = (math.sqrt(2.0 / n) * x * out[n - 1]
                  - math.sqrt((n - 1) / n) * out[n - 2])
    deep = np.flatnonzero(out[0] < _TINY)
    if deep.size:
        _rescaled(out, x, deep)
    return out


def _rescaled(out: np.ndarray, x: np.ndarray, deep: np.ndarray) -> None:
    """Rewrite columns `deep` of `out` from the recurrence on s_n = psi_n 2^-e, one e per point.

    s_0 = pi^-1/4 exp(-(x^2/2 - k ln 2)), e = -k, k = floor(x^2 / (2 ln 2)) <= 2^20
    (s_0 is 0 past |x| = 1207). Every 32 levels a point's last two values are
    divided by the binary power of the larger, which is exact; in between they
    grow by less than (sqrt(2)|x| + 1)^32 < 2^344, so they stay finite. Entries
    below the normal range are stored as 0: subnormal operands slow the GEMMs.
    """
    x = x[deep]
    shift = np.minimum(np.floor(x * x / 2.0 / math.log(2.0)), 2.0 ** 20)
    cur = np.pi ** -0.25 * np.exp(-(x * x / 2.0 - shift * math.log(2.0)))
    prev = np.zeros_like(cur)
    exponent = -shift.astype(np.int64)
    for n in range(len(out)):
        if n:
            prev, cur = cur, math.sqrt(2.0 / n) * x * cur - math.sqrt((n - 1) / n) * prev
        if n % 32 == 0:
            _, power = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))
            cur, prev, exponent = np.ldexp(cur, -power), np.ldexp(prev, -power), exponent + power
        row = np.ldexp(cur, exponent)
        row[np.abs(row) < _TINY] = 0.0
        out[n, deep] = row


# ---------------------------------------------------------------------------
# grid measures
# ---------------------------------------------------------------------------

def measure_P_wigner(w: PhaseSpaceGrid) -> float:
    """Purity from the square integral, 2pi * integral(W^2)."""
    return 2.0 * np.pi * _trapezoid_2d(w.values * w.values, w.spec.dq, w.spec.dp)


def measure_C_wigner(w: PhaseSpaceGrid) -> float:
    """Structure functional pi * integral(|dW/dq|^2 + |dW/dp|^2) by Parseval over the half
    spectrum of the real samples.

    The spectrum of real W is Hermitian, so each half-spectrum column
    k_p > 0 stands for itself and -k_p; the zero column, and the Nyquist
    column of an even axis, stand for themselves alone. The half spectrum
    is a real FFT along p followed by a complex FFT along q written back
    into it, and its float view is squared in place, so that Re^2 and Im^2
    of each entry sit side by side: one half-spectrum plane is the whole
    working memory.
    """
    values, dq, dp = w.values, w.spec.dq, w.spec.dp
    nq, np_ = values.shape
    k_q = 2.0 * np.pi * np.fft.fftfreq(nq, d=dq)
    k_p = 2.0 * np.pi * np.fft.rfftfreq(np_, d=dp)
    count = np.full(k_p.size, 2.0)
    count[0] = 1.0
    if np_ % 2 == 0:
        count[-1] = 1.0
    spectrum = np.fft.rfft(values, axis=1)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    parts = spectrum.view(np.float64)
    np.square(parts, out=parts)
    columns = parts.sum(axis=0)
    weighted = ((k_q ** 2) @ (parts @ np.repeat(count, 2))
                + (columns[0::2] + columns[1::2]) @ (count * k_p ** 2))
    return float(np.pi * dq * dp / (nq * np_) * weighted)


def wigner_measure_report(
    rho: State,
    gs: GridSpec | None = None,
    *,
    provenance: dict | None = None,
) -> MeasureReport:
    """Phase-space-path report, cross-checked against the operator path.

    C and P come from wigner_from_density(rho, gs) through measure_C_wigner and
    measure_P_wigner, as any caller's would; I is reconstructed through I = (C - M*P)/2,
    and the report is built as the operator one is, refusing chi2 <= 0. The
    same state is first measured through the operator traces, and the two
    pipelines must agree on C, P and chi2 within the relative tolerance.
    The transform has already refused a grid that under-samples W, so a
    disagreement is a ConsistencyError carrying both sets of values. The
    operator report is kept as the result's checked_against.
    """
    _require_single_mode(rho, "wigner_measure_report")
    operator = measure_report(rho, provenance=provenance)
    grid = wigner_from_density(rho, gs)
    c_value = measure_C_wigner(grid)
    p_value = measure_P_wigner(grid)
    report = _checked_report((c_value - p_value) / 2.0, c_value, p_value, rho.spec, provenance)
    deltas = {
        "C": abs(report.C - operator.C) / abs(operator.C),
        "P": abs(report.P - operator.P) / operator.P,
        "chi2": abs(report.chi2 - operator.chi2) / abs(operator.chi2),
    }
    if max(deltas.values()) > TOL.dual_pipeline_rel:
        raise ConsistencyError(
            "operator and phase-space pipelines disagree on the "
            f"{grid.spec.nq}x{grid.spec.np} grid: "
            f"grid C={report.C!r} P={report.P!r} chi2={report.chi2!r} vs "
            f"operator C={operator.C!r} P={operator.P!r} chi2={operator.chi2!r} "
            f"(relative deltas {deltas}, tolerance {TOL.dual_pipeline_rel})"
        )
    report.method = "wigner"
    report.cross_deltas = deltas
    report.checked_against = operator
    return report
