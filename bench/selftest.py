"""Self-test of the benchmark's output checkers.

    python3 bench/selftest.py

Feeds each checker a right answer, which must pass, and deliberately wrong
ones (sign of I flipped, C scaled, a tampered CSV row, a failed verify
summary), which must be rejected. It also checks the independent slice
evaluation against dense operator products built here, and that
BENCHMARK.json lists exactly the metrics the worker reports. Exits 0 when
every case behaves.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402

CASES = []


def case(func):
    CASES.append(func)
    return func


def rejects(func, *args, **kwargs) -> None:
    try:
        func(*args, **kwargs)
    except checks.CheckFailure:
        return
    raise AssertionError(f"{func.__name__} accepted a wrong value")


def _report(values: dict) -> dict:
    return {**values, "chi2": 2.0 * values["C"] / values["P"]}


def _random_density(rng, num_modes: int, levels: int, rank: int = 3) -> np.ndarray:
    """Random mixed state with every mode's top level empty."""
    shape = (levels,) * num_modes
    mask = np.ones(shape)
    for axis in range(num_modes):
        index = [slice(None)] * num_modes
        index[axis] = levels - 1
        mask[tuple(index)] = 0.0
    vecs = (rng.standard_normal((rank, *shape)) + 1j * rng.standard_normal((rank, *shape))) * mask
    vecs = vecs.reshape(rank, -1)
    rho = vecs.T @ np.diag(rng.dirichlet(np.ones(rank))) @ vecs.conj()
    return rho / np.trace(rho).real


def _dense_measures(rho: np.ndarray, num_modes: int, levels: int) -> dict:
    """Literal traces with Kronecker-embedded operators."""
    lower = np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)
    i_total = c_total = 0.0
    for mode in range(num_modes):
        a = np.eye(1)
        for m in range(num_modes):
            a = np.kron(a, lower if m == mode else np.eye(levels))
        ad = a.conj().T
        q = (a + ad) / math.sqrt(2.0)
        p = (a - ad) / (1j * math.sqrt(2.0))
        r2 = rho @ rho
        i_total += np.trace(0.5 * r2 @ ad @ a + 0.5 * rho @ ad @ a @ rho - rho @ a @ rho @ ad)
        c_total += np.trace(r2 @ q @ q + r2 @ p @ p - rho @ q @ rho @ q - rho @ p @ rho @ p)
    return {"I": i_total.real, "C": c_total.real, "P": np.trace(rho @ rho).real}


@case
def closed_form_reports():
    cases = [
        ("thermal", checks.thermal(2.0), 1, False),
        ("fock", checks.fock(3), 1, True),
        ("even cat", checks.cat(1.5, False), 1, True),
        ("odd cat", checks.cat(1.2j, True), 1, True),
        ("cat mixture", checks.cat_mixture(1.0), 1, False),
        ("product", checks.product(checks.thermal(math.sqrt(2.0)), checks.cat_mixture(1.0), 2),
         2, False),
    ]
    for label, want, modes, pure in cases:
        good = _report(want)
        checks.check_report(label, good, want, modes, checks.OPERATOR_RTOL, pure=pure)
        flipped = _report({**want, "I": -want["I"]})
        rejects(checks.check_report, label, flipped, want, modes, checks.OPERATOR_RTOL, pure)
        scaled = _report({**want, "C": 1.01 * want["C"]})
        rejects(checks.check_report, label, scaled, want, modes, checks.OPERATOR_RTOL, pure)
        rejects(checks.check_report, label, scaled, want, modes, checks.GRID_RTOL, pure)
        broken = {**good, "I": good["I"] + 1e-6}      # breaks I = (C - M*P)/2 only
        rejects(checks.check_report, label, broken, good, modes, 1.0, pure)


@case
def closed_form_identities():
    # pure relation chi2 = 4I + 2M, and the cat-mixture chi2 closed form
    for want in (checks.fock(4), checks.cat(2.0, False), checks.coherent()):
        checks.close("pure relation", 2.0 * want["C"] / want["P"], 4.0 * want["I"] + 2.0, 1e-12)
    r_sq, s_sq = 1.0, math.exp(-4.0)
    mix = checks.cat_mixture(1.0)
    checks.close("cat-mixture chi2", 2.0 * mix["C"] / mix["P"],
                 2.0 - 8.0 * r_sq * s_sq / (1.0 + s_sq), 1e-12)


@case
def independent_evaluation():
    rng = np.random.default_rng(7)
    for modes, levels in ((1, 9), (2, 5), (3, 3)):
        rho = _random_density(rng, modes, levels)
        dense = _dense_measures(rho, modes, levels)
        fast = checks.slice_measures(rho, modes, levels)
        for key in ("I", "C", "P"):
            checks.close(f"slice {key} M={modes}", fast[key], dense[key], 1e-12)
        checks.check_report("random", _report(dense), fast, modes, checks.OPERATOR_RTOL)
        rejects(checks.check_report, "random", _report({**dense, "I": -dense["I"]}), fast,
                modes, checks.OPERATOR_RTOL)
        vec = _random_density(rng, modes, levels, rank=1)[:, 0]
        vec /= np.linalg.norm(vec)
        pure = checks.pure_measures(vec, modes, levels)
        dense = _dense_measures(np.outer(vec, vec.conj()), modes, levels)
        checks.close(f"pure I M={modes}", pure["I"], dense["I"], 1e-12)


@case
def wigner_grids():
    q = p = np.linspace(-8.0, 8.0, 161)
    qq, pp = np.meshgrid(q, p, indexing="ij")
    picks = np.random.default_rng(3).integers(40, 120, size=(64, 2))
    states = [
        ("coherent", {"alpha": 1.0 + 0.5j}),
        ("thermal", {"a": 1.5}),
        ("fock", {"n": 3}),
        ("cat", {"alpha": 1.5j, "phi": 0.0}),
        ("cat", {"alpha": 1.2, "phi": math.pi}),
        ("cat-mixture", {"alpha": 1.0}),
    ]
    for family, params in states:
        values = checks.wigner_value(family, params, qq, pp)
        checks.check_grid(family, family, params, q, p, values, picks)
        rejects(checks.check_grid, family, family, params, q, p, 1.01 * values, picks)
        rejects(checks.check_grid, family, family, params, q, p, -values, picks)
    fock0 = checks.wigner_value("fock", {"n": 0}, qq, pp)
    coh0 = checks.wigner_value("coherent", {"alpha": 0.0}, qq, pp)
    checks.close("vacuum", float(np.max(np.abs(fock0 - coh0))), 0.0, 1e-15)
    lines = ["q,p,w"] + [f"{a:.17g},{b:.17g},{w:.17g}"
                         for a, row in zip(q, fock0) for b, w in zip(p, row)]
    q2, p2, back = checks.parse_grid_csv("\n".join(lines) + "\n")
    checks.check_grid("csv", "fock", {"n": 0}, q2, p2, back, picks)
    rejects(checks.parse_grid_csv, "\n".join(["q,p,W"] + lines[1:]))


@case
def sweep_csv():
    values = np.linspace(1.0, 3.0, 5)
    expected = [(a, checks.thermal(float(a))) for a in values]
    rows = ["parameter,I,C,P,chi2,errors"]
    for a, want in expected:
        rows.append(f"{a:.17g},{want['I']:.17g},{want['C']:.17g},{want['P']:.17g},"
                    f"{2 * want['C'] / want['P']:.17g},")
    checks.check_sweep_csv("sweep", "\n".join(rows) + "\n", expected)
    flipped = rows[:2] + [rows[2].replace(",-", ",", 1)] + rows[3:]
    rejects(checks.check_sweep_csv, "sweep", "\n".join(flipped) + "\n", expected)
    errored = rows[:-1] + [f"{values[-1]:.17g},,,,,TruncationError: too small"]
    rejects(checks.check_sweep_csv, "sweep", "\n".join(errored) + "\n", expected)
    rejects(checks.check_sweep_csv, "sweep", "\n".join(rows[:-1]) + "\n", expected)


@case
def verify_output():
    lines = [f"PASS check-{k}: fine" for k in range(11)]
    good = "\n".join(lines + ["summary: 11/11 checks passed, 2 informational notes"])
    checks.check_verify_output(good)
    bad = "\n".join(lines[:10] + ["FAIL check-10: off",
                                  "summary: 10/11 checks passed, 2 informational notes"])
    rejects(checks.check_verify_output, bad)


@case
def benchmark_json_matches_worker():
    import worker

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    reported = [(name, unit, better) for name, unit, better, _ in worker.PER_LAYER]
    if listed != reported:
        raise AssertionError("BENCHMARK.json per_layer differs from worker.PER_LAYER")
    names = {w["name"] for w in doc["workloads"]}
    if names != set(worker.WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {names} differ from the worker's")


def main() -> int:
    for func in CASES:
        func()
        print(f"ok  {func.__name__}")
    print(f"{len(CASES)} cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
