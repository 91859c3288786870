"""The comment's closed forms, one table judged on both pipelines.

Each row is a state as `macroq state` builds it, at its family's default
cutoff, with its exact I, C, P and chi2 and one bound tol: each value must
lie within tol * max(1, |exact|) of its closed form on four routes. They are
the grid report on the default grid, the report it was checked against
(`checked_against`, the pure-vector route for a pure row), the dense traces
of `as_density(state)` and `purity` of that matrix. Each bound stays at
least three times above the worst deviation measured on any route at one
and two BLAS threads. The thermal rows carry the renormalization of the
truncated state (about 5e-13 of P at a = 2), the others rounding alone.
"""

import math

import pytest

from macroq import as_density, measure_report, purity, wigner_measure_report
from macroq.cli import build_state

from oracles import (
    cat_mixture_chi2,
    cat_mixture_I,
    cat_mixture_purity,
    even_cat_I,
    thermal_C,
    thermal_chi2,
    thermal_I,
    thermal_P,
)


def _pure(i):
    """A pure state of coherence I = <n> - |<a>|^2: P = 1, C = 2I + 1 and chi2 = 4I + 2."""
    return i, 2.0 * i + 1.0, 1.0, 4.0 * i + 2.0


def _thermal(a):
    return thermal_I(a), thermal_C(a), thermal_P(a), thermal_chi2(a)


def _cat_mixture(alpha):
    purity, chi2 = cat_mixture_purity(alpha), cat_mixture_chi2(alpha)
    return cat_mixture_I(alpha), chi2 * purity / 2.0, purity, chi2


def _fock_mixture(d, include_vacuum):
    """I = 0 from the vacuum on and 1/d^2 from level 1 on; P = 1/d, C = 2I + P."""
    i = 0.0 if include_vacuum else 1.0 / d ** 2
    return i, 2.0 * i + 1.0 / d, 1.0 / d, 2.0 + 4.0 * i * d


# (family, parameters, exact (I, C, P, chi2), tol)
CLOSED_FORMS = [
    *(("thermal", {"a": repr(a)}, _thermal(a), tol)
      for a, tol in ((1.0, 1e-14), (1.2, 1e-14), (math.sqrt(2.0), 1e-14), (2.0, 1e-11))),
    *(("fock", {"n": str(n)}, _pure(float(n)), 1e-14) for n in (0, 1, 2, 3)),
    *(("coherent", {"alpha": repr(alpha)}, _pure(0.0), 5e-13) for alpha in (2.0, 3.0)),
    *(("cat", {"alpha": repr(alpha)}, _pure(even_cat_I(alpha)), 5e-13) for alpha in (1.5, 2.0)),
    *(("cat-mixture", {"alpha": repr(alpha)}, _cat_mixture(alpha), tol)
      for alpha, tol in ((0.0, 1e-14), (0.5, 1e-13), (1.0, 1e-13), (2.0, 5e-13), (3.0, 5e-13))),
    *(("fock-mixture", {"d": str(d)}, _fock_mixture(d, True), 1e-15 if d == 1 else 1e-14)
      for d in (1, 2, 3, 4, 5)),
    *(("fock-mixture", {"d": str(d), "include_vacuum": "false"}, _fock_mixture(d, False), 1e-14)
      for d in (1, 2, 3, 5, 8)),
]


@pytest.mark.parametrize("family, params, exact, tol", CLOSED_FORMS,
                         ids=[f"{family}-{'-'.join(f'{k}={v}' for k, v in params.items())}"
                              for family, params, _, _ in CLOSED_FORMS])
def test_report_matches_the_closed_form(family, params, exact, tol):
    # the grid report keeps the report it was checked against; a pure row reaches
    # the dense tile traces only through as_density, and purity walks its own tiles
    state = build_state(family, params, None)[0]
    grid = wigner_measure_report(state)
    dense = as_density(state)
    for report in (grid.checked_against, grid, measure_report(dense)):
        for name, want in zip(("I", "C", "P", "chi2"), exact):
            got = getattr(report, name)
            assert abs(got - want) <= tol * max(1.0, abs(want)), (report.method, name, got, want)
    assert abs(purity(dense) - exact[2]) <= tol * max(1.0, exact[2]), ("purity", purity(dense))
