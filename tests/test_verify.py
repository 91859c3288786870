"""The built-in verification suite as a library: shared reference states,
one call per check by its global name, and refusals as FAIL lines."""

import math

import pytest

import macroq.verify
from macroq import ConsistencyError, PureState, random_pure_state
from macroq.verify import (
    CAT_MIXTURE_ALPHAS,
    GAUSSIAN_WIDTHS,
    cat_mixture_chi2_exact,
    cat_mixture_I_exact,
    check_pure_state_relation,
    run_verification,
    thermal_chi2_exact,
    thermal_I_exact,
)

from oracles import (
    cat_mixture_chi2,
    cat_mixture_I,
    cat_mixture_purity,
    even_cat_I,
    thermal_chi2,
    thermal_I,
)

CHECK_NAMES = [name for name in vars(macroq.verify)
               if name.startswith(("check_", "note_")) and name != "check_corpus_file"]


def test_closed_forms_are_the_oracles():
    # the checks judge the thermal and cat-mixture reports against these forms,
    # so they stand in for acceptance tests only while they equal the oracles
    for a in GAUSSIAN_WIDTHS:
        assert thermal_I_exact(a) == thermal_I(a)
        assert thermal_chi2_exact(a) == thermal_chi2(a)
    for alpha in CAT_MIXTURE_ALPHAS:
        assert cat_mixture_I_exact(alpha) == cat_mixture_I(alpha)
        assert cat_mixture_chi2_exact(alpha) == cat_mixture_chi2(alpha)
    # and the oracles the closed-form table takes its pure cats and cat mixtures from
    assert even_cat_I(2.0) == pytest.approx(3.9973171989562686, rel=1e-12)
    assert 4.0 * even_cat_I(2.0) + 2.0 == pytest.approx(17.989268795825076, rel=1e-12)
    assert cat_mixture_purity(1.0) == pytest.approx(0.5091578194443671, rel=1e-14)


def _counting(monkeypatch, name, calls, keep=None):
    """Rebind macroq.verify.<name> to a wrapper that counts its calls."""
    original = getattr(macroq.verify, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        if keep is not None:
            keep.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(macroq.verify, name, counted)


def test_every_check_and_note_is_called_once_by_its_global_name(monkeypatch):
    # rebinding a module global after import reaches the run, as a tracer does;
    # the same run counts the shared reference states built and measured
    calls = {}
    shared = {}
    measured = []
    for name in CHECK_NAMES:
        _counting(monkeypatch, name, calls)
    _counting(monkeypatch, "identity_corpus", shared)
    _counting(monkeypatch, "measure_report", shared, keep=measured)
    _counting(monkeypatch, "measure_I", shared)
    results = run_verification()
    assert len(CHECK_NAMES) == 13
    assert calls == {name: 1 for name in CHECK_NAMES}
    assert [r.status for r in results].count("PASS") == 11
    assert shared["identity_corpus"] == 1
    assert shared["measure_I"] == 1  # the note's shifted mixture, the only one not shared
    assert "purity" not in vars(macroq.verify)
    assert shared["measure_report"] == len(measured) <= 100
    # the list keeps each state alive, so equal ids mean the same state measured twice
    assert len({id(state) for state in measured}) == len(measured)


def test_pure_relation_is_judged_on_I_over_P(monkeypatch):
    # a squared norm of 1 + 9e-11 is inside the norm tolerance; I carries it
    # squared and chi2 not at all, so the unnormalized relation is off by 1.4e-9
    def nearly_normalized(spec, rng):
        psi = random_pure_state(spec, rng)
        return PureState(spec, psi.amplitudes * math.sqrt(1.0 + 9e-11))

    monkeypatch.setattr(macroq.verify, "random_pure_state", nearly_normalized)
    passed, detail = check_pure_state_relation()
    assert passed, detail


def test_refusal_in_a_check_is_its_fail_line(monkeypatch):
    def refuse(*args, **kwargs):
        raise ConsistencyError("broken on purpose")

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(macroq.verify, "measure_I_forms", refuse)
    monkeypatch.setattr(macroq.verify, "displaced", out_of_memory)
    results = {r.name: r for r in run_verification()}
    fails = {name: r.detail for name, r in results.items() if r.status == "FAIL"}
    assert fails == {"three-vs-two-term": "broken on purpose",
                     "displacement-invariance": "out of memory"}
    assert [r.status for r in results.values()].count("PASS") == 9


def test_refused_reference_state_fails_every_check_that_reads_it(monkeypatch):
    measure_report = macroq.verify.measure_report

    def refuse_thermal(state, *args, **kwargs):
        if state.spec.truncation == 54:  # thermal a = 2, read by two checks
            raise ConsistencyError("refused")
        return measure_report(state, *args, **kwargs)

    monkeypatch.setattr(macroq.verify, "measure_report", refuse_thermal)
    results = {r.name: r for r in run_verification()}
    fails = {name: r.detail for name, r in results.items() if r.status == "FAIL"}
    assert fails == {"gaussian-family": "thermal a=2.0: refused",
                     "chi2-positivity": "thermal a=2.0: refused"}
