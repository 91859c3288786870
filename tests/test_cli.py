"""End-to-end command-line behavior: files, formats, exit codes, determinism."""

import argparse
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from macroq import (
    TOL,
    DensityMatrix,
    GaussianSpec,
    ModeSpec,
    PureState,
    cat_mixture,
    cat_state,
    coherent_state,
    default_coherent_truncation,
    default_thermal_truncation,
    fock_mixture,
    fock_state,
    load_state,
    measure_report,
    pure_state_measures,
    random_pure_state,
    save_state,
    thermal_state,
)
from macroq import cli, wigner
from macroq.cli import main

from oracles import state_bits


def run(*argv):
    return main(list(argv))


class TestStateCommand:
    def test_thermal_state_file(self, tmp_path, capsys):
        out = tmp_path / "thermal.json"
        assert run("state", "thermal", "a=2", "--out", str(out)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kind"] == "mixed"
        assert summary["top_level_mass"] < 1e-12
        doc = json.loads(out.read_text())
        assert doc["kind"] == "mixed"
        assert doc["metadata"]["family"] == "thermal"

    def test_vacuum_file(self, tmp_path):
        out = tmp_path / "vac.json"
        assert run("state", "fock", "n=0", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "pure"
        assert doc["data"][0] == [1.0, 0.0]

    def test_product_of_files(self, tmp_path):
        left = tmp_path / "l.json"
        right = tmp_path / "r.json"
        out = tmp_path / "prod.json"
        assert run("state", "fock", "n=1", "--truncation", "16", "--out", str(left)) == 0
        assert run("state", "coherent", "alpha=0.5", "--truncation", "16",
                   "--out", str(right)) == 0
        assert run("state", "product", f"left={left}", f"right={right}",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["spec"]["num_modes"] == 2

    def test_product_kind_follows_its_factors(self, tmp_path, capsys):
        fock = tmp_path / "fock.json"
        coherent = tmp_path / "coherent.json"
        thermal = tmp_path / "thermal.json"
        run("state", "fock", "n=1", "--truncation", "26", "--out", str(fock))
        run("state", "coherent", "alpha=1.3", "--truncation", "26", "--out", str(coherent))
        run("state", "thermal", "a=1.2", "--truncation", "26", "--out", str(thermal))
        capsys.readouterr()
        pure = tmp_path / "pure.json"
        mixed = tmp_path / "mixed.json"
        assert run("state", "product", f"left={fock}", f"right={coherent}",
                   "--out", str(pure)) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "pure"
        doc = json.loads(pure.read_text())
        assert doc["kind"] == "pure"
        assert len(doc["data"]) == 26 * 26
        assert run("measure", str(pure)) == 0
        assert "pure_relation_residual" in json.loads(capsys.readouterr().out)

        assert run("state", "product", f"left={thermal}", f"right={coherent}",
                   "--out", str(mixed)) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "mixed"
        psi = load_state(coherent).amplitudes
        dense = np.kron(load_state(thermal).matrix, np.outer(psi, psi.conj()))
        prod = load_state(mixed)  # the loader's type is the file's kind, read once
        assert type(prod) is DensityMatrix
        assert np.array_equal(prod.matrix, dense)

    @pytest.mark.parametrize("family", ["coherent", "cat", "cat-mixture"])
    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_alpha_with_explicit_truncation(self, tmp_path, capsys, family,
                                                       alpha):
        out = tmp_path / "x.json"
        assert run("state", family, f"alpha={alpha}", "--truncation", "20",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "alpha must be finite" in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_non_finite_cat_phase(self, tmp_path, capsys, phi):
        out = tmp_path / "x.json"
        assert run("state", "cat", "alpha=1", f"phi={phi}", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"relative_phase must be finite, got {phi}" in err
        assert err.count("\n") == 1 and "Warning" not in err
        assert not out.exists()

    def test_product_refuses_truncation(self, tmp_path, capsys):
        factor = tmp_path / "f.json"
        out = tmp_path / "prod.json"
        run("state", "fock", "n=1", "--out", str(factor))
        capsys.readouterr()
        assert run("state", "product", f"left={factor}", f"right={factor}",
                   "--truncation", "5", "--out", str(out)) == 2
        assert "the product takes its factors' truncation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("truncation", ["0", "-3"])
    def test_non_positive_truncation_is_refused(self, tmp_path, capsys, truncation):
        # 0 is an explicit truncation like any other, not "use the default"
        out = tmp_path / "x.json"
        assert run("state", "fock", "n=1", "--truncation", truncation, "--out", str(out)) == 2
        assert f"truncation must be >= 2, got {truncation}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["coherent", "cat", "cat-mixture"])
    def test_alpha_far_above_truncation_names_it(self, tmp_path, capsys, family):
        # every amplitude of |alpha=100> underflows at N=20 unless rescaled
        out = tmp_path / "x.json"
        assert run("state", family, "alpha=100", "--truncation", "20",
                   "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "truncation 20 too small" in err and "use at least N=10810" in err
        assert f"for {family} alpha=" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_budget_refusal_is_brief(self, tmp_path, capsys):
        assert run("state", "coherent", "alpha=1e100", "--out", str(tmp_path / "x.json")) == 3
        err = capsys.readouterr().err
        assert "exceeds the budget" in err
        assert len(err) < 200

    def test_unknown_family_is_usage_error(self, tmp_path, capsys):
        code = run("state", "squeezed", "r=1", "--out", str(tmp_path / "x.json"))
        capsys.readouterr()
        assert code == 2

    def test_bad_parameter_is_usage_error(self, tmp_path, capsys):
        code = run("state", "thermal", "alpha=2", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "requires parameter a=" in capsys.readouterr().err

    @pytest.mark.parametrize("params, message", [
        (("n1",), "parameters take the form key=value, got 'n1'"),
        (("n=1", "m=2"), "unrecognized parameters for 'fock': ['m']"),
        (("n=1", "n=2"), "parameter 'n' is given more than once"),
    ])
    def test_malformed_parameters_are_usage_errors(self, tmp_path, capsys, params, message):
        assert run("state", "fock", *params, "--out", str(tmp_path / "x.json")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        ("abc", "MACROQ_MAX_DIM must be an integer, got 'abc'"),
        ("1", "MACROQ_MAX_DIM must be at least 2, got 1"),
    ])
    def test_bad_dimension_cap_is_usage_error(self, tmp_path, capsys, monkeypatch, raw,
                                              message):
        state = tmp_path / "fock.json"
        run("state", "fock", "n=1", "--out", str(state))
        capsys.readouterr()
        monkeypatch.setenv("MACROQ_MAX_DIM", raw)
        assert run("state", "thermal", "a=2", "--out", str(tmp_path / "x.json")) == 2
        assert message in capsys.readouterr().err
        # refused as itself, not blamed on the file it was read for
        assert run("measure", str(state)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        # a sweep reads it once, before its points, not as every point's failure
        out = tmp_path / "s.csv"
        assert run("sweep", "--family", "thermal", "--parameter", "a", "--values", "2",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_inadequate_truncation_exit_code(self, tmp_path, capsys):
        code = run("state", "coherent", "alpha=3", "--truncation", "12",
                   "--out", str(tmp_path / "x.json"))
        assert code == 3
        assert "use at least N=" in capsys.readouterr().err

    @pytest.mark.parametrize("family, param", [("fock", "n=11"), ("fock-mixture", "d=12")])
    def test_level_on_the_guard_names_the_cutoff(self, tmp_path, capsys, family, param):
        out = tmp_path / "x.json"
        assert run("state", family, param, "--truncation", "12", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("truncation/resource error: ")
        assert err.rstrip().endswith("use N >= 13")
        assert not out.exists()

    def test_negative_occupation_is_usage_error(self, tmp_path, capsys):
        assert run("state", "fock", "n=-1", "--out", str(tmp_path / "x.json")) == 2
        assert "occupation must be non-negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("family, param, code, message", [
        ("coherent", "alpha=inf", 2, "alpha must be finite"),
        ("coherent", "alpha=nan", 2, "alpha must be finite"),
        ("cat", "alpha=1e200", 3, "overflows"),
        ("thermal", "a=1e200", 3, "overflows"),
        ("thermal", "a=inf", 2, "width a must be finite"),
    ])
    def test_out_of_range_family_parameter(self, tmp_path, capsys, family, param, code,
                                           message):
        assert run("state", family, param, "--out", str(tmp_path / "x.json")) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


class TestOverflowingParameter:
    """A finite alpha or a whose square overflows a float is refused by name, not crashed on."""

    @pytest.mark.parametrize("family", ["coherent", "cat", "cat-mixture"])
    @pytest.mark.parametrize("alpha", ["1e200", "1e308", "1e200j"])
    def test_state_with_explicit_truncation(self, tmp_path, capsys, family, alpha):
        out = tmp_path / "x.json"
        assert run("state", family, f"alpha={alpha}", "--truncation", "10",
                   "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert f"{family} alpha=" in err and "|alpha|^2 overflows a float" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["coherent", "cat", "cat-mixture"])
    def test_sweep_writes_an_error_row(self, tmp_path, capsys, family):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--family", family, "--parameter", "alpha", "--values", "0.2,1e200",
                   "--truncation", "10", "--out", str(out)) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        assert rows[0].split(",")[5] == ""
        assert rows[1].split(",")[5] == (f"TruncationError: {family} alpha=(1e+200+0j): "
                                         "|alpha|^2 overflows a float and no Fock truncation "
                                         "holds it")

    @pytest.mark.parametrize("a, message", [
        ("1e200", "thermal a=1e+200: the mean occupation overflows a float"),
        ("1e308", "thermal a=1e+308: the mean occupation overflows a float"),
        # every retained level of the untruncated state holds ~1e-20, the
        # renormalized top level a tenth
        ("1e10", "truncation 10 too small for thermal a=10000000000.0"),
    ])
    def test_thermal_with_explicit_truncation(self, tmp_path, capsys, a, message):
        out = tmp_path / "x.json"
        assert run("state", "thermal", f"a={a}", "--truncation", "10", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("family, param, advice", [
        ("coherent", "alpha=1e154", "use at least N=1.000e+308"),
        ("cat", "alpha=1e154", "use at least N=1.000e+308"),
        ("cat-mixture", "alpha=1e154", "use at least N=1.000e+308"),
        ("thermal", "a=1e154", "the cutoff it needs overflows a float"),
    ])
    def test_huge_parameter_refused_against_the_given_truncation(self, tmp_path, capsys,
                                                                 family, param, advice):
        # the square is finite, but the cutoff the family's rule asks for has
        # 309 digits or overflows: it is worded briefly, and the refusal names
        # the truncation that was given, not a default the user did not take
        out = tmp_path / "x.json"
        assert run("state", family, param, "--truncation", "10", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert "truncation 10 too small" in err and "its top level holds" in err
        assert advice in err and "default" not in err
        assert not out.exists()


# The edge values a refusal sweep feeds every family parameter; none asks for a
# large array, since the dimension cap refuses a huge n, d or cutoff first.
EDGE_VALUES = ("0", "-0", "1", "-1", "2", "1e200", "1e-300", "nan", "inf", "-inf", "1e308",
               "3+4j", "1e200j", "99999999999999999999", "0.5", "abc", "True", "")
EDGE_TRUNCATIONS = ((), ("--truncation", "10"))
REFUSAL_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_TRUNCATION, cli.EXIT_CONSISTENCY}
FAMILY_PARAMS = [(family, name) for family, entry in cli._TABLE.items()
                 for name, _, _ in entry.params]


class TestOutOfMemory:
    """A request too large for memory is a resource error on one line, never a traceback.

    The allocations are patched to fail: whether a 149 GiB request fails at
    once depends on the host's overcommit policy, so no test makes one.
    """

    @staticmethod
    def _refused(code, capsys, message):
        err = capsys.readouterr().err
        assert code == cli.EXIT_TRUNCATION
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"truncation/resource error: {message}")

    @staticmethod
    def _out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape "
                          "(2, 200000, 50000) and data type float64")

    @pytest.mark.parametrize("argv", [
        ("wigner", "{state}", "--out", "{tmp}/g.csv"),
        ("measure", "{state}", "--method", "both"),
    ], ids=["wigner", "measure-both"])
    def test_transform_out_of_memory_is_resource_error(self, tmp_path, capsys, monkeypatch,
                                                       argv):
        state = tmp_path / "cat.json"
        assert run("state", "cat", "alpha=2", "--out", str(state)) == 0
        capsys.readouterr()
        monkeypatch.setattr(wigner, "_defining_integral", self._out_of_memory)
        code = run(*(arg.format(state=state, tmp=tmp_path) for arg in argv))
        self._refused(code, capsys, "Unable to allocate 149. GiB")

    def test_empty_memory_error_is_named(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "linspace", out_of_memory)
        code = run("sweep", "--family", "thermal", "--parameter", "a", "--start", "1",
                   "--stop", "2", "--steps", "100000000000", "--out", str(tmp_path / "s.csv"))
        self._refused(code, capsys, "out of memory")
        assert not (tmp_path / "s.csv").exists()

    def test_sweep_point_out_of_memory_is_an_error_row(self, tmp_path, capsys, monkeypatch):
        thermal_state = cli.thermal_state

        def thermal(spec, gaussian):
            if gaussian.a == 2.0:
                self._out_of_memory()
            if gaussian.a == 3.0:
                raise MemoryError
            return thermal_state(spec, gaussian)

        monkeypatch.setattr(cli, "thermal_state", thermal)
        out = tmp_path / "s.csv"
        assert run("sweep", "--family", "thermal", "--parameter", "a", "--values", "1.2,2",
                   "--out", str(out)) == cli.EXIT_OK
        allocation = ("MemoryError: Unable to allocate 149. GiB for an array with shape "
                      "(2; 200000; 50000) and data type float64")
        assert [row.split(",")[5] for row in out.read_text().splitlines()[1:]] == [
            "", allocation]
        # every point failed: the sweep's own rule, with the rows written
        assert run("sweep", "--family", "thermal", "--parameter", "a", "--values", "2,3",
                   "--out", str(out)) == cli.EXIT_TRUNCATION
        assert [row.split(",")[5] for row in out.read_text().splitlines()[1:]] == [
            allocation, "MemoryError: out of memory"]
        assert "every sweep point failed" in capsys.readouterr().err


class TestRefusalSweep:
    """Every family parameter at every edge value exits with a code, never a traceback."""

    @staticmethod
    def _unexpected_exits(capsys, commands):
        """Each command's exit code outside REFUSAL_CODES; an uncaught exception fails here."""
        unexpected = {}
        for argv in commands:
            code = main(list(argv))
            assert "Traceback" not in capsys.readouterr().err, argv
            if code not in REFUSAL_CODES:
                unexpected[argv] = code
        return unexpected

    @pytest.mark.parametrize("family, probed", FAMILY_PARAMS)
    def test_state_command(self, tmp_path, capsys, family, probed):
        # the other required parameters take 1, the optional ones their defaults
        others = tuple(f"{name}=1" for name, _, default in cli._TABLE[family].params
                       if name != probed and default is None)
        commands = [("state", family, *others, f"{probed}={value}", *truncation,
                     "--out", str(tmp_path / "x.json"))
                    for value in EDGE_VALUES for truncation in EDGE_TRUNCATIONS]
        assert self._unexpected_exits(capsys, commands) == {}

    @pytest.mark.parametrize("family", list(cli._TABLE))
    def test_sweep_command(self, tmp_path, capsys, family):
        parameter = cli._TABLE[family].params[0][0]
        commands = [("sweep", "--family", family, "--parameter", parameter, "--values", value,
                     *truncation, "--out", str(tmp_path / "s.csv"))
                    for value in EDGE_VALUES for truncation in EDGE_TRUNCATIONS]
        assert self._unexpected_exits(capsys, commands) == {}


def _malformed(doc, **changes):
    """The document with top-level keys replaced (None deletes one), as JSON text."""
    edited = {**doc, **changes}
    return json.dumps({key: value for key, value in edited.items() if value is not None})


def _diagonal(*populations):
    """Rows of [re, im] pairs of the diagonal matrix of these populations."""
    n = len(populations)
    return [[[populations[i] if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]


# name -> (text of the file from the valid mixed and pure documents, exit code);
# every file is a few hundred bytes, the cap case included: its spec is
# refused before its data are read
MALFORMED_FILES = {
    "truncated-json": (lambda mixed, pure: json.dumps(mixed)[:-40], 2),
    "not-an-object": (lambda mixed, pure: json.dumps([mixed]), 2),
    "format-version": (lambda mixed, pure: _malformed(mixed, format_version=2), 2),
    "format-version-missing": (lambda mixed, pure: _malformed(mixed, format_version=None), 2),
    # True == 1 == 1.0 in Python; only the integer 1 is version 1
    "format-version-bool": (lambda mixed, pure: _malformed(mixed, format_version=True), 2),
    "format-version-float": (lambda mixed, pure: _malformed(mixed, format_version=1.0), 2),
    "kind-unknown": (lambda mixed, pure: _malformed(mixed, kind="squeezed"), 2),
    "kind-swapped": (lambda mixed, pure: _malformed(pure, kind="mixed"), 2),
    "rows-missing": (lambda mixed, pure: _malformed(mixed, data=mixed["data"][:-1]), 2),
    "rows-ragged": (lambda mixed, pure: _malformed(
        mixed, data=mixed["data"][:-1] + [mixed["data"][-1][:-1]]), 2),
    "pure-length": (lambda mixed, pure: _malformed(pure, data=pure["data"][:-1]), 2),
    "data-missing": (lambda mixed, pure: _malformed(mixed, data=None), 2),
    "nan-entry": (lambda mixed, pure: _malformed(
        mixed, data=[[[math.nan, 0.0]] + mixed["data"][0][1:]] + mixed["data"][1:]), 2),
    "infinite-amplitude": (lambda mixed, pure: _malformed(
        pure, data=[[math.inf, 0.0]] + pure["data"][1:]), 2),
    "integer-overflow": (lambda mixed, pure: _malformed(
        mixed, data=[[[10 ** 400, 0]] + mixed["data"][0][1:]] + mixed["data"][1:]), 2),
    "non-hermitian": (lambda mixed, pure: _malformed(
        mixed, data=[[[0.5, 0.0], [0.1, 0.0]] + mixed["data"][0][2:]] + mixed["data"][1:]), 2),
    "trace": (lambda mixed, pure: _malformed(mixed, data=_diagonal(0.45, 0.45, 0, 0, 0, 0)), 2),
    "not-positive": (lambda mixed, pure: _malformed(mixed, data=_diagonal(1.5, -0.5, 0, 0, 0, 0)),
                     2),
    "pure-unnormalized": (lambda mixed, pure: _malformed(
        pure, data=[[0.9 * re, 0.9 * im] for re, im in pure["data"]]), 2),
    "top-level-overfull": (lambda mixed, pure: _malformed(
        mixed, data=_diagonal(0.5, 0.5 - 1e-6, 0, 0, 0, 1e-6)), 3),
    "spec-string": (lambda mixed, pure: _malformed(
        mixed, spec={"num_modes": 1, "truncation": "6"}), 2),
    "spec-bool": (lambda mixed, pure: _malformed(mixed, spec={"num_modes": True, "truncation": 6}),
                  2),
    "spec-missing": (lambda mixed, pure: _malformed(mixed, spec=None), 2),
    "spec-mismatch": (lambda mixed, pure: _malformed(
        mixed, spec={"num_modes": 1, "truncation": 7}), 2),
    "dimension-over-cap": (lambda mixed, pure: _malformed(
        mixed, spec={"num_modes": 1, "truncation": 5000}), 3),
}


class TestMalformedStateFiles:
    """A malformed state file is refused with an exit code and one line, never a traceback."""

    @pytest.fixture
    def files(self, tmp_path):
        docs = []
        for kind, state in (("mixed", fock_mixture(ModeSpec(1, 6), 2)),
                            ("pure", fock_state(ModeSpec(1, 6), 1))):
            save_state(state, tmp_path / f"{kind}.json")
            docs.append(json.loads((tmp_path / f"{kind}.json").read_text()))
        paths = {}
        for name, (make, _) in MALFORMED_FILES.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(make(*docs))
        return paths

    def test_valid_documents_measure(self, tmp_path, files, capsys):
        # the files differ from these only in what each case changes
        for kind in ("mixed", "pure"):
            assert run("measure", str(tmp_path / f"{kind}.json"), "--method", "both") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("method", [(), ("--method", "both")])
    @pytest.mark.parametrize("name", list(MALFORMED_FILES))
    def test_measure_refuses(self, files, capsys, name, method):
        code = run("measure", str(files[name]), *method)
        captured = capsys.readouterr()
        assert code in {cli.EXIT_USAGE, cli.EXIT_TRUNCATION, cli.EXIT_CONSISTENCY}
        assert code == MALFORMED_FILES[name][1]
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        # the one line names the file, whichever check refused it
        assert f": {files[name]}: " in captured.err
        assert captured.out == ""

    def test_verify_corpus_fails_each_file_on_one_line(self, tmp_path, files, capsys):
        # a corpus refusal is a FAIL line of the suite (exit 1), not an error exit,
        # carrying the message measure refuses the same file with
        paths = [*files.values(), tmp_path / "missing.json"]
        messages = []
        for path in paths:
            run("measure", str(path))
            prefix, _, message = capsys.readouterr().err.rstrip("\n").partition(": ")
            assert prefix in ("error", "truncation/resource error")
            messages.append(message)
        assert "trace deviates from 1 by" in messages[list(files).index("trace")]
        assert ("top Fock level holds 1.00e-06 of the population"
                in messages[list(files).index("top-level-overfull")])
        assert "No such file or directory" in messages[-1]
        assert run("verify", "--corpus", *map(str, paths)) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        fails = [line for line in lines if line.startswith("FAIL ")]
        assert fails == [f"FAIL corpus:{path.name}: {message}"
                         for path, message in zip(paths, messages)]
        assert sum(line.startswith("PASS ") for line in lines) == 11
        assert captured.err == ""


class TestMeasureCommand:
    def test_both_methods_trace_the_operator_side_once(self, tmp_path, capsys, monkeypatch):
        import macroq.measures

        out = tmp_path / "thermal.json"
        run("state", "thermal", "a=2", "--out", str(out))
        capsys.readouterr()
        original = macroq.measures._traces
        calls = []

        def counted(rho):
            calls.append(rho.spec)
            return original(rho)

        monkeypatch.setattr(macroq.measures, "_traces", counted)
        assert run("measure", str(out), "--method", "both") == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"operator", "wigner", "cross_deltas"}
        assert len(calls) == 1
        assert doc["operator"]["method"] == "operator"
        assert doc["operator"]["provenance"] == {"state_file": str(out)}
        assert doc["operator"]["C"] == measure_report(load_state(out)).C

    @pytest.mark.parametrize("alpha", ["3", "5", "7", "10"])
    def test_large_cat_both_methods_at_default_grid(self, tmp_path, capsys, alpha):
        out = tmp_path / "cat.json"
        assert run("state", "cat", f"alpha={alpha}", "--out", str(out)) == 0
        capsys.readouterr()
        assert run("measure", str(out), "--method", "both") == 0
        doc = json.loads(capsys.readouterr().out)
        assert max(doc["cross_deltas"].values()) <= 1e-12

    def test_measure_takes_no_grid(self, tmp_path, capsys):
        # the kernel's reach sets the measured grid's count
        out = tmp_path / "cat.json"
        assert run("state", "cat", "alpha=1.5", "--out", str(out)) == 0
        capsys.readouterr()
        assert run("measure", str(out), "--method", "both", "--grid", "512") == 2
        assert "unrecognized arguments: --grid 512" in capsys.readouterr().err

    def test_wigner_method_is_the_grid_half_of_both(self, tmp_path, capsys):
        out = tmp_path / "cat.json"
        run("state", "cat", "alpha=1.5", "--out", str(out))
        capsys.readouterr()
        assert run("measure", str(out), "--method", "wigner") == 0
        alone = json.loads(capsys.readouterr().out)
        assert run("measure", str(out), "--method", "both") == 0
        assert alone["method"] == "wigner"
        assert alone == json.loads(capsys.readouterr().out)["wigner"]

    @staticmethod
    def _nearly_normalized_cat(path):
        # squared norm 1 + 9e-11, inside norm_tol
        cat = cat_state(ModeSpec(1, 43), 3.0)
        save_state(PureState(cat.spec, cat.amplitudes * math.sqrt(1.0 + 9e-11)), path)

    def test_nearly_normalized_pure_file_is_measured(self, tmp_path, capsys):
        out = tmp_path / "cat.json"
        self._nearly_normalized_cat(out)
        assert run("measure", str(out)) == 0
        assert json.loads(capsys.readouterr().out)["pure_relation_residual"] < 1e-12

    def test_broken_pure_relation_exit_code(self, tmp_path, capsys, monkeypatch):
        import macroq.measures

        measures = macroq.measures._pure_measures

        def shifted(amps, spec, norm_sq):
            # I moved by 5e-10: inside the identity's 1e-9, outside the relation's 1e-10
            three, two, c_value = measures(amps, spec, norm_sq)
            return three + 5e-10, two + 5e-10, c_value

        monkeypatch.setattr(macroq.measures, "_pure_measures", shifted)
        out = tmp_path / "cat.json"
        self._nearly_normalized_cat(out)
        assert run("measure", str(out)) == 4
        assert "pure-state relation violated" in capsys.readouterr().err

    def test_pure_file_measured_from_vector(self, tmp_path, capsys, monkeypatch, rng):
        out = tmp_path / "pure.json"
        psi = random_pure_state(ModeSpec(2, 64), rng)
        save_state(psi, out)

        def refuse(self):
            raise AssertionError("measure built the D x D projector of a pure file")

        monkeypatch.setattr(PureState, "projector", refuse)
        start = time.perf_counter()
        assert run("measure", str(out)) == 0
        assert time.perf_counter() - start < 1.0
        report = json.loads(capsys.readouterr().out)
        direct = pure_state_measures(psi)
        assert report["I"] == direct.I
        assert report["chi2"] == direct.chi2
        assert report["pure_relation_residual"] == direct.pure_relation_residual

    def test_pure_file_gives_one_result_on_every_route(self, tmp_path, capsys):
        state = tmp_path / "coherent.json"
        csv = tmp_path / "coherent.csv"
        run("state", "coherent", "alpha=1.3", "--out", str(state))
        capsys.readouterr()
        assert run("measure", str(state)) == 0
        measured = json.loads(capsys.readouterr().out)
        assert run("measure", str(state), "--method", "both") == 0
        operator = json.loads(capsys.readouterr().out)["operator"]
        assert run("sweep", "--family", "coherent", "--parameter", "alpha",
                   "--values", "1.3", "--out", str(csv)) == 0
        capsys.readouterr()
        row = csv.read_text().splitlines()[1].split(",")
        swept = dict(zip(("I", "C", "P", "chi2"), (float(x) for x in row[1:5])))
        for key in ("I", "C", "P", "chi2"):
            assert operator[key] == measured[key] == swept[key], key
        assert operator["pure_relation_residual"] == measured["pure_relation_residual"]

    def test_pure_sweep_and_both_use_the_vector_route(self, tmp_path, capsys, monkeypatch):
        import macroq.measures

        projector = PureState.projector
        built = []

        def counted(self):
            built.append(self.spec)
            return projector(self)

        def refuse(rho):
            raise AssertionError("a pure state reached the D x D traces")

        monkeypatch.setattr(PureState, "projector", counted)
        monkeypatch.setattr(macroq.measures, "_traces", refuse)
        csv = tmp_path / "fock.csv"
        assert run("sweep", "--family", "fock", "--parameter", "n",
                   "--values", "0,1,2", "--out", str(csv)) == 0
        capsys.readouterr()
        assert built == []
        assert all(row.endswith(",") for row in csv.read_text().splitlines()[1:])
        sidecar = json.loads((tmp_path / "fock.json").read_text())
        assert all("pure_relation_residual" in point["report"] for point in sidecar["points"])

        state = tmp_path / "cat.json"
        run("state", "cat", "alpha=1.5", "--out", str(state))
        capsys.readouterr()
        assert run("measure", str(state), "--method", "both") == 0
        assert len(built) == 1  # once, for the transform's kernel
        assert "pure_relation_residual" in json.loads(capsys.readouterr().out)["operator"]

    def test_missing_file_is_usage_error(self, capsys):
        assert run("measure", "/nonexistent/state.json") == 2
        capsys.readouterr()

    def test_non_integer_spec_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "fock.json"
        run("state", "fock", "n=1", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["spec"]["truncation"] = float(doc["spec"]["truncation"]) + 0.9
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("measure", str(out)) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_unexplained_gap_on_resolved_grid_exit_code(self, tmp_path, capsys,
                                                        monkeypatch):
        out = tmp_path / "cat.json"
        run("state", "cat", "alpha=1.5", "--out", str(out))
        capsys.readouterr()
        monkeypatch.setattr(wigner, "TOL", dataclasses.replace(TOL, dual_pipeline_rel=1e-18))
        assert run("measure", str(out), "--method", "both") == 4
        err = capsys.readouterr().err
        assert "disagree on the 257x257 grid" in err and "relative deltas" in err

    def test_round_trip_matches_in_process_values(self, tmp_path, capsys):
        out = tmp_path / "thermal.json"
        run("state", "thermal", "a=2", "--out", str(out))
        capsys.readouterr()
        run("measure", str(out))
        via_cli = json.loads(capsys.readouterr().out)
        a = 2.0
        from macroq import default_thermal_truncation

        rho = thermal_state(ModeSpec(1, default_thermal_truncation(a)), GaussianSpec(a))
        direct = measure_report(rho)
        assert via_cli["I"] == direct.I
        assert via_cli["C"] == direct.C
        assert via_cli["P"] == direct.P
        assert via_cli["chi2"] == direct.chi2


class TestSweepCommand:
    def test_sidecar_lists_every_point(self, tmp_path, capsys):
        out = tmp_path / "fock.csv"
        run("sweep", "--family", "fock", "--parameter", "n",
            "--values", "0,1", "--out", str(out))
        capsys.readouterr()
        sidecar = json.loads((tmp_path / "fock.json").read_text())
        assert sidecar["parameter"] == "n"
        assert len(sidecar["points"]) == 2
        assert "generated_at" in sidecar

    def test_failing_points_recorded_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "mix.csv"
        assert run("sweep", "--family", "fock-mixture", "--parameter", "d",
                   "--values", "2,3,30", "--truncation", "12",
                   "--out", str(out)) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        assert rows[0].split(",")[5] == ""
        assert "TruncationError" in rows[2].split(",")[5]

    def test_overflowing_point_recorded_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "thermal.csv"
        assert run("sweep", "--family", "thermal", "--parameter", "a",
                   "--values", "2,1e200", "--out", str(out)) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        assert rows[0].split(",")[5] == ""
        assert rows[1].split(",")[5].startswith("TruncationError")
        # a NaN point sorts last wherever --values lists it, so both listings write one CSV
        written = []
        for values in ("2,nan,1", "nan,2,1"):
            assert run("sweep", "--family", "thermal", "--parameter", "a",
                       "--values", values, "--out", str(out)) == 0
            written.append(out.read_bytes())
        capsys.readouterr()
        assert written[0] == written[1]
        assert [row.split(",")[0] for row in written[0].decode().splitlines()[1:]] == [
            "1", "2", "nan"]

    @pytest.mark.parametrize("truncation", ["0", "-3"])
    def test_non_positive_truncation_fails_every_point(self, tmp_path, capsys, truncation):
        out = tmp_path / "thermal.csv"
        assert run("sweep", "--family", "thermal", "--parameter", "a", "--values", "1.5,2",
                   "--truncation", truncation, "--out", str(out)) == 3
        assert "every sweep point failed" in capsys.readouterr().err
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[5] for row in rows] == [
            f"ValueError: truncation must be >= 2; got {truncation}"] * 2

    def test_incompatible_family_parameter(self, tmp_path, capsys):
        code = run("sweep", "--family", "thermal", "--parameter", "d",
                   "--values", "1,2", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "applies to families" in capsys.readouterr().err

    @pytest.mark.parametrize("family, parameter, options, message", [
        ("thermal", "a", (), "sweep needs either --values or --start/--stop/--steps"),
        ("thermal", "a", ("--start", "1", "--stop", "2", "--steps", "0"),
         "steps must be >= 1, got 0"),
        ("fock", "n", ("--start", "1", "--stop", "2", "--steps", "2"),
         "integer parameter 'n' needs --values"),
        # np.linspace would fail inside with an IndexError
        ("thermal", "a", ("--start", "1", "--stop", "2", "--steps", str(2 ** 63 - 1)),
         f"--steps {2 ** 63 - 1} is more values than an array can hold"),
        ("thermal", "a", ("--values", "2", "--start", "1", "--stop", "3", "--steps", "5"),
         "--values and --start/--stop are alternatives"),
        ("thermal", "a", ("--values", "2", "--steps", "5"),
         "--steps counts the points of a --start/--stop range; it cannot be given with --values"),
    ])
    def test_unusable_range_is_usage_error(self, tmp_path, capsys, family, parameter, options,
                                           message):
        out = tmp_path / "x.csv"
        assert run("sweep", "--family", family, "--parameter", parameter, *options,
                   "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_one_step_range_is_its_start(self, tmp_path, capsys):
        out = tmp_path / "thermal.csv"
        assert run("sweep", "--family", "thermal", "--parameter", "a",
                   "--start", "1.5", "--stop", "2", "--steps", "1", "--out", str(out)) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1.5"]

    def test_json_output_keeps_the_sidecar_apart(self, tmp_path, capsys):
        out = tmp_path / "thermal.json"
        assert run("sweep", "--family", "thermal", "--parameter", "a",
                   "--values", "2", "--out", str(out)) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[0] == "parameter,I,C,P,chi2,errors"
        sidecar = json.loads((tmp_path / "thermal.json.reports.json").read_text())
        assert [point["parameter"] for point in sidecar["points"]] == [2.0]


class TestWignerCommand:
    def test_vacuum_export(self, tmp_path, capsys):
        state = tmp_path / "vac.json"
        run("state", "fock", "n=0", "--out", str(state))
        capsys.readouterr()
        out = tmp_path / "vac.csv"
        assert run("wigner", str(state), "--out", str(out)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["extreme_value"] == pytest.approx(1.0 / np.pi, abs=1e-6)
        assert summary["extreme_at"] == [0.0, 0.0]
        assert summary["normalization"] == pytest.approx(1.0, abs=1e-6)
        header, first = out.read_text().splitlines()[:2]
        assert header == "q,p,w"
        assert len(first.split(",")) == 3

    def test_thermal_peak_value(self, tmp_path, capsys):
        state = tmp_path / "thermal.json"
        run("state", "thermal", "a=2", "--out", str(state))
        capsys.readouterr()
        assert run("wigner", str(state), "--out", str(tmp_path / "t.csv")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["extreme_value"] == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-6)

    def test_single_excitation_negative_center(self, tmp_path, capsys):
        state = tmp_path / "one.json"
        run("state", "fock", "n=1", "--out", str(state))
        capsys.readouterr()
        assert run("wigner", str(state), "--out", str(tmp_path / "one.csv")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["extreme_value"] == pytest.approx(-1.0 / np.pi, abs=1e-6)

    def test_json_envelope_export(self, tmp_path, capsys):
        state = tmp_path / "vac.json"
        run("state", "fock", "n=0", "--out", str(state))
        capsys.readouterr()
        out = tmp_path / "vac_grid.json"
        assert run("wigner", str(state), "--out", str(out), "--format", "json",
                   "--grid", "65") == 0
        doc = json.loads(out.read_text())
        assert doc["grid_spec"]["nq"] == 65
        assert len(doc["values"]) == 65

    def test_both_formats_into_one_json_path_refused(self, tmp_path, capsys, monkeypatch):
        state = tmp_path / "vac.json"
        run("state", "fock", "n=0", "--out", str(state))
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("transform ran although the output paths clash")

        monkeypatch.setattr("macroq.cli.wigner_on_window", refuse)
        out = tmp_path / "g.json"
        assert run("wigner", str(state), "--out", str(out), "--format", "both") == 2
        assert str(out) in capsys.readouterr().err
        assert not out.exists()

    def test_multimode_rejected(self, tmp_path, capsys):
        left = tmp_path / "l.json"
        run("state", "fock", "n=0", "--truncation", "6", "--out", str(left))
        prod = tmp_path / "p.json"
        run("state", "product", f"left={left}", f"right={left}", "--out", str(prod))
        capsys.readouterr()
        assert run("wigner", str(prod), "--out", str(tmp_path / "p.csv")) == 2

    @pytest.mark.parametrize("alpha, points, count", [
        ("7", "256", "219x362"), ("1.5", "64", "69x99")])
    def test_under_sampled_explicit_grid_fails_naming_the_count(self, tmp_path, capsys, alpha,
                                                                 points, count):
        # the transform refuses the grid: a truncation error naming the count
        out = tmp_path / "cat.json"
        assert run("state", "cat", f"alpha={alpha}", "--out", str(out)) == 0
        capsys.readouterr()
        assert run("wigner", str(out), "--out", str(tmp_path / "w.csv"), "--grid", points) == 3
        assert capsys.readouterr().err == (
            f"truncation/resource error: wigner_from_density: the {points}x{points} grid "
            f"under-samples W; the reach of its kernel needs {count} points or more\n")
        assert not (tmp_path / "w.csv").exists()

    def test_custom_window_grows_without_grid(self, tmp_path, capsys):
        # cat alpha = 1.5 on a window of half-width 40 needs more than 257
        # points: an explicit --grid is refused naming the count, and without
        # one the window takes that count, as the default window does
        state = tmp_path / "cat.json"
        run("state", "cat", "alpha=1.5", "--out", str(state))
        capsys.readouterr()
        out = str(tmp_path / "w.json")
        assert run("wigner", str(state), "--out", out, "--format", "json", "--half-width", "40",
                   "--grid", "257") == 3
        assert "the 257x257 grid under-samples W; the reach of its kernel needs 226x326 points" \
            in capsys.readouterr().err
        assert run("wigner", str(state), "--out", out, "--format", "json",
                   "--half-width", "40") == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["nq"], summary["np"], summary["half_width"]) == (326, 326, 40.0)
        assert summary["normalization"] == pytest.approx(1.0, abs=TOL.grid_norm_tol)

    @pytest.mark.parametrize("half_width, code, message", [
        ("inf", 2, "half_width must be positive and finite"),
        ("1e-300", 3, "grid integrates to"),
        ("1e10", 3, "half-width 1e+10 needs 2r(nq - 1) + 1 = 1.27e+20 position sites"),
        ("1e150", 3, "half-width 1e+150 needs 2r(nq - 1) + 1 = 1.27e+300 position sites"),
        ("1e200", 3, "half-width 1e+200 needs an eta step of pi/half-width"),
    ])
    def test_degenerate_half_width(self, tmp_path, capsys, half_width, code, message):
        state = tmp_path / "vac.json"
        run("state", "fock", "n=0", "--out", str(state))
        capsys.readouterr()
        assert run("wigner", str(state), "--out", str(tmp_path / "w.csv"),
                   "--half-width", half_width) == code
        assert message in capsys.readouterr().err


class TestVerifyCommand:
    def test_grid_refusal_fails_the_grid_checks_on_their_lines(self, capsys, monkeypatch):
        # a cross-check no grid can meet: the two grid checks fail, naming the
        # refusal, and every other entry still prints
        monkeypatch.setattr(wigner, "TOL", dataclasses.replace(TOL, dual_pipeline_rel=1e-18))
        assert run("verify") == 1
        lines = capsys.readouterr().out.splitlines()
        statuses = [line.split(" ", 1)[0] for line in lines[:-1]]
        assert (statuses.count("PASS"), statuses.count("FAIL"), statuses.count("INFO")) == (9, 2, 2)
        fails = [line for line in lines if line.startswith("FAIL ")]
        assert [line.split(":", 1)[0] for line in fails] == [
            "FAIL gaussian-family-wigner", "FAIL dual-pipeline"]
        for line in fails:
            assert "pipelines disagree on the 257x257 grid" in line
        assert lines[-1] == "summary: 9/11 checks passed, 2 informational notes"

    def test_valid_corpus_file_joins_suite(self, tmp_path, capsys, monkeypatch, rng):
        cat = tmp_path / "cat.json"
        run("state", "cat", "alpha=1.2", "--out", str(cat))
        pure = tmp_path / "pure.json"
        psi = random_pure_state(ModeSpec(2, 20), rng)
        save_state(psi, pure)
        capsys.readouterr()
        projector = PureState.projector

        def refuse_file_state(self):
            # the built-in checks project their own small states; the file must not be
            if self.spec == psi.spec:
                raise AssertionError("verify built the D x D projector of a pure file")
            return projector(self)

        monkeypatch.setattr(PureState, "projector", refuse_file_state)
        assert run("verify", "--corpus", str(cat), str(pure)) == 0
        out = capsys.readouterr().out
        for path, state in ((cat, load_state(cat)), (pure, psi)):
            residual = pure_state_measures(state).identity_residual
            assert (f"PASS corpus:{path.name}: valid PureState, identity residual {residual:.2e}"
                    in out)


class TestDeterminism:
    def test_state_files_identical_modulo_timestamp(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            run("state", "cat", "alpha=1.5", "phi=0.5", "--out", str(out))
        capsys.readouterr()
        doc_a = json.loads(first.read_text())
        doc_b = json.loads(second.read_text())
        doc_a["metadata"].pop("generated_at")
        doc_b["metadata"].pop("generated_at")
        assert doc_a == doc_b

    @pytest.mark.parametrize("command", ["measure", "sweep", "wigner"])
    def test_output_is_deterministic(self, tmp_path, capsys, command):
        # the same bytes twice on one host, numpy build and BLAS thread count
        state = tmp_path / "s.json"
        run("state", "coherent", "alpha=1.1", "--out", str(state))
        out = tmp_path / "out.csv"
        argv = {"measure": ("measure", str(state)),
                "sweep": ("sweep", "--family", "thermal", "--parameter", "a", "--start", "1",
                          "--stop", "5", "--steps", "9", "--out", str(out)),
                "wigner": ("wigner", str(state), "--out", str(out))}[command]
        outputs = []
        for _ in range(2):
            capsys.readouterr()
            assert run(*argv) == 0
            outputs.append(capsys.readouterr().out if command == "measure" else out.read_bytes())
        assert outputs[0] == outputs[1]


# (family, CLI parameters, the same state from its constructor, the default
# cutoff by the per-family rule: max(12, top occupied level + 2) for the
# number families, the coherent and thermal rules for the others)
FAMILY_CASES = [
    ("fock", {"n": "0"}, lambda spec: fock_state(spec, 0), 12),
    ("fock", {"n": "15"}, lambda spec: fock_state(spec, 15), 17),
    ("coherent", {"alpha": "1.5-0.5j"}, lambda spec: coherent_state(spec, 1.5 - 0.5j),
     default_coherent_truncation(1.5 - 0.5j)),
    ("cat", {"alpha": "2"}, lambda spec: cat_state(spec, 2.0), default_coherent_truncation(2.0)),
    ("cat", {"alpha": "0.6+0.8j", "phi": "3.141592653589793"},
     lambda spec: cat_state(spec, 0.6 + 0.8j, math.pi), default_coherent_truncation(0.6 + 0.8j)),
    ("cat-mixture", {"alpha": "-1.2"}, lambda spec: cat_mixture(spec, -1.2),
     default_coherent_truncation(-1.2)),
    ("fock-mixture", {"d": "3"}, lambda spec: fock_mixture(spec, 3, True), 12),
    ("fock-mixture", {"d": "12", "include_vacuum": "yes"},
     lambda spec: fock_mixture(spec, 12, True), 13),
    ("fock-mixture", {"d": "12", "include_vacuum": "false"},
     lambda spec: fock_mixture(spec, 12, False), 14),
    ("thermal", {"a": "1"}, lambda spec: thermal_state(spec, GaussianSpec(1.0)),
     default_thermal_truncation(1.0)),
    ("thermal", {"a": "3.5"}, lambda spec: thermal_state(spec, GaussianSpec(3.5)),
     default_thermal_truncation(3.5)),
    ("fock-mixture", {"d": "2", "include_vacuum": "1"},
     lambda spec: fock_mixture(spec, 2, True), 12),
]


def _bits(state):
    return type(state), state.spec, state_bits(state).tolist()


class TestFamilyTable:
    @pytest.mark.parametrize("family, params, direct, cutoff", FAMILY_CASES)
    def test_build_state_is_the_constructor_call(self, family, params, direct, cutoff):
        state, meta = cli.build_state(family, params, None)
        assert meta == {"family": family, "params": params}
        assert state.spec == ModeSpec(1, cutoff)
        assert _bits(state) == _bits(direct(ModeSpec(1, cutoff)))
        state, _ = cli.build_state(family, params, cutoff + 3)
        assert _bits(state) == _bits(direct(ModeSpec(1, cutoff + 3)))

    def test_families_and_sweep_parameters(self):
        assert cli.FAMILIES == ("fock", "coherent", "cat", "cat-mixture", "fock-mixture",
                                "thermal", "product")
        assert cli.SWEEP_PARAM_FAMILIES == {"alpha": ("coherent", "cat", "cat-mixture"),
                                            "a": ("thermal",), "d": ("fock-mixture",),
                                            "n": ("fock",)}

    @pytest.mark.parametrize("parameter, parsed", [
        ("n", (1, 3)), ("d", (1, 3)), ("a", (1.0, 3.0)), ("alpha", (1.0, 3.0))])
    def test_sweep_parses_integers_for_d_and_n_only(self, parameter, parsed):
        args = argparse.Namespace(parameter=parameter, values="1, 3", start=None, stop=None,
                                  steps=None)
        values = cli._sweep_values(args)
        assert values == parsed
        assert [type(v) for v in values] == [type(v) for v in parsed]
