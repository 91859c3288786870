"""End-to-end command-line behavior: files, formats, exit codes, determinism."""

import json
import time

import numpy as np
import pytest

from macroq import (
    GaussianSpec,
    ModeSpec,
    PureState,
    load_state,
    measure_report,
    pure_state_measures,
    random_pure_state,
    save_state,
    thermal_state,
)
from macroq.cli import main

from oracles import cat_mixture_I, thermal_chi2


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
        capsys.readouterr()
        psi = load_state(coherent).amplitudes
        dense = np.kron(load_state(thermal).matrix, np.outer(psi, psi.conj()))
        prod = load_state(mixed)
        assert json.loads(mixed.read_text())["kind"] == "mixed"
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

    def test_inadequate_truncation_exit_code(self, tmp_path, capsys):
        code = run("state", "coherent", "alpha=3", "--truncation", "12",
                   "--out", str(tmp_path / "x.json"))
        assert code == 3
        assert "use at least N=" in capsys.readouterr().err

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


class TestMeasureCommand:
    def test_thermal_operator_report(self, tmp_path, capsys):
        out = tmp_path / "thermal.json"
        run("state", "thermal", "a=2", "--out", str(out))
        capsys.readouterr()
        assert run("measure", str(out)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["P"] == pytest.approx(0.25, abs=1e-9)
        assert report["I"] == pytest.approx(-3.0 / 32.0, abs=1e-9)
        assert report["method"] == "operator"

    def test_cat_mixture_coherence(self, tmp_path, capsys):
        out = tmp_path / "cm.json"
        run("state", "cat-mixture", "alpha=1", "--out", str(out))
        capsys.readouterr()
        assert run("measure", str(out)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["I"] == pytest.approx(cat_mixture_I(1.0), abs=1e-10)
        assert abs(report["I"]) < 0.1  # small, but not exactly zero

    def test_both_methods_include_deltas(self, tmp_path, capsys):
        out = tmp_path / "thermal.json"
        run("state", "thermal", "a=1.4142135623730951", "--out", str(out))
        capsys.readouterr()
        assert run("measure", str(out), "--method", "both") == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"operator", "wigner", "cross_deltas"}
        assert max(doc["cross_deltas"].values()) < 1e-3
        assert doc["wigner"]["chi2"] == pytest.approx(1.0, abs=1e-3)

    def test_both_methods_trace_the_operator_side_once(self, tmp_path, capsys, monkeypatch):
        import macroq.measures

        out = tmp_path / "thermal.json"
        run("state", "thermal", "a=2", "--out", str(out))
        capsys.readouterr()
        original = macroq.measures.measure_C
        calls = []

        def counted(rho):
            calls.append(rho.spec)
            return original(rho)

        monkeypatch.setattr(macroq.measures, "measure_C", counted)
        assert run("measure", str(out), "--method", "both") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert doc["operator"]["method"] == "operator"
        assert doc["operator"]["provenance"] == {"state_file": str(out)}
        assert doc["operator"]["C"] == measure_report(load_state(out)).C

    def test_large_cat_both_methods_at_fine_grid(self, tmp_path, capsys):
        out = tmp_path / "cat7.json"
        assert run("state", "cat", "alpha=7", "--out", str(out)) == 0
        capsys.readouterr()
        assert run("measure", str(out), "--method", "both", "--grid", "1024") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["operator"]["truncation"] == 115
        assert max(doc["cross_deltas"].values()) < 1e-3

    @pytest.mark.parametrize("alpha", ["3", "5"])
    def test_large_cat_both_methods_at_default_grid(self, tmp_path, capsys, alpha):
        out = tmp_path / "cat.json"
        assert run("state", "cat", f"alpha={alpha}", "--out", str(out)) == 0
        capsys.readouterr()
        assert run("measure", str(out), "--method", "both") == 0
        doc = json.loads(capsys.readouterr().out)
        assert max(doc["cross_deltas"].values()) <= 1e-12

    def test_under_resolved_cat_at_default_grid_fails(self, tmp_path, capsys):
        out = tmp_path / "cat7.json"
        assert run("state", "cat", "alpha=7", "--out", str(out)) == 0
        capsys.readouterr()
        assert run("measure", str(out), "--method", "both") != 0

    def test_coherent_structure_measure(self, tmp_path, capsys):
        out = tmp_path / "coh.json"
        run("state", "coherent", "alpha=2", "--out", str(out))
        capsys.readouterr()
        run("measure", str(out))
        report = json.loads(capsys.readouterr().out)
        assert report["chi2"] == pytest.approx(2.0, abs=1e-8)

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
        monkeypatch.setattr(macroq.measures, "measure_C", refuse)
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

    def test_pipeline_disagreement_exit_code(self, tmp_path, capsys):
        out = tmp_path / "cat.json"
        run("state", "cat", "alpha=1.5", "--out", str(out))
        capsys.readouterr()
        code = run("measure", str(out), "--method", "wigner", "--grid", "64")
        err = capsys.readouterr().err
        assert code == 4
        assert "disagree" in err

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
    def test_thermal_sweep_reproduces_closed_form(self, tmp_path, capsys):
        out = tmp_path / "thermal.csv"
        assert run("sweep", "--family", "thermal", "--parameter", "a",
                   "--start", "1", "--stop", "5", "--steps", "9",
                   "--out", str(out)) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "parameter,I,C,P,chi2,errors"
        assert len(lines) == 10
        for line in lines[1:]:
            a_text, _, _, _, chi2_text, err = line.split(",")
            assert err == ""
            a = float(a_text)
            assert float(chi2_text) == pytest.approx(thermal_chi2(a), abs=1e-6)
            if a > 1:
                assert 0.0 < float(chi2_text) < 2.0

    def test_sweep_is_byte_deterministic(self, tmp_path, capsys):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        for out in (first, second):
            assert run("sweep", "--family", "thermal", "--parameter", "a",
                       "--start", "1", "--stop", "2", "--steps", "3",
                       "--out", str(out)) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_fock_sweep_counts_excitations(self, tmp_path, capsys):
        out = tmp_path / "fock.csv"
        assert run("sweep", "--family", "fock", "--parameter", "n",
                   "--values", "0,1,2,3", "--out", str(out)) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            n_text, i_text = row.split(",")[:2]
            assert float(i_text) == pytest.approx(float(n_text), abs=1e-9)

    def test_cat_mixture_sweep_follows_overlap_formula(self, tmp_path, capsys):
        out = tmp_path / "cm.csv"
        assert run("sweep", "--family", "cat-mixture", "--parameter", "alpha",
                   "--values", "0.5,1,2,3", "--out", str(out)) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            alpha_text, i_text = row.split(",")[:2]
            expected = cat_mixture_I(float(alpha_text))
            assert float(i_text) == pytest.approx(expected, abs=1e-9)
            assert abs(float(i_text)) < 0.1

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

    def test_incompatible_family_parameter(self, tmp_path, capsys):
        code = run("sweep", "--family", "thermal", "--parameter", "d",
                   "--values", "1,2", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "applies to families" in capsys.readouterr().err


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

        monkeypatch.setattr("macroq.cli.wigner_from_density", refuse)
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

    @pytest.mark.parametrize("half_width, code, message", [
        ("inf", 2, "half_width must be positive and finite"),
        ("1e-300", 3, "grid integrates to"),
    ])
    def test_degenerate_half_width(self, tmp_path, capsys, half_width, code, message):
        state = tmp_path / "vac.json"
        run("state", "fock", "n=0", "--out", str(state))
        capsys.readouterr()
        assert run("wigner", str(state), "--out", str(tmp_path / "w.csv"),
                   "--half-width", half_width) == code
        assert message in capsys.readouterr().err


class TestVerifyCommand:
    def test_coarse_grid_run_passes(self, tmp_path, capsys):
        summary_path = tmp_path / "verify.json"
        assert run("verify", "--grid", "128", "--json", str(summary_path)) == 0
        text = capsys.readouterr().out
        assert "PASS dual-pipeline" in text
        assert "on 128^2 grids (tol 1e-03)" in text
        assert "summary: 11/11 checks passed" in text
        assert "INFO fock-mixture-convention" in text
        doc = json.loads(summary_path.read_text())
        assert doc["failed"] == 0

    @pytest.mark.parametrize("factor", ["inf", "nan", "0", "-1"])
    def test_tolerance_factor_must_be_positive_and_finite(self, capsys, factor):
        assert run("verify", "--tol", factor) == 2
        err = capsys.readouterr().err
        assert "tolerance factor must be positive and finite" in err

    def test_corrupted_corpus_file_fails_naming_invariant(self, tmp_path, capsys):
        state = tmp_path / "bad.json"
        run("state", "thermal", "a=1.4142135623730951", "--out", str(state))
        doc = json.loads(state.read_text())
        doc["data"] = [[[0.9 * re, 0.9 * im] for re, im in row] for row in doc["data"]]
        state.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("verify", "--grid", "128", "--corpus", str(state))
        out = capsys.readouterr().out
        assert code == 1
        assert "trace deviates from 1 by" in out

    def test_valid_corpus_file_joins_suite(self, tmp_path, capsys):
        state = tmp_path / "good.json"
        run("state", "cat", "alpha=1.2", "--out", str(state))
        capsys.readouterr()
        assert run("verify", "--grid", "128", "--corpus", str(state)) == 0
        assert "PASS corpus:good.json" in capsys.readouterr().out


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

    def test_measure_output_is_deterministic(self, tmp_path, capsys):
        state = tmp_path / "s.json"
        run("state", "coherent", "alpha=1.1", "--out", str(state))
        capsys.readouterr()
        run("measure", str(state))
        first = capsys.readouterr().out
        run("measure", str(state))
        second = capsys.readouterr().out
        assert first == second
