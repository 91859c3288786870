"""End-to-end command-line behavior: files, formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from macroq import GaussianSpec, ModeSpec, measure_report, thermal_state
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

    def test_large_cat_both_methods_at_fine_grid(self, tmp_path, capsys):
        out = tmp_path / "cat7.json"
        assert run("state", "cat", "alpha=7", "--out", str(out)) == 0
        capsys.readouterr()
        assert run("measure", str(out), "--method", "both", "--grid", "1024") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["operator"]["truncation"] == 115
        assert max(doc["cross_deltas"].values()) < 1e-3

    def test_coherent_structure_measure(self, tmp_path, capsys):
        out = tmp_path / "coh.json"
        run("state", "coherent", "alpha=2", "--out", str(out))
        capsys.readouterr()
        run("measure", str(out))
        report = json.loads(capsys.readouterr().out)
        assert report["chi2"] == pytest.approx(2.0, abs=1e-8)

    def test_missing_file_is_usage_error(self, capsys):
        assert run("measure", "/nonexistent/state.json") == 2
        capsys.readouterr()

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

    def test_multimode_rejected(self, tmp_path, capsys):
        left = tmp_path / "l.json"
        run("state", "fock", "n=0", "--truncation", "6", "--out", str(left))
        prod = tmp_path / "p.json"
        run("state", "product", f"left={left}", f"right={left}", "--out", str(prod))
        capsys.readouterr()
        assert run("wigner", str(prod), "--out", str(tmp_path / "p.csv")) == 2


class TestVerifyCommand:
    def test_coarse_grid_run_passes(self, tmp_path, capsys):
        summary_path = tmp_path / "verify.json"
        assert run("verify", "--grid", "128", "--json", str(summary_path)) == 0
        text = capsys.readouterr().out
        assert "PASS dual-pipeline" in text
        assert "INFO fock-mixture-convention" in text
        doc = json.loads(summary_path.read_text())
        assert doc["failed"] == 0

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
