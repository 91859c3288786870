"""Acceptance suite: the exit criteria, each test printing a verdict line.

`macroq verify` judges criterion 1 (the thermal closed forms on both
pipelines), criterion 2 (the number and cat mixtures against their exact
values), criterion 3 (the identity on the twelve-state corpus), criterion 4
(the pure-state relation on random states) and criterion 6 (displacement
invariance, tensor composition, chi2 positivity, the three- vs two-term forms
of I): its checks must all pass in criterion 7, and tests/test_verify.py pins
its closed forms to tests/oracles.py. tests/test_closed_forms.py holds every
family's closed forms to tighter bounds on four routes: the grid report, the
report it was checked against, the dense traces of as_density(state) and
purity. This module keeps
criterion 5, whose refined grids no other test samples, and the verify run.
"""

import json
import re

from macroq import measure_C_wigner, measure_P_wigner, measure_report, wigner_from_density
from macroq.cli import main
from macroq.verify import wigner_corpus
from macroq.wigner import default_grid_spec


def _verdict(criterion: str, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


class TestCriterion5DualPipeline:
    def test_agreement_and_refinement(self):
        # the spectral C and the trapezoid P are both at round-off once the grid
        # resolves W, so refinement holds the agreement there rather than shrinking it
        rows = []
        worst = 0.0
        for name, rho in wigner_corpus():
            operator = measure_report(rho)
            deltas = []
            for points in (256, 512):
                grid = wigner_from_density(rho, default_grid_spec(rho.spec.truncation, points))
                deltas += [abs(measure_C_wigner(grid) - operator.C) / abs(operator.C),
                           abs(measure_P_wigner(grid) - operator.P) / operator.P]
            worst = max(worst, *deltas)
            rows.append(f"{name}: dC 256={deltas[0]:.2e} 512={deltas[2]:.2e}, "
                        f"dP 256={deltas[1]:.2e} 512={deltas[3]:.2e}")
        _verdict("5", worst < 1e-12,
                 "256^2 and 512^2 both agree within 1e-12; " + "; ".join(rows))
        assert worst < 1e-12, rows


class TestCriterion7CliReproduction:
    def test_verify_exits_clean(self, tmp_path, capsys):
        summary_path = tmp_path / "verify.json"
        code = main(["verify", "--json", str(summary_path)])
        out = capsys.readouterr().out
        passed = code == 0
        with capsys.disabled():
            _verdict("7 (verify)", passed, f"exit code {code}")
        assert passed, out
        assert "summary: 11/11 checks passed" in out
        assert "PASS dual-pipeline" in out
        assert "on the default grids (tol 1e-09)" in out
        # each check's bound as printed, so that a loosened one shows
        assert re.findall(r"\(tol ([^)]*)\)", out) == [
            "1e-09", "1e-09", "1e-12", "1e-10", "1e-09", "1e-06", "1e-09", "1e-10", "1e-10",
            "1e-10", "1e-07", "1e-06", "1e-09", "1e-10"]
        assert "INFO fock-mixture-convention" in out
        doc = json.loads(summary_path.read_text())
        assert doc["failed"] == 0
        assert sorted(doc) == ["checks", "failed", "generated_at"]
