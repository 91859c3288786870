"""The package's public surface, pinned so that a removal is a visible choice.

bench/tracing.py rebinds macroq functions by name to time each layer; every
name it lists must keep resolving, or a traced benchmark run breaks.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import macroq

PUBLIC_NAMES = [
    "ComplexMatrix",
    "ConsistencyError",
    "DensityMatrix",
    "GaussianSpec",
    "GridSpec",
    "MacroqError",
    "MeasureReport",
    "ModeOperator",
    "ModeSpec",
    "PhaseSpaceGrid",
    "PureState",
    "StateValidationError",
    "TOL",
    "Tolerances",
    "TruncationError",
    "__version__",
    "annihilation_op",
    "as_density",
    "cat_mixture",
    "cat_state",
    "coherent_state",
    "creation_op",
    "default_coherent_truncation",
    "default_grid_spec",
    "default_thermal_truncation",
    "displaced",
    "fock_mixture",
    "fock_state",
    "load_state",
    "max_dimension",
    "measure_C",
    "measure_C_wigner",
    "measure_I",
    "measure_I_forms",
    "measure_P_wigner",
    "measure_report",
    "mix",
    "product_state",
    "pure_state_measures",
    "purity",
    "quadrature_p",
    "quadrature_q",
    "random_mixed_state",
    "random_pure_state",
    "save_state",
    "thermal_state",
    "wigner_from_density",
    "wigner_measure_report",
]

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_macroq_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_public_surface(tmp_path):
    assert sorted(macroq.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(macroq, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("macroq.linalg")

    # install the tracer as a traced run does: it reads each method from its
    # class's own __dict__ and rebinds every module reference to each function
    tracing = _load_tracing()
    modules = [importlib.import_module(name) for name in tracing.MACROQ_MODULES]
    targets = {}
    for table in tracing.LAYER_SPANS.values():
        for target in table:
            module, attr = target.split(":")
            owner = importlib.import_module(module)
            *cls, name = attr.split(".")
            targets[target] = (getattr(owner, cls[0]) if cls else owner, name)
    before = [dict(vars(module)) for module in modules]
    originals = {target: vars(owner)[name] for target, (owner, name) in targets.items()}
    assert all(callable(original) for original in originals.values())
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for target, (owner, name) in targets.items():
            assert vars(owner)[name] is not originals[target], target
        # the wrappers read the grid's counts and methods, so run one of each
        rho = macroq.fock_state(macroq.ModeSpec(1, 6), 1)
        half_width = macroq.default_grid_spec(6).half_width
        grid = macroq.wigner_from_density(rho, macroq.GridSpec(half_width, 57, 64))
        grid.to_csv(tmp_path / "grid.csv")
    finally:
        tracer.uninstall()
    spans = {span.name: span for span in tracer.spans}
    assert spans["wigner.transform"].attrs == {"cell_dyads": 57 * 64 * 6 ** 2}
    assert "wigner.export" in spans
    for target, (owner, name) in targets.items():
        assert vars(owner)[name] is originals[target], target
    for module, names in zip(modules, before):
        assert all(vars(module)[key] is value for key, value in names.items()), module


@pytest.mark.parametrize("argv", [
    ["fock", "n=3"], ["coherent", "alpha=1.5"], ["cat", "alpha=1.5"], ["cat-mixture", "alpha=1.2"],
    ["fock-mixture", "d=3"], ["thermal", "a=3"]])
def test_traced_state_command_records_its_build(argv, tmp_path):
    # the CLI calls each constructor through its module global, which the tracer rebinds
    from macroq.cli import main

    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        assert main(["state", *argv, "--out", str(tmp_path / "state.json")]) == 0
    finally:
        tracer.uninstall()
    spans = {span.name: span for span in tracer.spans}
    assert sorted(span.name for span in tracer.spans) == [
        "states.build", "states.save", "states.validate"]
    assert spans["states.validate"].parent == spans["states.build"].id


def test_cli_imports_no_private_package_names():
    """The CLI and the check suite go through public functions only, so each
    decision has one owner."""
    private = [
        f"{source}: {node.module}.{alias.name}"
        for source in ("cli.py", "verify.py")
        for node in ast.walk(ast.parse((Path(macroq.__file__).parent / source).read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "macroq")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
