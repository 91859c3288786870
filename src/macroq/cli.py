"""Command-line front end.

Subcommands: state, measure, sweep, wigner, verify. Outputs are JSON on
stdout and JSON/CSV files on disk; every output is deterministic for fixed
inputs and flags, except for ISO-8601 "generated_at" fields written into
file metadata.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 truncation or resource error, 4 internal consistency error.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, StateValidationError, TruncationError
from .fock import ModeSpec
from .measures import measure_report
from .states import (
    DensityMatrix,
    GaussianSpec,
    PureState,
    cat_mixture,
    cat_state,
    coherent_state,
    default_coherent_truncation,
    default_thermal_truncation,
    fock_mixture,
    fock_state,
    load_state,
    product_state,
    save_state,
    thermal_state,
)
from .verify import run_verification
from .wigner import GridSpec, default_grid_spec, wigner_from_density, wigner_measure_report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_TRUNCATION = 3
EXIT_CONSISTENCY = 4

FAMILIES = ("fock", "coherent", "cat", "cat-mixture", "fock-mixture", "thermal", "product")

SWEEP_PARAM_FAMILIES = {
    "alpha": ("coherent", "cat", "cat-mixture"),
    "a": ("thermal",),
    "d": ("fock-mixture",),
    "n": ("fock",),
}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _parse_params(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"parameters take the form key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_complex(raw: str) -> complex:
    try:
        return complex(raw.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse {raw!r} as a complex number") from exc


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"cannot parse {raw!r} as a boolean")


def _pop(params: dict[str, str], key: str, family: str, default: str | None = None) -> str:
    if key in params:
        return params.pop(key)
    if default is not None:
        return default
    raise ValueError(f"family {family!r} requires parameter {key}=...")


def build_state(
    family: str, params: dict[str, str], truncation: int | None
) -> tuple[PureState | DensityMatrix, dict]:
    """Construct a state from CLI-style parameters; returns (state, metadata)."""
    params = dict(params)
    meta: dict = {"family": family, "params": dict(params)}
    if family == "fock":
        n = int(_pop(params, "n", family))
        cut = truncation or max(12, n + 2)
        state: PureState | DensityMatrix = fock_state(ModeSpec(1, cut), n)
    elif family == "coherent":
        alpha = _parse_complex(_pop(params, "alpha", family))
        cut = truncation or default_coherent_truncation(alpha)
        state = coherent_state(ModeSpec(1, cut), alpha)
    elif family == "cat":
        alpha = _parse_complex(_pop(params, "alpha", family))
        phi = float(_pop(params, "phi", family, "0"))
        cut = truncation or default_coherent_truncation(alpha)
        state = cat_state(ModeSpec(1, cut), alpha, phi)
    elif family == "cat-mixture":
        alpha = _parse_complex(_pop(params, "alpha", family))
        cut = truncation or default_coherent_truncation(alpha)
        state = cat_mixture(ModeSpec(1, cut), alpha)
    elif family == "fock-mixture":
        d = int(_pop(params, "d", family))
        include_vacuum = _parse_bool(_pop(params, "include_vacuum", family, "true"))
        top = d - 1 if include_vacuum else d
        cut = truncation or max(12, top + 2)
        state = fock_mixture(ModeSpec(1, cut), d, include_vacuum)
    elif family == "thermal":
        a = float(_pop(params, "a", family))
        cut = truncation or default_thermal_truncation(a)
        state = thermal_state(ModeSpec(1, cut), GaussianSpec(a))
    elif family == "product":
        state = product_state(load_state(_pop(params, "left", family), require_tail=True),
                              load_state(_pop(params, "right", family), require_tail=True))
    else:
        raise ValueError(f"unknown state family {family!r}; choose from {FAMILIES}")
    if params:
        raise ValueError(f"unrecognized parameters for {family!r}: {sorted(params)}")
    return state, meta


def cmd_state(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    state, meta = build_state(args.family, params, args.truncation)
    meta["generated_at"] = _now()
    save_state(state, args.out, metadata=meta)
    spec = state.spec
    kind = "pure" if isinstance(state, PureState) else "mixed"
    summary = {
        "out": str(args.out),
        "family": args.family,
        "kind": kind,
        "num_modes": spec.num_modes,
        "truncation": spec.truncation,
        "total_dim": spec.total_dim,
        "top_level_mass": float(np.max(state.top_level_mass())),
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


def _measure_one(
    state: PureState | DensityMatrix, method: str, grid_points: int, provenance: dict
) -> dict:
    if method == "operator":
        return measure_report(state, provenance=provenance).to_dict()
    gs = default_grid_spec(state.spec.truncation, grid_points)
    grid_side = wigner_measure_report(state, gs, provenance=provenance)
    if method == "wigner":
        return grid_side.to_dict()
    return {
        "operator": grid_side.checked_against.to_dict(),
        "wigner": grid_side.to_dict(),
        "cross_deltas": grid_side.cross_deltas,
    }


def cmd_measure(args: argparse.Namespace) -> int:
    state = load_state(args.state, require_tail=True)
    provenance = {"state_file": str(args.state)}
    result = _measure_one(state, args.method, args.grid, provenance)
    print(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


def _sweep_values(args: argparse.Namespace) -> tuple:
    if args.values is not None:
        items = [item for item in args.values.split(",") if item.strip()]
        if not items:
            raise ValueError("sweep needs at least one value")
        if args.parameter in ("d", "n"):
            return tuple(int(item) for item in items)
        return tuple(float(item) for item in items)
    if args.start is None or args.stop is None:
        raise ValueError("sweep needs either --values or --start/--stop/--steps")
    if args.steps < 1:
        raise ValueError(f"steps must be >= 1, got {args.steps}")
    if args.parameter in ("d", "n"):
        raise ValueError(f"integer parameter {args.parameter!r} needs --values")
    if args.steps == 1:
        return (float(args.start),)
    return tuple(float(v) for v in np.linspace(args.start, args.stop, args.steps))


def cmd_sweep(args: argparse.Namespace) -> int:
    values = _sweep_values(args)
    allowed = SWEEP_PARAM_FAMILIES[args.parameter]
    if args.family not in allowed:
        raise ValueError(
            f"parameter {args.parameter!r} applies to families {allowed}, not {args.family!r}")
    ordered = sorted(values)
    outcomes = [_run_point(args, value) for value in ordered]
    successes = sum(1 for _, report, err in outcomes if err is None)
    lines = ["parameter,I,C,P,chi2,errors"]
    points_doc = []
    for value, report, err in outcomes:
        value_text = f"{value:.17g}" if isinstance(value, float) else str(value)
        if err is None:
            lines.append(
                f"{value_text},{report.I:.17g},{report.C:.17g},"
                f"{report.P:.17g},{report.chi2:.17g},")
            points_doc.append({"parameter": value, "report": report.to_dict()})
        else:
            safe_err = err.replace(",", ";").replace("\n", " ")
            lines.append(f"{value_text},,,,,{safe_err}")
            points_doc.append({"parameter": value, "error": err})
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n")
    sidecar = out.with_suffix(".json")
    if sidecar == out:
        sidecar = out.with_name(out.name + ".reports.json")
    sidecar.write_text(json.dumps(
        {
            "generated_at": _now(),
            "family": args.family,
            "parameter": args.parameter,
            "points": points_doc,
        },
        sort_keys=True, indent=2) + "\n")
    print(f"wrote {out} ({successes}/{len(ordered)} points) and {sidecar}")
    if successes == 0:
        print("every sweep point failed", file=sys.stderr)
        return EXIT_TRUNCATION
    return EXIT_OK


def _run_point(args: argparse.Namespace, value):
    params = {args.parameter: repr(float(value)) if isinstance(value, float) else str(value)}
    try:
        state, _ = build_state(args.family, params, args.truncation)
        report = measure_report(state, provenance={"family": args.family, args.parameter: value})
        return value, report, None
    except (StateValidationError, TruncationError, ConsistencyError, ValueError) as exc:
        return value, None, f"{type(exc).__name__}: {exc}"


def cmd_wigner(args: argparse.Namespace) -> int:
    out = Path(args.out)
    json_path = out.with_suffix(".json") if args.format == "both" else out
    if args.format == "both" and json_path == out:
        raise ValueError(f"--format both would write the CSV and the JSON both to {out}; "
                         "give --out a suffix other than .json")
    state = load_state(args.state, require_tail=True)
    if args.half_width is None:
        gs = default_grid_spec(state.spec.truncation, args.grid)
    else:
        gs = GridSpec(half_width=args.half_width, nq=args.grid, np=args.grid)
    grid = wigner_from_density(state, gs)
    written = []
    if args.format in ("csv", "both"):
        grid.to_csv(out)
        written.append(str(out))
    if args.format in ("json", "both"):
        json_path.write_text(json.dumps(grid.to_json_dict(), sort_keys=True) + "\n")
        written.append(str(json_path))
    peak = np.unravel_index(np.argmax(np.abs(grid.values)), grid.values.shape)
    summary = {
        "written": written,
        "nq": grid.nq,
        "np": grid.np,
        "half_width": gs.half_width,
        "normalization": grid.normalization(),
        "extreme_value": float(grid.values[peak]),
        "extreme_at": [float(grid.q_vector()[peak[0]]), float(grid.p_vector()[peak[1]])],
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(
        grid_points=args.grid,
        tol_factor=args.tol,
        corpus_paths=tuple(args.corpus or ()),
    )
    failed = 0
    for res in results:
        print(f"{res.status:4s} {res.name}: {res.detail}")
        if not res.informational and not res.passed:
            failed += 1
    informational = sum(1 for r in results if r.informational)
    hard = len(results) - informational
    print(f"summary: {hard - failed}/{hard} checks passed, "
          f"{informational} informational notes")
    if args.json:
        doc = {
            "generated_at": _now(),
            "grid": args.grid,
            "tol_factor": args.tol,
            "checks": [
                {
                    "name": r.name,
                    "status": r.status,
                    "passed": r.passed,
                    "informational": r.informational,
                    "detail": r.detail,
                }
                for r in results
            ],
            "failed": failed,
        }
        Path(args.json).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macroq",
        description="Phase-space coherence measures on truncated bosonic states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="construct a state and write it to a JSON file")
    p_state.add_argument("family", choices=FAMILIES)
    p_state.add_argument("params", nargs="*", help="family parameters as key=value")
    p_state.add_argument("--out", required=True, help="output state file")
    p_state.add_argument("--truncation", type=int, default=None,
                         help="override the per-family default Fock cutoff")
    p_state.set_defaults(func=cmd_state)

    p_measure = sub.add_parser("measure", help="compute measure reports for a state file")
    p_measure.add_argument("state", help="state file written by the state command")
    p_measure.add_argument("--method", choices=("operator", "wigner", "both"),
                           default="operator")
    p_measure.add_argument("--grid", type=int, default=256,
                           help="points per axis for the wigner method (default 256)")
    p_measure.set_defaults(func=cmd_measure)

    p_sweep = sub.add_parser("sweep", help="measure a family over a parameter range")
    p_sweep.add_argument("--family", required=True, choices=FAMILIES)
    p_sweep.add_argument("--parameter", required=True,
                         choices=sorted(SWEEP_PARAM_FAMILIES))
    p_sweep.add_argument("--start", type=float, default=None)
    p_sweep.add_argument("--stop", type=float, default=None)
    p_sweep.add_argument("--steps", type=int, default=1)
    p_sweep.add_argument("--values", default=None,
                         help="comma-separated explicit values (required for d and n)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--truncation", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_wigner = sub.add_parser("wigner", help="export a sampled phase-space grid")
    p_wigner.add_argument("state", help="single-mode state file")
    p_wigner.add_argument("--out", required=True)
    p_wigner.add_argument("--grid", type=int, default=257,
                          help="points per axis (default 257, which samples the origin)")
    p_wigner.add_argument("--half-width", type=float, default=None,
                          help="override the default window sqrt(2N) + 5")
    p_wigner.add_argument("--format", choices=("csv", "json", "both"), default="csv")
    p_wigner.set_defaults(func=cmd_wigner)

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("--corpus", nargs="*", default=None,
                          help="extra state files to validate and include")
    p_verify.add_argument("--grid", type=int, default=256,
                          help="points per axis for the phase-space checks (default 256)")
    p_verify.add_argument("--tol", type=float, default=1.0,
                          help="scale every verification tolerance by this factor")
    p_verify.add_argument("--json", default=None, help="also write a JSON summary file")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except TruncationError as exc:
        print(f"truncation/resource error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (StateValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
