"""Command-line front end.

Subcommands: state, measure, sweep, wigner, verify. Outputs are JSON on
stdout and JSON/CSV files on disk; every output is deterministic for fixed
inputs and flags on the same host, numpy build and BLAS thread count, except
for ISO-8601 "generated_at" fields written into file metadata.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 truncation or resource error, 4 internal consistency error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import max_dimension
from .errors import ConsistencyError, StateValidationError, TruncationError
from .fock import ModeSpec
from .measures import measure_report
from .states import (
    GaussianSpec,
    PureState,
    State,
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
from .wigner import (DEFAULT_GRID_POINTS, GridSpec, default_grid_spec, wigner_from_density,
                     wigner_measure_report, wigner_on_window)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_TRUNCATION = 3
EXIT_CONSISTENCY = 4

def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _parse_params(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"parameters take the form key=value, got {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        if key in out:
            raise ValueError(f"parameter {key!r} is given more than once")
        out[key] = value
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


# Each single-mode family: its parameters in constructor order as (name, parser,
# default or None if required), its default Fock cutoff from the parsed values and
# its constructor, called by its global name at call time so that a wrapper rebound
# onto this module sees every call. A sweep varies a family's first parameter.
_Family = namedtuple("_Family", "params cutoff build")
_TABLE = {
    "fock": _Family((("n", int, None),), lambda n: max(12, n + 2),
                    lambda spec, n: fock_state(spec, n)),
    "coherent": _Family((("alpha", _parse_complex, None),),
                        lambda alpha: default_coherent_truncation(alpha),
                        lambda spec, alpha: coherent_state(spec, alpha)),
    "cat": _Family((("alpha", _parse_complex, None), ("phi", float, "0")),
                   lambda alpha, phi: default_coherent_truncation(alpha),
                   lambda spec, alpha, phi: cat_state(spec, alpha, phi)),
    "cat-mixture": _Family((("alpha", _parse_complex, None),),
                           lambda alpha: default_coherent_truncation(alpha),
                           lambda spec, alpha: cat_mixture(spec, alpha)),
    "fock-mixture": _Family((("d", int, None), ("include_vacuum", _parse_bool, "true")),
                            lambda d, include_vacuum: max(12, d + (1 if include_vacuum else 2)),
                            lambda spec, d, include_vacuum: fock_mixture(spec, d, include_vacuum)),
    "thermal": _Family((("a", float, None),), lambda a: default_thermal_truncation(a),
                       lambda spec, a: thermal_state(spec, GaussianSpec(a))),
}

FAMILIES = (*_TABLE, "product")

# sweep parameter -> the families whose first parameter it is
SWEEP_PARAM_FAMILIES = {
    name: tuple(family for family, entry in _TABLE.items() if entry.params[0][0] == name)
    for name in dict.fromkeys(entry.params[0][0] for entry in _TABLE.values())
}


def build_state(family: str, params: dict[str, str], truncation: int | None) -> tuple[State, dict]:
    """Construct a state from CLI-style parameters; returns (state, metadata)."""
    params = dict(params)
    meta: dict = {"family": family, "params": dict(params)}
    if family == "product":
        if truncation is not None:
            raise ValueError("--truncation does not apply to product; "
                             "the product takes its factors' truncation")
        state = product_state(load_state(_pop(params, "left", family)),
                              load_state(_pop(params, "right", family)))
    elif family in _TABLE:
        entry = _TABLE[family]
        values = [parse(_pop(params, name, family, default))
                  for name, parse, default in entry.params]
        cut = entry.cutoff(*values) if truncation is None else truncation
        state = entry.build(ModeSpec(1, cut), *values)
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


def _measure_one(state: State, method: str, provenance: dict) -> dict:
    if method == "operator":
        return measure_report(state, provenance=provenance).to_dict()
    grid_side = wigner_measure_report(state, provenance=provenance)
    if method == "wigner":
        return grid_side.to_dict()
    return {
        "operator": grid_side.checked_against.to_dict(),
        "wigner": grid_side.to_dict(),
        "cross_deltas": grid_side.cross_deltas,
    }


def cmd_measure(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    provenance = {"state_file": str(args.state)}
    result = _measure_one(state, args.method, provenance)
    print(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


def _sweep_values(args: argparse.Namespace) -> tuple:
    integer = _TABLE[SWEEP_PARAM_FAMILIES[args.parameter][0]].params[0][1] is int
    if args.values is not None:
        if args.start is not None or args.stop is not None:
            raise ValueError("--values and --start/--stop are alternatives; give one or the other")
        if args.steps is not None:
            raise ValueError("--steps counts the points of a --start/--stop range; "
                             "it cannot be given with --values")
        items = [item for item in args.values.split(",") if item.strip()]
        if not items:
            raise ValueError("sweep needs at least one value")
        return tuple(map(int if integer else float, items))
    if args.start is None or args.stop is None:
        raise ValueError("sweep needs either --values or --start/--stop/--steps")
    steps = 1 if args.steps is None else args.steps
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if integer:
        raise ValueError(f"integer parameter {args.parameter!r} needs --values")
    if steps > np.iinfo(np.intp).max // np.dtype(np.float64).itemsize:
        raise ValueError(f"--steps {steps} is more values than an array can hold")
    return tuple(float(v) for v in np.linspace(args.start, args.stop, steps))


def cmd_sweep(args: argparse.Namespace) -> int:
    values = _sweep_values(args)
    allowed = SWEEP_PARAM_FAMILIES[args.parameter]
    if args.family not in allowed:
        raise ValueError(
            f"parameter {args.parameter!r} applies to families {allowed}, not {args.family!r}")
    max_dimension()  # a malformed MACROQ_MAX_DIM is a usage error, not every point's failure
    ordered = sorted(values, key=lambda value: (math.isnan(value), value))  # NaN last
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
    except MemoryError as exc:
        return value, None, f"MemoryError: {str(exc) or 'out of memory'}"


def cmd_wigner(args: argparse.Namespace) -> int:
    out = Path(args.out)
    json_path = out.with_suffix(".json") if args.format == "both" else out
    if args.format == "both" and json_path == out:
        raise ValueError(f"--format both would write the CSV and the JSON both to {out}; "
                         "give --out a suffix other than .json")
    state = load_state(args.state)
    half_width = (default_grid_spec(state.spec.truncation).half_width
                  if args.half_width is None else args.half_width)
    if args.grid is None:
        grid = wigner_on_window(state, half_width)
    else:
        grid = wigner_from_density(state, GridSpec(half_width, nq=args.grid, np=args.grid))
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
        "half_width": grid.spec.half_width,
        "normalization": grid.normalization(),
        "extreme_value": float(grid.values[peak]),
        "extreme_at": [float(grid.q_vector()[peak[0]]), float(grid.p_vector()[peak[1]])],
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(tuple(args.corpus or ()))
    for res in results:
        print(f"{res.status:4s} {res.name}: {res.detail}")
    failed = sum(res.status == "FAIL" for res in results)
    informational = sum(1 for r in results if r.informational)
    hard = len(results) - informational
    print(f"summary: {hard - failed}/{hard} checks passed, "
          f"{informational} informational notes")
    if args.json:
        doc = {"generated_at": _now(), "failed": failed,
               "checks": [{**dataclasses.asdict(r), "status": r.status} for r in results]}
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
    p_measure.set_defaults(func=cmd_measure)

    p_sweep = sub.add_parser("sweep", help="measure a family over a parameter range")
    p_sweep.add_argument("--family", required=True, choices=FAMILIES)
    p_sweep.add_argument("--parameter", required=True,
                         choices=sorted(SWEEP_PARAM_FAMILIES))
    p_sweep.add_argument("--start", type=float, default=None)
    p_sweep.add_argument("--stop", type=float, default=None)
    p_sweep.add_argument("--steps", type=int, default=None,
                         help="points from --start to --stop (default 1)")
    p_sweep.add_argument("--values", default=None,
                         help="comma-separated explicit values (required for d and n)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--truncation", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_wigner = sub.add_parser("wigner", help="export a sampled phase-space grid")
    p_wigner.add_argument("state", help="single-mode state file")
    p_wigner.add_argument("--out", required=True)
    p_wigner.add_argument("--grid", type=int, default=None,
                          help="points per axis (default: from the state, at least "
                               f"{DEFAULT_GRID_POINTS})")
    p_wigner.add_argument("--half-width", type=float, default=None,
                          help="override the default window sqrt(2N) + 5")
    p_wigner.add_argument("--format", choices=("csv", "json", "both"), default="csv")
    p_wigner.set_defaults(func=cmd_wigner)

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("--corpus", nargs="*", default=None,
                          help="extra state files to validate and include")
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
    except (TruncationError, MemoryError) as exc:
        print(f"truncation/resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_TRUNCATION
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (StateValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
