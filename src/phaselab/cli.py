"""Command-line entry point.

Subcommands: check (identity suite), spectrum (eigenvalues of the cyclic
phase ladder), phasedist (phase distribution of a state), operators
(nonzero-entry dump of a named builder). Only data goes to stdout or the
output file; diagnostics go to stderr.

Exit codes: 0 success (for check: all checks passed), 1 one or more
checks failed, 2 invalid configuration, 3 runtime numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .fockspace import Boundary, Window, parse_state_spec
from .formats import _csv_text, dump_json, round_sig, window_to_json_dict
from .operators import (
    OPERATOR_BUILDERS,
    build_susskind_glogower,
    operator_to_json_dict,
)
from .phase import (
    _eigenphase,
    distribution_to_csv,
    distribution_to_json_dict,
    eigen_decompose_sg,
    phase_distribution,
    phase_grid,
)
from .verify import ToleranceProfile, report_to_json_dict, run_checks

_DEFAULTS = {
    "boundary": "cyclic",
    "wrap_phase": 0.0,
    "phi0": 0.0,
    "format": "json",
    "tolerance_profile": "default",
    "out": None,
    "n_max": None,
    "lo": None,
    "hi": None,
    "state": None,
    "operator": None,
}


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    window: Window
    output_format: str
    output_path: str | None
    profile: ToleranceProfile
    state_spec: str | None = None
    phi0: float = 0.0
    operator_name: str | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Finite-window laboratory for the polarization-doubled "
        "photon phase operator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    specs = {
        "check": "run the operator identity suite and report deviations",
        "spectrum": "eigenvalues of the cyclic phase ladder operator",
        "phasedist": "phase probability distribution of a state",
        "operators": "dump the nonzero entries of a named operator",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="optional JSON config file; flags override it")
        p.add_argument("--n-max", type=int, dest="n_max",
                       help="symmetric window: lo = -(n_max+1), hi = n_max")
        p.add_argument("--lo", type=int, help="lowest basis label (<= -1)")
        p.add_argument("--hi", type=int, help="highest basis label (>= 0)")
        p.add_argument("--boundary", choices=["open", "cyclic"])
        p.add_argument("--wrap-phase", type=float, dest="wrap_phase",
                       help="phase of the cyclic wrap element, radians")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        if name == "check":
            p.add_argument("--tolerance-profile", dest="tolerance_profile",
                           metavar="NAME")
        if name == "phasedist":
            p.add_argument("--state", metavar="SPEC",
                           help="fock:<n> | coherent:upper,alpha=<re>+<im>i | "
                                "coherent:lower,alpha=... | vacuum:sym")
            p.add_argument("--phi0", type=float, help="phase grid offset, radians")
        if name == "operators":
            p.add_argument("--operator", metavar="NAME",
                           help=f"one of: {', '.join(sorted(OPERATOR_BUILDERS))}")
    return parser


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_values) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    for key in _DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value

    for key in ("n_max", "lo", "hi"):
        value = merged[key]
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    for key in ("wrap_phase", "phi0"):
        if not _is_number(merged[key]) or not math.isfinite(merged[key]):
            raise ValueError(f"{key} must be a finite number, got {merged[key]!r}")
    for key in ("out", "state", "operator"):
        value = merged[key]
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")

    if merged["n_max"] is not None:
        if merged["lo"] is not None or merged["hi"] is not None:
            raise ValueError("give either --n-max or --lo/--hi, not both")
        window = Window.symmetric(merged["n_max"],
                                  Boundary(merged["boundary"]),
                                  float(merged["wrap_phase"]))
    elif merged["lo"] is not None and merged["hi"] is not None:
        window = Window(merged["lo"], merged["hi"],
                        Boundary(merged["boundary"]),
                        float(merged["wrap_phase"]))
    else:
        raise ValueError("a window is required: --n-max N or both --lo and --hi")

    fmt = merged["format"]
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")

    profile_value = merged["tolerance_profile"]
    if isinstance(profile_value, dict):
        unknown = set(profile_value) - {f.name for f in fields(ToleranceProfile)}
        if unknown:
            raise ValueError(f"unknown tolerance_profile keys: {sorted(unknown)}")
        for key, value in profile_value.items():
            if not _is_number(value) or not 0.0 < value < math.inf:
                raise ValueError(
                    f"tolerance_profile {key} must be a positive finite number, got {value!r}"
                )
        profile = ToleranceProfile(**profile_value)
    else:
        profile = ToleranceProfile.named(str(profile_value))

    return RunConfig(
        subcommand=args.subcommand,
        window=window,
        output_format=fmt,
        output_path=merged["out"],
        profile=profile,
        state_spec=merged["state"],
        phi0=float(merged["phi0"]),
        operator_name=merged["operator"],
    )


def _run_check(config: RunConfig) -> tuple[str, int]:
    reports = run_checks(config.window, config.profile)
    failed = [r for r in reports if not r.passed]
    if config.output_format == "json":
        payload = dump_json([report_to_json_dict(r) for r in reports])
    else:
        payload = _csv_text(
            ["check_id", "lo", "hi", "boundary", "wrap_phase",
             "max_deviation", "tolerance", "passed", "notes"],
            ([r.check_id, r.window.lo, r.window.hi, r.window.boundary.value,
              r.window.wrap_phase, r.max_deviation, r.tolerance,
              "true" if r.passed else "false", r.notes] for r in reports),
        )
    if failed:
        print(f"{len(failed)} check(s) failed: "
              f"{', '.join(r.check_id for r in failed)}", file=sys.stderr)
    return payload, 1 if failed else 0


def _run_spectrum(config: RunConfig) -> tuple[str, int]:
    operator = build_susskind_glogower(config.window)
    pairs = eigen_decompose_sg(operator)
    rows = [(k, _eigenphase(value, config.window), value.real, value.imag)
            for k, (value, _vec) in enumerate(pairs)]
    if config.output_format == "json":
        payload = dump_json({
            "window": window_to_json_dict(config.window),
            "eigenvalues": [
                {"k": k, "phase": round_sig(p), "re": round_sig(re), "im": round_sig(im)}
                for k, p, re, im in rows
            ],
        })
    else:
        payload = _csv_text(["k", "phase", "re", "im"], rows)
    return payload, 0


def _run_phasedist(config: RunConfig) -> tuple[str, int]:
    if not config.state_spec:
        raise ValueError("phasedist requires --state")
    state = parse_state_spec(config.state_spec, config.window)
    grid = phase_grid(config.window, config.phi0)
    dist = phase_distribution(state, grid)
    if config.output_format == "json":
        payload = dump_json(distribution_to_json_dict(dist))
    else:
        payload = distribution_to_csv(dist)
    return payload, 0


def _run_operators(config: RunConfig) -> tuple[str, int]:
    if not config.operator_name:
        raise ValueError("operators requires --operator NAME")
    try:
        builder = OPERATOR_BUILDERS[config.operator_name]
    except KeyError:
        raise ValueError(
            f"unknown operator {config.operator_name!r}; available: "
            f"{', '.join(sorted(OPERATOR_BUILDERS))}"
        ) from None
    if config.output_format != "json":
        raise ValueError("the operator dump is JSON only; use --format json")
    return dump_json(operator_to_json_dict(builder(config.window))), 0


_RUNNERS = {
    "check": _run_check,
    "spectrum": _run_spectrum,
    "phasedist": _run_phasedist,
    "operators": _run_operators,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        payload, exit_code = _RUNNERS[config.subcommand](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {config.output_path}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
