"""Command-line entry point.

Subcommands: check (identity suite), spectrum (eigenvalues of the cyclic
phase ladder), phasedist (phase distribution of a state), operators
(nonzero-entry dump of a named builder). Only data goes to stdout or the
output file; diagnostics go to stderr.

Exit codes: 0 success (for check: all checks passed), 1 one or more
checks failed, 2 invalid configuration, 3 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .fockspace import Boundary, Window, parse_state_spec
from .formats import csv_text, json_text, window_to_json_dict
from .operators import OPERATOR_BUILDERS, operator_to_json_dict
from .phase import (
    _eigenphase,
    distribution_to_csv,
    distribution_to_json_dict,
    eigenvalues_sg,
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so that main prints it on one
    stderr line and returns 2 like any other invalid configuration."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _finite(value, what: str, positive: bool = False) -> float:
    """value as a finite float, and a positive one if asked. A bool, a
    non-number, or an int past the float range is refused with exit 2."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if not math.isfinite(number) or (positive and number <= 0.0):
        kind = "positive finite" if positive else "finite"
        raise ValueError(f"{what} must be a {kind} number, got {value!r}")
    return number


def _resolve_config(args: argparse.Namespace) -> tuple[Window, dict]:
    """The window, and every other setting checked under its config-file
    name; tolerance_profile holds the resolved ToleranceProfile."""
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
    flags = {k: v for k, v in vars(args).items() if k in _DEFAULTS and v is not None}
    # a window given by flags replaces the file's: --n-max drops its lo and hi, --lo/--hi its n_max
    if "n_max" in flags:
        merged.update(lo=None, hi=None)
    if "lo" in flags or "hi" in flags:
        merged["n_max"] = None
    merged.update(flags)

    for key in ("n_max", "lo", "hi"):
        value = merged[key]
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    for key in ("wrap_phase", "phi0"):
        merged[key] = _finite(merged[key], key)
    for key in ("out", "state", "operator"):
        value = merged[key]
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")

    if merged["n_max"] is not None:
        if merged["lo"] is not None or merged["hi"] is not None:
            raise ValueError("give either --n-max or --lo/--hi, not both")
        window = Window.symmetric(merged["n_max"], Boundary(merged["boundary"]),
                                  merged["wrap_phase"])
    elif merged["lo"] is not None and merged["hi"] is not None:
        window = Window(merged["lo"], merged["hi"], Boundary(merged["boundary"]),
                        merged["wrap_phase"])
    else:
        raise ValueError("a window is required: --n-max N or both --lo and --hi")

    if merged["format"] not in ("csv", "json"):
        raise ValueError(f"unknown output format {merged['format']!r}")

    profile_value = merged["tolerance_profile"]
    if isinstance(profile_value, dict):
        unknown = set(profile_value) - {f.name for f in fields(ToleranceProfile)}
        if unknown:
            raise ValueError(f"unknown tolerance_profile keys: {sorted(unknown)}")
        merged["tolerance_profile"] = ToleranceProfile(**{
            key: _finite(value, f"tolerance_profile {key}", positive=True)
            for key, value in profile_value.items()
        })
    else:
        merged["tolerance_profile"] = ToleranceProfile.named(str(profile_value))
    return window, merged


def _run_check(window: Window, config: dict) -> tuple[str, int]:
    reports = run_checks(window, config["tolerance_profile"])
    failed = [r for r in reports if not r.passed]
    if config["format"] == "json":
        payload = json_text([report_to_json_dict(r) for r in reports])
    else:
        payload = csv_text(
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


def _run_spectrum(window: Window, config: dict) -> tuple[str, int]:
    values = eigenvalues_sg(window)
    header = ["k", "phase", "re", "im"]
    rows = zip(range(len(values)), _eigenphase(values, window).tolist(),
               values.real.tolist(), values.imag.tolist())
    if config["format"] == "json":
        payload = json_text({
            "window": window_to_json_dict(window),
            "eigenvalues": [dict(zip(header, row)) for row in rows],
        })
    else:
        payload = csv_text(header, rows)
    return payload, 0


def _run_phasedist(window: Window, config: dict) -> tuple[str, int]:
    if not config["state"]:
        raise ValueError("phasedist requires --state")
    state = parse_state_spec(config["state"], window)
    dist = phase_distribution(state, phase_grid(window, config["phi0"]))
    if config["format"] == "json":
        payload = json_text(distribution_to_json_dict(dist))
    else:
        payload = distribution_to_csv(dist)
    return payload, 0


def _run_operators(window: Window, config: dict) -> tuple[str, int]:
    name = config["operator"]
    if not name:
        raise ValueError("operators requires --operator NAME")
    try:
        builder = OPERATOR_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown operator {name!r}; available: "
            f"{', '.join(sorted(OPERATOR_BUILDERS))}"
        ) from None
    if config["format"] != "json":
        raise ValueError("the operator dump is JSON only; use --format json")
    return json_text(operator_to_json_dict(builder(window), name)), 0


_RUNNERS = {
    "check": _run_check,
    "spectrum": _run_spectrum,
    "phasedist": _run_phasedist,
    "operators": _run_operators,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        window, config = _resolve_config(args)
        payload, exit_code = _RUNNERS[args.subcommand](window, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"not enough memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    if config["out"]:
        try:
            with open(config["out"], "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {config['out']}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
