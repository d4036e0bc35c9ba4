"""Seeded argv generators for the benchmark workloads, and their self-check.

A workload is an endless stream of *rounds*. A round is a short list of
calls whose mix of costly and cheap cases is fixed (one symmetric and one
asymmetric window on ``suite``, the 7/7/4/2 state mix on ``scan``, every
operator with both boundaries on ``dump``), so a run that stops at a round
boundary always holds the stated mix. Everything else in a call
(boundary, wrap phase, state parameters, output format, order within the
round) is drawn from the seeded generator.

``validate`` re-reads each argv with its own grammar, written from the
README and independent of phaselab's parser, and confirms it is expected
to exit 0 and that it says what the call's ``spec`` (the values the
oracles check against) says. A generator bug therefore stops the run
instead of passing for a program failure.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Operator names from the README, in its order. The dump oracle has a
# closed form for each, so the list is the benchmark's own.
OPERATOR_NAMES = (
    "identity", "helicity", "a_plus", "a_plus_dagger", "a_minus",
    "a_minus_dagger", "a_v", "a_m", "number_label", "number_photon",
    "number_literal", "susskind_glogower", "cosine", "sine",
    "polarization_swap",
)


# Window dimension D of each workload
SUITE_D = 512
SPECTRUM_D = 384
SCAN_D = 2048
DUMP_D = 2048

# Lower edges of the asymmetric suite windows: every lo with hi = lo + D - 1
# still straddling the seam, except the symmetric one.
_ASYMMETRIC_LO = [lo for lo in range(-(SUITE_D - 1), 0) if lo != -(SUITE_D // 2)]


# phaselab's default bound on the coherent-state weight a window may cut off
TAIL_THRESHOLD = 1e-8


class GeneratorError(Exception):
    """A generated argv is outside the grammar or does not match its spec."""


@dataclass
class Call:
    """One CLI invocation: argv without ``--out``, and the values it encodes."""

    argv: list[str]
    spec: dict


@dataclass(frozen=True)
class Workload:
    name: str
    dimension: int
    make_round: object  # (random.Random) -> list[Call]


def _angle(rng: random.Random) -> str:
    """A wrap phase or grid offset in [0.01, 2 pi - 0.01], as decimal text.

    Staying clear of 0 and 2 pi keeps every eigenphase away from the point
    where the spectrum output folds 2 pi back to 0.
    """
    return f"{rng.uniform(0.01, TWO_PI - 0.01):.6f}"


def _window_spec(lo: int, hi: int, boundary: str, wrap: str, fmt: str) -> dict:
    return {"lo": lo, "hi": hi, "boundary": boundary, "wrap": float(wrap),
            "format": fmt}


def _suite_call(rng: random.Random, symmetric: bool) -> Call:
    d = SUITE_D
    if symmetric:
        n_max = d // 2 - 1
        lo, hi = -(n_max + 1), n_max
        window = ["--n-max", str(n_max)]
    else:
        lo = rng.choice(_ASYMMETRIC_LO)
        hi = lo + d - 1
        window = ["--lo", str(lo), "--hi", str(hi)]
    boundary = rng.choice(["open", "cyclic"])
    wrap = _angle(rng)
    fmt = rng.choice(["csv", "json"])
    argv = ["check", *window, "--boundary", boundary, "--wrap-phase", wrap,
            "--format", fmt]
    return Call(argv, _window_spec(lo, hi, boundary, wrap, fmt))


def _suite_round(rng: random.Random) -> list[Call]:
    calls = [_suite_call(rng, True), _suite_call(rng, False)]
    rng.shuffle(calls)
    return calls


def _spectrum_round(rng: random.Random) -> list[Call]:
    n_max = SPECTRUM_D // 2 - 1
    wrap = _angle(rng)
    fmt = rng.choice(["csv", "json"])
    argv = ["spectrum", "--n-max", str(n_max), "--boundary", "cyclic",
            "--wrap-phase", wrap, "--format", fmt]
    return [Call(argv, _window_spec(-(n_max + 1), n_max, "cyclic", wrap, fmt))]


def complex_text(re_part: float, im_part: float) -> str:
    """``a+bi`` / ``a-bi``: a negative imaginary part is written with a
    single minus sign, because ``a+-bi`` is not in the grammar."""
    sign = "-" if im_part < 0 else "+"
    return f"{re_part:.4f}{sign}{abs(im_part):.4f}i"


def _scan_state(rng: random.Random, kind: str, lo: int, hi: int):
    """(state text, state spec) for one state kind of the scan mix."""
    if kind in ("upper", "lower"):
        radius = rng.uniform(0.0, 3.999)
        theta = rng.uniform(0.0, TWO_PI)
        text = complex_text(radius * math.cos(theta), radius * math.sin(theta))
        return f"coherent:{kind},alpha={text}", ("coherent", kind, parse_alpha(text))
    if kind == "fock":
        n = rng.randint(lo, hi)
        return f"fock:{n}", ("fock", n)
    return "vacuum:sym", ("vacuum",)


# 35 % / 35 % / 20 % / 10 % of a 20-call round
_SCAN_MIX = ["upper"] * 7 + ["lower"] * 7 + ["fock"] * 4 + ["vacuum"] * 2


def _scan_round(rng: random.Random) -> list[Call]:
    n_max = SCAN_D // 2 - 1
    lo, hi = -(n_max + 1), n_max
    kinds = list(_SCAN_MIX)
    rng.shuffle(kinds)
    calls = []
    for kind in kinds:
        state_text, state = _scan_state(rng, kind, lo, hi)
        phi0 = _angle(rng)
        fmt = rng.choice(["csv", "json"])
        argv = ["phasedist", "--n-max", str(n_max), "--state", state_text,
                "--phi0", phi0, "--format", fmt]
        spec = _window_spec(lo, hi, "cyclic", "0", fmt)
        spec.update(state=state, phi0=float(phi0))
        calls.append(Call(argv, spec))
    return calls


def _dump_round(rng: random.Random) -> list[Call]:
    n_max = DUMP_D // 2 - 1
    lo, hi = -(n_max + 1), n_max
    pairs = [(name, b) for name in OPERATOR_NAMES for b in ("open", "cyclic")]
    rng.shuffle(pairs)
    calls = []
    for name, boundary in pairs:
        wrap = _angle(rng)
        argv = ["operators", "--n-max", str(n_max), "--operator", name,
                "--boundary", boundary, "--wrap-phase", wrap, "--format", "json"]
        spec = _window_spec(lo, hi, boundary, wrap, "json")
        spec["operator"] = name
        calls.append(Call(argv, spec))
    return calls


WORKLOADS = {
    w.name: w for w in (
        Workload("suite", SUITE_D, _suite_round),
        Workload("spectrum", SPECTRUM_D, _spectrum_round),
        Workload("scan", SCAN_D, _scan_round),
        Workload("dump", DUMP_D, _dump_round),
    )
}


def calls(workload: str, seed: int):
    """Endless stream of rounds (lists of calls) for a workload and seed."""
    rng = random.Random(seed)
    make_round = WORKLOADS[workload].make_round
    while True:
        yield make_round(rng)


# ---- self-check: the README grammar, read independently ------------------

_INT = re.compile(r"^-?\d+$")
_REAL = re.compile(r"^-?\d+(\.\d+)?$")
_ALPHA = re.compile(r"^([+-]?\d+(?:\.\d+)?)([+-])(\d+(?:\.\d+)?)i$")
_FLAGS = {
    "check": {"--n-max", "--lo", "--hi", "--boundary", "--wrap-phase", "--format"},
    "spectrum": {"--n-max", "--lo", "--hi", "--boundary", "--wrap-phase", "--format"},
    "phasedist": {"--n-max", "--lo", "--hi", "--boundary", "--wrap-phase", "--format",
                  "--state", "--phi0"},
    "operators": {"--n-max", "--lo", "--hi", "--boundary", "--wrap-phase", "--format",
                  "--operator"},
}


def parse_alpha(text: str) -> complex:
    """Value of an ``a+bi`` / ``a-bi`` literal; GeneratorError otherwise."""
    m = _ALPHA.match(text)
    if not m:
        raise GeneratorError(f"complex literal {text!r} is outside the grammar")
    re_part, sign, im_part = m.groups()
    return complex(float(re_part), float(im_part) * (-1.0 if sign == "-" else 1.0))


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise GeneratorError(message)


def validate(call: Call) -> None:
    """Raise GeneratorError unless ``call.argv`` is valid, is expected to
    exit 0, and encodes exactly ``call.spec``."""
    argv, spec = call.argv, call.spec
    _need(bool(argv) and argv[0] in _FLAGS, f"unknown subcommand in {argv}")
    sub, rest = argv[0], argv[1:]
    _need(len(rest) % 2 == 0, f"flag without value in {argv}")
    flags = dict(zip(rest[::2], rest[1::2]))
    _need(len(flags) == len(rest) // 2, f"repeated flag in {argv}")
    _need(set(flags) <= _FLAGS[sub], f"flag not valid for {sub}: {argv}")

    if "--n-max" in flags:
        _need("--lo" not in flags and "--hi" not in flags, f"mixed window flags: {argv}")
        _need(bool(_INT.match(flags["--n-max"])) and int(flags["--n-max"]) >= 0,
              f"bad --n-max in {argv}")
        n_max = int(flags["--n-max"])
        lo, hi = -(n_max + 1), n_max
    else:
        _need(_INT.match(flags.get("--lo", "")) and _INT.match(flags.get("--hi", "")),
              f"window needs --n-max or integer --lo/--hi: {argv}")
        lo, hi = int(flags["--lo"]), int(flags["--hi"])
    _need(lo <= -1 and hi >= 0, f"window [{lo}, {hi}] misses the vacuum seam")
    boundary = flags.get("--boundary", "cyclic")
    _need(boundary in ("open", "cyclic"), f"bad boundary in {argv}")
    wrap_text = flags.get("--wrap-phase", "0")
    _need(bool(_REAL.match(wrap_text)), f"bad --wrap-phase in {argv}")
    fmt = flags.get("--format", "json")
    _need(fmt in ("csv", "json"), f"bad --format in {argv}")
    _need((lo, hi, boundary, float(wrap_text), fmt)
          == (spec["lo"], spec["hi"], spec["boundary"], spec["wrap"], spec["format"]),
          f"argv {argv} does not match spec {spec}")

    if sub == "spectrum":
        _need(boundary == "cyclic", "spectrum needs a cyclic window")
    elif sub == "phasedist":
        _need(bool(_REAL.match(flags.get("--phi0", ""))), f"bad --phi0 in {argv}")
        _need(float(flags["--phi0"]) == spec["phi0"], f"phi0 mismatch in {argv}")
        _need(_parse_state(flags.get("--state", ""), lo, hi) == spec["state"],
              f"state {flags.get('--state')!r} does not match {spec['state']}")
    elif sub == "operators":
        name = flags.get("--operator")
        _need(name in OPERATOR_NAMES and name == spec["operator"],
              f"bad --operator in {argv}")
        _need(fmt == "json", "the operator dump is JSON only")
        _need(name != "polarization_swap" or lo == -(hi + 1),
              "polarization_swap needs a symmetric window")


def _parse_state(text: str, lo: int, hi: int):
    kind, _, rest = text.partition(":")
    if kind == "fock":
        _need(bool(_INT.match(rest)), f"bad fock label in {text!r}")
        _need(lo <= int(rest) <= hi, f"fock label {rest} outside [{lo}, {hi}]")
        return ("fock", int(rest))
    if kind == "vacuum":
        _need(rest == "sym", f"bad vacuum spec {text!r}")
        return ("vacuum",)
    _need(kind == "coherent", f"unknown state kind in {text!r}")
    branch, _, assignment = rest.partition(",")
    _need(branch in ("upper", "lower"), f"bad branch in {text!r}")
    key, _, value = assignment.partition("=")
    _need(key == "alpha", f"coherent state needs alpha= in {text!r}")
    alpha = parse_alpha(value)
    _need(abs(alpha) <= 4.0, f"|alpha| > 4 in {text!r}")
    photons = hi if branch == "upper" else -lo - 1
    _need(_poisson_tail(abs(alpha) ** 2, photons) <= TAIL_THRESHOLD,
          f"window [{lo}, {hi}] truncates {text!r} beyond the tail threshold")
    return ("coherent", branch, alpha)


def _poisson_tail(mean: float, cap: int) -> float:
    """Weight of a coherent state with |alpha|^2 = mean beyond cap photons."""
    if mean == 0.0:
        return 0.0
    kept = sum(math.exp(-mean + m * math.log(mean) - math.lgamma(m + 1))
               for m in range(min(cap, 4000) + 1))
    return max(1.0 - kept, 0.0)
