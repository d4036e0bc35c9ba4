"""Output oracles: each recomputes the expected result from the call's spec
by its own route (closed forms, an FFT, plain parsing) and never calls
phaselab. ``check(spec, text)`` returns None when the output is right and
a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Outputs carry 12 significant digits, so every value read back differs
# from the exact one by at most a few parts in 1e12 of its size.
PHASE_TOL = 1e-9
PROBABILITY_TOL = 1e-10
ENTRY_RTOL = 1e-11


def _window_reason(window: dict, spec: dict) -> str | None:
    got = (window["lo"], window["hi"], window["boundary"])
    want = (spec["lo"], spec["hi"], spec["boundary"])
    if got != want:
        return f"window {got} != {want}"
    # the wrap phase is written to 12 significant digits
    if abs(window["wrap_phase"] - spec["wrap"]) > 1e-11 * abs(spec["wrap"]):
        return f"wrap phase {window['wrap_phase']!r} != {spec['wrap']!r}"
    return None


# ---- suite: check ----------------------------------------------------------

CHECK_IDS = [f"C{i:02d}" for i in range(1, 13)]
_CHECK_CSV_HEADER = ["check_id", "lo", "hi", "boundary", "wrap_phase",
                     "max_deviation", "tolerance", "passed", "notes"]


def check_suite(spec: dict, text: str) -> str | None:
    """Twelve records C01..C12 on the call's window, every one passed with
    its deviation within its tolerance."""
    if spec["format"] == "json":
        records = [
            (r["check_id"], r["window"], r["max_deviation"], r["tolerance"], r["passed"])
            for r in json.loads(text)
        ]
    else:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != _CHECK_CSV_HEADER:
            return "bad CSV header"
        records = [
            (r[0], {"lo": int(r[1]), "hi": int(r[2]), "boundary": r[3],
                    "wrap_phase": float(r[4])},
             float(r[5]), float(r[6]), {"true": True, "false": False}.get(r[7]))
            for r in rows[1:]
        ]
    if [r[0] for r in records] != CHECK_IDS:
        return f"check ids {[r[0] for r in records]}"
    for check_id, window, deviation, tolerance, passed in records:
        reason = _window_reason(window, spec)
        if reason:
            return f"{check_id}: {reason}"
        if passed is not True:
            return f"{check_id} not passed"
        if not deviation <= tolerance:
            return f"{check_id} deviation {deviation} > tolerance {tolerance}"
    return None


# ---- spectrum --------------------------------------------------------------

def expected_eigenphases(d: int, wrap: float) -> list[float]:
    """The cyclic ladder's eigenphases (wrap + 2 pi k)/D mod 2 pi, sorted."""
    return sorted(((wrap + TWO_PI * k) / d) % TWO_PI for k in range(d))


def _circular_gap(a: float, b: float) -> float:
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


def check_spectrum(spec: dict, text: str) -> str | None:
    """D rows k = 0..D-1 at the expected eigenphases, each eigenvalue on
    the unit circle at its stated phase."""
    if spec["format"] == "json":
        payload = json.loads(text)
        reason = _window_reason(payload["window"], spec)
        if reason:
            return reason
        rows = [(e["k"], e["phase"], e["re"], e["im"]) for e in payload["eigenvalues"]]
    else:
        lines = text.splitlines()
        if not lines or lines[0] != "k,phase,re,im":
            return "bad CSV header"
        rows = []
        for line in lines[1:]:
            k, phase, re_part, im_part = line.split(",")
            rows.append((int(k), float(phase), float(re_part), float(im_part)))
    d = spec["hi"] - spec["lo"] + 1
    if len(rows) != d:
        return f"{len(rows)} eigenvalues, expected {d}"
    expected = expected_eigenphases(d, spec["wrap"])
    for index, ((k, phase, re_part, im_part), want) in enumerate(zip(rows, expected)):
        if k != index:
            return f"row {index} has k={k}"
        if _circular_gap(phase, want) > PHASE_TOL:
            return f"k={k}: phase {phase!r} != {want!r}"
        if abs(math.hypot(re_part, im_part) - 1.0) > PHASE_TOL:
            return f"k={k}: |lambda| = {math.hypot(re_part, im_part)!r}"
        if max(abs(re_part - math.cos(phase)), abs(im_part - math.sin(phase))) > PHASE_TOL:
            return f"k={k}: eigenvalue ({re_part}, {im_part}) not at phase {phase}"
    return None


# ---- scan: phasedist --------------------------------------------------------

def reference_amplitudes(spec: dict) -> np.ndarray:
    """State amplitudes over labels lo..hi, built from closed forms."""
    lo, hi = spec["lo"], spec["hi"]
    amps = np.zeros(hi - lo + 1, dtype=complex)
    state = spec["state"]
    if state[0] == "fock":
        amps[state[1] - lo] = 1.0
    elif state[0] == "vacuum":
        amps[0 - lo] = amps[-1 - lo] = math.sqrt(0.5)
    else:
        _, branch, alpha = state
        m_cap = hi if branch == "upper" else -lo - 1
        m = np.arange(m_cap + 1)
        if alpha == 0:
            weights = (m == 0).astype(complex)
        else:
            # log of |alpha|^m / sqrt(m!), then the phase e^{i m arg alpha}
            log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, m_cap + 1)))))
            log_mag = m * math.log(abs(alpha)) - 0.5 * log_fact
            weights = np.exp(log_mag - log_mag.max()) * np.exp(1j * m * np.angle(alpha))
        labels = m if branch == "upper" else -(m + 1)
        amps[labels - lo] = weights
        amps /= np.linalg.norm(amps)
    return amps


def reference_distribution(spec: dict) -> np.ndarray:
    """p_k = |FFT(c_j e^{-i j phi0})_k|^2 / D.

    With phase-state amplitudes e^{i(n+1/2)phi}/sqrt(D) and the grid
    phi_k = phi0 + 2 pi k/D, the overlap with label n = lo + j is this DFT
    times a unimodular factor that depends on k only.
    """
    amps = reference_amplitudes(spec)
    d = len(amps)
    shifted = amps * np.exp(-1j * np.arange(d) * spec["phi0"])
    return np.abs(np.fft.fft(shifted)) ** 2 / d


def check_scan(spec: dict, text: str) -> str | None:
    """D grid points phi0 + 2 pi k/D whose probabilities sum to 1 and match
    the FFT reference."""
    if spec["format"] == "json":
        payload = json.loads(text)
        reason = _window_reason(payload["window"], spec)
        if reason:
            return reason
        phi = np.array(payload["phi"], dtype=float)
        probs = np.array(payload["probabilities"], dtype=float)
    else:
        lines = text.splitlines()
        if not lines or lines[0] != "phi,probability":
            return "bad CSV header"
        values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        phi, probs = values[:, 0], values[:, 1]
    d = spec["hi"] - spec["lo"] + 1
    if phi.shape != (d,) or probs.shape != (d,):
        return f"{len(probs)} rows, expected {d}"
    grid_gap = np.max(np.abs(phi - (spec["phi0"] + TWO_PI * np.arange(d) / d)))
    if grid_gap > PHASE_TOL:
        return f"phase grid off by {grid_gap:.3e}"
    total = float(np.sum(probs))
    if abs(total - 1.0) > PROBABILITY_TOL:
        return f"probabilities sum to {total!r}"
    gap = float(np.max(np.abs(probs - reference_distribution(spec))))
    if gap > PROBABILITY_TOL:
        return f"probabilities differ from the FFT reference by {gap:.3e}"
    return None


# ---- dump: operators --------------------------------------------------------

def expected_entries(name: str, lo: int, hi: int, boundary: str,
                     wrap: float) -> list[tuple[int, int, complex]]:
    """Closed-form nonzero entries (row label, col label, value) of a named
    operator, sorted by (row, col)."""
    labels = range(lo, hi + 1)
    cyclic = boundary == "cyclic"
    phase = complex(math.cos(wrap), math.sin(wrap))

    def coefficient(n):  # n -> n-1 amplitude of the full lowering chain
        return math.sqrt(abs(n)) if n != 0 else 1.0

    def ladder(coef, wrap_value):  # (n-1, n) for n = lo+1..hi, plus the wrap
        out = [(n - 1, n, coef(n)) for n in range(lo + 1, hi + 1)]
        if cyclic:
            out.append((hi, lo, wrap_value))
        return out

    def diagonal(values):
        return [(n, n, complex(v)) for n, v in zip(labels, values) if v != 0]

    if name == "identity":
        entries = diagonal([1] * len(labels))
    elif name == "helicity":
        entries = diagonal([1 if n >= 0 else -1 for n in labels])
    elif name == "a_plus":
        entries = [(n - 1, n, math.sqrt(n)) for n in range(1, hi + 1)]
    elif name == "a_plus_dagger":
        entries = [(n + 1, n, math.sqrt(n + 1)) for n in range(0, hi)]
    elif name == "a_minus":
        entries = [(n - 1, n, math.sqrt(-n)) for n in range(lo + 1, 0)]
    elif name == "a_minus_dagger":
        entries = [(n + 1, n, math.sqrt(-(n + 1))) for n in range(lo, -1)]
    elif name == "a_v":
        entries = [(-1, 0, 1.0)]
    elif name == "a_m":
        entries = ladder(coefficient, math.sqrt(-lo) * phase)
    elif name == "number_label":
        entries = diagonal(list(labels))
    elif name == "number_photon":
        entries = diagonal([n if n >= 0 else -n - 1 for n in labels])
    elif name == "number_literal":
        entries = diagonal([n if n >= 0 else -n - 2 for n in labels])
    elif name == "susskind_glogower":
        entries = ladder(lambda n: 1.0, phase)
    elif name in ("cosine", "sine"):
        # (E + E^dag)/2 and (E - E^dag)/(2i)
        down = ladder(lambda n: 1.0, phase)
        scale_down, scale_up = (0.5, 0.5) if name == "cosine" else (-0.5j, 0.5j)
        entries = [(r, c, v * scale_down) for r, c, v in down]
        entries += [(c, r, complex(v).conjugate() * scale_up) for r, c, v in down]
    elif name == "polarization_swap":
        entries = [(-(n + 1), n, 1.0) for n in labels]
    else:
        raise KeyError(f"no closed form for operator {name!r}")
    return sorted((r, c, complex(v)) for r, c, v in entries)


def check_dump(spec: dict, text: str) -> str | None:
    """Exactly the closed-form nonzero entries, at 12 significant digits."""
    payload = json.loads(text)
    reason = _window_reason(payload["window"], spec)
    if reason:
        return reason
    want = expected_entries(spec["operator"], spec["lo"], spec["hi"],
                            spec["boundary"], spec["wrap"])
    got = payload["entries"]
    if len(got) != len(want):
        return f"{len(got)} entries, expected {len(want)}"
    for (row, col, re_part, im_part), (w_row, w_col, value) in zip(got, want):
        if (row, col) != (w_row, w_col):
            return f"entry at ({row}, {col}), expected ({w_row}, {w_col})"
        if abs(complex(re_part, im_part) - value) > ENTRY_RTOL * max(1.0, abs(value)):
            return f"entry ({row}, {col}) = {re_part}+{im_part}i, expected {value}"
    return None


ORACLES = {
    "suite": check_suite,
    "spectrum": check_spectrum,
    "scan": check_scan,
    "dump": check_dump,
}
