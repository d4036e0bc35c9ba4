"""Independent brute-force references used by the test suite.

Everything here is computed from first principles with explicit sums and
plain loops, deliberately avoiding the package's vectorized construction
paths. Tests compare the two independent routes to the same numbers, so
no reference here imports from phaselab; only from_dense, which hands a
dense test matrix to the package's operator type, and dense_eigenpairs,
which sorts and wraps its output as the package does, do.
"""

import cmath
import csv
import io
import json
import math

import numpy as np


def coherent_amplitudes(alpha, m_max):
    """Coherent amplitudes e^{-|a|^2/2} a^m / sqrt(m!) for m = 0..m_max,
    each from its own closed form in log space (math.lgamma for log m!),
    so a large |a| does not underflow the e^{-|a|^2/2} prefactor."""
    if alpha == 0:
        return np.array([1.0] + [0.0] * m_max, dtype=complex)
    r, theta = abs(alpha), cmath.phase(alpha)
    amps = []
    for m in range(m_max + 1):
        log_mag = -r * r / 2.0 + m * math.log(r) - 0.5 * math.lgamma(m + 1)
        amps.append(math.exp(log_mag) * cmath.exp(1j * m * theta))
    return np.array(amps, dtype=complex)


def doubled_overlap(labels, amplitudes, phi):
    """<phi|psi> up to the 1/sqrt(D) grid normalization: the direct sum
    over basis labels n of c_n e^{-i(n+1/2)phi}."""
    total = 0j
    for n, c in zip(labels, amplitudes):
        total += c * cmath.exp(-1j * (n + 0.5) * phi)
    return total


def single_mode_overlap(amplitudes, phi):
    """Same direct sum for a nonnegative-index single-mode state."""
    total = 0j
    for n, c in enumerate(amplitudes):
        total += c * cmath.exp(-1j * n * phi)
    return total


def dense_phase_bras(labels, points):
    """The dense overlap matrix of a phase grid: row k is the bra
    e^{-i labels phi_k} / sqrt(D), so |bras @ psi|^2 is the Born rule."""
    return np.exp(-1j * np.outer(points, labels)) / math.sqrt(len(labels))


def dense_c08_deviation(e_entries, labels, phi0, cyclic):
    """The phase-grid identities by three dense D x D x D products over
    the grid phi0 + 2 pi k / D: max |B K - I|, |K B - I| and
    |E K - K Lambda|, the last without its top edge row in open mode."""
    d = len(labels)
    points = np.array([phi0 + 2.0 * math.pi * k / d for k in range(d)])
    bras = dense_phase_bras(labels, points)
    kets = bras.conj().T
    ident = np.eye(d)
    residual = e_entries @ kets - kets * np.exp(1j * points)[np.newaxis, :]
    if not cyclic:
        residual[-1, :] = 0.0
    return max(float(np.max(np.abs(m))) for m in (bras @ kets - ident, kets @ bras - ident, residual))


def dense_eigenpairs(op):
    """Eigenpairs of a cyclic ladder by LAPACK eig on its dense matrix,
    sorted by phase angle in [0, 2 pi), eigenvectors unit-norm with the
    amplitude at label 0 made real positive."""
    from phaselab.fockspace import StateVector
    from phaselab.phase import _eigenphase

    values, vectors = np.linalg.eig(op.to_dense())
    order = np.argsort([_eigenphase(value, op.window) for value in values])

    pos0 = op.window.position(0)
    pairs = []
    for k in order:
        vec = vectors[:, k]
        vec = vec / np.linalg.norm(vec)
        anchor = vec[pos0]
        if abs(anchor) > 1e-14:
            vec = vec * (anchor.conjugate() / abs(anchor))
        pairs.append((complex(values[k]), StateVector(op.window, vec)))
    return pairs


def circular_mean_variance(angles, weights):
    """Resultant-vector circular statistics by direct summation."""
    resultant = 0j
    for phi, w in zip(angles, weights):
        resultant += w * cmath.exp(1j * phi)
    return cmath.phase(resultant), 1.0 - abs(resultant)


def doubled_distribution(labels, amplitudes, d, phi0=0.0, resolution=1):
    """Phase distribution by direct summation on a grid of d*resolution
    points. resolution > 1 evaluates between the canonical grid points;
    the weights are rescaled so they still sum to ~1."""
    m = d * resolution
    angles = [phi0 + 2.0 * math.pi * k / m for k in range(m)]
    weights = [abs(doubled_overlap(labels, amplitudes, phi)) ** 2 / m for phi in angles]
    return np.array(angles), np.array(weights)


def single_mode_distribution(amplitudes, d, phi0=0.0):
    """Truncated-space single-mode phase distribution on its own d-point
    grid (d must equal the state dimension for exact normalization)."""
    angles = [phi0 + 2.0 * math.pi * k / d for k in range(d)]
    weights = [abs(single_mode_overlap(amplitudes, phi)) ** 2 / d for phi in angles]
    return np.array(angles), np.array(weights)


def brute_single_mode_cs_commutator(n_max):
    """[C, S] for the single-mode exponential phase operator, built with
    explicit loops including the matrix products."""
    dim = n_max + 1
    e = [[0j] * dim for _ in range(dim)]
    for n in range(1, dim):
        e[n - 1][n] = 1.0 + 0j
    edag = [[e[j][i].conjugate() for j in range(dim)] for i in range(dim)]
    c = [[(e[i][j] + edag[i][j]) / 2.0 for j in range(dim)] for i in range(dim)]
    s = [[(e[i][j] - edag[i][j]) / 2j for j in range(dim)] for i in range(dim)]

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]

    cs = matmul(c, s)
    sc = matmul(s, c)
    return np.array([[cs[i][j] - sc[i][j] for j in range(dim)] for i in range(dim)])


def forward_difference(values, step, antiperiodic=True):
    """One-sided difference (h_{j+1} - h_j)/step with anti-periodic wrap,
    matching the 2pi anti-periodicity of half-integer phase amplitudes."""
    n = len(values)
    out = np.empty(n, dtype=complex)
    for j in range(n):
        nxt = -values[0] if (j == n - 1 and antiperiodic) else values[(j + 1) % n]
        out[j] = (nxt - values[j]) / step
    return out


def doubled_operator_entries(name, lo, hi, cyclic, wrap_phase):
    """Closed-form nonzero entries {(row_label, col_label): value} of the
    named doubled-space operator on the window [lo, hi], one explicit loop
    per operator. cyclic closes the two lowering chains (a_m and E) with
    the phased wrap element; every other operator ignores it."""
    entries = {}
    if name == "identity":
        for n in range(lo, hi + 1):
            entries[(n, n)] = 1.0
    elif name == "helicity":
        for n in range(lo, hi + 1):
            entries[(n, n)] = 1.0 if n >= 0 else -1.0
    elif name == "a_plus":
        for n in range(1, hi + 1):
            entries[(n - 1, n)] = math.sqrt(n)
    elif name == "a_plus_dagger":
        for n in range(0, hi):
            entries[(n + 1, n)] = math.sqrt(n + 1)
    elif name == "a_minus":
        for n in range(lo + 1, 0):
            entries[(n - 1, n)] = math.sqrt(-n)
    elif name == "a_minus_dagger":
        for n in range(lo, -1):
            entries[(n + 1, n)] = math.sqrt(-(n + 1))
    elif name == "a_v":
        entries[(-1, 0)] = 1.0
    elif name == "a_m":
        for n in range(lo + 1, hi + 1):
            entries[(n - 1, n)] = 1.0 if n == 0 else math.sqrt(abs(n))
        if cyclic:
            entries[(hi, lo)] = math.sqrt(-lo) * cmath.exp(1j * wrap_phase)
    elif name.startswith("number_"):
        for n in range(lo, hi + 1):
            if name == "number_label":
                value = n
            elif name == "number_photon":
                value = n if n >= 0 else -(n + 1)
            else:
                value = n if n >= 0 else abs(n + 1) - 1
            if value:
                entries[(n, n)] = float(value)
    elif name == "susskind_glogower":
        for n in range(lo + 1, hi + 1):
            entries[(n - 1, n)] = 1.0
        if cyclic:
            entries[(hi, lo)] = cmath.exp(1j * wrap_phase)
    elif name in ("cosine", "sine"):
        # C = (E + E^dag)/2 and S = (E - E^dag)/(2i), entry by entry
        sign = 1.0 if name == "cosine" else -1.0
        scale = 2.0 if name == "cosine" else 2j
        for (row, col), value in doubled_operator_entries(
            "susskind_glogower", lo, hi, cyclic, wrap_phase
        ).items():
            entries[(row, col)] = entries.get((row, col), 0j) + value / scale
            entries[(col, row)] = (
                entries.get((col, row), 0j) + sign * complex(value).conjugate() / scale
            )
    elif name == "polarization_swap":
        for n in range(lo, hi + 1):
            entries[(-(n + 1), n)] = 1.0
    else:
        raise KeyError(name)
    return {key: value for key, value in entries.items() if value != 0}


def single_mode_shift_entries(s, wrap=None):
    """Closed-form nonzeros {(row, col): value} of the unit lowering chain
    on 0..s, plus the wrap element (s, 0) when given (Pegg-Barnett)."""
    entries = {}
    for n in range(1, s + 1):
        entries[(n - 1, n)] = 1.0
    if wrap is not None:
        entries[(s, 0)] = wrap
    return entries


def from_dense(window, m):
    """A dense D x D matrix as a phaselab OperatorMatrix: one rotation term
    (False, k, weights) per wrapped diagonal k that holds a nonzero, row i
    reading column (i + k) mod D."""
    from phaselab.operators import OperatorMatrix

    m = np.asarray(m)
    d = m.shape[0]
    rows = np.arange(d)
    terms = []
    for k in range(d):
        weights = m[rows, (rows + k) % d]
        if np.any(weights != 0):
            terms.append((False, k, weights))
    return OperatorMatrix(window, terms)


def reference_coalesced(d, terms):
    """(rows, cols, values) of terms (reflect, offset, w) over D positions,
    sorted by (row, col): each term's columns as an explicit index array,
    a stable argsort over the keys row * D + col, and np.add.reduceat over
    the runs of equal keys, so the weights at one position add in term
    order."""
    if not terms:
        return np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, complex)
    rows = np.arange(d)
    cols = [(offset - rows if reflect else offset + rows) % d for reflect, offset, _ in terms]
    keys = (rows[:, np.newaxis] * d + np.stack(cols, 1)).ravel()
    values = np.stack([w for _, _, w in terms], 1).ravel()
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    keys = keys[starts]
    return keys // d, keys % d, np.add.reduceat(values, starts)


def _rounded(value):
    """Copy of a JSON payload with every float rounded to 12 significant
    digits through decimal text."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def reference_json_text(payload):
    """The JSON writer by definition: json.dumps(indent=2) over a rounded
    copy of the payload, plus one newline."""
    return json.dumps(_rounded(payload), indent=2) + "\n"


def reference_csv_text(header, rows):
    """The CSV writer by definition: csv.writer over every row, floats
    formatted at 12 significant digits and other values left to csv."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()
