"""Memory guards: every builder, its dump as the CLI prints it, the phase
distribution's output, the spectrum's output and every check stay within
a budget linear in D, far below one D x D complex matrix (16 D^2 bytes)."""

import tracemalloc

import pytest

from phaselab import cli, verify
from phaselab.fockspace import Boundary, Window, parse_state_spec
from phaselab.formats import json_text
from phaselab.operators import OPERATOR_BUILDERS, operator_to_json_dict
from phaselab.phase import (
    distribution_to_csv,
    distribution_to_json_dict,
    phase_distribution,
    phase_grid,
)

# 64 columns' worth of complex entries
BUDGET_COLUMNS = 64


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("d", [4096, 65536])
def test_every_builder_and_its_dump_stay_linear_in_d(d, boundary):
    window = Window.symmetric(d // 2 - 1, boundary, 1.25)
    for name, builder in OPERATOR_BUILDERS.items():
        peak = traced_peak(lambda: json_text(operator_to_json_dict(builder(window), name)))
        assert peak < BUDGET_COLUMNS * 16 * d, name


@pytest.mark.parametrize("render", [distribution_to_csv,
                                    lambda dist: json_text(distribution_to_json_dict(dist))])
def test_the_phase_distribution_output_at_d_65536_stays_linear_in_d(render):
    window = Window.symmetric(32767, Boundary.CYCLIC)
    state = parse_state_spec("coherent:upper,alpha=2+1i", window)
    peak = traced_peak(lambda: render(phase_distribution(state, phase_grid(window, 0.3))))
    assert peak < BUDGET_COLUMNS * 16 * window.dimension


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("d", [4096, 16384])
def test_the_spectrum_output_stays_linear_in_d(d, fmt):
    window = Window.symmetric(d // 2 - 1, Boundary.CYCLIC, 1.25)
    peak = traced_peak(lambda: cli._run_spectrum(window, {"format": fmt}))
    assert peak < BUDGET_COLUMNS * 16 * d


@pytest.mark.parametrize("check", verify._REGISTRY, ids=verify.CHECK_IDS)
def test_every_check_at_d_65536_peaks_below_512_bytes_per_label(check):
    window = Window.symmetric(32767, Boundary.CYCLIC, 1.25)
    peak = traced_peak(lambda: check(window, verify.ToleranceProfile()))
    assert peak < 512 * window.dimension


def test_c11_at_d_65536_stays_linear_in_d():
    window = Window.symmetric(32767, Boundary.CYCLIC)
    reports = []
    peak = traced_peak(lambda: reports.append(verify._check_c11(window, verify.ToleranceProfile())))
    assert peak < BUDGET_COLUMNS * 16 * window.dimension
    assert reports[0].passed


@pytest.mark.parametrize("boundary", list(Boundary))
def test_c08_at_d_65536_stays_linear_in_d(boundary):
    window = Window.symmetric(32767, boundary, 1.25)
    reports = []
    peak = traced_peak(lambda: reports.append(verify._check_c08(window, verify.ToleranceProfile())))
    assert peak < BUDGET_COLUMNS * 16 * window.dimension
    assert reports[0].passed


@pytest.mark.parametrize("boundary", list(Boundary))
def test_c08_holds_at_most_two_d_by_d_matrices(boundary):
    window = Window.symmetric(255, boundary, 1.25)
    peak = traced_peak(lambda: verify._check_c08(window, verify.ToleranceProfile()))
    assert peak <= 2 * 16 * window.dimension ** 2 + 2 ** 20
