"""Tests of the benchmark itself: generator, oracles, span arithmetic and
the run's output contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from phaselab.cli import main as cli_main  # noqa: E402


def first_rounds(workload, seed, count=3):
    stream = workloads.calls(workload, seed)
    return [next(stream) for _ in range(count)]


def cli_output(tmp_path, argv):
    out = tmp_path / "out"
    assert cli_main([*argv, "--out", str(out)]) == 0
    return out.read_text()


# ---- generator ---------------------------------------------------------------

@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(workload):
    a = first_rounds(workload, 11)
    b = first_rounds(workload, 11)
    assert [[(c.argv, c.spec) for c in r] for r in a] == [[(c.argv, c.spec) for c in r] for r in b]
    c = first_rounds(workload, 12)
    assert [[x.argv for x in r] for r in a] != [[x.argv for x in r] for r in c]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_generated_call_passes_the_self_check(workload):
    for seed in range(3):
        for round_calls in first_rounds(workload, seed, 4):
            for call in round_calls:
                workloads.validate(call)


def test_rounds_hold_the_stated_mix():
    suite = first_rounds("suite", 3, 1)[0]
    assert sorted(c.spec["lo"] == -(c.spec["hi"] + 1) for c in suite) == [False, True]
    assert all(c.spec["hi"] - c.spec["lo"] == 511 for c in suite)
    scan = first_rounds("scan", 3, 1)[0]
    kinds = [c.spec["state"][1] if c.spec["state"][0] == "coherent" else c.spec["state"][0]
             for c in scan]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "upper": 7, "lower": 7, "fock": 4, "vacuum": 2}
    dump = first_rounds("dump", 3, 1)[0]
    assert sorted((c.spec["operator"], c.spec["boundary"]) for c in dump) == sorted(
        (name, b) for name in workloads.OPERATOR_NAMES for b in ("open", "cyclic"))


def test_negative_imaginary_part_is_written_with_one_sign():
    assert workloads.complex_text(1.5, -0.25) == "1.5000-0.2500i"
    assert workloads.parse_alpha("1.5000-0.2500i") == complex(1.5, -0.25)
    with pytest.raises(workloads.GeneratorError):
        workloads.parse_alpha("1.5000+-0.2500i")


def _scan_call(state_text, state):
    argv = ["phasedist", "--n-max", "15", "--state", state_text, "--phi0", "0.5",
            "--format", "json"]
    spec = {"lo": -16, "hi": 15, "boundary": "cyclic", "wrap": 0.0, "format": "json",
            "state": state, "phi0": 0.5}
    return workloads.Call(argv, spec)


@pytest.mark.parametrize("state_text, state", [
    ("coherent:upper,alpha=1+-2i", ("coherent", "upper", complex(1, -2))),
    ("fock:16", ("fock", 16)),
    ("fock:-17", ("fock", -17)),
    ("coherent:upper,alpha=3.5+0i", ("coherent", "upper", complex(3.5, 0))),
])
def test_self_check_rejects_argv_outside_the_grammar(state_text, state):
    with pytest.raises(workloads.GeneratorError):
        workloads.validate(_scan_call(state_text, state))


def test_self_check_rejects_argv_that_disagrees_with_its_spec():
    call = _scan_call("fock:2", ("fock", 2))
    workloads.validate(call)
    call.spec["state"] = ("fock", 1)
    with pytest.raises(workloads.GeneratorError):
        workloads.validate(call)


# ---- oracles -----------------------------------------------------------------

def test_scan_oracle_accepts_output_and_rejects_a_perturbed_probability(tmp_path):
    call = _scan_call("coherent:lower,alpha=0.7-1.1i", ("coherent", "lower", complex(0.7, -1.1)))
    text = cli_output(tmp_path, call.argv)
    assert oracle.check_scan(call.spec, text) is None
    payload = json.loads(text)
    payload["probabilities"][3] += 1e-6
    assert oracle.check_scan(call.spec, json.dumps(payload)) is not None


def test_scan_oracle_reads_csv(tmp_path):
    call = _scan_call("vacuum:sym", ("vacuum",))
    call.argv[-1] = call.spec["format"] = "csv"
    text = cli_output(tmp_path, call.argv)
    assert oracle.check_scan(call.spec, text) is None
    lines = text.splitlines()
    phi, p = lines[2].split(",")
    lines[2] = f"{phi},{float(p) + 1e-6!r}"
    assert oracle.check_scan(call.spec, "\n".join(lines) + "\n") is not None


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_oracle_rejects_an_eigenphase_moved_one_grid_step(tmp_path, fmt):
    d, wrap = 16, 1.25
    argv = ["spectrum", "--n-max", "7", "--wrap-phase", str(wrap), "--format", fmt]
    spec = {"lo": -8, "hi": 7, "boundary": "cyclic", "wrap": wrap, "format": fmt}
    text = cli_output(tmp_path, argv)
    assert oracle.check_spectrum(spec, text) is None
    step = 2 * math.pi / d
    if fmt == "json":
        payload = json.loads(text)
        payload["eigenvalues"][5]["phase"] += step
        moved = json.dumps(payload)
    else:
        lines = text.splitlines()
        k, phase, re_part, im_part = lines[6].split(",")
        lines[6] = f"{k},{float(phase) + step!r},{re_part},{im_part}"
        moved = "\n".join(lines) + "\n"
    assert oracle.check_spectrum(spec, moved) is not None


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_suite_oracle_rejects_a_check_flipped_to_failed(tmp_path, fmt):
    argv = ["check", "--lo", "-3", "--hi", "6", "--boundary", "open",
            "--wrap-phase", "1.25", "--format", fmt]
    spec = {"lo": -3, "hi": 6, "boundary": "open", "wrap": 1.25, "format": fmt}
    text = cli_output(tmp_path, argv)
    assert oracle.check_suite(spec, text) is None
    if fmt == "json":
        payload = json.loads(text)
        payload[7]["passed"] = False
        flipped = json.dumps(payload)
        payload[7]["passed"] = True
        payload[4]["window"]["wrap_phase"] = 1.5
        rewrapped = json.dumps(payload)
    else:
        flipped = text.replace(",true,", ",false,", 1)
        rewrapped = text.replace(",1.25,", ",1.5,", 1)
    assert rewrapped != text
    assert oracle.check_suite(spec, flipped) is not None
    assert oracle.check_suite(spec, rewrapped) is not None


@pytest.mark.parametrize("name", workloads.OPERATOR_NAMES)
@pytest.mark.parametrize("boundary", ["open", "cyclic"])
def test_dump_oracle_matches_every_operator_and_rejects_a_changed_entry(tmp_path, name, boundary):
    argv = ["operators", "--n-max", "4", "--operator", name, "--boundary", boundary,
            "--wrap-phase", "2.5", "--format", "json"]
    spec = {"lo": -5, "hi": 4, "boundary": boundary, "wrap": 2.5, "format": "json",
            "operator": name}
    text = cli_output(tmp_path, argv)
    assert oracle.check_dump(spec, text) is None
    payload = json.loads(text)
    payload["entries"][-1][2] += 1e-6
    assert oracle.check_dump(spec, json.dumps(payload)) is not None
    payload["entries"].pop()
    assert oracle.check_dump(spec, json.dumps(payload)) is not None


# ---- span arithmetic -----------------------------------------------------------

def test_self_time_subtracts_the_covered_part_of_child_spans():
    spans = [
        ["cli", 0.0, 10.0, -1],          # 0: root
        ["verify", 1.0, 6.0, 0],         # 1
        ["operators.arith", 2.0, 3.0, 1],    # 2
        ["operators.arith", 2.5, 4.0, 1],    # 3: overlaps 2, union 2.0..4.0
        ["operators.build", 5.5, 7.0, 1],    # 4: runs past its parent, clipped at 6.0
        ["formats", 7.0, 9.0, 0],        # 5
        ["formats", 7.5, 8.0, 5],        # 6: same group nested in itself
    ]
    self_s, total_s, calls = tracing.fold_spans(spans)
    assert self_s["cli"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_s["verify"] == pytest.approx(5.0 - 2.0 - 0.5)
    assert self_s["operators.arith"] == pytest.approx(1.0 + 1.5)
    assert self_s["operators.build"] == pytest.approx(1.5)
    assert self_s["formats"] == pytest.approx(1.5 + 0.5)
    assert total_s["formats"] == pytest.approx(2.5)
    assert calls == {"cli": 1, "verify": 1, "operators.arith": 2,
                     "operators.build": 1, "formats": 2}
    assert tracing.root_seconds(spans) == pytest.approx(10.0)


def test_tracer_records_nested_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    spans = tracer.drain()
    assert spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]
    assert tracer.drain() == []


def test_group_of_names_the_layers():
    assert tracing.group_of("phaselab.operators", "build_a_m") == "operators.build"
    assert tracing.group_of("phaselab.operators", "commutator") == "operators.arith"
    assert tracing.group_of("phaselab.operators", "operator_to_json_dict") == "operators.dump"
    assert tracing.group_of("phaselab.phase", "eigen_decompose_sg") == "phase.eig"
    assert tracing.group_of("phaselab.phase", "phase_grid") == "phase.other"
    assert tracing.group_of("phaselab.verify", "run_checks") == "verify"


# ---- the run's contract ---------------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def run_benchmark(cwd, *args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


def test_traced_run_reports_every_layer_metric_and_the_bypass_counts():
    proc = run_benchmark(ROOT, "--workload", "spectrum", "--seed", "3",
                         "--seconds", "0.01", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["phase.eig.calls"] == 1
    assert metrics["phase.dist.calls"] == 0
    assert metrics["operators.matmul.calls"] == 0
    assert metrics["phase.eig.share"] > 0.5


def test_untraced_run_reports_every_end_to_end_metric():
    proc = run_benchmark(ROOT, "--workload", "suite", "--seed", "3",
                         "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_the_program_source_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "suite", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
