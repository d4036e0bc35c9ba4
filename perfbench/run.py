"""phaselab benchmark: closed-loop CLI workloads with output oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs one workload. A single client calls
``phaselab.cli.main(argv)`` in-process, with ``--out`` into a temporary
file inside the checkout, and issues the next seeded argv only after the
previous call returned (closed loop, one client, no extra threads). Each
output is checked by an oracle of the benchmark's own. The run stops at
the first round boundary (see ``workloads``) after ``--seconds`` of
measured program time.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's public functions from outside (see ``tracing``) and reports the
per-layer metrics instead. ``--workload all`` runs every workload, each in
a fresh process, and prints one table. The table also shows lat_p90_ms
(only where a run holds at least 100 calls) and fail_frac, which are not
BENCHMARK.json metrics: those must exist and be nonzero on every workload.
The last line of standard output is always one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import oracle
import tracing
import workloads

SETUP_SAMPLES = 9
# a tail percentile needs at least ten samples beyond it
P90_MIN_SAMPLES = 100

END_TO_END = {
    "setup_s": "s",
    "inv_per_s": "1/s",
    "lat_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

# group -> whether its call count is reported
_LAYERS = {
    "operators.arith": False,
    "operators.build": True,
    "operators.dump": False,
    "verify": False,
    "baselines": True,
    "phase.eig": True,
    "phase.dist": True,
    "phase.state": True,
    "phase.render": False,
    "phase.other": False,
    "formats": False,
    "fockspace": True,
    "cli": True,
}
_COUNTERS = {
    "operators.matmul.calls": "count",
    "operators.matmul_flops": "flop",
    "operators.matrices": "count",
    "operators.dense_bytes": "B",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer, with_calls in _LAYERS.items():
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        if with_calls:
            units[f"{layer}.calls"] = "count"
    units.update(_COUNTERS)
    units.update({f"verify.{c}.s": "s" for c in oracle.CHECK_IDS})
    units.update({
        "trace.wall_s": "s",
        "trace.invocations": "count",
        "trace.unattributed_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()

_SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import phaselab.cli
code = phaselab.cli.main(["check", "--n-max", "3", "--out", sys.argv[2]])
print(code, flush=True)
"""


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (no source tree, bad warm-up)."""


def find_source(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "phaselab", "cli.py")):
        raise BenchmarkError(f"no phaselab source under {src}; run from a checkout root")
    return src


def import_cli(src: str):
    sys.path.insert(0, src)
    import phaselab.cli as cli

    expected = os.path.realpath(os.path.join(src, "phaselab"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != expected:
        raise BenchmarkError(f"imported phaselab from {cli.__file__}, not {expected}")
    return cli


def measure_setup(src: str, tmp: str) -> list[float]:
    """Seconds from process start until phaselab.cli is imported and a
    trivial ``check --n-max 3`` has returned, over fresh processes."""
    out = os.path.join(tmp, "setup.out")
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_CHILD, src, out],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.communicate(timeout=60)
        if line.strip() != "0" or child.returncode != 0:
            raise BenchmarkError(f"set-up run exited {child.returncode}, printed {line!r}")
        times.append(elapsed)
    return times


def invoke(cli, argv: list[str]):
    """Exit code of one in-process CLI call; an escaping exception is a
    failure of the program and is returned as its type name."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - counted as a failed invocation
        traceback.print_exc(file=sys.stderr)
        return type(exc).__name__


def run_loop(cli, workload: str, seed: int, seconds: float, tmp: str, after_call=None):
    """Closed loop over the workload's seeded rounds. Returns the latencies
    (s) and failure reasons. ``after_call`` runs after each call, outside
    its timing."""
    check = oracle.ORACLES[workload]
    out = os.path.join(tmp, "out")
    latencies, failures = [], []
    for round_calls in workloads.calls(workload, seed):
        if sum(latencies) >= seconds:
            break
        for call in round_calls:
            workloads.validate(call)
            if os.path.exists(out):
                os.remove(out)
            argv = [*call.argv, "--out", out]
            t0 = time.perf_counter()
            code = invoke(cli, argv)
            latencies.append(time.perf_counter() - t0)
            if after_call:
                after_call()
            if code != 0:
                failures.append(f"exit {code}: {' '.join(call.argv)}")
                continue
            try:
                with open(out, encoding="utf-8") as fh:
                    reason = check(call.spec, fh.read())
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason:
                failures.append(f"{reason}: {' '.join(call.argv)}")
    return latencies, failures


def end_to_end_metrics(setup: list[float], latencies: list[float]) -> dict:
    # Throughput is calls over the whole run's program time. A shared
    # 2-vCPU host switches between faster and slower spells of 10-20 s; the
    # whole-run ratio averages over them, whereas a median of per-round
    # rates falls into whichever spell held longer (across ten scan runs
    # of 20-40 s it spread 1.2-1.9 times as wide).
    return {
        "setup_s": statistics.median(setup),
        "inv_per_s": len(latencies) / sum(latencies),
        "lat_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(totals: tracing.LayerTotals, counters: dict, check_ids: list[str],
                      wall: float, invocations: int, span_cost: float) -> dict:
    self_s = dict(totals.self_s)
    # the per-check spans are verify's own work too
    for group in [g for g in self_s if g.startswith("verify.")]:
        self_s["verify"] = self_s.get("verify", 0.0) + self_s[group]
    values = {}
    for layer, with_calls in _LAYERS.items():
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        values[f"{layer}.share"] = self_s.get(layer, 0.0) / wall
        if with_calls:
            values[f"{layer}.calls"] = totals.calls.get(layer, 0)
    for name in _COUNTERS:
        values[name] = counters.get(name, 0)
    for cid in oracle.CHECK_IDS:
        if cid in check_ids:
            values[f"verify.{cid}.s"] = totals.total_s.get(f"verify.{cid}", 0.0)
    values.update({
        "trace.wall_s": wall,
        "trace.invocations": invocations,
        "trace.unattributed_s": wall - totals.root_s,
        "trace.overhead_frac": span_cost * totals.spans / wall,
    })
    return values


def blas_info() -> dict:
    """BLAS library name, and the thread count it reports as loaded here."""
    import ctypes
    import glob

    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    src = find_source(root)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        setup = [] if trace else measure_setup(src, tmp)
        cli = import_cli(src)
        warm = os.path.join(tmp, "warm.out")
        if invoke(cli, ["check", "--n-max", "3", "--out", warm]) != 0:
            raise BenchmarkError("warm-up call check --n-max 3 did not exit 0")
        after_call = None
        if trace:
            span_cost = tracing.calibrate()
            tracer = tracing.Tracer()
            check_ids = tracing.instrument(tracer)
            if not check_ids:
                print("verify check registry not found: verify.Cxx.s are missing",
                      file=sys.stderr)
            totals = tracing.LayerTotals()

            def after_call():
                totals.add(tracer.drain())
        latencies, failures = run_loop(cli, workload, seed, seconds, tmp, after_call)

    n = len(latencies)
    print(f"workload={workload} D={workloads.WORKLOADS[workload].dimension} seed={seed} "
          f"invocations={n} trace={int(trace)} machine={json.dumps(machine_info())}")
    for reason in failures[:5]:
        print(f"  FAILED {reason}", file=sys.stderr)
    if trace:
        metrics = per_layer_metrics(totals, tracer.counters, check_ids,
                                    sum(latencies), n, span_cost)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(setup, latencies)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    if not trace:
        if n >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
            print(f"  {'lat_p90_ms':<28} {1e3 * p90:>14.6g} ms")
        else:
            print(f"  {'lat_p90_ms':<28} {'omitted':>14} ({n} invocations < {P90_MIN_SAMPLES})")
        print(f"  {'latency samples':<28} {n:>14d}")
    print(f"  {'fail_frac':<28} {len(failures) / n:>14.6g} ({len(failures)}/{n})")
    return {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in a fresh process of its own; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), os.getcwd())
    except (BenchmarkError, workloads.GeneratorError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
