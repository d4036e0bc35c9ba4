import csv
import io
import json
import subprocess
import sys

import pytest

from phaselab.cli import main
from phaselab.operators import OPERATOR_BUILDERS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckCommand:
    def test_json_report_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n-max", "31", "--boundary", "cyclic",
                               "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["check_id"] for r in reports] == [f"C{i:02d}" for i in range(1, 13)]
        assert all(r["passed"] for r in reports)
        assert reports[0]["window"] == {
            "lo": -32, "hi": 31, "boundary": "cyclic", "wrap_phase": 0.0,
        }

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n-max", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("check_id,lo,hi,boundary,wrap_phase")
        assert len(lines) == 13

    def test_open_boundary_also_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--lo", "-5", "--hi", "8",
                               "--boundary", "open")
        assert code == 0

    def test_minimal_two_vacua_window_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n-max", "0")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["window"] == {
            "lo": -1, "hi": 0, "boundary": "cyclic", "wrap_phase": 0.0,
        }

    def test_failing_tolerances_exit_one(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "n_max": 5,
            "tolerance_profile": {"exact": 1e-300},
        }))
        code, out, err = run_cli(capsys, "check", "--config", str(config))
        assert code == 1
        assert "failed" in err
        reports = json.loads(out)  # the report is still written
        assert any(not r["passed"] for r in reports)

    @pytest.mark.parametrize("message", ["Unable to allocate 2.33 TiB for an array", ""])
    def test_running_out_of_memory_exits_three(self, capsys, monkeypatch, message):
        def exhausted(*_args):
            raise MemoryError(message)

        monkeypatch.setattr("phaselab.cli.run_checks", exhausted)
        code, out, err = run_cli(capsys, "check", "--n-max", "3")
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "memory" in err


class TestSpectrumCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n-max", "7", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,phase,re,im"
        assert len(lines) == 17
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n-max", "1")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["eigenvalues"]) == 4
        assert payload["eigenvalues"][1]["k"] == 1

    def test_phase_just_below_two_pi_is_not_folded_to_zero(self, capsys):
        # the eigenphases are (wrap + 2 pi k)/2 mod 2 pi; only an exact 0 is folded
        code, out, _ = run_cli(capsys, "spectrum", "--n-max", "0", "--wrap-phase=-1e-10",
                               "--format", "csv")
        assert code == 0
        assert out.split("\n")[1:3] == ["0,3.14159265354,-1,5e-11", "1,6.28318530713,1,-5e-11"]

    def test_an_eigenphase_a_hair_below_two_pi_is_listed_last(self, capsys):
        # lambda_0 = e^{-i 1e-17/64} has phase 2 pi - 1.6e-19, not 0
        code, out, _ = run_cli(capsys, "spectrum", "--n-max", "31", "--wrap-phase=-1e-17",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1].split(",")[:2] == ["0", "0.0981747704247"]
        assert lines[-1] == "63,6.28318530718,1,-1.5625e-19"

    def test_open_boundary_refused(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--n-max", "3", "--boundary", "open")
        assert code == 2
        assert "cyclic" in err


class TestPhasedistCommand:
    def test_csv_has_one_row_per_grid_point(self, capsys):
        code, out, _ = run_cli(capsys, "phasedist", "--n-max", "63",
                               "--state", "coherent:upper,alpha=2+0i", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "phi,probability"
        assert len(lines) == 129
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_json_mirrors_distribution_fields(self, capsys):
        code, out, _ = run_cli(capsys, "phasedist", "--n-max", "7",
                               "--state", "vacuum:sym", "--phi0", "0.25")
        assert code == 0
        payload = json.loads(out)
        assert payload["phi0"] == 0.25
        assert len(payload["probabilities"]) == 16
        assert "circular_mean" in payload and "circular_variance" in payload

    def test_state_required(self, capsys):
        code, _, err = run_cli(capsys, "phasedist", "--n-max", "7")
        assert code == 2
        assert "--state" in err

    def test_bad_state_spec(self, capsys):
        code, _, err = run_cli(capsys, "phasedist", "--n-max", "7",
                               "--state", "squeezed:upper")
        assert code == 2

    def test_window_too_small_for_alpha(self, capsys):
        code, _, err = run_cli(capsys, "phasedist", "--n-max", "3",
                               "--state", "coherent:upper,alpha=3+0i")
        assert code == 2
        assert "tail" in err


class TestOperatorsCommand:
    @pytest.mark.parametrize("name", OPERATOR_BUILDERS)
    def test_dump(self, capsys, name):
        code, out, _ = run_cli(capsys, "operators", "--n-max", "1", "--operator", name)
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == name
        if name == "a_v":
            assert payload["entries"] == [[-1, 0, 1.0, 0.0]]

    def test_unknown_operator(self, capsys):
        code, _, err = run_cli(capsys, "operators", "--n-max", "1",
                               "--operator", "hamiltonian")
        assert code == 2
        assert "hamiltonian" in err

    def test_operator_name_required(self, capsys):
        code, _, _ = run_cli(capsys, "operators", "--n-max", "1")
        assert code == 2

    def test_csv_not_available(self, capsys):
        code, _, err = run_cli(capsys, "operators", "--n-max", "1",
                               "--operator", "a_v", "--format", "csv")
        assert code == 2
        assert "JSON" in err


SUBCOMMANDS = ["check", "spectrum", "phasedist", "operators"]


class TestConfigResolution:
    # rows with a message also pin the stderr line, which must name what
    # the user gave
    @pytest.mark.parametrize("argv,message", [(argv, None) for argv in [
        ["check"],
        ["check", "--n-max", "-1"],
        ["check", "--n-max", "3", "--lo", "-4"],
        ["check", "--lo", "-4"],
        ["check", "--n-max", "3", "--tolerance-profile", "nonsense"],
        ["check", "--lo", "0", "--hi", "4"],
        ["phasedist", "--n-max", "2", "--state", "vacuum:sym", "--phi0", "nan",
         "--format", "csv"],
        ["phasedist", "--n-max", "2", "--state", "vacuum:sym", "--phi0=-inf"],
        ["check", "--n-max", "3", "--wrap-phase", "inf"],
        ["spectrum", "--n-max", "3", "--wrap-phase", "nan"],
        ["phasedist", "--n-max", "3", "--state", "coherent:upper,alpha=1e200+0i"],
        ["phasedist", "--n-max", "3", "--state", "coherent:lower,alpha=1e155-1e155i"],
        ["phasedist", "--n-max", "3", "--state", "coherent:upper,alpha=nan+0i"],
        ["phasedist", "--n-max", "3", "--state", "coherent:lower,alpha=inf+0i"],
        ["phasedist", "--n-max", "3", "--state", "coherent:upper,alpha=0-infi"],
        [],
        ["bogus"],
        ["check", "--n-max", "abc"],
        ["check", "--n-max", "3", "--boundary", "weird"],
        ["check", "--n-max", "3", "--colour", "red"],
        ["phasedist", "--n-max", "3", "--state", "fock:0", "--phi0", "1e308"],
        ["phasedist", "--n-max", "3", "--state", "fock:0", "--phi0", "1e300"],
        ["phasedist", "--n-max", "3", "--state", "fock:0", "--phi0", "1e15", "--format", "csv"],
    ]] + [
        # past 2**31 labels int64 index products overflow silently
        pytest.param([subcommand, *window], f"window [{lo}, {hi}] holds more than 2**31 labels",
                     id="_".join([subcommand, *window]))
        for subcommand in SUBCOMMANDS
        for window, lo, hi in [
            (["--n-max", "4611686018427387904"], -4611686018427387905, 4611686018427387904),
            (["--n-max", "99999999999999999999"], -10**20, 10**20 - 1),
            (["--lo", "-2147483648", "--hi", "0"], -2**31, 0),
            (["--lo", "-1", "--hi", "2147483647"], -1, 2**31 - 1),
        ]
    ])
    def test_invalid_configurations_exit_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        if message is not None:
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("wrap", ["1e5", "1e6", "1e12", "1e17", "1e300"])
    def test_huge_wrap_phases_pass_every_check(self, capsys, wrap):
        code, out, err = run_cli(capsys, "check", "--n-max", "3", "--wrap-phase", wrap)
        assert (code, err) == (0, "")
        reports = json.loads(out)
        assert len(reports) == 12 and all(r["passed"] for r in reports)

    def test_help_still_prints_usage_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: phaselab check")

    @pytest.mark.parametrize("subcommand,values,message", [(*row, None) for row in [
        ("check", {"n_max": True}),
        ("check", {"n_max": 2.7}),
        ("check", {"n_max": "3"}),
        ("check", {"lo": -3.0, "hi": 2}),
        ("check", {"lo": -3, "hi": False}),
        ("check", {"n_max": 2, "wrap_phase": float("nan")}),
        ("check", {"n_max": 2, "wrap_phase": True}),
        ("phasedist", {"n_max": 2, "state": "vacuum:sym", "phi0": float("inf")}),
        ("phasedist", {"n_max": 2, "state": "vacuum:sym", "phi0": "0.3"}),
        ("check", {"n_max": 2, "tolerance_profile": {"bogus": 1}}),
        ("check", {"n_max": 2, "tolerance_profile": {"exact": 0.0}}),
        ("check", {"n_max": 2, "tolerance_profile": {"exact": -1e-12}}),
        ("check", {"n_max": 2, "tolerance_profile": {"exact": float("inf")}}),
        ("check", {"n_max": 2, "tolerance_profile": {"exact": float("nan")}}),
        ("check", {"n_max": 2, "tolerance_profile": {"accumulated": float("inf")}}),
        ("check", {"n_max": 2, "tolerance_profile": {"accumulated": float("nan")}}),
        ("check", {"n_max": 2, "tolerance_profile": {"accumulated": 1e-10}}),
        ("check", {"n_max": 2, "tolerance_profile": {"exact": "1e-12"}}),
        ("check", {"n_max": 2, "out": 1}),
        ("phasedist", {"n_max": 2, "state": 5}),
        ("operators", {"n_max": 2, "operator": ["a_m"]}),
    ]] + [
        # JSON integers past the float range
        pytest.param(subcommand, values, message, id=f"{subcommand}-{name}")
        for subcommand in SUBCOMMANDS
        for name, values, message in [
            ("wrap_phase=1e400", {"n_max": 3, "wrap_phase": 10**400},
             f"wrap_phase must be a finite number, got {10**400}"),
            ("wrap_phase=-1e400", {"n_max": 3, "wrap_phase": -10**400},
             f"wrap_phase must be a finite number, got {-10**400}"),
            ("phi0=1e400", {"n_max": 3, "phi0": 10**400},
             f"phi0 must be a finite number, got {10**400}"),
            ("phi0=-1e400", {"n_max": 3, "phi0": -10**400},
             f"phi0 must be a finite number, got {-10**400}"),
            ("exact=1e400", {"n_max": 3, "tolerance_profile": {"exact": 10**400}},
             f"tolerance_profile exact must be a positive finite number, got {10**400}"),
            ("n_max=1e400", {"n_max": 10**400},
             f"window [{-10**400 - 1}, {10**400}] holds more than 2**31 labels"),
            ("lo=-1e400", {"lo": -10**400, "hi": 0},
             f"window [{-10**400}, 0] holds more than 2**31 labels"),
        ]
    ])
    def test_invalid_config_file_values_exit_two(self, capsys, tmp_path, subcommand, values,
                                                 message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, subcommand, "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        if message is not None:
            assert err == f"error: {message}\n"

    def test_config_file_supplies_values_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_max": 3, "boundary": "open", "format": "csv"}))
        code, out, _ = run_cli(capsys, "check", "--config", str(config))
        assert code == 0
        assert out.startswith("check_id,")
        assert ",-4,3,open," in out.split("\n")[1]
        # flag wins over the file
        code, out, _ = run_cli(capsys, "check", "--config", str(config),
                               "--boundary", "cyclic", "--format", "json")
        reports = json.loads(out)
        assert reports[0]["window"]["boundary"] == "cyclic"
        # a window in flags replaces the file's, in either form
        config.write_text(json.dumps({"lo": -3, "hi": 2}))
        code, out, _ = run_cli(capsys, "check", "--config", str(config), "--n-max", "1")
        assert code == 0
        assert json.loads(out)[0]["window"]["lo"] == -2
        config.write_text(json.dumps({"n_max": 4}))
        code, out, _ = run_cli(capsys, "check", "--config", str(config), "--lo", "-2", "--hi", "1")
        assert code == 0
        assert json.loads(out)[0]["window"] == {"lo": -2, "hi": 1, "boundary": "cyclic",
                                                "wrap_phase": 0.0}
        # both forms in one source still conflict
        config.write_text(json.dumps({"n_max": 4, "lo": -3}))
        code, _, err = run_cli(capsys, "check", "--config", str(config))
        assert code == 2 and "not both" in err
        code, _, err = run_cli(capsys, "check", "--n-max", "1", "--lo", "-2", "--hi", "1")
        assert code == 2 and "not both" in err

    def test_config_file_unknown_key(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_max": 3, "colour": "red"}))
        code, _, err = run_cli(capsys, "check", "--config", str(config))
        assert code == 2
        assert "colour" in err

    def test_config_file_missing(self, capsys):
        code, _, err = run_cli(capsys, "check", "--config", "/no/such/file.json")
        assert code == 2


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)


class TestOutputEncoding:
    @pytest.mark.parametrize("argv", [
        ["check", "--lo", "-5", "--hi", "8", "--wrap-phase", "1.25"],
        ["check", "--n-max", "3", "--boundary", "open"],
        ["spectrum", "--lo", "-10", "--hi", "4", "--wrap-phase", "0.7"],
        ["phasedist", "--n-max", "24", "--state", "coherent:lower,alpha=1-1i", "--phi0", "0.3"],
        ["phasedist", "--n-max", "24", "--state", "fock:2"],
        ["operators", "--lo", "-7", "--hi", "3", "--operator", "a_m", "--wrap-phase", "1.25"],
        ["operators", "--n-max", "5", "--operator", "cosine"],
    ])
    def test_json_is_canonical_with_twelve_digit_floats(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        floats = list(_floats(payload))
        assert floats
        assert all(x == float(f"{x:.12g}") for x in floats)

    def test_check_csv_and_json_encode_identical_numbers(self, capsys):
        argv = ["check", "--lo", "-5", "--hi", "8", "--wrap-phase", "1.25"]
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        reports = json.loads(out)
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == len(reports)
        for row, report in zip(rows, reports):
            assert float(row[4]) == report["window"]["wrap_phase"]
            assert float(row[5]) == report["max_deviation"]
            assert float(row[6]) == report["tolerance"]
            assert row[8] == report["notes"]

    def test_spectrum_csv_and_json_encode_identical_numbers(self, capsys):
        argv = ["spectrum", "--lo", "-10", "--hi", "4", "--wrap-phase", "0.7"]
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        eigenvalues = json.loads(out)["eigenvalues"]
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == len(eigenvalues)
        for row, entry in zip(rows, eigenvalues):
            assert [int(row[0])] + [float(x) for x in row[1:]] == [
                entry["k"], entry["phase"], entry["re"], entry["im"]]

    def test_phase_uniform_state_has_a_null_mean(self, capsys):
        code, out, _ = run_cli(capsys, "phasedist", "--n-max", "1023", "--state", "fock:2")
        assert code == 0
        payload = json.loads(out)
        assert payload["circular_mean"] is None
        assert payload["circular_variance"] == 1.0


class TestOutputFile:
    def test_out_writes_the_payload(self, capsys, tmp_path):
        target = tmp_path / "dist.csv"
        code, out, _ = run_cli(capsys, "phasedist", "--n-max", "7",
                               "--state", "fock:0", "--format", "csv",
                               "--out", str(target))
        assert code == 0
        assert out == ""  # data went to the file, not stdout
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "phi,probability"
        assert len(lines) == 17

    def test_missing_directory_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "check", "--n-max", "1", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert str(target) in err
        assert not target.parent.exists()

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["phasedist", "--n-max", "24", "--state", "coherent:lower,alpha=1-1i"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "phaselab", "check", "--n-max", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["check_id"] == "C01"
