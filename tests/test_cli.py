import json
import subprocess
import sys

import pytest

from phaselab.cli import main


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
            "tolerance_profile": {"exact": 1e-300, "accumulated": 1e-300},
        }))
        code, out, err = run_cli(capsys, "check", "--config", str(config))
        assert code == 1
        assert "failed" in err
        reports = json.loads(out)  # the report is still written
        assert any(not r["passed"] for r in reports)


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
    def test_dump(self, capsys):
        code, out, _ = run_cli(capsys, "operators", "--n-max", "1", "--operator", "a_v")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "a_v"
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


class TestConfigResolution:
    @pytest.mark.parametrize("argv", [
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
    ])
    def test_invalid_configurations_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1

    @pytest.mark.parametrize("subcommand,values", [
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
        ("check", {"n_max": 2, "tolerance_profile": {"accumulated": float("inf")}}),
        ("check", {"n_max": 2, "tolerance_profile": {"accumulated": float("nan")}}),
        ("check", {"n_max": 2, "tolerance_profile": {"exact": "1e-12"}}),
        ("check", {"n_max": 2, "out": 1}),
        ("phasedist", {"n_max": 2, "state": 5}),
        ("operators", {"n_max": 2, "operator": ["a_m"]}),
    ])
    def test_invalid_config_file_values_exit_two(self, capsys, tmp_path, subcommand, values):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, subcommand, "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1

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

    def test_config_file_unknown_key(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_max": 3, "colour": "red"}))
        code, _, err = run_cli(capsys, "check", "--config", str(config))
        assert code == 2
        assert "colour" in err

    def test_config_file_missing(self, capsys):
        code, _, err = run_cli(capsys, "check", "--config", "/no/such/file.json")
        assert code == 2


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
