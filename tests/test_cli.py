"""End-to-end command-line checks: artifacts, exit codes, determinism."""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jhflow
from jhflow import cli, fitting, report
from jhflow.cases import CASE_IDS, CaseDefinition, case_to_dict, get_case
from jhflow.cli import (
    EXIT_INVALID,
    EXIT_MISSING,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
    parse_table_range,
)
from jhflow.model import MODE_PAPER, MODE_SCALE_CONSISTENT
from jhflow.oracle import ShootingDiverged, shoot_velocity
from jhflow.polyalg import EvalAtPole, LaurentPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- argument plumbing ----------------------------------------------------------


def test_parse_table_range():
    assert parse_table_range("1-16") == list(range(1, 17))
    assert parse_table_range("1-4,9") == [1, 2, 3, 4, 9]
    assert parse_table_range("7") == [7]
    assert parse_table_range("") == []
    assert parse_table_range(" , ") == []
    with pytest.raises(ValueError):
        parse_table_range("4-1")
    with pytest.raises(ValueError):
        parse_table_range("one")


def test_table_range_bounded_before_expanding(tmp_path, capsys):
    # Expanding this range would take tens of megabytes before the first
    # lookup failed.
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "reproduce-tables", "--tables", "1-2000000", "--out", str(tmp_path)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_MISSING
    assert out == ""
    assert "no bundled table numbered 2000000" in json.loads(err)["error"]["message"]
    assert peak < 1_000_000


SUBCOMMAND_ARGS = {
    "run-case": ["--case", "5.1", "--paper-params"],
    "fit": ["--case", "5.1"],
    "oracle": ["--case", "5.1"],
    "reproduce-tables": ["--tables", "1"],
    "sweep": ["--alphas", "0.1", "--hs", "0"],
    "export-plot-data": ["--case", "5.1", "--paper-params"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_out_naming_a_file_exits_2(command, tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep\n")
    code, out, err = run_cli(
        capsys, command, *SUBCOMMAND_ARGS[command], "--h", "1e-2", "--out", str(target)
    )
    assert code == EXIT_INVALID
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["exitCode"] == EXIT_INVALID
    assert target.read_text() == "keep\n"


# -- run-case ---------------------------------------------------------------------


def test_run_case_plugin_artifacts(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "run-case", "--case", "5.1", "--paper-params",
        "--h", "1e-3", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    manifest = json.loads(out)
    assert manifest["case"] == "5.1"
    assert manifest["source"] == "published-solution"
    for key in (
        "comparison_velocity", "plot_velocity", "solution_velocity",
        "comparison_thermal", "plot_thermal", "solution_thermal",
    ):
        assert Path(manifest["files"][key]).exists()
    assert "fit_velocity" not in manifest["files"]

    lines = Path(manifest["files"]["comparison_velocity"]).read_text().strip().split("\n")
    assert lines[0] == "eta,numeric,ohpm,abs_error,paper_numeric,paper_ohpm,paper_hpm"
    assert len(lines) == 12
    row = dict(zip(lines[0].split(","), lines[10].split(",")))
    assert float(row["eta"]) == 0.9
    assert float(row["ohpm"]) == pytest.approx(0.0768721058679, abs=1e-12)
    assert float(row["abs_error"]) == pytest.approx(5.32169542503e-07, rel=1e-6)


def test_run_case_fit_mode_writes_records(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "run-case", "--case", "5.6", "--h", "1e-3", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    manifest = json.loads(out)
    assert manifest["source"] == "fit"
    for problem in ("velocity", "thermal"):
        record = json.loads(Path(manifest["files"][f"fit_{problem}"]).read_text())
        assert record["case"] == "5.6"
        assert record["problem"] == problem
        assert record["converged"] is True
        assert set(record) == {
            "case", "problem", "parameters", "objective", "converged",
            "maxGridErrorVsOracle",
        }
    assert manifest["maxAbsError"]["velocity"] <= 1e-5


def test_run_case_solution_payload_round_trips(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "run-case", "--case", "5.3", "--paper-params",
        "--h", "1e-3", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    manifest = json.loads(out)
    payload = json.loads(Path(manifest["files"]["solution_velocity"]).read_text())
    assert payload["case"] == "5.3"
    assert payload["problem"] == "velocity"
    poly = LaurentPoly.from_pairs(payload["polynomial"])
    bundled = get_case("5.3").paper_F
    for k in range(101):
        eta = k / 100.0
        assert poly.evaluate(eta) == bundled.evaluate(eta)  # bit-identical


def test_run_case_byte_identical_reruns(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (out_a, out_b):
        code, _, _ = run_cli(
            capsys,
            "run-case", "--case", "5.5", "--paper-params",
            "--h", "1e-3", "--out", str(out_dir),
        )
        assert code == EXIT_OK
    for name in (
        "comparison_velocity_5.5.csv", "comparison_thermal_5.5.csv",
        "plot_velocity_5.5.csv", "plot_thermal_5.5.csv",
        "solution_velocity_5.5.json", "solution_thermal_5.5.json",
    ):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_case_seed_changes_nothing(tmp_path, capsys):
    # --seed stays accepted for existing scripts, but the fit starts from
    # one fixed point, so it cannot change any file.
    manifests = []
    for seed in ("1", "2"):
        code, out, _ = run_cli(
            capsys,
            "run-case", "--case", "5.2", "--seed", seed,
            "--h", "1e-3", "--out", str(tmp_path / seed),
        )
        assert code == EXIT_OK
        manifests.append(json.loads(out))
    names = sorted(Path(p).name for p in manifests[0]["files"].values())
    assert names == sorted(Path(p).name for p in manifests[1]["files"].values())
    assert "fit_velocity_5.2.json" in names
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_run_case_unknown_id_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "run-case", "--case", "5.9", "--out", str(tmp_path)
    )
    assert code == EXIT_INVALID
    payload = json.loads(err)
    assert payload["error"]["exitCode"] == EXIT_INVALID
    assert "5.9" in payload["error"]["message"]


def test_run_case_plugin_without_bundled_solution_exits_4(tmp_path, capsys):
    case_file = tmp_path / "bare.json"
    case_file.write_text(json.dumps(
        {"id": "bare", "alpha": 0.1, "Re": 25.0, "H": 10.0, "beta": 1e-13}
    ))
    code, _, err = run_cli(
        capsys,
        "run-case", "--case", str(case_file), "--paper-params",
        "--h", "1e-3", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_MISSING
    assert json.loads(err)["error"]["exitCode"] == EXIT_MISSING


def test_run_case_invalid_case_file_exits_2(tmp_path, capsys):
    case_file = tmp_path / "bad.json"
    case_file.write_text(json.dumps(
        {"id": "bad", "alpha": 0.0, "Re": 50.0, "H": 0.0}
    ))
    code, _, _ = run_cli(
        capsys, "run-case", "--case", str(case_file), "--out", str(tmp_path / "out")
    )
    assert code == EXIT_INVALID


# -- oracle -----------------------------------------------------------------------


def test_oracle_writes_both_solutions(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--case", "5.4", "--h", "1e-3", "--out", str(tmp_path)
    )
    assert code == EXIT_OK
    manifest = json.loads(out)
    vel_lines = Path(manifest["files"]["velocity"]).read_text().strip().split("\n")
    th_lines = Path(manifest["files"]["thermal"]).read_text().strip().split("\n")
    assert vel_lines[0] == "eta,F,dF,d2F"
    assert th_lines[0] == "eta,theta,dtheta"
    assert len(vel_lines) == len(th_lines) == 1002
    assert manifest["shootingParameter"] < 0.0


def test_oracle_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ShootingDiverged("terminal value does not change sign")

    monkeypatch.setattr("jhflow.cli.shoot_velocity", explode)
    code, _, err = run_cli(
        capsys, "oracle", "--case", "5.1", "--h", "1e-3", "--out", str(tmp_path)
    )
    assert code == EXIT_NUMERICAL
    assert json.loads(err)["error"]["type"] == "ShootingDiverged"


def test_oracle_collapsed_bracket_exits_3(tmp_path, capsys):
    # The secant's bracket shrinks to adjacent floats while |F(1)| stays
    # above the terminal tolerance.
    case_file = tmp_path / "zd.json"
    case_file.write_text(json.dumps({
        "id": "zd", "alpha": 1.1834594725616916, "Re": 1641.9174924544782,
        "H": 2411.142874874958,
    }))
    code, _, err = run_cli(
        capsys, "oracle", "--case", str(case_file), "--out", str(tmp_path / "out")
    )
    assert code == EXIT_NUMERICAL
    lines = err.strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "ShootingDiverged"


# -- fit ---------------------------------------------------------------------------


def test_fit_velocity_only(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "fit", "--case", "5.7", "--problem", "velocity",
        "--h", "1e-3", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    manifest = json.loads(out)
    record = json.loads(Path(manifest["files"]["velocity"]).read_text())
    assert record["converged"] is True
    assert record["maxGridErrorVsOracle"] <= 1e-5
    assert set(record["parameters"]) == {"C1", "C2", "C3", "C4", "C5", "C6", "C7"}


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_fit_both_problems_converge(case_id, tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "fit", "--case", case_id, "--problem", "both",
        "--h", "1e-3", "--out", str(tmp_path),
    )
    assert code == EXIT_OK, err
    manifest = json.loads(out)
    for problem in ("velocity", "thermal"):
        record = json.loads(Path(manifest["files"][problem]).read_text())
        assert record["converged"] is True, problem


def test_fit_without_dissipation_writes_finite_objective(tmp_path, capsys):
    # beta = 0, the case-file default, leaves the thermal objective without
    # its dissipation scale; the record must stay valid JSON, with no
    # overflow warning on the way.
    case_file = tmp_path / "b0.json"
    case_file.write_text(json.dumps(
        {"id": "b0", "alpha": 0.1, "Re": 50, "H": 0, "Pr": 1, "beta": 0, "mode": "paper"}
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "fit", "--case", str(case_file), "--h", "1e-3", "--out", str(tmp_path / "out"),
        )
    assert code == EXIT_OK, err

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    text = Path(json.loads(out)["files"]["thermal"]).read_text()
    record = json.loads(text, parse_constant=reject)
    assert math.isfinite(record["objective"])


@pytest.mark.parametrize("beta", [1e-300, 5e-324])
def test_fit_with_tiny_dissipation_writes_finite_objective(beta, tmp_path, capsys):
    # A scale this small would overflow the normalized objective, so it
    # takes the beta = 0 normalization instead.
    case_file = tmp_path / "tiny.json"
    case_file.write_text(json.dumps(
        {"id": "b", "alpha": 0.1, "Re": 50, "H": 0, "Pr": 1, "beta": beta, "mode": "paper"}
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "fit", "--case", str(case_file), "--h", "1e-3", "--out", str(tmp_path / "out"),
        )
    assert code == EXIT_OK, err

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    for path in json.loads(out)["files"].values():
        record = json.loads(Path(path).read_text(), parse_constant=reject)
        assert math.isfinite(record["objective"])


def test_non_finite_record_exits_3_without_writing(tmp_path, capsys, monkeypatch):
    def infinite(self, case_id, problem, max_grid_error):
        return {"case": case_id, "problem": problem, "objective": math.inf}

    monkeypatch.setattr(fitting.FitResult, "to_record", infinite)
    code, out, err = run_cli(
        capsys, "fit", "--case", "5.1", "--h", "1e-2", "--out", str(tmp_path),
    )
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert json.loads(err)["error"]["type"] == "NonFiniteOutput"
    assert list(tmp_path.iterdir()) == []


def test_fit_shoots_velocity_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return shoot_velocity(*args, **kwargs)

    monkeypatch.setattr("jhflow.report.shoot_velocity", counted)
    code, _, _ = run_cli(
        capsys,
        "fit", "--case", "5.7", "--problem", "both",
        "--h", "1e-3", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["run-case", "fit", "export-plot-data"])
def test_unconverged_fit_writes_files_then_exits_3(command, tmp_path, capsys, monkeypatch):
    # One LM iteration cannot converge.  Every subcommand that fits still
    # writes its files and prints its manifest, and only then exits 3.
    capped = functools.partial(fitting.levenberg_marquardt, max_iterations=1)
    monkeypatch.setattr(fitting, "levenberg_marquardt", capped)
    code, out, err = run_cli(
        capsys, command, "--case", "5.2", "--h", "1e-2", "--out", str(tmp_path)
    )
    assert code == EXIT_NUMERICAL
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["exitCode"] == EXIT_NUMERICAL
    assert error["message"] == "fit did not converge: velocity"
    manifest = json.loads(out)
    assert manifest["converged"] == {"velocity": False, "thermal": True}
    assert manifest["files"]
    for path in manifest["files"].values():
        assert Path(path).stat().st_size > 0


@pytest.mark.parametrize("step", ["0", "nan", "inf", "-1e-3", "1e-8", "0.3", "abc"])
def test_bad_step_exits_2_before_any_shot(step, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("shot with an invalid step")

    monkeypatch.setattr("jhflow.cli.shoot_velocity", never)
    for argv in (["--h", step], [f"--h={step}"]):
        code, out, err = run_cli(
            capsys, "oracle", "--case", "5.1", *argv, "--out", str(tmp_path)
        )
        assert code == EXIT_INVALID
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["exitCode"] == EXIT_INVALID
    if step == "1e-8":
        assert "at most 1000000 steps" in err


def test_cli_import_leaves_scipy_unloaded():
    # scipy is not a runtime dependency; loading it on every command would
    # cost about half a second.
    code = "import sys, jhflow.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(jhflow.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "False"


def test_cli_fit_leaves_scipy_unloaded(tmp_path):
    # Nothing on the identification path may need scipy either.
    code = (
        "import sys, jhflow.cli\n"
        f"status = jhflow.cli.main(['fit', '--case', '5.2', '--h', '1e-3', '--out', {str(tmp_path)!r}])\n"
        "print(status, 'scipy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(jhflow.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines()[-1] == "0 False"


# -- reproduce-tables -----------------------------------------------------------------


def test_reproduce_tables_subset(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "reproduce-tables", "--tables", "1,2", "--h", "1e-3", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    summary = json.loads(out)
    assert [t["table"] for t in summary["tables"]] == [1, 2]
    table_lines = (tmp_path / "table_01.csv").read_text().strip().split("\n")
    assert table_lines[0] == (
        "eta,numeric,ohpm,abs_error,paper_numeric,paper_ohpm,"
        "deviation_numeric,deviation_ohpm"
    )
    assert len(table_lines) == 12
    assert (tmp_path / "summary.json").exists()

    findings = json.loads((tmp_path / "findings.json").read_text())["findings"]
    ids = [f["id"] for f in findings]
    for required in (
        "thermal-seed-sign",
        "assembled-velocity-eta2-missing-factor",
        "thermal-constant-D-mismatch",
        "dissipation-weight-one-vs-H",
    ):
        assert required in ids
    for finding in findings:
        assert finding["evidence"], f"finding {finding['id']} lacks evidence"


@pytest.mark.parametrize("step, shots", [("1e-4", 16), ("1e-3", 8)])
def test_reproduce_tables_shoots_each_velocity_once_per_step(
    step, shots, tmp_path, capsys, monkeypatch
):
    # The 16 tables cover 8 cases, each with a velocity and a temperature
    # table; the findings shoot the same 8 cases at h = 1e-3.  Shots made in
    # forked workers are logged to a file, since a list would miss them.
    log = tmp_path / "shots.log"

    def counted(params, h):
        with open(log, "a") as handle:
            handle.write(f"{params!r} {h!r}\n")
        return shoot_velocity(params, h=h)

    monkeypatch.setattr("jhflow.report.shoot_velocity", counted)
    code, _, err = run_cli(
        capsys, "reproduce-tables", "--tables", "1-16", "--h", step, "--out", str(tmp_path / "out")
    )
    assert code == EXIT_OK, err
    calls = log.read_text().splitlines()
    assert len(calls) == len(set(calls)) == shots


def test_reproduce_tables_summary_independent_of_out_dir(tmp_path, capsys):
    summaries = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, err = run_cli(
            capsys, "reproduce-tables", "--tables", "1,2", "--h", "1e-2", "--out", str(out)
        )
        assert code == EXIT_OK, err
        summaries.append((out / "summary.json").read_bytes())
        for path in json.loads(summaries[-1])["files"].values():
            assert (out / path).is_file()
    assert summaries[0] == summaries[1]


def test_reproduce_tables_empty_selection(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "reproduce-tables", "--tables", "", "--out", str(tmp_path)
    )
    assert code == EXIT_OK
    assert json.loads(out)["tables"] == []


def test_reproduce_tables_unknown_number_exits_4(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "reproduce-tables", "--tables", "17", "--out", str(tmp_path)
    )
    assert code == EXIT_MISSING
    assert json.loads(err)["error"]["exitCode"] == EXIT_MISSING


def test_reproduce_tables_malformed_range_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "reproduce-tables", "--tables", "4-1", "--out", str(tmp_path)
    )
    assert code == EXIT_INVALID


# -- sweep -------------------------------------------------------------------------


def test_sweep_grid_and_failure_rows(tmp_path, capsys):
    # alpha = 1.5 rad is a hopeless configuration: its failure must be
    # recorded per row while the good cells still compute.
    code, out, _ = run_cli(
        capsys,
        "sweep", "--alphas", "0.1,1.5", "--hs", "0,100",
        "--h", "1e-3", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    manifest = json.loads(out)
    with open(tmp_path / "sweep.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["alpha", "H", "eta", "F", "theta", "error"]
    assert len(rows) == 1 + 4 * 11
    assert manifest["rows"] == 44
    good = [r for r in rows[1:] if r[5] == ""]
    errored = [r for r in rows[1:] if r[5] != ""]
    assert manifest["failedCells"] >= 1
    assert errored and all(r[3] == "" for r in errored)
    assert good and all(float(r[3]) == pytest.approx(1.0) for r in good if r[2] == "0")


def _outputs(path: Path) -> dict[str, bytes]:
    files = sorted(f for f in path.rglob("*") if f.is_file())
    return {str(f.relative_to(path)): f.read_bytes() for f in files}


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _use_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--alphas", "0.1,1.5", "--hs", "0,100", "--h", "1e-3"),
        ("reproduce-tables", "--tables", "1-16", "--h", "1e-3"),
    ],
    ids=["sweep", "reproduce-tables"],
)
def test_outputs_independent_of_worker_count(argv, tmp_path, capsys, monkeypatch):
    seen = []
    for workers in (1, 2, 3):
        _use_cpus(monkeypatch, workers)
        out = tmp_path / str(workers)
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == EXIT_OK, err
        assert _no_child_left()
        seen.append((stdout.replace(str(out), "OUT"), _outputs(out)))
    assert seen[0] == seen[1] == seen[2]


def test_oracle_error_in_worker_exits_3_as_serial(tmp_path, capsys, monkeypatch):
    # Case 5.2 is the second task, so with two workers it runs in a child.
    failing = get_case("5.2").params

    def shoot(params, h):
        if params == failing:
            raise ShootingDiverged("no convergence in a worker")
        return shoot_velocity(params, h=h)

    monkeypatch.setattr("jhflow.report.shoot_velocity", shoot)
    errors = []
    for workers in (1, 2):
        _use_cpus(monkeypatch, workers)
        code, out, err = run_cli(
            capsys, "reproduce-tables", "--tables", "1-4", "--h", "1e-3",
            "--out", str(tmp_path / str(workers)),
        )
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert _no_child_left()
        errors.append(err)
    assert errors[0] == errors[1]
    assert len(errors[0].splitlines()) == 1
    assert json.loads(errors[0])["error"]["type"] == "ShootingDiverged"


def test_fork_map_raises_when_a_worker_dies(monkeypatch):
    _use_cpus(monkeypatch, 2)

    def task(item):
        if item == 1:  # the child's item
            os.kill(os.getpid(), 9)
        return item

    with pytest.raises(RuntimeError, match="before sending its results"):
        report._fork_map(task, [0, 1, 2, 3])
    assert _no_child_left()


def test_fork_map_keeps_item_order_and_first_failure(monkeypatch):
    def task(item):
        if item in (3, 4):
            raise ValueError(f"item {item}")
        return item * item

    for workers in (1, 2, 3):
        _use_cpus(monkeypatch, workers)
        assert report._fork_map(task, [0, 1, 2]) == [0, 1, 4]
        assert report._fork_map(task, []) == []
        with pytest.raises(ValueError, match="item 3"):
            report._fork_map(task, list(range(6)))
        assert _no_child_left()


def test_sweep_needs_values(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "sweep", "--alphas", "", "--hs", "0", "--out", str(tmp_path)
    )
    assert code == EXIT_INVALID


# -- export-plot-data ------------------------------------------------------------------


def test_export_plot_data_csv(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "export-plot-data", "--case", "5.2", "--paper-params",
        "--h", "1e-3", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    manifest = json.loads(out)
    lines = Path(manifest["files"]["velocity"]).read_text().strip().split("\n")
    assert lines[0] == "eta,series,numeric"
    assert len(lines) == 102


def test_export_plot_data_json(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "export-plot-data", "--case", "5.2", "--paper-params",
        "--format", "json", "--h", "1e-3", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    manifest = json.loads(out)
    payload = json.loads(Path(manifest["files"]["thermal"]).read_text())
    assert payload["case"] == "5.2"
    assert len(payload["points"]) == 101
    eta, series, numeric = payload["points"][50]
    assert eta == 0.5
    bundled = get_case("5.2").paper_theta
    assert series == bundled.evaluate(0.5)


# The writers evaluate each series once on its whole grid; every value must
# be the per-point scalar evaluation, bit for bit.
POLE_SERIES = LaurentPoly({-2: 2e-4, -1: -3e-3, 0: 1.0, 1: 0.25, 2: -1.25})


@functools.lru_cache(maxsize=None)
def coarse_velocity_oracle():
    return shoot_velocity(get_case("5.2").params, h=1e-2)


def polynomial_series():
    case = get_case("5.2")
    return [case.paper_F, case.paper_theta, fitting._stage_basis(
        fitting.velocity_objective_spec(case.params), case.params
    )[2]]


def test_plot_writers_match_scalar_evaluation(tmp_path):
    oracle = coarse_velocity_oracle()
    for k, series in enumerate(polynomial_series()):
        lines = [report.PLOT_HEADER]
        for eta in np.linspace(0.0, 1.0, 101):
            values = (eta, series.evaluate(float(eta)), oracle.at(float(eta), 0))
            lines.append(",".join(report._fmt(v) for v in values))
        report.write_plot_csv(tmp_path / "plot.csv", series, oracle)
        assert (tmp_path / "plot.csv").read_text() == "\n".join(lines) + "\n", k

        points = [
            [i / 100.0, series.evaluate(i / 100.0), oracle.at(i / 100.0, 0)] for i in range(101)
        ]
        report.write_json(tmp_path / "want.json", {"case": "c", "problem": "p", "points": points})
        report.write_plot_json(tmp_path / "plot.json", "c", "p", series, oracle)
        assert (tmp_path / "plot.json").read_bytes() == (tmp_path / "want.json").read_bytes(), k


def test_comparison_rows_match_scalar_evaluation():
    oracle = coarse_velocity_oracle()
    cases = [(s, report.COMPARISON_ETAS) for s in polynomial_series()]
    cases.append((POLE_SERIES, report.COMPARISON_ETAS[1:]))
    for series, etas in cases:
        rows = report.comparison_rows("5.2", "velocity", series, oracle, etas)
        assert [r.ohpm for r in rows] == [series.evaluate(eta) for eta in etas]
        assert all(type(r.ohpm) is float for r in rows)


def test_writers_reject_a_pole_on_the_grid(tmp_path):
    oracle = coarse_velocity_oracle()
    with pytest.raises(EvalAtPole):
        POLE_SERIES.evaluate(0.0)
    with pytest.raises(EvalAtPole):
        report.write_plot_csv(tmp_path / "plot.csv", POLE_SERIES, oracle)
    with pytest.raises(EvalAtPole):
        report.write_plot_json(tmp_path / "plot.json", "c", "p", POLE_SERIES, oracle)
    with pytest.raises(EvalAtPole):
        report.comparison_rows("5.2", "velocity", POLE_SERIES, oracle)
    assert not list(tmp_path.iterdir())


def test_mode_override_round_trips_case_fields(tmp_path, capsys):
    # Overriding the decomposition must change the mode alone and keep every
    # other field of a case file that sets them all, including any field
    # that CaseDefinition gains later.
    data = case_to_dict(get_case("5.1"))
    assert data["mode"] == MODE_SCALE_CONSISTENT
    assert {"Pr", "beta", "paperParametersVelocity", "paperParametersThermal",
            "paperSolutionF", "paperSolutionTheta"} <= set(data)
    case_file = tmp_path / "full.json"
    case_file.write_text(json.dumps(data))
    original = cli._load_case(str(case_file), None)
    overridden = cli._load_case(str(case_file), "paper")
    assert overridden.mode == MODE_PAPER
    for field in dataclasses.fields(CaseDefinition):
        if field.name == "mode":
            continue
        kept = getattr(overridden, field.name)
        assert kept == getattr(original, field.name), field.name
        assert kept is not None and kept != field.default, field.name

    code, out, _ = run_cli(
        capsys,
        "export-plot-data", "--case", str(case_file), "--mode", "paper",
        "--paper-params", "--h", "1e-3", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_OK


# -- every input ends in a documented exit code -----------------------------------------

# Valid steps are drawn only from cheap ones; any other positive step below
# 1e-3 could divide [0, 1] evenly and cost up to 10**6 steps.
_VALID_STEPS = st.sampled_from(["1e-2", "2e-3", "1e-3"])
_OTHER_STEPS = st.one_of(
    st.floats().filter(lambda v: not (math.isfinite(v) and 0.0 < v < 1e-3)).map(repr),
    st.text(max_size=6),
)
_ALPHAS = st.floats(-0.5, 2.0)
_HS = st.floats(-100.0, 1e4)
_JUNK = st.sampled_from(["nan", "inf", "-inf", "x", ""])


def _number_lists(numbers):
    return st.lists(st.one_of(numbers.map(repr), _JUNK), min_size=1, max_size=3).map(",".join)


_CASE_REFS = st.sampled_from(list(CASE_IDS) + ["5.9", "6.1", "x", "", "missing.json"])
# The text of a case file that the test writes: alpha, Re and H drawn across
# and beyond their valid ranges, or text that is not a case at all.
_CASE_FILES = st.one_of(
    st.fixed_dictionaries(
        {"id": st.just("generated"), "alpha": _ALPHAS, "Re": st.floats(-10.0, 400.0), "H": _HS}
    ).map(json.dumps),
    st.text(max_size=8),
)
_CASE_FILE_ARG = "{case file}"
_TABLE_RANGES = st.lists(
    st.one_of(
        st.integers(-1, 20).map(str),
        st.tuples(st.integers(-1, 20), st.integers(0, 2)).map(lambda t: f"{t[0]}-{t[0] + t[1]}"),
        st.sampled_from(["", "x", "3-1", "1-", "-"]),
    ),
    max_size=2,
).map(",".join)


@st.composite
def _cli_call(draw):
    """(argv without --out, text of the case file that --case names, or None)."""
    command = draw(
        st.sampled_from(
            ["run-case", "fit", "oracle", "reproduce-tables", "sweep", "export-plot-data", "nope"]
        )
    )
    argv, case_file = [command], None
    if command in ("run-case", "fit", "oracle", "export-plot-data"):
        if draw(st.booleans()):
            argv += ["--case", draw(_CASE_REFS)]
        else:
            argv += ["--case", _CASE_FILE_ARG]
            case_file = draw(_CASE_FILES)
    if command in ("run-case", "export-plot-data") and draw(st.booleans()):
        argv.append("--paper-params")
    if command == "reproduce-tables":
        argv.append(f"--tables={draw(_TABLE_RANGES)}")
    if command == "sweep":
        argv += [f"--alphas={draw(_number_lists(_ALPHAS))}", f"--hs={draw(_number_lists(_HS))}"]
    # Three calls in four take a valid step, so most reach the solvers.
    step = draw(_VALID_STEPS if draw(st.integers(0, 3)) else _OTHER_STEPS)
    argv.append(f"--h={step}")
    return argv, case_file


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(call=_cli_call())
def test_cli_inputs_end_in_documented_exit_code(call, tmp_path):
    argv, case_file = call
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    if case_file is not None:
        (run / "case.json").write_text(case_file)
        argv = [str(run / "case.json") if a == _CASE_FILE_ARG else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(run / "out")])
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_NUMERICAL, EXIT_MISSING), argv
    if code != EXIT_OK:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert json.loads(lines[0])["error"]["exitCode"] == code

