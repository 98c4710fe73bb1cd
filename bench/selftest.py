"""Self-test of the benchmark's reference solution and output checks.

    python3 bench/selftest.py

1. The reference velocity solution against its closed form at A = 0:
   F = 1 - (1 - cos(sqrt(B) eta)) / (1 - cos(sqrt(B))), and its cosh form
   for B < 0.
2. The reference against jhflow's RK4 oracle (h = 1e-4) on the eight cases,
   within the tolerances the checks use.
3. For each workload, one round (seed 1) must pass every check; then each
   check must fail on a copy of that output with one deliberate corruption.
   This shows that no check passes whatever the output.

Prints one line per item and exits 1 if any of them did not hold.
"""

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.argv = sys.argv[:1]
import worker  # noqa: E402  (imports jhflow from src/)
import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from jhflow.model import FlowParams  # noqa: E402
from jhflow.oracle import shoot_thermal, shoot_velocity  # noqa: E402

WORK = HERE / "out" / "selftest"
SEED = 1
problems = []


def report(ok: bool, line: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {line}", flush=True)
    if not ok:
        problems.append(line)


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def edit_poly(path: Path, change) -> None:
    def apply(data):
        terms = {int(e): c for e, c in data["polynomial"]}
        change(terms)
        data["polynomial"] = [[e, c] for e, c in sorted(terms.items())]

    edit_json(path, apply)


def edit_csv(path: Path, index: int, column: str, change) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    row = rows[1 + index]
    row[header.index(column)] = change(row[header.index(column)])
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def scale(factor: float):
    return lambda text: repr(float(text) * factor)


def shift(delta: float):
    return lambda text: repr(float(text) + delta)


def drop_row(path: Path, index: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    del lines[1 + index]
    path.write_text("".join(lines))


def add(exponent: int, delta: float):
    def change(terms):
        terms[exponent] = terms.get(exponent, 0.0) + delta

    return change


def times_all(factor: float):
    def change(terms):
        for e in terms:
            terms[e] *= factor

    return change


def drop_finding(fid: str):
    def change(data):
        data["findings"] = [f for f in data["findings"] if f["id"] != fid]

    return change


def blank_evidence(fid: str):
    def change(data):
        for f in data["findings"]:
            if f["id"] == fid:
                f["evidence"] = {}

    return change


# (check that must fail, what is corrupted, corruption applied to the round dir)
CORRUPTIONS = {
    "identify": [
        ("identify.velocity_series", "F + 1e-4 (eta^2 - eta^4), boundary values kept",
         lambda d: edit_poly(d / "solution_velocity_5.3.json", lambda t: (add(2, 1e-4)(t), add(4, -1e-4)(t)))),
        ("identify.thermal_series", "theta scaled by 1.05",
         lambda d: edit_poly(d / "solution_thermal_5.6.json", times_all(1.05))),
        ("identify.boundary", "F constant term + 1e-9",
         lambda d: edit_poly(d / "solution_velocity_5.1.json", add(0, 1e-9))),
        ("identify.boundary", "theta + 1e-6 max|theta| eta^2",
         lambda d: edit_poly(d / "solution_thermal_5.2.json", add(2, 1e-6 * 8.5e-12))),
        ("identify.objective", "velocity objective x (1 + 1e-6)",
         lambda d: edit_json(d / "fit_velocity_5.4.json", lambda r: r.update(objective=r["objective"] * (1 + 1e-6)))),
        ("identify.objective", "thermal objective x (1 + 1e-6)",
         lambda d: edit_json(d / "fit_thermal_5.7.json", lambda r: r.update(objective=r["objective"] * (1 + 1e-6)))),
        ("comparison.numeric", "velocity comparison numeric x (1 + 1e-8)",
         lambda d: edit_csv(d / "comparison_velocity_5.5.csv", 5, "numeric", scale(1 + 1e-8))),
        ("comparison.numeric", "thermal comparison numeric x (1 + 1e-6)",
         lambda d: edit_csv(d / "comparison_thermal_5.8.csv", 3, "numeric", scale(1 + 1e-6))),
        ("comparison.eta", "comparison eta column shifted",
         lambda d: edit_csv(d / "comparison_velocity_5.2.csv", 4, "eta", shift(0.01))),
        ("files", "a fit record removed",
         lambda d: (d / "fit_thermal_5.1.json").unlink()),
    ],
    "reproduce": [
        ("reproduce.published", "velocity table numeric + 2e-7",
         lambda d: edit_csv(d / "table_01.csv", 5, "numeric", shift(2e-7))),
        ("reproduce.velocity_numeric", "velocity table numeric + 1e-9",
         lambda d: edit_csv(d / "table_03.csv", 4, "numeric", shift(1e-9))),
        ("reproduce.thermal_numeric", "thermal table numeric x (1 + 1e-6)",
         lambda d: edit_csv(d / "table_16.csv", 2, "numeric", scale(1 + 1e-6))),
        ("reproduce.eta", "table eta column shifted",
         lambda d: edit_csv(d / "table_05.csv", 7, "eta", shift(0.05))),
        ("reproduce.findings", "one finding removed",
         lambda d: edit_json(d / "findings.json", drop_finding("thermal-constant-D-mismatch"))),
        ("reproduce.findings", "one finding without evidence",
         lambda d: edit_json(d / "findings.json", blank_evidence("thermal-seed-sign"))),
        ("comparison.numeric", "paper-params comparison numeric x (1 + 1e-6)",
         lambda d: edit_csv(d / "comparison_thermal_5.3.csv", 6, "numeric", scale(1 + 1e-6))),
    ],
    "sweep": [
        ("sweep.rows", "one row dropped", lambda d: drop_row(d / "sweep.csv", 13)),
        ("sweep.rows", "an error recorded on one row",
         lambda d: edit_csv(d / "sweep.csv", 20, "error", lambda _: "ShootingDiverged: injected")),
        ("sweep.values", "F x (1 + 1e-8)", lambda d: edit_csv(d / "sweep.csv", 27, "F", scale(1 + 1e-8))),
        ("sweep.values", "theta x (1 + 1e-6)", lambda d: edit_csv(d / "sweep.csv", 40, "theta", scale(1 + 1e-6))),
        ("sweep.boundary", "F(0) + 1e-9", lambda d: edit_csv(d / "sweep.csv", 11, "F", shift(1e-9))),
        ("sweep.boundary", "F(1) + 1e-9", lambda d: edit_csv(d / "sweep.csv", 21, "F", shift(1e-9))),
        ("sweep.boundary", "theta(1) = 1e-20", lambda d: edit_csv(d / "sweep.csv", 32, "theta", lambda _: "1e-20")),
    ],
}


def closed_form() -> None:
    worst = 0.0
    for B in (9.0, 2.0, 0.5, -3.0, -40.0):
        got = reference.solve(1.0, 0.0, 4.0 - B, 1.0, 0.0)[0]  # Re = 0 gives A = 0
        worst = max(worst, float(np.max(np.abs(got - reference.closed_form_velocity(B)))))
    report(worst <= 1e-12, f"reference F vs closed form at A = 0: max deviation {worst:.2e}")


def against_oracle() -> None:
    worst_F = worst_theta = 0.0
    for case_id in workloads.CASE_IDS:
        alpha, Re, H, Pr, beta = workloads.case_params(case_id)
        F_ref, theta_ref = reference.solve(alpha, Re, H, Pr, beta)
        vel = shoot_velocity(FlowParams(alpha=alpha, Re=Re, H=H, Pr=Pr, beta=beta))
        th = shoot_thermal(FlowParams(alpha=alpha, Re=Re, H=H, Pr=Pr, beta=beta), vel)
        F = np.array([vel.at(e, "F") for e in reference.ETAS])
        theta = np.array([th.at(e, "theta") for e in reference.ETAS])
        worst_F = max(worst_F, float(np.max(np.abs(F - F_ref))))
        worst_theta = max(worst_theta, float(np.max(np.abs(theta - theta_ref)) / np.max(np.abs(theta_ref))))
    report(worst_F <= checks.TOL_F_NUMERIC and worst_theta <= checks.TOL_THETA_NUMERIC,
           f"reference vs jhflow oracle, 8 cases: F {worst_F:.2e}, theta/max|theta| {worst_theta:.2e}")


def corruptions(workload: str) -> None:
    clean = WORK / workload
    shutil.rmtree(clean, ignore_errors=True)
    result = worker.run_round(workload, SEED, clean)
    failures = checks.check_round(workload, SEED, clean)
    report(not failures and not result["failed"],
           f"{workload}: clean round passes every check {failures[:2] if failures else ''}")
    mutant = WORK / f"{workload}-mutant"
    for check, what, corrupt in CORRUPTIONS[workload]:
        shutil.rmtree(mutant, ignore_errors=True)
        shutil.copytree(clean, mutant)
        corrupt(mutant)
        failed = {c for c, _ in checks.check_round(workload, SEED, mutant)}
        report(check in failed, f"{workload}: {what} -> {check} fails (failed: {sorted(failed)})")
    shutil.rmtree(mutant, ignore_errors=True)


def main() -> int:
    closed_form()
    against_oracle()
    for workload in workloads.WORKLOADS:
        corruptions(workload)
    if not problems:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
