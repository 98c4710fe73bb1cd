"""Artifact generation: comparison tables, plot data, reproduction, sweeps.

solve_case is the one case pipeline (velocity fit, thermal fit on the
fitted velocity, both oracles) behind run-case, fit and export-plot-data.
Everything here writes deterministic flat files: the same inputs give
byte-identical output.  Numbers are printed with 12 significant digits in
CSV and full round-trip precision in JSON.
"""

from __future__ import annotations

import csv
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NoReturn, Sequence

import numpy as np

from . import cases as case_data
from . import tables as table_data
from .fitting import FitResult, fit, thermal_objective_spec, velocity_objective_spec
from .model import (
    FlowParams,
    thermal_constants_derived,
    thermal_constants_stated,
    thermal_nonlinear,
    velocity_seed,
    velocity_solution,
)
from .oracle import OracleSolution, shoot_thermal, shoot_velocity
from .polyalg import LaurentPoly

COMPARISON_HEADER = "eta,numeric,ohpm,abs_error,paper_numeric,paper_ohpm,paper_hpm"
PLOT_HEADER = "eta,series,numeric"
COMPARISON_ETAS = tuple(round(0.1 * k, 1) for k in range(11))


class MissingPublishedSolution(LookupError):
    """Raised when plug-in mode is asked for a case with no bundled series."""

# Converged-oracle entries farther than this from a digitized numeric
# column are reported as suspect table entries instead of silently used.
# Velocity columns sit at order one; the temperature columns live at
# 1e-12 to 1e-8, so their flag threshold follows the acceptance scale.
ORACLE_FLAG_TOLERANCE = 1e-7
THERMAL_FLAG_TOLERANCE = 1e-12
THERMAL_FLAG_TOLERANCE_SMALLEST = 1e-15


def flag_tolerance(problem: str, number: int) -> float:
    if problem == "velocity":
        return ORACLE_FLAG_TOLERANCE
    if number == 2:
        return THERMAL_FLAG_TOLERANCE_SMALLEST
    return THERMAL_FLAG_TOLERANCE


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


@dataclass(frozen=True)
class ComparisonRow:
    """One eta row of a regenerated-vs-published comparison."""

    eta: float
    numeric: float
    ohpm: float
    paper_numeric: float | None = None
    paper_ohpm: float | None = None
    paper_hpm: float | None = None

    @property
    def abs_error(self) -> float:
        return abs(self.numeric - self.ohpm)

    def to_csv_line(self) -> str:
        fields = (
            self.eta,
            self.numeric,
            self.ohpm,
            self.abs_error,
            self.paper_numeric,
            self.paper_ohpm,
            self.paper_hpm,
        )
        return ",".join(_fmt(f) for f in fields)


def comparison_rows(
    case_id: str,
    problem: str,
    series: LaurentPoly,
    oracle: OracleSolution,
    etas: Sequence[float] = COMPARISON_ETAS,
) -> list[ComparisonRow]:
    """Own oracle and series values side by side with the digitized columns."""
    component = "F" if problem == "velocity" else "theta"
    paper: dict[float, tuple] = {}
    try:
        vel_no, th_no = table_data.tables_for_case(case_id)
        number = vel_no if problem == "velocity" else th_no
        _, payload = table_data.get_table(number)
        for row in payload["rows"]:
            paper[row[0]] = row
    except table_data.MissingTableData:
        pass
    out = []
    for eta, ohpm in zip(etas, _values(series, etas)):
        row = paper.get(round(eta, 1))
        if row is None:
            p_num = p_ohpm = p_hpm = None
        elif problem == "velocity":
            _, p_hpm, p_num, p_ohpm, _ = row
        else:
            _, p_num, p_ohpm, _ = row
            p_hpm = None
        out.append(
            ComparisonRow(
                eta=eta,
                numeric=oracle.at(eta, component),
                ohpm=ohpm,
                paper_numeric=p_num,
                paper_ohpm=p_ohpm,
                paper_hpm=p_hpm,
            )
        )
    return out


def write_comparison_csv(path, rows: Iterable[ComparisonRow]) -> None:
    lines = [COMPARISON_HEADER] + [r.to_csv_line() for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _values(series: LaurentPoly, etas: Sequence[float]) -> list[float]:
    """series.evaluate(eta) at every eta, bit for bit, in one array pass."""
    return series.evaluate(np.asarray(etas, dtype=float)).tolist()


def write_plot_csv(path, series: LaurentPoly, oracle: OracleSolution, n: int = 101) -> None:
    """eta, series value, oracle value on a uniform n-point grid."""
    grid = np.linspace(0.0, 1.0, n).tolist()
    lines = [PLOT_HEADER]
    for eta, value in zip(grid, _values(series, grid)):
        lines.append(",".join(_fmt(v) for v in (eta, value, oracle.at(eta, 0))))
    Path(path).write_text("\n".join(lines) + "\n")


def write_plot_json(
    path, case_id: str, problem: str, series: LaurentPoly, oracle: OracleSolution
) -> None:
    """[eta, series value, oracle value] at eta = k/100, k = 0..100, as JSON."""
    etas = [k / 100.0 for k in range(101)]
    points = [[e, v, oracle.at(e, 0)] for e, v in zip(etas, _values(series, etas))]
    write_json(path, {"case": case_id, "problem": problem, "points": points})


def solution_payload(case_id: str, problem: str, series: LaurentPoly, source: str) -> dict:
    return {
        "case": case_id,
        "problem": problem,
        "source": source,
        "polynomial": series.to_pairs(),
    }


class NonFiniteOutput(ArithmeticError):
    """Raised instead of writing a JSON file that would hold NaN or infinity."""


def write_json(path, payload: dict) -> None:
    """payload as sorted, indented JSON; a non-finite number raises NonFiniteOutput."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput(f"{Path(path).name}: {exc}") from None
    Path(path).write_text(text + "\n")


def _fork_map(fn: Callable, items: Sequence) -> list:
    """[fn(x) for x in items], spread over the CPUs this process may run on.

    With k workers the parent maps items[0::k] and each of k - 1 forked
    children maps items[w::k], sending back pickled (ok, value or
    exception) pairs through a pipe.  A worker stops at its first failing
    item, and the first failure in item order is raised, as the plain loop
    would raise it.  Every child is reaped before this returns or raises,
    so its CPU time counts in RUSAGE_CHILDREN; a child that ends without
    its results makes this raise RuntimeError.  fn need not be picklable,
    since the children are forked with it; its values and exceptions must
    be.  With one CPU (or no sched_getaffinity) nothing is forked.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = max(1, min(len(items), cpus))
    pids: list[int] = []
    pipes: list = []
    try:
        for w in range(1, k):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _send_share(fn, items[w::k], write_fd)
            finally:
                os.close(write_fd)
            pids.append(pid)
        shares = [_map_share(fn, items[0::k])]
        sent = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status, data in zip(pids, statuses, sent):
        if status or not data:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"worker {pid} ended with status {code} before sending its results")
        shares.append(pickle.loads(data))
    results = []
    for i in range(len(items)):
        ok, value = shares[i % k][i // k]
        if not ok:
            raise value
        results.append(value)
    return results


def _send_share(fn: Callable, share: Sequence, write_fd: int) -> NoReturn:
    """A forked child's whole life: map its share, pickle it to write_fd, exit.

    os._exit skips the parent's atexit handlers and stdio buffers, which the
    child inherited and must not run or flush a second time.
    """
    status = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(_map_share(fn, share), pipe)
        status = 0
    finally:
        os._exit(status)


def _map_share(fn: Callable, share: Sequence) -> list[tuple[bool, object]]:
    """(True, fn(x)) for each x up to the first failure, then (False, exception)."""
    outcomes: list[tuple[bool, object]] = []
    for item in share:
        try:
            outcomes.append((True, fn(item)))
        except Exception as exc:  # handed to _fork_map, which raises it in item order
            outcomes.append((False, exc))
            break
    return outcomes


@dataclass(frozen=True)
class CaseSolution:
    """The velocity and temperature series of one case, with their oracles.

    Every mapping is keyed by problem, "velocity" then "thermal".  fits
    holds the identifications that the series come from; it is empty when
    the series are the case's published polynomials.
    """

    series: dict[str, LaurentPoly]
    oracles: dict[str, OracleSolution]
    fits: dict[str, FitResult] = field(default_factory=dict)

    @property
    def converged(self) -> dict[str, bool]:
        return {problem: result.converged for problem, result in self.fits.items()}


def _shoot_oracles(params: FlowParams, h: float) -> dict[str, OracleSolution]:
    """Both oracles of one parameter set, from a single velocity shot."""
    velocity = shoot_velocity(params, h=h)
    return {"velocity": velocity, "thermal": shoot_thermal(params, velocity, h=h)}


def solve_case(
    case: case_data.CaseDefinition, h: float, quadrature: str = "gauss"
) -> CaseSolution:
    """Both identifications of a case and the oracles that judge them.

    The velocity is fitted first, and the thermal objective carries the
    fitted velocity series, because the temperature equation rides on F.
    The velocity is shot once for both oracles.
    """
    params = case.params
    oracles = _shoot_oracles(params, h)
    velocity = fit(velocity_objective_spec(params, quadrature=quadrature), params)
    th_spec = thermal_objective_spec(
        params,
        mode=case.mode,
        velocity_polynomial=velocity.series,
        quadrature=quadrature,
    )
    fits = {"velocity": velocity, "thermal": fit(th_spec, params)}
    return CaseSolution({p: r.series for p, r in fits.items()}, oracles, fits)


def published_solution(case: case_data.CaseDefinition, h: float) -> CaseSolution:
    """The case's published solution polynomials with its oracles."""
    if case.paper_F is None or case.paper_theta is None:
        raise MissingPublishedSolution(
            f"case {case.id!r} bundles no published solution polynomials"
        )
    series = {"velocity": case.paper_F, "thermal": case.paper_theta}
    return CaseSolution(series, _shoot_oracles(case.params, h))


def write_fit_record(
    out_dir, case_id: str, problem: str, solution: CaseSolution
) -> Path:
    """Write fit_<problem>_<case>.json under out_dir and return its path.

    The record holds the fit and the largest miss of its series against
    the oracle at COMPARISON_ETAS.
    """
    series, oracle = solution.series[problem], solution.oracles[problem]
    values = _values(series, COMPARISON_ETAS)
    grid_err = max(abs(v - oracle.at(e, 0)) for e, v in zip(COMPARISON_ETAS, values))
    path = Path(out_dir) / f"fit_{problem}_{case_id}.json"
    write_json(path, solution.fits[problem].to_record(case_id, problem, grid_err))
    return path


def run_case(
    case: case_data.CaseDefinition,
    out_dir,
    use_paper_params: bool = False,
    h: float = 1e-4,
) -> dict:
    """Oracle, parameter identification (or plug-in), and artifact files.

    Returns a manifest of written paths plus headline deviations; a fitted
    run also records whether each fit converged.  In plug-in mode the
    bundled published solution polynomials stand in for fitted series and
    no fit records are written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    solution = published_solution(case, h) if use_paper_params else solve_case(case, h)
    source = "published-solution" if use_paper_params else "fit"
    manifest: dict = {"case": case.id, "source": source, "files": {}, "maxAbsError": {}}
    for problem in solution.fits:
        path = write_fit_record(out, case.id, problem, solution)
        manifest["files"][f"fit_{problem}"] = str(path)
    if solution.fits:
        manifest["converged"] = solution.converged

    for problem, series in solution.series.items():
        oracle = solution.oracles[problem]
        rows = comparison_rows(case.id, problem, series, oracle)
        cmp_path = out / f"comparison_{problem}_{case.id}.csv"
        write_comparison_csv(cmp_path, rows)
        plot_path = out / f"plot_{problem}_{case.id}.csv"
        write_plot_csv(plot_path, series, oracle)
        sol_path = out / f"solution_{problem}_{case.id}.json"
        write_json(sol_path, solution_payload(case.id, problem, series, source))
        manifest["files"][f"comparison_{problem}"] = str(cmp_path)
        manifest["files"][f"plot_{problem}"] = str(plot_path)
        manifest["files"][f"solution_{problem}"] = str(sol_path)
        manifest["maxAbsError"][problem] = max(r.abs_error for r in rows)
    return manifest


def regenerate_table(number: int, oracle: OracleSolution) -> dict:
    """Own oracle plus bundled-polynomial evaluation next to the digitized table.

    oracle is the velocity or temperature shot of the table's case,
    matching the table's problem.
    """
    problem, payload = table_data.get_table(number)
    case_id = payload["case"]
    if problem == "velocity":
        series = case_data.paper_solution_velocity(case_id)
        component = "F"
    else:
        series = case_data.paper_solution_theta(case_id)
        component = "theta"
    rows = []
    flagged = []
    tol = flag_tolerance(problem, number)
    for row in payload["rows"]:
        eta = row[0]
        paper_numeric = row[2] if problem == "velocity" else row[1]
        paper_ohpm = row[3] if problem == "velocity" else row[2]
        own_numeric = oracle.at(eta, component)
        own_ohpm = series.evaluate(eta)
        dev_numeric = abs(own_numeric - paper_numeric)
        dev_ohpm = abs(own_ohpm - paper_ohpm)
        rows.append(
            {
                "eta": eta,
                "numeric": own_numeric,
                "ohpm": own_ohpm,
                "absError": abs(own_numeric - own_ohpm),
                "paperNumeric": paper_numeric,
                "paperOhpm": paper_ohpm,
                "deviationNumeric": dev_numeric,
                "deviationOhpm": dev_ohpm,
            }
        )
        if dev_numeric > tol:
            flagged.append({"eta": eta, "deviation": dev_numeric})
    return {
        "table": number,
        "case": case_id,
        "problem": problem,
        "rows": rows,
        "maxDeviationNumeric": max(r["deviationNumeric"] for r in rows),
        "maxDeviationOhpm": max(r["deviationOhpm"] for r in rows),
        "flaggedEntries": flagged,
    }


def write_table_csv(path, regen: dict) -> None:
    header = (
        "eta,numeric,ohpm,abs_error,paper_numeric,paper_ohpm,"
        "deviation_numeric,deviation_ohpm"
    )
    lines = [header]
    for r in regen["rows"]:
        lines.append(
            ",".join(
                _fmt(r[k])
                for k in (
                    "eta",
                    "numeric",
                    "ohpm",
                    "absError",
                    "paperNumeric",
                    "paperOhpm",
                    "deviationNumeric",
                    "deviationOhpm",
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


# The thermal-numeric-column-scale finding shoots every case at this step.
_FINDINGS_STEP = 1e-3


def _reproduce_case(case_id: str, numbers: Sequence[int], h: float) -> tuple[dict, dict]:
    """The requested tables of one bundled case, and its column-scale evidence row.

    The velocity is shot at h once when any table is requested, theta at h
    only when the temperature table is; the evidence row reuses those shots
    when h is the findings step and shoots at that step otherwise.
    """
    params = case_data.get_case(case_id).params
    vel_no, th_no = table_data.tables_for_case(case_id)
    velocity = shoot_velocity(params, h=h) if numbers else None
    thermal = shoot_thermal(params, velocity, h=h) if th_no in numbers else None
    tables = {n: regenerate_table(n, velocity if n == vel_no else thermal) for n in numbers}
    if velocity is None or h != _FINDINGS_STEP:
        velocity = shoot_velocity(params, h=_FINDINGS_STEP)
        thermal = None
    if thermal is None:
        thermal = shoot_thermal(params, velocity, h=_FINDINGS_STEP)
    return tables, _column_scale_row(case_id, th_no, thermal)


def reproduce_tables(numbers: Sequence[int], out_dir, h: float = 1e-4) -> dict:
    """Regenerate the requested tables and write per-table files plus findings.

    Each bundled case is one task of _fork_map: its velocity is shot once
    per step and shared by its velocity table, its temperature table and
    the findings.  File paths in the summary are relative to out_dir, so
    reproductions into different directories write identical summary.json
    files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    requested: dict[str, list[int]] = {case_id: [] for case_id in case_data.CASE_IDS}
    for number in dict.fromkeys(numbers):
        requested[table_data.get_table(number)[1]["case"]].append(number)
    done = _fork_map(
        lambda case_id: _reproduce_case(case_id, requested[case_id], h), case_data.CASE_IDS
    )
    regenerated = {n: regen for tables, _ in done for n, regen in tables.items()}
    summary = {"tables": [], "files": {}}
    for number in numbers:
        regen = regenerated[number]
        name = f"table_{number:02d}.csv"
        write_table_csv(out / name, regen)
        summary["files"][str(number)] = name
        summary["tables"].append(
            {
                "table": number,
                "case": regen["case"],
                "problem": regen["problem"],
                "maxDeviationNumeric": regen["maxDeviationNumeric"],
                "maxDeviationOhpm": regen["maxDeviationOhpm"],
                "flaggedEntries": regen["flaggedEntries"],
            }
        )
    findings = collect_findings([row for _, row in done])
    write_json(out / "findings.json", {"findings": findings})
    summary["files"]["findings"] = "findings.json"
    write_json(out / "summary.json", summary)
    summary["files"]["summary"] = "summary.json"
    return summary


def _column_scale_row(case_id: str, th_no: int, thermal: OracleSolution) -> dict:
    """One case's thermal-numeric-column-scale evidence, from its theta shot."""
    case = case_data.get_case(case_id)
    _, payload = table_data.get_table(th_no)
    center = payload["rows"][0][1]
    own_center = thermal.at(0.0, "theta")
    ratio = center / own_center if own_center else float("nan")
    return {
        "case": case_id,
        "table": th_no,
        "tableCenterValue": center,
        "oracleCenterValue": own_center,
        "ratio": ratio,
        "squaredScaleLaw": (np.pi * case.params.Re / (120.0 * case.params.alpha)) ** 2,
        "maxAbsDisagreement": max(
            abs(thermal.at(r[0], "theta") - r[1]) for r in payload["rows"]
        ),
    }


def collect_findings(column_scale_rows: list[dict]) -> list[dict]:
    """Internal inconsistencies of the published derivation, with evidence.

    Each entry states what disagrees with what, plus numbers computed fresh
    from this library at the bundled cases; column_scale_rows holds the
    _column_scale_row of every bundled case, from theta shots at the
    findings step.
    """
    findings = []
    p51 = case_data.get_case("5.1").params
    p52 = case_data.get_case("5.2").params
    c51 = case_data.PAPER_PARAMS_VELOCITY["5.1"]
    stage = velocity_solution(p51, c51)
    f0 = velocity_seed()

    # (a) The first thermal stage equation theta0'' - 1 = 0 and the printed
    # seed (1 - eta^2)/2 cannot both hold: that seed gives theta0'' = -1.
    printed = LaurentPoly({0: 0.5, 2: -0.5})
    corrected = LaurentPoly({0: -0.5, 2: 0.5})
    findings.append(
        {
            "id": "thermal-seed-sign",
            "summary": (
                "The printed thermal seed (1 - eta^2)/2 does not satisfy its own "
                "stage equation theta0'' - 1 = 0; the sign-flipped seed does."
            ),
            "evidence": {
                "residualPrintedSeed": printed.differentiate(2).evaluate(0.0) - 1.0,
                "residualCorrectedSeed": corrected.differentiate(2).evaluate(0.0) - 1.0,
            },
        }
    )

    # (b) In the printed assembled velocity series the eta^2 coefficient
    # carries (3A+5B) without the C1 factor that the first stage requires.
    machine_eta2 = stage.assembled.coefficient(2)
    A, B = p51.A, p51.B
    printed_eta2 = machine_eta2 - (3 * A + 5 * B) * c51["C1"] + (3 * A + 5 * B)
    findings.append(
        {
            "id": "assembled-velocity-eta2-missing-factor",
            "summary": (
                "The printed closed form of the assembled velocity series writes "
                "its eta^2 coefficient with a bare (3A+5B) term where stage one "
                "contributes (3A+5B)*C1."
            ),
            "evidence": {
                "case": "5.1",
                "stageAssembledCoefficient": machine_eta2,
                "printedFormulaCoefficient": printed_eta2,
                "difference": printed_eta2 - machine_eta2,
            },
        }
    )

    # (c) The stated D constant doubles the alpha*Re*Pr contribution
    # relative to a fresh expansion of the remainder at the printed seed.
    rows_cd = []
    for cid, params in (("5.1", p51), ("5.2", p52)):
        stated = thermal_constants_stated(params)
        derived = thermal_constants_derived(params)
        rows_cd.append(
            {
                "case": cid,
                "statedD": stated.D,
                "derivedD": derived.D,
                "difference": stated.D - derived.D,
                "alphaRePr": params.alpha * params.Re * params.Pr,
                "maxOtherConstantGap": max(
                    abs(stated.C - derived.C),
                    abs(stated.E - derived.E),
                    abs(stated.L - derived.L),
                    abs(stated.K - derived.K),
                ),
            }
        )
    findings.append(
        {
            "id": "thermal-constant-D-mismatch",
            "summary": (
                "The stated closed form of the D constant disagrees with the "
                "re-expanded remainder by exactly alpha*Re*Pr; C, E, L and K agree."
            ),
            "evidence": rows_cd,
        }
    )

    # (d) The remainder definition prints a dissipation weight (1+4a^2)
    # while the governing equation and the stated constants use (H+4a^2);
    # the two coincide only at H = 1.
    a2, pr, beta, hm = p52.alpha**2, p52.Pr, p52.beta, p52.H
    printed_seed = LaurentPoly({0: 0.5, 2: -0.5})
    remainder = thermal_nonlinear(p52, f0, printed_seed, "paper").value
    constant_with_H = remainder.coefficient(0)
    constant_with_one = constant_with_H - beta * pr * (hm - 1.0)
    stated_c = thermal_constants_stated(p52).C
    findings.append(
        {
            "id": "dissipation-weight-one-vs-H",
            "summary": (
                "The remainder as printed weights the squared-velocity "
                "dissipation with (1+4a^2) where the governing equation and "
                "the stated constant C use (H+4a^2); at H=250 the weights "
                "differ by a factor of about 234 and only the (H+4a^2) "
                "expansion reproduces the stated C."
            ),
            "evidence": {
                "case": "5.2",
                "printedWeight": 1.0 + 4.0 * a2,
                "governingWeight": hm + 4.0 * a2,
                "statedCMinusExpansionWithHWeight": stated_c - constant_with_H,
                "statedCMinusExpansionWithOneWeight": stated_c - constant_with_one,
            },
        }
    )

    # (g) The stated seed remainder of the velocity construction reads
    # 2A eta^2 - 2(A+B) eta, but the remainder operator evaluated at the
    # seed 1 - eta^2 gives 2A eta^3 - 2(A+B) eta.  Every published closed
    # form and parameter value descends from the quadratic variant.
    df0 = f0.differentiate()
    exact_value = A * (f0 * df0) + B * df0
    used_value = LaurentPoly({1: -2.0 * (A + B), 2: 2.0 * A})
    bundled = case_data.paper_solution_velocity("5.1")
    grid = [0.1 * k for k in range(11)]
    machine_dev = max(abs(stage.assembled.evaluate(x) - bundled.evaluate(x)) for x in grid)
    findings.append(
        {
            "id": "velocity-seed-remainder-degree",
            "summary": (
                "The stated seed remainder 2A*eta^2 - 2(A+B)*eta is not the "
                "remainder operator at the seed, which gives "
                "2A*eta^3 - 2(A+B)*eta; the published parameter values and "
                "closed forms are only consistent with the quadratic variant, "
                "which this library's series builder therefore uses."
            ),
            "evidence": {
                "case": "5.1",
                "exactRemainder": exact_value.to_pairs(),
                "usedRemainder": used_value.to_pairs(),
                "builderVsBundledPolynomialMaxDev": machine_dev,
            },
        }
    )

    # (h) The printed closed form of the second velocity correction puts
    # the C7 block in the wall-slope multiplier with a negated eta^4 term;
    # those printed coefficients do not vanish at the wall, while the
    # published eta^2 completion 13A/140 + B/6 matches a C7 block that
    # extends the H1 power ladder by one step (C7/eta^2) instead.
    printed_c7_wall = 2 * A / 210 - 5 * (A + B) / 120 - (3 * A + 5 * B) / 24 - (
        13 * A / 140 + B / 6
    )
    ladder_c7_wall = 2 * A / 210 - 5 * (A + B) / 120 + (3 * A + 5 * B) / 24 - (
        13 * A / 140 + B / 6
    )
    findings.append(
        {
            "id": "second-correction-last-parameter-block",
            "summary": (
                "The printed per-C7 block of the second velocity correction "
                "(eta^4 term negative) violates the wall condition; with the "
                "eta^4 sign flipped the block vanishes at the wall and equals "
                "the printed eta^2 completion 13A/140 + B/6, and only that "
                "variant reproduces the published polynomials."
            ),
            "evidence": {
                "case": "5.1",
                "printedBlockWallValuePerUnit": printed_c7_wall,
                "correctedBlockWallValuePerUnit": ladder_c7_wall,
                "builderVsBundledPolynomialMaxDev": machine_dev,
            },
        }
    )

    # (e) Every published temperature polynomial prints its (eta^2 - 1)
    # coefficient with the wrong sign; flipping it reproduces the tables.
    rows_sign = []
    for cid in case_data.CASE_IDS:
        _, th_no = table_data.tables_for_case(cid)
        _, payload = table_data.get_table(th_no)
        as_printed = case_data.paper_solution_theta(cid, corrected=False)
        flipped = case_data.paper_solution_theta(cid, corrected=True)
        dev_printed = max(
            abs(as_printed.evaluate(r[0]) - r[2]) for r in payload["rows"]
        )
        dev_flipped = max(
            abs(flipped.evaluate(r[0]) - r[2]) for r in payload["rows"]
        )
        rows_sign.append(
            {
                "case": cid,
                "table": th_no,
                "maxDeviationPrintedSign": dev_printed,
                "maxDeviationFlippedSign": dev_flipped,
            }
        )
    findings.append(
        {
            "id": "theta-polynomial-eta2-sign",
            "summary": (
                "The published temperature polynomials match their own table "
                "columns only after flipping the sign of the (eta^2 - 1) term."
            ),
            "evidence": rows_sign,
        }
    )

    # (f) The temperature equation as printed cannot reproduce the numeric
    # table columns: they are larger by close to (pi*Re/(120*alpha))^2, and
    # no rescaling removes the residual eta-dependent mismatch.
    findings.append(
        {
            "id": "thermal-numeric-column-scale",
            "summary": (
                "Solving the temperature equation exactly as printed yields "
                "values 100x to 225x smaller than the numeric table columns; "
                "the ratio tracks (pi*Re/(120*alpha))^2 and a residual "
                "eta-dependent mismatch of about 1e-3 relative remains under "
                "any constant rescaling, so the columns cannot come from the "
                "printed equation."
            ),
            "evidence": column_scale_rows,
        }
    )
    return findings


def sweep(
    alphas: Sequence[float],
    h_values: Sequence[float],
    Re: float = 50.0,
    Pr: float = 1.0,
    beta: float = case_data.BETA,
    etas: Sequence[float] = COMPARISON_ETAS,
    h: float = 1e-4,
) -> list[dict]:
    """One row per (alpha, H, eta), ordered that way; failures become rows.

    Each (alpha, H) cell is one task of _fork_map.
    """

    def cell(point: tuple[float, float]) -> list[dict]:
        alpha, h_mag = point
        try:
            params = FlowParams(alpha=alpha, Re=Re, H=h_mag, Pr=Pr, beta=beta)
            vel = shoot_velocity(params, h=h)
            th = shoot_thermal(params, vel, h=h)
        except Exception as exc:  # recorded per row, sweep continues
            error = f"{type(exc).__name__}: {exc}"
            return [
                {"alpha": alpha, "H": h_mag, "eta": eta, "F": None, "theta": None, "error": error}
                for eta in etas
            ]
        return [
            {
                "alpha": alpha,
                "H": h_mag,
                "eta": eta,
                "F": vel.at(eta, "F"),
                "theta": th.at(eta, "theta"),
                "error": "",
            }
            for eta in etas
        ]

    cells = [(alpha, h_mag) for alpha in sorted(alphas) for h_mag in sorted(h_values)]
    return [row for rows in _fork_map(cell, cells) for row in rows]


def write_sweep_csv(path, rows: Sequence[dict]) -> None:
    # Error messages may contain commas, so rows go through a real CSV writer.
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["alpha", "H", "eta", "F", "theta", "error"])
        for r in rows:
            writer.writerow(
                [
                    _fmt(r["alpha"]),
                    _fmt(r["H"]),
                    _fmt(r["eta"]),
                    _fmt(r["F"]),
                    _fmt(r["theta"]),
                    r["error"],
                ]
            )
