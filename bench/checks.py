"""Checks of the files one round wrote, against the reference solution and
against properties the method must have; never against stored output.

`check_round` returns a list of (check, message) failures, empty when every
check passes.  The tolerances come from jhflow's acceptance criteria where
one applies, and otherwise from the figures measured in bench/README.md.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

import reference
import workloads
from reference import ETAS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from jhflow import tables as published  # noqa: E402  (the digitized columns only)

TOL_F_SERIES = 1e-5  # criterion 5: fitted F against the oracle, absolute
TOL_THETA_SERIES = 1e-2  # criterion 6: fitted theta, relative to max|theta|
TOL_PUBLISHED = 1e-7  # criterion 1: velocity oracle against the digitized columns
TOL_F_NUMERIC = 1e-10  # oracle F against the reference (seen: 1e-12), absolute
TOL_THETA_NUMERIC = 1e-9  # oracle theta against the reference (seen: 2e-12), relative
TOL_OBJECTIVE = 1e-9  # recorded against recomputed objective (seen: 2.5e-12), relative
ROUNDING = 1e-13  # boundary values of a polynomial, relative to sum |coefficient|
ROUNDING_GRID = 1e-11  # F(1) and theta(1)/max|theta| of a shooting solution
FINDING_IDS = (
    "thermal-seed-sign",
    "assembled-velocity-eta2-missing-factor",
    "thermal-constant-D-mismatch",
    "dissipation-weight-one-vs-H",
    "thermal-numeric-column-scale",
)
GAUSS_NODES = 30


def _gauss():
    x, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    return (x + 1.0) / 2.0, w / 2.0


class Poly:
    """A written [[exponent, coefficient], ...] polynomial, evaluated with numpy."""

    def __init__(self, pairs):
        self.exps = np.array([int(e) for e, _ in pairs])
        self.coefs = np.array([float(c) for _, c in pairs])
        if self.exps.size and self.exps.min() < 0:
            raise ValueError("polynomial has negative exponents")

    def __call__(self, eta, d: int = 0):
        eta = np.asarray(eta, dtype=float)
        factor = np.ones_like(self.coefs)
        for k in range(d):
            factor = factor * (self.exps - k)
        powers = np.clip(self.exps - d, 0, None)
        return (factor * self.coefs * eta[..., None] ** powers).sum(axis=-1)

    @property
    def size(self) -> float:
        return float(np.abs(self.coefs).sum())


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _column(rows: list[dict], name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def _case_reference(case_id: str):
    return reference.solve(*workloads.case_params(case_id))


class Checker:
    def __init__(self):
        self.failures: list[tuple[str, str]] = []

    def expect(self, check: str, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append((check, message))

    def near(self, check: str, what: str, got, want, tol: float) -> None:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.expect(check, False, f"{what}: {got.size} values where {want.size} were expected")
            return
        err = float(np.max(np.abs(got - want)))
        self.expect(check, err <= tol, f"{what}: max deviation {err:.3e} above {tol:.1e}")

    # -- files shared by run-case outputs ---------------------------------

    def comparison(self, out: Path, case_id: str) -> None:
        """comparison_*.csv numeric columns against the reference."""
        F, theta = _case_reference(case_id)
        for problem, want, tol in (
            ("velocity", F, TOL_F_NUMERIC),
            ("thermal", theta, TOL_THETA_NUMERIC * np.max(np.abs(theta))),
        ):
            rows = _read_csv(out / f"comparison_{problem}_{case_id}.csv")
            self.near("comparison.eta", f"{problem} {case_id} eta", _column(rows, "eta"), ETAS, 0.0)
            self.near("comparison.numeric", f"{problem} {case_id} numeric", _column(rows, "numeric"), want, tol)

    def fitted_case(self, out: Path, case_id: str) -> None:
        """Fitted polynomials, their boundary values and recorded objectives."""
        alpha, Re, H, Pr, beta = workloads.case_params(case_id)
        F_ref, theta_ref = _case_reference(case_id)
        theta_max = float(np.max(np.abs(theta_ref)))
        solution = {
            p: Poly(json.loads((out / f"solution_{p}_{case_id}.json").read_text())["polynomial"])
            for p in ("velocity", "thermal")
        }
        F, theta = solution["velocity"], solution["thermal"]
        eta = np.asarray(ETAS)
        self.near("identify.velocity_series", f"F {case_id}", F(eta), F_ref, TOL_F_SERIES)
        self.near(
            "identify.thermal_series", f"theta {case_id}", theta(eta), theta_ref,
            TOL_THETA_SERIES * theta_max,
        )
        for what, got, want, size in (
            ("F(0)", F(0.0), 1.0, F.size),
            ("F'(0)", F(0.0, 1), 0.0, F.size),
            ("F(1)", F(1.0), 0.0, F.size),
            ("theta'(0)", theta(0.0, 1), 0.0, theta.size),
            ("theta(1)", theta(1.0), 0.0, theta.size),
        ):
            self.near("identify.boundary", f"{what} {case_id}", got, want, ROUNDING * size)

        nodes, weights = _gauss()
        A, B = 2.0 * alpha * Re, (4.0 - H) * alpha**2
        f, df = F(nodes), F(nodes, 1)
        residual = {
            "velocity": F(nodes, 3) + A * f * df + B * df,
            "thermal": (
                theta(nodes, 2)
                + (4.0 * alpha**2 + 2.0 * alpha * Re * Pr * f) * theta(nodes)
                + beta * Pr * ((H + 4.0 * alpha**2) * f * f + df * df)
            ) / (beta * Pr * (H + 4.0 * alpha**2) + 1e-300),
        }
        for problem, r in residual.items():
            recorded = json.loads((out / f"fit_{problem}_{case_id}.json").read_text())["objective"]
            recomputed = float(np.sum(weights * r * r))
            gap = abs(recorded - recomputed) / abs(recomputed)
            self.expect(
                "identify.objective", gap <= TOL_OBJECTIVE,
                f"{problem} {case_id}: recorded objective {recorded!r} is "
                f"{gap:.2e} from the recomputed {recomputed!r}",
            )

    # -- workloads -------------------------------------------------------

    def identify(self, out: Path) -> None:
        for case_id in workloads.CASE_IDS:
            self.fitted_case(out, case_id)
            self.comparison(out, case_id)

    def reproduce(self, out: Path) -> None:
        for number in range(1, 17):
            problem, payload = published.get_table(number)
            case_id = payload["case"]
            F, theta = _case_reference(case_id)
            rows = _read_csv(out / f"table_{number:02d}.csv")
            what = f"table {number} numeric"
            self.near("reproduce.eta", f"table {number} eta", _column(rows, "eta"), ETAS, 0.0)
            numeric = _column(rows, "numeric")
            if problem == "velocity":
                digitized = [row[2] for row in payload["rows"]]
                self.near("reproduce.published", what, numeric, digitized, TOL_PUBLISHED)
                self.near("reproduce.velocity_numeric", what, numeric, F, TOL_F_NUMERIC)
            else:
                tol = TOL_THETA_NUMERIC * np.max(np.abs(theta))
                self.near("reproduce.thermal_numeric", what, numeric, theta, tol)
        listed = json.loads((out / "findings.json").read_text())["findings"]
        by_id = {f.get("id"): f for f in listed}
        for fid in FINDING_IDS:
            self.expect("reproduce.findings", bool(by_id.get(fid, {}).get("evidence")),
                        f"finding {fid!r} missing or without evidence")
        for case_id in workloads.CASE_IDS:
            self.comparison(out, case_id)

    def sweep(self, out: Path, seed: int) -> None:
        alphas, hs = workloads.sweep_grid(seed)
        cells: dict[tuple[float, float], list[dict]] = {}
        for row in _read_csv(out / "sweep.csv"):
            cells.setdefault((float(row["alpha"]), float(row["H"])), []).append(row)
        want_cells = {(a, h) for a in alphas for h in hs}
        self.expect("sweep.rows", set(cells) == want_cells,
                    f"cells {sorted(set(cells) ^ want_cells)} differ from the requested grid")
        for (alpha, h_mag), rows in sorted(cells.items()):
            what = f"alpha={alpha} H={h_mag}"
            errors = [r["error"] for r in rows if r["error"]]
            self.expect("sweep.rows", len(rows) == len(ETAS) and not errors,
                        f"{what}: {len(rows)} rows, errors {errors[:1]}")
            if errors or (alpha, h_mag) not in want_cells:
                continue
            F_ref, theta_ref = reference.solve(alpha, workloads.RE, h_mag, workloads.PR, workloads.BETA)
            theta_max = float(np.max(np.abs(theta_ref)))
            self.near("sweep.eta", f"{what} eta", _column(rows, "eta"), ETAS, 0.0)
            F, theta = _column(rows, "F"), _column(rows, "theta")
            self.near("sweep.values", f"{what} F", F, F_ref, TOL_F_NUMERIC)
            self.near("sweep.values", f"{what} theta", theta, theta_ref, TOL_THETA_NUMERIC * theta_max)
            if len(rows) == len(ETAS):
                self.near("sweep.boundary", f"{what} F(0)", F[0], 1.0, ROUNDING_GRID)
                self.near("sweep.boundary", f"{what} F(1)", F[-1], 0.0, ROUNDING_GRID)
                self.near("sweep.boundary", f"{what} theta(1)", theta[-1], 0.0, ROUNDING_GRID * theta_max)


def check_round(workload: str, seed: int, out: Path) -> list[tuple[str, str]]:
    """Failures of every check on the files a round of `workload` wrote to `out`."""
    checker = Checker()
    try:
        if workload == "sweep":
            checker.sweep(out, seed)
        else:
            getattr(checker, workload)(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # missing or malformed output
        checker.failures.append(("files", f"{type(exc).__name__}: {exc}"))
    return checker.failures
