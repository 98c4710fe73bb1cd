"""Command-line interface.

Subcommands
-----------
run-case            oracle + parameter fit (or published plug-in) + artifacts
fit                 parameter identification only, writes fit records
oracle              shooting solutions as CSV
reproduce-tables    regenerate published comparison tables plus findings
sweep               profile values over an (opening angle, H) grid
export-plot-data    101-point series-vs-oracle profile, CSV or JSON

Exit codes: 0 success, 2 invalid input, 3 numerical failure (shooting or
fit did not converge, or a JSON file would hold a non-finite number), 4
missing data (unknown case or table).  Failures print a one-line JSON error
object to stderr.  A subcommand that fits (run-case, fit and
export-plot-data without --paper-params) always writes its files and prints
its manifest, which records whether each fit converged; if one did not, it
then exits 3.

Every subcommand takes the oracle step --h.  It is checked before any work:
it must be finite, lie in (0, 0.5], divide [0, 1] evenly and give at most
10**6 steps, otherwise the command exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import cases as case_data
from . import report
from . import tables as table_data
from .engine import EngineError, SingularBoundarySystem
from .model import MODE_PAPER, MODE_SCALE_CONSISTENT, ValidationError
from .oracle import DEFAULT_STEP, OracleError, _check_step, shoot_thermal, shoot_velocity
from .polyalg import PolynomialError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_MISSING = 4

_MODE_FLAGS = {"paper": MODE_PAPER, "scale-consistent": MODE_SCALE_CONSISTENT}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors through main's one-line JSON error, exit 2."""

    def error(self, message: str):
        raise CliError(EXIT_INVALID, message)


def _emit_error(code: int, kind: str, message: str) -> int:
    payload = {"error": {"exitCode": code, "type": kind, "message": message}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def parse_table_range(text: str) -> list[int]:
    """\"1-4,9\" -> [1, 2, 3, 4, 9]; an empty string selects nothing.

    A range with an end outside the bundled tables raises MissingTableData
    before it is expanded.
    """
    numbers: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk:
            lo_text, hi_text = chunk.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty table range {chunk!r}")
            # The bundled tables are numbered without gaps, so checking
            # both ends checks the whole range.
            for end in (lo, hi):
                table_data.get_table(end)
            numbers.extend(range(lo, hi + 1))
        else:
            numbers.append(int(chunk))
    return numbers


def _out_dir(path: str) -> Path:
    """Create the --out directory; a path that cannot be one exits 2."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        message = f"--out {path!r} is not a usable directory: {exc.strerror}"
        raise CliError(EXIT_INVALID, message) from None
    return out


def _load_case(ref: str, mode: str | None) -> case_data.CaseDefinition:
    case = case_data.load_case(ref)
    if mode is not None and _MODE_FLAGS[mode] != case.mode:
        case = dataclasses.replace(case, mode=_MODE_FLAGS[mode])
    return case


def _print_manifest(manifest: dict) -> int:
    """Print a manifest, then exit 3 if it names a fit that did not converge."""
    print(json.dumps(manifest, indent=2, sort_keys=True))
    failed = [p for p, ok in manifest.get("converged", {}).items() if not ok]
    if failed:
        raise CliError(EXIT_NUMERICAL, f"fit did not converge: {', '.join(failed)}")
    return EXIT_OK


def _cmd_run_case(args) -> int:
    case = _load_case(args.case, args.mode)
    manifest = report.run_case(
        case,
        _out_dir(args.out),
        use_paper_params=args.paper_params,
        h=args.h,
    )
    return _print_manifest(manifest)


def _cmd_fit(args) -> int:
    """Both fits always run; --problem picks the records that are written."""
    case = _load_case(args.case, args.mode)
    out = _out_dir(args.out)
    solution = report.solve_case(case, args.h, quadrature=args.quadrature)
    problems = ("velocity", "thermal") if args.problem == "both" else (args.problem,)
    files = {p: str(report.write_fit_record(out, case.id, p, solution)) for p in problems}
    manifest = {"case": case.id, "files": files, "converged": solution.converged}
    return _print_manifest(manifest)


def _cmd_oracle(args) -> int:
    case = _load_case(args.case, args.mode)
    out = _out_dir(args.out)
    vel = shoot_velocity(case.params, h=args.h)
    th = shoot_thermal(case.params, vel, h=args.h)
    manifest = {"case": case.id, "files": {}, "shootingParameter": vel.shooting_parameter}
    for problem, solution in (("velocity", vel), ("thermal", th)):
        path = out / f"oracle_{problem}_{case.id}.csv"
        solution.to_csv(path)
        manifest["files"][problem] = str(path)
    return _print_manifest(manifest)


def _cmd_reproduce_tables(args) -> int:
    numbers = parse_table_range(args.tables)
    summary = report.reproduce_tables(numbers, _out_dir(args.out), h=args.h)
    return _print_manifest(summary)


def _cmd_sweep(args) -> int:
    alphas = [float(v) for v in args.alphas.split(",") if v.strip()]
    hs = [float(v) for v in args.hs.split(",") if v.strip()]
    if not alphas or not hs:
        raise CliError(EXIT_INVALID, "sweep needs at least one alpha and one H")
    out = _out_dir(args.out)
    rows = report.sweep(alphas, hs, h=args.h)
    path = out / "sweep.csv"
    report.write_sweep_csv(path, rows)
    n_failed = len({(r["alpha"], r["H"]) for r in rows if r["error"]})
    manifest = {"files": {"sweep": str(path)}, "rows": len(rows), "failedCells": n_failed}
    return _print_manifest(manifest)


def _cmd_export_plot_data(args) -> int:
    case = _load_case(args.case, args.mode)
    out = _out_dir(args.out)
    if args.paper_params:
        solution = report.published_solution(case, args.h)
    else:
        solution = report.solve_case(case, args.h)
    manifest = {"case": case.id, "files": {}}
    if solution.fits:
        manifest["converged"] = solution.converged
    for problem, series in solution.series.items():
        oracle = solution.oracles[problem]
        if args.format == "csv":
            path = out / f"plot_{problem}_{case.id}.csv"
            report.write_plot_csv(path, series, oracle)
        else:
            path = out / f"plot_{problem}_{case.id}.json"
            report.write_plot_json(path, case.id, problem, series, oracle)
        manifest["files"][problem] = str(path)
    return _print_manifest(manifest)


def _add_common(parser: argparse.ArgumentParser, with_case: bool = True) -> None:
    if with_case:
        parser.add_argument("--case", required=True, help="case id (for example 5.1) or JSON file path")
        parser.add_argument(
            "--mode",
            choices=sorted(_MODE_FLAGS),
            default=None,
            help="thermal decomposition (default: the case file's choice)",
        )
    parser.add_argument("--h", type=float, default=DEFAULT_STEP, help="oracle step size")
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="accepted for compatibility; fits are deterministic and ignore it",
    )
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="jhflow",
        description="Series and shooting solutions for wedge-channel flow and heat transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-case", help="full pipeline for one case")
    _add_common(p)
    p.add_argument(
        "--paper-params",
        action="store_true",
        help="evaluate the bundled published solution polynomials instead of fitting",
    )
    p.set_defaults(handler=_cmd_run_case)

    p = sub.add_parser("fit", help="parameter identification only")
    _add_common(p)
    p.add_argument("--problem", choices=("velocity", "thermal", "both"), default="both")
    p.add_argument("--quadrature", choices=("gauss", "uniform"), default="gauss")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("oracle", help="shooting solutions as CSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("reproduce-tables", help="regenerate published tables")
    p.add_argument("--tables", default="1-16", help='range such as "1-16" or "1,3,9"')
    p.add_argument("--h", type=float, default=DEFAULT_STEP)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_reproduce_tables)

    p = sub.add_parser("sweep", help="profiles over an (alpha, H) grid")
    p.add_argument("--alphas", required=True, help="comma-separated opening half-angles in radians")
    p.add_argument("--hs", required=True, help="comma-separated magnetic parameter values")
    p.add_argument("--h", type=float, default=DEFAULT_STEP)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("export-plot-data", help="101-point series and oracle profiles")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--paper-params", action="store_true")
    p.set_defaults(handler=_cmd_export_plot_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_step(args.h)
        return args.handler(args)
    except CliError as exc:
        return _emit_error(exc.code, type(exc).__name__, str(exc))
    except (LookupError, FileNotFoundError) as exc:
        return _emit_error(EXIT_MISSING, type(exc).__name__, str(exc))
    except (OracleError, SingularBoundarySystem, report.NonFiniteOutput) as exc:
        return _emit_error(EXIT_NUMERICAL, type(exc).__name__, str(exc))
    except (ValidationError, EngineError, PolynomialError, ValueError) as exc:
        return _emit_error(EXIT_INVALID, type(exc).__name__, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
