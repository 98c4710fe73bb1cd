"""jhflow benchmark: run one workload in fresh processes, check it, print metrics.

    python3 bench/run.py --workload identify|reproduce|sweep --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  Each round of the workload runs in a fresh
process (bench/worker.py), as each `jhflow` call does.  The number of rounds
is fixed by S and the workload's nominal round time, never by how fast the
code under test runs, so every version is timed over the same number of
rounds.  With --trace 1 the run is one untraced and one traced round instead.
Every round's files are then checked against an independent reference
solution (bench/reference.py) and the method's own properties
(bench/checks.py).

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, each metric with its value and unit.  Untraced runs report
the end-to-end metrics, traced runs the per-layer ones; the traced run also
writes its spans to bench/traces/<workload>-seed<N>.json.  The exit code is 0
when every check passed, 1 otherwise, and 2 when the workload could not run.
"""

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
TRACES = HERE / "traces"
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Nominal seconds of one round on a 2-vCPU host, which set the round count:
# --seconds 30 gives 3 rounds of identify and 5 of reproduce and sweep.
ROUND_S = {"identify": 10.0, "reproduce": 6.0, "sweep": 6.0}


class WorkerFailed(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "report.bytes_written":
        return "bytes"
    return "count"


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def fastest_round(rounds: list[dict], key: str) -> float:
    """One round's time with each operation at its fastest across the rounds.

    Every round runs the same operations in its own fresh process, and a busy
    host only ever adds time, so the minimum per operation is the steadiest
    estimate of its cost.
    """
    return sum(min(times) for times in zip(*(r[key] for r in rounds)))


def run_worker(args, out: Path, timeout: float, trace_file: Path | None = None) -> dict:
    """One round in a fresh worker process; its result with `setup_s` added.

    The worker is started before this process imports numpy, scipy or
    jhflow, so its set-up is as cold as a user's first command.
    """
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--out", str(out),
    ]
    if trace_file:
        command += ["--trace-file", str(trace_file)]
    spawned = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"workload process exceeded {timeout:.0f} s")
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerFailed(f"workload process failed with exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    timeout = max(170.0, 3 * args.seconds + 60)
    try:
        if args.trace:
            # One untraced and one traced round on the same inputs, so the
            # counts repeat exactly for a seed and the difference is the overhead.
            TRACES.mkdir(exist_ok=True)
            plain = run_worker(args, out / "round-0", timeout)
            traced = run_worker(args, out / "traced", timeout,
                                TRACES / f"{args.workload}-seed{args.seed}.json")
            workers = [plain, traced]
        else:
            count = max(1, round(args.seconds / ROUND_S[args.workload]))
            workers = [run_worker(args, out / f"round-{k}", timeout) for k in range(count)]
    except WorkerFailed as error:
        print(error, file=sys.stderr)
        return 2
    rounds = [w["round"] for w in workers]

    sys.path.insert(0, str(HERE))
    from checks import check_round

    failures = []
    for r in rounds:
        failures += check_round(args.workload, args.seed, Path(r["dir"]))
    for check, message in failures:
        print(f"CHECK FAILED [{check}] {message}", file=sys.stderr)
    correct = not failures

    if args.trace:
        layers = dict(traced["layers"])
        layers["report.bytes_written"] = bytes_under(out / "traced")
        layers["trace.overhead_s"] = traced["round"]["wall_s"] - plain["round"]["wall_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        values = {
            "setup_s": min(w["setup_s"] for w in workers),
            "wall_s": fastest_round(rounds, "op_wall_s"),
            "cpu_s": fastest_round(rounds, "op_cpu_s"),
            "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    if correct:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
