"""The workload process: imports jhflow, runs one round of operations, times it.

    python3 bench/worker.py --workload W --seed N --out DIR [--trace-file PATH]

`bench/run.py` starts this as a fresh process for every round, so the import
of `jhflow.cli` here is the cold set-up every CLI call pays, and nothing a
round leaves in memory can speed up the next one: a real `jhflow` call starts
in a fresh process too.  The jhflow imported is the one under `src/` next to
this directory, never an installed copy.  The round writes under DIR.  With
--trace-file the round runs traced and its spans are saved there.  The last
line of stdout is one JSON object with the import-done clock reading, the
round's figures, the peak RSS and, when traced, the per-layer metrics;
jhflow's own stdout and stderr are captured per operation and kept out of it.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import jhflow.cli  # noqa: E402  (the timed cold set-up)

READY = time.monotonic()
if not Path(jhflow.cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"jhflow was imported from {jhflow.cli.__file__}, not from {ROOT / 'src'}")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402


def run_op(op: workloads.Op) -> tuple[int, str]:
    """Run one command line; returns (failed cells, note for stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = jhflow.cli.main(list(op.argv))
    except Exception:  # an uncaught fault of the program is a failed operation
        return op.cells, traceback.format_exc()
    if code != 0:
        return op.cells, f"exit {code}: {stderr.getvalue().strip()}"
    if op.argv[0] == "sweep":
        failed = json.loads(stdout.getvalue())["failedCells"]
        return failed, f"{failed} failed sweep cells" if failed else ""
    return 0, ""


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def run_round(workload: str, seed: int, out: Path) -> dict:
    """Run one round; per-operation wall and CPU seconds, and the round's wall time."""
    ops = workloads.ops(workload, seed, str(out))
    failed = 0
    op_wall, op_cpu = [], []
    start = time.perf_counter()
    for op in ops:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        n, note = run_op(op)
        op_wall.append(time.perf_counter() - t0)
        op_cpu.append(cpu_seconds() - cpu0)
        failed += n
        if note:
            print(f"{' '.join(op.argv)}: {note}", file=sys.stderr)
    return {
        "dir": str(out),
        "wall_s": time.perf_counter() - start,
        "op_wall_s": op_wall,
        "op_cpu_s": op_cpu,
        "attempted": sum(op.cells for op in ops),
        "failed": failed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    layers = None
    if args.trace_file:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            result = run_round(args.workload, args.seed, Path(args.out))
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        tracer.write(args.trace_file, workload=args.workload, seed=args.seed, round=result)
    else:
        result = run_round(args.workload, args.seed, Path(args.out))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "ready": READY,
        "round": result,
        "peak_rss_mb": peak_kb / 1024.0,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
