"""The benchmark's workloads: the jhflow command lines each round runs.

Every operation is one `jhflow` command line, run in-process through
`jhflow.cli.main`, one after another on one thread (a closed loop with one
client).  A workload's inputs follow from its seed alone; this module only
builds them and needs nothing but the standard library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The paper's eight channel configurations, written out here rather than read
# from jhflow.cases so that the checks hold jhflow to the paper's parameters.
RE = 50.0
PR = 1.0
BETA = 3.492161428e-13
CASES = {
    "5.1": (math.pi / 24, 0.0),
    "5.2": (math.pi / 24, 250.0),
    "5.3": (math.pi / 24, 500.0),
    "5.4": (math.pi / 24, 1000.0),
    "5.5": (math.pi / 36, 0.0),
    "5.6": (math.pi / 36, 250.0),
    "5.7": (math.pi / 36, 500.0),
    "5.8": (math.pi / 36, 1000.0),
}
CASE_IDS = tuple(CASES)
TABLES = "1-16"

SWEEP_ALPHAS = 6
SWEEP_HS = 4
SWEEP_ALPHA_RANGE = (0.05, 0.2)
SWEEP_H_RANGE = (0.0, 1000.0)


def case_params(case_id: str) -> tuple[float, float, float, float, float]:
    """(alpha, Re, H, Pr, beta) of a bundled case."""
    alpha, h_mag = CASES[case_id]
    return alpha, RE, h_mag, PR, BETA


@dataclass(frozen=True)
class Op:
    """One command line; `cells` is how many operations it counts for."""

    argv: tuple[str, ...]
    cells: int = 1


def identify_seeds(seed: int) -> dict[str, int]:
    """The `--seed` handed to `run-case` for each case, the LM's random starts."""
    rng = random.Random(seed)
    return {case_id: rng.randrange(2**31) for case_id in CASE_IDS}


def reproduce_order(seed: int) -> list[str]:
    order = list(CASE_IDS)
    random.Random(seed).shuffle(order)
    return order


def sweep_grid(seed: int) -> tuple[list[float], list[float]]:
    """Distinct (alpha, H) values, rounded so they print exactly in the CSV."""
    rng = random.Random(seed)
    alphas: set[float] = set()
    while len(alphas) < SWEEP_ALPHAS:
        alphas.add(round(rng.uniform(*SWEEP_ALPHA_RANGE), 4))
    hs: set[float] = set()
    while len(hs) < SWEEP_HS:
        hs.add(round(rng.uniform(*SWEEP_H_RANGE), 1))
    return sorted(alphas), sorted(hs)


def ops(workload: str, seed: int, out: str) -> list[Op]:
    """The operations of one round, writing under `out`; every round runs the same."""
    if workload == "identify":
        return [
            Op(("run-case", "--case", case_id, "--seed", str(lm_seed), "--out", out))
            for case_id, lm_seed in identify_seeds(seed).items()
        ]
    if workload == "reproduce":
        return [Op(("reproduce-tables", "--tables", TABLES, "--out", out))] + [
            Op(("run-case", "--case", case_id, "--paper-params", "--out", out))
            for case_id in reproduce_order(seed)
        ]
    if workload == "sweep":
        alphas, hs = sweep_grid(seed)
        argv = (
            "sweep",
            "--alphas", ",".join(repr(a) for a in alphas),
            "--hs", ",".join(repr(h) for h in hs),
            "--out", out,
        )
        return [Op(argv, cells=len(alphas) * len(hs))]
    raise KeyError(f"unknown workload {workload!r}")


WORKLOADS = ("identify", "reproduce", "sweep")
