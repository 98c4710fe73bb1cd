"""Spans around the calls into jhflow's layers, recorded from outside jhflow.

The tracer wraps public names only and rebinds each wrapped function in every
loaded jhflow module that holds it, since the modules import one another's
names with `from .x import y`.  A name that jhflow no longer has is listed as
absent; the metrics read from it are then 0.

Each span records a name, a start, an end and its parent; the spans stay in
memory until `write` saves them as JSON.  A layer's self time is its span's
duration minus the time of the wrapped calls made inside it.  LaurentPoly
operations and OracleSolution.at run hundreds of thousands of times, so they
are counted and timed in the same way but keep no span of their own.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# (module, name, keeps spans) of each wrapped function.
FUNCTIONS = (
    ("cli", "main", True),
    ("fitting", "fit", True),
    ("fitting", "levenberg_marquardt", True),
    ("fitting", "residual_vector", True),
    ("model", "velocity_solution", True),
    ("model", "thermal_solution", True),
    ("engine", "run_stages", True),
    ("engine", "solve_linear_stage", True),
    ("oracle", "shoot_velocity", True),
    ("oracle", "shoot_thermal", True),
)
# (module, class, method, keeps spans) of each wrapped method.
METHODS = (
    ("oracle", "OracleSolution", "at", False),
    ("oracle", "OracleSolution", "to_csv", True),
) + tuple(
    ("polyalg", "LaurentPoly", name, False)
    for name in ("__add__", "__mul__", "__rmul__", "differentiate", "antiderivative", "evaluate")
)
REPORT_WRITERS = "write_"  # every public report.write_* function
PACKAGE = "jhflow"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.shots: dict[str, set] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [start, child s, span id]
        self._patches: list[tuple] = []
        self._origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, keep: bool, hook=None):
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        origin = self._origin

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            span_id = len(spans) if keep else parent
            if keep:
                spans.append(None)  # reserve the id; filled on exit
            frame = [perf(), 0.0, span_id]
            stack.append(frame)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    spans[span_id] = [span_id, parent, name, frame[0] - origin, end - origin]

        return wrapper

    def _fit_hook(self, fn, args, kwargs):
        spec = inspect.signature(fn).bind(*args, **kwargs).arguments.get("spec")
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        problem = getattr(spec, "problem", "unknown")
        self.seconds[f"fit_{problem}"] += time.perf_counter() - start
        if not getattr(result, "converged", True):
            self.counts["unconverged_fits"] += 1
        return result

    def _lm_hook(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        fun = bound.arguments["fun"]
        counts = self.counts

        def counted(x):
            counts["lm_evals"] += 1
            return fun(x)

        bound.arguments["fun"] = counted
        result = fn(*bound.args, **bound.kwargs)
        iterations, converged = result[1], result[2]
        counts["lm_iterations"] += iterations
        counts["lm_capped_starts"] += not converged
        return result

    def _shot_hook(self, key: str):
        seen = self.shots.setdefault(key, set())

        def hook(fn, args, kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.add((repr(bound.arguments.get("params")), bound.arguments.get("h")))
            return fn(*args, **kwargs)

        return hook

    # -- installing --------------------------------------------------------

    def _module(self, short: str):
        return sys.modules.get(f"{PACKAGE}.{short}")

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        hooks = {
            "fitting.fit": self._fit_hook,
            "fitting.levenberg_marquardt": self._lm_hook,
            "oracle.shoot_velocity": self._shot_hook("velocity"),
            "oracle.shoot_thermal": self._shot_hook("thermal"),
        }
        targets = list(FUNCTIONS)
        report = self._module("report")
        writers = [n for n in vars(report) if n.startswith(REPORT_WRITERS)] if report else []
        targets += [("report", n, True) for n in writers if inspect.isfunction(getattr(report, n))]
        if not writers:
            self.absent.append(f"report.{REPORT_WRITERS}*")
        for short, attr, keep in targets:
            name = f"{short}.{attr}"
            module = self._module(short)
            original = getattr(module, attr, None) if module else None
            if not callable(original):
                self.absent.append(name)
                continue
            self._rebind(original, self._wrap(name, original, keep, hooks.get(name)))
        for short, cls_name, attr, keep in METHODS:
            name = f"{short}.{cls_name}.{attr}"
            cls = getattr(self._module(short), cls_name, None)
            original = vars(cls).get(attr) if isinstance(cls, type) else None
            if not callable(original):
                self.absent.append(name)
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, keep))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, by the names BENCHMARK.json lists."""
        poly = [n for n in self.stats if n.startswith("polyalg.")]
        writers = [n for n in self.stats if n.startswith("report.") or n.endswith(".to_csv")]
        shots = sum(self.calls(f"oracle.shoot_{k}") - len(v) for k, v in self.shots.items())
        return {
            "fitting.fit.calls": self.calls("fitting.fit"),
            "fitting.fit_velocity_s": self.seconds["fit_velocity"],
            "fitting.fit_thermal_s": self.seconds["fit_thermal"],
            "fitting.lm.starts": self.calls("fitting.levenberg_marquardt"),
            "fitting.lm.iterations": self.counts["lm_iterations"],
            "fitting.lm.capped_starts": self.counts["lm_capped_starts"],
            "fitting.lm.evals": self.counts["lm_evals"],
            "fitting.residual_vector.calls": self.calls("fitting.residual_vector"),
            "fitting.residual_vector.self_s": self.self_s("fitting.residual_vector"),
            "fitting.unconverged_fits": self.counts["unconverged_fits"],
            "model.velocity_solution.calls": self.calls("model.velocity_solution"),
            "model.velocity_solution.self_s": self.self_s("model.velocity_solution"),
            "model.thermal_solution.calls": self.calls("model.thermal_solution"),
            "model.thermal_solution.self_s": self.self_s("model.thermal_solution"),
            "engine.run_stages.calls": self.calls("engine.run_stages"),
            "engine.run_stages.self_s": self.self_s("engine.run_stages"),
            "engine.solve_linear_stage.calls": self.calls("engine.solve_linear_stage"),
            "polyalg.ops": sum(self.calls(n) for n in poly),
            "polyalg.self_s": sum(self.self_s(n) for n in poly),
            "oracle.shoot_velocity.calls": self.calls("oracle.shoot_velocity"),
            "oracle.shoot_velocity.self_s": self.self_s("oracle.shoot_velocity"),
            "oracle.shoot_thermal.calls": self.calls("oracle.shoot_thermal"),
            "oracle.shoot_thermal.self_s": self.self_s("oracle.shoot_thermal"),
            "oracle.repeat_shots": shots,
            "oracle.at.calls": self.calls("oracle.OracleSolution.at"),
            "report.write.self_s": sum(self.self_s(n) for n in writers),
            "cli.main.calls": self.calls("cli.main"),
            "cli.main.self_s": self.self_s("cli.main"),
        }

    def write(self, path, **header) -> None:
        payload = {
            **header,
            "absent": self.absent,
            "layers": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "spanFields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
