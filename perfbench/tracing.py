"""In-memory spans around the public functions of each transitopt module.

Spans are recorded from outside the package: `Tracer.install` replaces each
listed function, in every loaded ``transitopt`` module that holds it, with a
wrapper that records (name, start, end, parent, operation id). Nothing under
``src/`` is changed. Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function, span name). cli commands are wrapped so that their
# self time is the command's own work outside the other layers.
WRAPPED = [
    ("network", "load_scenario", "network.load_scenario"),
    ("network", "validate_scenario", "network.validate_scenario"),
    ("model", "build_model", "model.build_model"),
    ("model", "model_stats", "model.model_stats"),
    ("model", "fix_baseline", "model.fix_baseline"),
    ("lpio", "write_lp", "lpio.write_lp"),
    ("backend", "solve", "backend.solve"),
    ("backend", "decode_plan", "backend.decode_plan"),
    ("evaluator", "assign_flows", "evaluator.assign_flows"),
    ("evaluator", "compute_metrics", "evaluator.compute_metrics"),
    ("evaluator", "conservation_residuals", "evaluator.conservation_residuals"),
    ("oracle", "certify", "oracle.certify"),
    ("cli", "cmd_validate", "cli.validate"),
    ("cli", "cmd_export", "cli.export"),
    ("cli", "cmd_solve", "cli.solve"),
    ("cli", "cmd_evaluate", "cli.evaluate"),
    ("cli", "cmd_compare", "cli.compare"),
    ("cli", "cmd_oracle", "cli.oracle"),
]

# (metric, unit); every traced run reports all of them, 0 where a workload
# never reaches the layer. Times and counts are per operation, except
# cli.import_s (per fresh import of the package), the model sizes (per
# build) and lpio.lp_bytes (per export).
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.validate_s", "s"),
    ("cli.export_s", "s"),
    ("cli.solve_s", "s"),
    ("cli.evaluate_s", "s"),
    ("cli.compare_s", "s"),
    ("cli.oracle_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("network.load_scenario_s", "s"),
    ("network.validate_scenario_s", "s"),
    ("model.build_model_s", "s"),
    ("model.model_stats_s", "s"),
    ("model.fix_baseline_s", "s"),
    ("model.variables", "count"),
    ("model.binaries", "count"),
    ("model.rows", "count"),
    ("model.nonzeros", "count"),
    ("lpio.write_lp_s", "s"),
    ("lpio.lp_bytes", "bytes"),
    ("backend.solve_s", "s"),
    ("backend.highs_s", "s"),
    ("backend.assembly_s", "s"),
    ("backend.solve_calls", "count"),
    ("backend.optimal_share", "ratio"),
    ("backend.decode_plan_s", "s"),
    ("evaluator.assign_flows_s", "s"),
    ("evaluator.assign_flows_calls", "count"),
    ("evaluator.milp_s", "s"),
    ("evaluator.milp_calls", "count"),
    ("evaluator.compute_metrics_s", "s"),
    ("evaluator.conservation_residuals_s", "s"),
    ("oracle.certify_s", "s"),
    ("oracle.enumerated", "count"),
    ("oracle.routable_share", "ratio"),
    ("oracle.cross_checked", "count"),
]


def _model_size(model) -> dict[str, float]:
    return {
        "model.builds": 1,
        "model.variables": len(model.variables),
        "model.binaries": sum(1 for v in model.variables if v.kind == "B"),
        "model.rows": len(model.rows),
        "model.nonzeros": sum(len(r.coeffs) for r in model.rows),
    }


# Counters read off a wrapped call's result, outside its span.
_ON_RETURN = {
    "model.build_model": _model_size,
    "lpio.write_lp": lambda text: {"lpio.writes": 1, "lpio.lp_bytes": len(text)},
    "backend.solve": lambda res: {"backend.solve_calls": 1,
                                  "backend.optimal": res.status == "optimal",
                                  "backend.highs_s": res.wall_time_s},
    "evaluator.assign_flows": lambda fa: {"evaluator.assign_flows_calls": 1},
    "evaluator.milp": lambda res: {"evaluator.milp_calls": 1},
    "oracle.certify": lambda rep: {"oracle.enumerated": rep.enumerated_count,
                                   "oracle.routable": rep.enumerated_count - rep.unroutable_count,
                                   "oracle.cross_checked": rep.cross_checked},
}


class Tracer:
    """Spans and counters of one traced phase; one client, one thread."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        on_return = _ON_RETURN.get(name)

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_return is not None:
                for key, val in on_return(result).items():
                    self.counts[key] += val
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a transitopt module binds it."""
        import transitopt.cli  # noqa: F401  (loads every module)
        import transitopt.evaluator as evaluator

        targets = [(sys.modules[f"transitopt.{mod}"], fn, name) for mod, fn, name in WRAPPED]
        # The evaluator's own HiGHS calls: the small per-destination programs.
        targets.append((evaluator, "milp", "evaluator.milp"))
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "transitopt" or key.startswith("transitopt."))]
        for home, fn_name, name in targets:
            original = getattr(home, fn_name)
            wrapper = self._wrap(original, name)
            holders = [home] if name == "evaluator.milp" else modules
            for mod in holders:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def absorb(self, path: Path, op: int) -> None:
        """Add the spans and counters a traced subprocess wrote to `path`."""
        doc = json.loads(path.read_text())
        base = len(self.spans)
        for name, start, end, parent, _ in doc["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        for key, val in doc["counts"].items():
            self.counts[key] += val

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))

    def self_times(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return total


def per_layer(tracer: Tracer, ops: int, artifact_bytes: float) -> dict[str, float]:
    """The PER_LAYER metrics of one traced phase of `ops` operations."""
    self_s = tracer.self_times()
    c = tracer.counts
    builds = c.get("model.builds", 0.0)
    imports = sum(1 for span in tracer.spans if span[0] == "cli.import")
    out = {
        "cli.import_s": self_s.get("cli.import", 0.0) / imports if imports else 0.0,
        "cli.artifact_bytes": artifact_bytes / ops,
        "backend.assembly_s": (self_s.get("backend.solve", 0.0) - c.get("backend.highs_s", 0.0)) / ops,
        "backend.highs_s": c.get("backend.highs_s", 0.0) / ops,
        "backend.optimal_share": (c["backend.optimal"] / c["backend.solve_calls"]
                                  if c.get("backend.solve_calls") else 0.0),
        "lpio.lp_bytes": c["lpio.lp_bytes"] / c["lpio.writes"] if c.get("lpio.writes") else 0.0,
        "oracle.routable_share": (c["oracle.routable"] / c["oracle.enumerated"]
                                  if c.get("oracle.enumerated") else 0.0),
    }
    for key in ("model.variables", "model.binaries", "model.rows", "model.nonzeros"):
        out[key] = c[key] / builds if builds else 0.0
    for key in ("backend.solve_calls", "evaluator.assign_flows_calls", "evaluator.milp_calls",
                "oracle.enumerated", "oracle.cross_checked"):
        out[key] = c.get(key, 0.0) / ops
    for metric, unit in PER_LAYER:
        if metric not in out:
            out[metric] = self_s.get(metric[:-2], 0.0) / ops
    return {metric: out[metric] for metric, _ in PER_LAYER}
