"""Command-line pipeline: validate, solve, evaluate, compare, oracle, export.

Exit codes are a stable contract: 0 success, 1 validation failure (a
document the loader refuses included), 2 I/O failure (unreadable file or
malformed JSON), 3 infeasible, 4 oracle mismatch, 5 solver, decode or evaluator
failure. All artifacts land under --out with fixed names; a manifest records
checksums of everything written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable

from .backend import DecodeError, SolverConfig, SolverError, decode_plan, solve
from .evaluator import (EvaluationError, InsufficientCapacityError, UnroutableDemandError,
                        assign_flows, compute_metrics)
from .lpio import lp_chunks
from .model import build_model, model_stats
from .network import Scenario, ScenarioError, load_scenario, validate_scenario
from .oracle import OracleSizeError, certify, enumerate_plans
from .plan import PlanError, ServicePlan, load_plan

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_MISMATCH = 4
EXIT_FAILURE = 5

# Failures that end a command with EXIT_FAILURE.
_FAILURES = (SolverError, DecodeError, EvaluationError)
# A plan that cannot carry its demand: no path, or not within capacity.
_INFEASIBLE_PLAN = (UnroutableDemandError, InsufficientCapacityError)

__all__ = ["main", "entry"]


class _Exit(Exception):
    """Ends a command early with ``code``; its stderr line is already out."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _sha256(path: Path) -> str:
    with path.open("rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


class _Run:
    """Collects artifacts for one command and writes the manifest."""

    def __init__(self, args, command: str):
        self.command = command
        self.args = args
        self.out = Path(args.out)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file at --out or on the way to it
            _err(f"error: cannot create output directory {self.out}: {exc}")
            raise _Exit(EXIT_IO) from exc
        self.artifacts: dict[str, str] = {}
        self.started = datetime.now(timezone.utc).isoformat()
        self.extra: dict = {}

    def write_chunks(self, name: str, chunks: Iterable[str]) -> Path:
        """Write ``chunks`` to artifact ``name`` one at a time, hashing the
        bytes as they go out."""
        path = self.out / name
        h = hashlib.sha256()
        with path.open("wb") as f:
            for chunk in chunks:
                data = chunk.encode()
                h.update(data)
                f.write(data)
        self.artifacts[name] = h.hexdigest()
        return path

    def write_text(self, name: str, text: str) -> Path:
        return self.write_chunks(name, (text,))

    def write_json(self, name: str, obj) -> Path:
        return self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "scenario_path": str(self.args.scenario),
            "scenario_sha256": _sha256(Path(self.args.scenario)) if Path(self.args.scenario).is_file() else None,
            "options_overrides": _override_dict(self.args),
            "out_dir": str(self.out),
            "started_at": self.started,
            "finished_at": datetime.now(timezone.utc).isoformat(),
            "artifacts": self.artifacts,
        }
        if hasattr(self.args, "time_limit"):   # the commands that solve
            manifest["solver"] = {"time_limit_s": self.args.time_limit, "rel_gap": self.args.gap}
        manifest.update(self.extra)
        (self.out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _override_dict(args) -> dict:
    out = {}
    if getattr(args, "no_transfers", False):
        out["allow_transfers"] = False
    if getattr(args, "symmetry", False):
        out["enforce_symmetry"] = True
    if getattr(args, "capacity", False):
        out["enforce_capacity"] = True
    if getattr(args, "full_pattern", False):
        out["require_full_pattern"] = True
    if getattr(args, "integer_fleet", False):
        out["integer_fleet"] = True
    return out


def _read_json(path: str, what: str) -> Any:
    """The parsed JSON file; unreadable or malformed ends with EXIT_IO."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        _err(f"error: cannot read {what} file {p}: {exc}")
        raise _Exit(EXIT_IO) from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
        _err(f"error: {p}: not valid JSON ({exc})")
        raise _Exit(EXIT_IO) from exc


def _load_scenario(args) -> Scenario:
    doc = _read_json(args.scenario, "scenario")
    try:
        scenario = load_scenario(doc)
    except ScenarioError as exc:
        _err(f"invalid scenario: {exc}")
        raise _Exit(EXIT_INVALID) from exc
    overrides = _override_dict(args)
    if overrides:
        scenario = replace(scenario, options=replace(scenario.options, **overrides))
    return scenario


def _validated(args) -> Scenario:
    scenario = _load_scenario(args)
    violations = validate_scenario(scenario)
    if violations:
        for v in violations:
            _err(f"invalid: {v}")
        raise _Exit(EXIT_INVALID)
    return scenario


def _solver_config(args) -> SolverConfig:
    """The solver settings; a value SolverConfig refuses ends with EXIT_INVALID."""
    try:
        return SolverConfig(time_limit_s=args.time_limit, rel_gap=args.gap)
    except ValueError as exc:
        _err(f"invalid: {exc}")
        raise _Exit(EXIT_INVALID) from exc


def render_patterns(scenario: Scenario, plan: ServicePlan) -> str:
    """One line per pattern: served stops marked, skipped stops dashed."""
    lines = []
    for r, route in enumerate(scenario.routes):
        names = route.stop_names
        n = route.n_physical
        for t in range(len(scenario.periods)):
            cell = plan.cell(r, t)
            lines.append(f"route {route.id} period {t}  fleet {cell.fleet:.6g}")
            for p, pat in enumerate(cell.patterns):
                if not pat.in_service:
                    lines.append(f"  pattern {p}: out of service")
                    continue
                served = set(pat.stops)
                out_marks = " ".join(
                    f"{names[k]}{'*' if k in served else '-'}" for k in range(n))
                in_marks = " ".join(
                    f"{names[route.physical_of(k)]}{'*' if k in served else '-'}"
                    for k in range(n, 2 * n))
                lines.append(
                    f"  pattern {p} [{pat.headway:g} min] out> {out_marks} | in< {in_marks}")
    return "\n".join(lines) + "\n"


def _metrics_csv(metrics_dict: dict) -> str:
    rows = ["metric,value"]
    for key in sorted(metrics_dict):
        val = metrics_dict[key]
        if isinstance(val, dict):
            for sub in sorted(val):
                rows.append(f"{key}.{sub},{val[sub]}")
        else:
            rows.append(f"{key},{val}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    scenario = _load_scenario(args)
    violations = validate_scenario(scenario)
    for v in violations:
        print(str(v))
    return EXIT_OK if not violations else EXIT_INVALID


def _solve_pipeline(scenario: Scenario, cfg: SolverConfig, run: _Run):
    """Shared by solve/compare: build, export, solve, decode, report.

    On a solver, decode or evaluator failure the manifest is written before
    the error propagates, so it lists the artifacts already under --out."""
    model = build_model(scenario)
    run.write_json("model_stats.json", model_stats(model))
    run.write_chunks("model.lp", lp_chunks(model))
    try:
        result = solve(model, cfg)
        run.extra["solver_status"] = result.status
        run.extra["solver_wall_time_s"] = result.wall_time_s
        _err(f"solver: status={result.status} objective={result.objective} "
             f"wall={result.wall_time_s:.2f}s")
        if not result.ok:
            return result, None, None
        plan, flows = decode_plan(model, result)
        metrics = compute_metrics(flows, scenario, plan)
    except _FAILURES:
        run.finish()
        raise
    return result, plan, metrics


def cmd_solve(args) -> int:
    cfg = _solver_config(args)
    scenario = _validated(args)
    run = _Run(args, "solve")
    result, plan, metrics = _solve_pipeline(scenario, cfg, run)
    if plan is None:
        run.finish()
        return EXIT_INFEASIBLE
    run.write_text("plan.json", plan.to_json())
    run.write_json("metrics.json", metrics.to_dict())
    run.write_text("metrics.csv", _metrics_csv(metrics.to_dict()))
    run.write_text("patterns.txt", render_patterns(scenario, plan))
    run.extra["objective"] = result.objective
    run.finish()
    print(f"objective {result.objective}")
    return EXIT_OK


def _load_plan_file(path: str, scenario: Scenario) -> ServicePlan:
    doc = _read_json(path, "plan")
    try:
        return load_plan(doc, scenario)
    except PlanError as exc:
        _err(f"invalid plan: {exc}")
        raise _Exit(EXIT_INVALID) from exc


def cmd_evaluate(args) -> int:
    scenario = _validated(args)
    plan = _load_plan_file(args.plan, scenario)
    run = _Run(args, "evaluate")
    try:
        flows = assign_flows(scenario, plan)
    except _INFEASIBLE_PLAN as exc:
        _err(f"infeasible: {exc}")
        if isinstance(exc, UnroutableDemandError):
            run.extra["infeasible_pair"] = {"t": exc.t, "route": exc.r, "o": exc.o, "d": exc.d}
        run.finish()
        return EXIT_INFEASIBLE
    metrics = compute_metrics(flows, scenario, plan)
    run.write_json("metrics.json", metrics.to_dict())
    run.write_text("metrics.csv", _metrics_csv(metrics.to_dict()))
    run.write_text("patterns.txt", render_patterns(scenario, plan))
    run.finish()
    print(f"objective {metrics.objective}")
    return EXIT_OK


def _percent(new: float, old: float) -> float | None:
    if old == 0:
        return None
    return (new - old) / old * 100.0


def cmd_compare(args) -> int:
    cfg = _solver_config(args)
    scenario = _validated(args)
    baseline_plan = _load_plan_file(args.baseline, scenario)
    run = _Run(args, "compare")
    try:
        base_flows = assign_flows(scenario, baseline_plan)
    except _INFEASIBLE_PLAN as exc:
        _err(f"infeasible baseline: {exc}")
        run.finish()
        return EXIT_INFEASIBLE
    base_metrics = compute_metrics(base_flows, scenario, baseline_plan)
    result, plan, metrics = _solve_pipeline(scenario, cfg, run)
    if plan is None:
        run.finish()
        return EXIT_INFEASIBLE
    run.write_text("plan.json", plan.to_json())
    run.write_json("metrics.json", metrics.to_dict())
    run.write_text("patterns.txt", render_patterns(scenario, plan))
    base_fleet = base_metrics.fleet_by_route_period
    opt_fleet = metrics.fleet_by_route_period
    comparison = {
        "baseline": base_metrics.to_dict(),
        "optimized": metrics.to_dict(),
        "percent_change": {
            "objective": _percent(metrics.objective, base_metrics.objective),
            "avg_riding_time_min": _percent(metrics.avg_riding_min, base_metrics.avg_riding_min),
            "avg_wait_time_min": _percent(metrics.avg_waiting_min, base_metrics.avg_waiting_min),
            "number_of_transfers": _percent(metrics.transfers_count, base_metrics.transfers_count),
            "fleet_by_route_period": {
                f"route{r}_period{t}": _percent(opt_fleet[(r, t)], base_fleet[(r, t)])
                for (r, t) in sorted(opt_fleet)
            },
        },
    }
    run.write_json("comparison.json", comparison)
    run.finish()
    delta = comparison["percent_change"]["objective"]
    print(f"baseline {base_metrics.objective} optimized {metrics.objective} "
          f"delta {delta if delta is None else round(delta, 4)}%")
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = _solver_config(args)
    scenario = _validated(args)
    run = _Run(args, "oracle")
    try:
        enumerate_plans(scenario)    # the size checks, before the solve
    except OracleSizeError as exc:
        _err(f"invalid: {exc}")
        run.finish()
        return EXIT_INVALID
    result = solve(build_model(scenario), cfg)
    _err(f"solver: status={result.status} objective={result.objective}")
    if not result.ok:
        run.extra["solver_status"] = result.status
        run.finish()
        return EXIT_INFEASIBLE
    report = certify(scenario, result, cross_check=args.cross_check)
    run.write_json("oracle_report.json", report.to_dict())
    run.finish()
    print(f"oracle best {report.best_objective} solver {report.milp_objective} "
          f"verdict {report.verdict}")
    return EXIT_OK if report.verdict == "match" else EXIT_MISMATCH


def cmd_export(args) -> int:
    scenario = _validated(args)
    run = _Run(args, "export")
    model = build_model(scenario)
    run.write_chunks("model.lp", lp_chunks(model))
    stats = model_stats(model)
    run.write_json("model_stats.json", stats)
    run.finish()
    print(f"exported {stats['variables']['total']} variables, {stats['rows']['total']} rows")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *, out_required: bool = True,
                solver: bool = False) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    if out_required:
        p.add_argument("--out", required=True, help="output directory for artifacts")
    if solver:
        p.add_argument("--time-limit", type=float, default=600.0, help="solver time limit (s)")
        p.add_argument("--gap", type=float, default=0.0, help="relative MIP gap target")
    p.add_argument("--no-transfers", action="store_true", help="disable transfer flows")
    p.add_argument("--symmetry", action="store_true", help="force mirrored patterns")
    p.add_argument("--capacity", action="store_true", help="enforce vehicle capacity")
    p.add_argument("--full-pattern", action="store_true", help="pin pattern 0 to all stops")
    p.add_argument("--integer-fleet", action="store_true", help="whole vehicles per route")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transitopt",
        description="Joint service pattern, headway and fleet optimization for transit corridors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario document")
    _add_common(p, out_required=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="optimize a scenario and report the design")
    _add_common(p, solver=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="price a fixed plan with the flow evaluator")
    _add_common(p)
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="solve and compare against a baseline plan")
    _add_common(p, solver=True)
    p.add_argument("--baseline", required=True, help="baseline plan JSON file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle", help="certify a toy scenario by brute force")
    _add_common(p, solver=True)
    p.add_argument("--cross-check", choices=["none", "sample", "all"], default="sample")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export", help="write the model in LP interchange format")
    _add_common(p)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        return exc.code
    except _FAILURES as exc:
        _err(f"error: {type(exc).__name__}: {exc}")
        return EXIT_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
