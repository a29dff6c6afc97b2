"""Command-line pipeline: validate, solve, evaluate, compare, oracle, export.

Exit codes are a stable contract: 0 success, 1 validation failure (a
document the loader refuses included), 2 I/O failure (unreadable file,
malformed JSON, or an --out directory or artifact that cannot be written),
3 infeasible, 4 oracle mismatch, 5 solver, decode or evaluator failure, or an
oracle internal inconsistency (the evaluator and the fixed-design solver
price one design differently). Each command that writes files runs in one
``with _Run(...)`` block: every artifact lands under --out with a fixed name
through one hashing writer, and once --out exists ``manifest.json`` records
the checksums of everything written, on every exit.
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

from .backend import DecodeError, SolveResult, SolverConfig, SolverError, decode_plan, solve
from .evaluator import (EvaluationError, InsufficientCapacityError, Metrics,
                        UnroutableDemandError, assign_flows, compute_metrics)
from .lpio import lp_chunks
from .model import build_model, model_stats
from .network import Scenario, ScenarioError, load_scenario, validate_scenario
from .oracle import InternalInconsistencyError, OracleSizeError, certify, enumerate_plans
from .plan import PlanError, ServicePlan, load_plan

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_MISMATCH = 4
EXIT_FAILURE = 5

# Failures that end a command with EXIT_FAILURE.
_FAILURES = (SolverError, DecodeError, EvaluationError, InternalInconsistencyError)
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


class _Run:
    """One command's --out directory: every file under it goes through
    ``write_chunks``, and ``manifest.json`` is written however the ``with``
    block is left (a return, ``_Exit`` or an exception). ``scenario_sha256``
    is the digest ``_read_json`` took of the scenario's bytes."""

    def __init__(self, args, command: str, scenario_sha256: str):
        self.command = command
        self.args = args
        self.scenario_sha256 = scenario_sha256
        self.out = Path(args.out)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file at --out or on the way to it
            _err(f"error: cannot create output directory {self.out}: {exc}")
            raise _Exit(EXIT_IO) from exc
        self.artifacts: dict[str, str] = {}
        self.started = datetime.now(timezone.utc).isoformat()
        self.extra: dict = {}

    def write_chunks(self, name: str, chunks: Iterable[str]) -> None:
        """Write ``chunks`` to artifact ``name`` one at a time, hashing the
        bytes as they go out; a file that cannot be written ends with EXIT_IO."""
        path = self.out / name
        h = hashlib.sha256()
        try:
            with path.open("wb") as f:
                for chunk in chunks:
                    data = chunk.encode()
                    h.update(data)
                    f.write(data)
        except OSError as exc:
            _err(f"error: cannot write {path}: {exc}")
            raise _Exit(EXIT_IO) from exc
        self.artifacts[name] = h.hexdigest()

    def write_text(self, name: str, text: str) -> None:
        self.write_chunks(name, (text,))

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def __enter__(self) -> "_Run":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        manifest = {
            "command": self.command,
            "scenario_path": str(Path(self.args.scenario)),
            "scenario_sha256": self.scenario_sha256,
            "options_overrides": _override_dict(self.args),
            "out_dir": str(self.out),
            "started_at": self.started,
            "finished_at": datetime.now(timezone.utc).isoformat(),
            "artifacts": self.artifacts,
        }
        if hasattr(self.args, "time_limit"):   # the commands that solve
            manifest["solver"] = {"time_limit_s": self.args.time_limit, "rel_gap": self.args.gap}
        manifest.update(self.extra)
        try:
            self.write_json("manifest.json", manifest)  # lists the files written before it
        except _Exit:
            if exc is None:
                raise
            # its line is out; the failure that ended the block keeps its exit code


# The model toggles on the command line, in --help order: (flag, the
# OptionFlags field it sets, the value it sets, help text).
_OPTION_FLAGS = (
    ("--no-transfers", "allow_transfers", False, "disable transfer flows"),
    ("--symmetry", "enforce_symmetry", True, "force mirrored patterns"),
    ("--capacity", "enforce_capacity", True, "enforce vehicle capacity"),
    ("--full-pattern", "require_full_pattern", True, "pin pattern 0 to all stops"),
    ("--integer-fleet", "integer_fleet", True, "whole vehicles per route"),
)


def _override_dict(args) -> dict:
    """The OptionFlags fields the command line sets, with their values."""
    return {name: value for _, name, value, _ in _OPTION_FLAGS
            if getattr(args, name) is not None}


def _read_json(path: str, what: str) -> tuple[Any, str]:
    """The parsed JSON file and the SHA-256 of the bytes parsed, read once,
    so a pipe is hashed too; unreadable or malformed ends with EXIT_IO."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        _err(f"error: cannot read {what} file {p}: {exc}")
        raise _Exit(EXIT_IO) from exc
    try:
        return json.loads(data), hashlib.sha256(data).hexdigest()
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, or an integer past the digit limit
        _err(f"error: {p}: not valid JSON ({exc})")
        raise _Exit(EXIT_IO) from exc


def _load_scenario(args) -> tuple[Scenario, str]:
    """The scenario with the command line's overrides, and its digest."""
    doc, digest = _read_json(args.scenario, "scenario")
    try:
        scenario = load_scenario(doc)
    except ScenarioError as exc:
        _err(f"invalid scenario: {exc}")
        raise _Exit(EXIT_INVALID) from exc
    overrides = _override_dict(args)
    if overrides:
        scenario = replace(scenario, options=replace(scenario.options, **overrides))
    return scenario, digest


def _validated(args) -> tuple[Scenario, str]:
    scenario, digest = _load_scenario(args)
    violations = validate_scenario(scenario)
    if violations:
        for v in violations:
            _err(f"invalid: {v}")
        raise _Exit(EXIT_INVALID)
    return scenario, digest


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
    scenario, _ = _load_scenario(args)
    violations = validate_scenario(scenario)
    for v in violations:
        print(str(v))
    return EXIT_OK if not violations else EXIT_INVALID


def _price(run: _Run, scenario: Scenario, plan: ServicePlan, what: str) -> Metrics:
    """The metrics of a fixed ``plan``. A plan that cannot carry its demand
    is one ``<what>: ...`` line and EXIT_INFEASIBLE; when some pair has no
    path, the manifest names it as ``infeasible_pair``."""
    try:
        flows = assign_flows(scenario, plan)
    except _INFEASIBLE_PLAN as exc:
        _err(f"{what}: {exc}")
        if isinstance(exc, UnroutableDemandError):
            run.extra["infeasible_pair"] = {"t": exc.t, "route": exc.r, "o": exc.o, "d": exc.d}
        raise _Exit(EXIT_INFEASIBLE) from exc
    return compute_metrics(flows, scenario, plan)


def _write_metrics(run: _Run, scenario: Scenario, plan: ServicePlan, metrics: Metrics) -> None:
    values = metrics.to_dict()
    run.write_json("metrics.json", values)
    run.write_text("metrics.csv", _metrics_csv(values))
    run.write_text("patterns.txt", render_patterns(scenario, plan))


def _solve(run: _Run, model, cfg: SolverConfig) -> SolveResult:
    """Solve ``model`` and report status, objective and wall time on stderr
    and in the manifest; a solve without a design ends with EXIT_INFEASIBLE."""
    result = solve(model, cfg)
    run.extra["solver_status"] = result.status
    run.extra["solver_wall_time_s"] = result.wall_time_s
    _err(f"solver: status={result.status} objective={result.objective} "
         f"wall={result.wall_time_s:.2f}s")
    if not result.ok:
        raise _Exit(EXIT_INFEASIBLE)
    return result


def _solve_pipeline(scenario: Scenario, cfg: SolverConfig, run: _Run):
    """Shared by solve/compare: build, export, solve, decode, price."""
    model = build_model(scenario)
    run.write_json("model_stats.json", model_stats(model))
    run.write_chunks("model.lp", lp_chunks(model))
    result = _solve(run, model, cfg)
    plan, flows = decode_plan(model, result)
    return result, plan, compute_metrics(flows, scenario, plan)


def cmd_solve(args) -> int:
    cfg = _solver_config(args)
    scenario, digest = _validated(args)
    with _Run(args, "solve", digest) as run:
        result, plan, metrics = _solve_pipeline(scenario, cfg, run)
        run.write_text("plan.json", plan.to_json())
        _write_metrics(run, scenario, plan, metrics)
        run.extra["objective"] = result.objective
    print(f"objective {result.objective}")
    return EXIT_OK


def _load_plan_file(path: str, scenario: Scenario) -> ServicePlan:
    doc, _ = _read_json(path, "plan")
    try:
        return load_plan(doc, scenario)
    except PlanError as exc:
        _err(f"invalid plan: {exc}")
        raise _Exit(EXIT_INVALID) from exc


def cmd_evaluate(args) -> int:
    scenario, digest = _validated(args)
    plan = _load_plan_file(args.plan, scenario)
    with _Run(args, "evaluate", digest) as run:
        metrics = _price(run, scenario, plan, "infeasible")
        _write_metrics(run, scenario, plan, metrics)
    print(f"objective {metrics.objective}")
    return EXIT_OK


# The Metrics fields comparison.json gives a percent change for, besides the
# fleet of each route and period.
_COMPARED = ("objective", "avg_riding_time_min", "avg_wait_time_min", "number_of_transfers")


def _percent(new: float, old: float) -> float | None:
    if old == 0:
        return None
    return (new - old) / old * 100.0


def cmd_compare(args) -> int:
    cfg = _solver_config(args)
    scenario, digest = _validated(args)
    baseline_plan = _load_plan_file(args.baseline, scenario)
    with _Run(args, "compare", digest) as run:
        base_metrics = _price(run, scenario, baseline_plan, "infeasible baseline")
        _, plan, metrics = _solve_pipeline(scenario, cfg, run)
        run.write_text("plan.json", plan.to_json())
        _write_metrics(run, scenario, plan, metrics)
        base, optimized = base_metrics.to_dict(), metrics.to_dict()
        change = {key: _percent(optimized[key], base[key]) for key in _COMPARED}
        change["fleet_by_route_period"] = {
            cell: _percent(fleet, base["fleet_by_route_period"][cell])
            for cell, fleet in optimized["fleet_by_route_period"].items()}
        run.write_json("comparison.json",
                       {"baseline": base, "optimized": optimized, "percent_change": change})
    delta = change["objective"]
    print(f"baseline {base_metrics.objective} optimized {metrics.objective} "
          f"delta {delta if delta is None else round(delta, 4)}%")
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = _solver_config(args)
    scenario, digest = _validated(args)
    with _Run(args, "oracle", digest) as run:
        try:
            plans = enumerate_plans(scenario)    # the size checks, before the solve
        except OracleSizeError as exc:
            _err(f"invalid: {exc}")
            raise _Exit(EXIT_INVALID) from exc
        result = _solve(run, build_model(scenario), cfg)
        report = certify(scenario, result, cross_check=args.cross_check, plans=plans)
        run.write_json("oracle_report.json", report.to_dict())
    print(f"oracle best {report.best_objective} solver {report.milp_objective} "
          f"verdict {report.verdict}")
    return EXIT_OK if report.verdict == "match" else EXIT_MISMATCH


def cmd_export(args) -> int:
    scenario, digest = _validated(args)
    with _Run(args, "export", digest) as run:
        model = build_model(scenario)
        run.write_chunks("model.lp", lp_chunks(model))
        stats = model_stats(model)
        run.write_json("model_stats.json", stats)
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
    for flag, name, value, help_text in _OPTION_FLAGS:
        p.add_argument(flag, dest=name, action="store_const", const=value, help=help_text)


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
