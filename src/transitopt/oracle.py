"""Brute-force certifier for desk-scale instances.

Enumerates every service design a small scenario admits (stop subsets in loop
order crossed with menu headways, each multiset of patterns once, listed in
``plan.model_order`` as the optimizer holds it), prices each design with the
independent flow evaluator, and compares the minimum against a solver result.
Designs that break the fleet pools are skipped; designs that cannot carry some
demand, by their stops or within their vehicle capacity, are counted but never
become the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations as subsets_of
from itertools import combinations_with_replacement, islice, product
from typing import Any, Iterator

from .backend import SolveResult, SolverConfig, solve
from .evaluator import (InsufficientCapacityError, UnroutableDemandError, assign_flows,
                        compute_metrics)
from .model import build_model, fix_baseline
from .network import RouteSpec, Scenario
from .plan import PatternPlan, RoutePeriodPlan, ServicePlan, loop_arcs

__all__ = [
    "OracleSizeError",
    "InternalInconsistencyError",
    "OracleReport",
    "enumerate_plans",
    "certify",
]

REL_TOL = 1e-6
SAMPLE_EVERY = 50
_TIE_TOL = 1e-9

MAX_PHYSICAL = 6
MAX_PATTERNS = 2
MAX_MENU = 2
MAX_DESIGNS = 200_000

_OFF = PatternPlan(stops=(), headway=None, headway_index=0)


class OracleSizeError(ValueError):
    """Instance too large for complete enumeration."""


class InternalInconsistencyError(RuntimeError):
    """Evaluator and fixed-design solver disagree on some plan: builder bug."""


def _guard_size(scenario: Scenario) -> None:
    if len(scenario.periods) != 1:
        raise OracleSizeError("oracle handles single-period instances only")
    for route in scenario.routes:
        if route.n_physical > MAX_PHYSICAL:
            raise OracleSizeError(
                f"route {route.id} has {route.n_physical} stops; oracle limit is {MAX_PHYSICAL}")
        if route.n_patterns > MAX_PATTERNS:
            raise OracleSizeError(
                f"route {route.id} has {route.n_patterns} patterns; oracle limit is {MAX_PATTERNS}")
        if len(route.headway_menu(0)) > MAX_MENU:
            raise OracleSizeError(
                f"route {route.id} menu larger than {MAX_MENU}; too many designs")


def _served_subsets(route: RouteSpec, symmetric: bool) -> list[tuple[int, ...]]:
    """Candidate served-stop sets, as direction-stop tuples in loop order."""
    nd = route.n_dir
    n = route.n_physical
    out: list[tuple[int, ...]] = []
    if symmetric:
        for size in range(2, n + 1):
            for phys in subsets_of(range(n), size):
                stops = sorted(list(phys) + [nd - 1 - p for p in phys])
                out.append(tuple(stops))
    else:
        for size in range(2, nd + 1):
            for stops in subsets_of(range(nd), size):
                out.append(tuple(stops))
    return [s for s in out
            if all(route.arc_allowed(u, v) for u, v in loop_arcs(s))]


def _fits(scenario: Scenario, fleet: float) -> bool:
    """``fleet`` vehicles fit the fleet pool and the vehicle-hours budget."""
    return (fleet <= scenario.fleet_cap + 1e-9
            and scenario.periods[0].duration_hours * fleet <= scenario.vehicle_hours_cap + 1e-9)


def _route_cells(route: RouteSpec, scenario: Scenario) -> tuple[list[RoutePeriodPlan], int]:
    """The designs of one route that fit the pools on their own, each
    multiset of patterns once, and the number of designs examined.

    A choice is (headway index, served subset), taken in that order, and
    None is out of service, taken last; a design is a sorted multiset of
    choices, which lists its patterns in ``model_order``. Under
    ``require_full_pattern`` pattern 0 runs the full loop at some h0 and
    the others draw from the choices with h >= h0. Each choice's pattern
    and vehicle need are made once; a design's fleet sums them in pattern
    order, as ``vehicle_need`` does. A design whose own fleet breaks a pool
    breaks it together with any other route's (fleets are not negative), so
    its cell is never built. At most MAX_DESIGNS + 1 designs are examined.
    """
    menu = route.headway_menu(0)
    subsets = _served_subsets(route, scenario.options.enforce_symmetry)
    if not subsets:
        raise OracleSizeError(f"route {route.id}: no feasible served-stop subsets")
    choices = [(h, s) for h in range(1, len(menu) + 1) for s in subsets]
    pattern = {c: PatternPlan(stops=c[1], headway=menu[c[0] - 1], headway_index=c[0])
               for c in choices}
    need = {c: pat.cycle_time(route) / pat.headway for c, pat in pattern.items()}
    pattern[None] = _OFF
    k = route.n_patterns
    if scenario.options.require_full_pattern:
        full = route.full_loop()   # a subset: validate_scenario allows its arcs
        designs = (((h0, full),) + rest
                   for h0 in range(1, len(menu) + 1)
                   for rest in combinations_with_replacement(
                       [c for c in choices if c[0] >= h0] + [None], k - 1))
    else:
        designs = (d for d in combinations_with_replacement(choices + [None], k)
                   if d[0] is not None)
    cells = []
    examined = 0
    for design in islice(designs, MAX_DESIGNS + 1):
        examined += 1
        fleet = sum(need[c] for c in design if c is not None)
        if _fits(scenario, fleet):
            cells.append(RoutePeriodPlan(patterns=tuple(pattern[c] for c in design), fleet=fleet))
    return cells, examined


def enumerate_plans(scenario: Scenario) -> Iterator[ServicePlan]:
    """Every distinct design of a toy scenario that fits the fleet pools.

    The size checks run when this is called, before any plan is drawn."""
    _guard_size(scenario)
    per_route = [_route_cells(route, scenario) for route in scenario.routes]
    total = math.prod(examined for _, examined in per_route)
    if total > MAX_DESIGNS:
        raise OracleSizeError(
            f"{total}+ designs exceed the enumeration limit of {MAX_DESIGNS}")
    return (ServicePlan(cells=tuple((cell,) for cell in combo))
            for combo in product(*(cells for cells, _ in per_route))
            if _fits(scenario, sum(cell.fleet for cell in combo)))


@dataclass
class OracleReport:
    best_objective: float | None
    best_plans: list[ServicePlan]
    enumerated_count: int
    unroutable_count: int
    milp_objective: float | None
    verdict: str                 # "match" or "mismatch"
    delta: float | None = None
    cross_checked: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "best_objective": self.best_objective,
            "best_plans": [p.to_dict() for p in self.best_plans],
            "enumerated_count": self.enumerated_count,
            "unroutable_count": self.unroutable_count,
            "milp_objective": self.milp_objective,
            "verdict": self.verdict,
            "delta": self.delta,
            "cross_checked": self.cross_checked,
        }


def certify(scenario: Scenario, milp_result: SolveResult, *,
            cross_check: str = "sample") -> OracleReport:
    """Price every enumerated design and compare the best with a solver result.

    cross_check controls how many enumerated plans are additionally priced
    through the fixed-design solver path: "none", "sample" (every
    SAMPLE_EVERY-th routable design and the best one) or "all"; any
    disagreement beyond 1e-6 relative flags an internal inconsistency.
    """
    if cross_check not in ("none", "sample", "all"):
        raise ValueError(f"unknown cross_check mode {cross_check!r}")

    best: float | None = None
    candidates: list[tuple[float, ServicePlan]] = []
    enumerated = 0
    evaluated = 0
    unroutable = 0
    to_cross: list[tuple[ServicePlan, float]] = []

    for plan in enumerate_plans(scenario):
        enumerated += 1
        try:
            fa = assign_flows(scenario, plan)
        except (UnroutableDemandError, InsufficientCapacityError):
            unroutable += 1
            continue
        obj = compute_metrics(fa, scenario, plan).objective
        if best is None or obj < best - _TIE_TOL:
            best = obj
        if obj <= best + _TIE_TOL:
            candidates.append((obj, plan))
        if cross_check == "all" or (cross_check == "sample" and evaluated % SAMPLE_EVERY == 0):
            to_cross.append((plan, obj))
        evaluated += 1

    best_plans = [p for o, p in candidates if best is not None and o <= best + _TIE_TOL]

    cross_checked = 0
    if cross_check != "none" and (to_cross or best_plans):
        base_model = build_model(scenario)
        cfg = SolverConfig()
        if best_plans:
            to_cross.append((best_plans[0], best))
        for plan, obj in to_cross:
            fixed = fix_baseline(base_model, plan)
            res = solve(fixed, cfg)
            if not res.ok:
                raise InternalInconsistencyError(
                    f"fixed-design solve reported {res.status} on a plan the evaluator priced")
            if abs(res.objective - obj) > REL_TOL * max(1.0, abs(obj)):
                raise InternalInconsistencyError(
                    f"evaluator priced a plan at {obj}, fixed-design solver at {res.objective}")
            cross_checked += 1

    milp_obj = milp_result.objective if milp_result.ok else None
    if best is None or milp_obj is None:
        verdict = "match" if best is None and milp_obj is None else "mismatch"
        delta = None
    else:
        delta = milp_obj - best
        verdict = "match" if abs(delta) <= REL_TOL * max(1.0, abs(best)) else "mismatch"

    return OracleReport(
        best_objective=best,
        best_plans=best_plans,
        enumerated_count=enumerated,
        unroutable_count=unroutable,
        milp_objective=milp_obj,
        verdict=verdict,
        delta=delta,
        cross_checked=cross_checked,
    )
