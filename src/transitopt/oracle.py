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
from itertools import chain, combinations_with_replacement, islice, product
from itertools import combinations as subsets_of
from typing import Any, Iterable, Iterator

import numpy as np

from .backend import SolveResult, SolverConfig, solve
from .evaluator import (InsufficientCapacityError, UnroutableDemandError, assign_flows,
                        compute_metrics)
from .model import build_model, fix_baseline
from .network import RouteSpec, Scenario, _added
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


def _fits(scenario: Scenario, fleet: Any) -> Any:
    """``fleet`` vehicles fit the fleet pool and the vehicle-hours budget;
    elementwise for an array of fleets."""
    return ((fleet <= scenario.fleet_cap + 1e-9)
            & (scenario.periods[0].duration_hours * fleet <= scenario.vehicle_hours_cap + 1e-9))


def _index_rows(lo: int, hi: int, k: int, limit: int) -> np.ndarray:
    """The first ``limit`` of ``combinations_with_replacement(range(lo, hi), k)``,
    one row each."""
    n = min(math.comb(hi - lo + k - 1, k), limit)
    rows = islice(combinations_with_replacement(range(lo, hi), k), n)
    return np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=n * k).reshape(n, k)


def _route_cells(route: RouteSpec, scenario: Scenario) -> tuple[list[RoutePeriodPlan], int]:
    """The designs of one route that fit the pools on their own, each
    multiset of patterns once, and the number of designs examined.

    A choice is (headway index, served subset), taken in that order, and
    out of service is taken last; a design is a sorted multiset of choices,
    which lists its patterns in ``model_order``. Under
    ``require_full_pattern`` pattern 0 runs the full loop at some h0 and the
    others draw from the choices with h >= h0. Each served subset's cycle
    time is computed once and shared by the menu's headways. The designs are
    rows of choice indices, sized in one array pass: a design's fleet sums
    its choices' vehicle needs in pattern order, out of service counting 0.0,
    which with at most MAX_PATTERNS = 2 needs is the one correctly rounded
    addition ``vehicle_need`` makes. A design whose own fleet breaks a pool
    breaks it together with any other route's (fleets are not negative), so
    its cell is never built. At most MAX_DESIGNS + 1 designs are examined.
    """
    menu = route.headway_menu(0)
    subsets = _served_subsets(route, scenario.options.enforce_symmetry)
    if not subsets:
        raise OracleSizeError(f"route {route.id}: no feasible served-stop subsets")
    # choice h * len(subsets) + s is subset s at headway index h + 1
    patterns = [PatternPlan(stops=s, headway=headway, headway_index=h)
                for h, headway in enumerate(menu, 1) for s in subsets]
    cycle = [pat.cycle_time(route) for pat in patterns[:len(subsets)]]
    need = np.array([c / headway for headway in menu for c in cycle] + [0.0])
    off = len(patterns)
    patterns.append(_OFF)
    k = route.n_patterns
    limit = MAX_DESIGNS + 1
    if scenario.options.require_full_pattern:
        full = subsets.index(route.full_loop())   # validate_scenario allows its arcs
        blocks = []
        for lead in range(full, off, len(subsets)):   # the full loop at each headway
            rest = _index_rows(lead - full, off + 1, k - 1, limit)   # no faster than lead
            blocks.append(np.column_stack((np.full(len(rest), lead), rest)))
        designs = np.concatenate(blocks)[:limit]
    else:
        # every multiset but the last one, all out of service
        designs = _index_rows(0, off + 1, k, min(math.comb(off + k, k) - 1, limit))
    fleets = need[designs].sum(axis=1)
    fit = _fits(scenario, fleets)
    cells = [RoutePeriodPlan(patterns=tuple(patterns[c] for c in design), fleet=fleet)
             for design, fleet in zip(designs[fit].tolist(), fleets[fit].tolist())]
    return cells, len(designs)


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
            if _fits(scenario, _added(cell.fleet for cell in combo)))


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
        """The fields by name, each best plan as its plan document."""
        return {**vars(self), "best_plans": [p.to_dict() for p in self.best_plans]}


def certify(scenario: Scenario, milp_result: SolveResult, *, cross_check: str = "sample",
            plans: Iterable[ServicePlan] | None = None) -> OracleReport:
    """Price every enumerated design and compare the best with a solver result.

    ``plans``, if given, is what ``enumerate_plans(scenario)`` returned.
    cross_check controls how many enumerated plans are additionally priced
    through the fixed-design solver path: "none", "sample" (every
    SAMPLE_EVERY-th routable design, starting with the first, plus the best
    one) or "all". Each distinct design is solved once: the best one is
    added only when the sample does not already hold it, and
    ``cross_checked`` counts the designs solved. Any disagreement beyond
    1e-6 relative flags an internal inconsistency. The designs are pinned on
    the model ``milp_result`` was solved on when that model was built from
    this ``scenario`` object, and on a new ``build_model(scenario)``
    otherwise; ``fix_baseline`` sets every arc, headway and fleet bound, so
    both price the same designs.
    """
    if cross_check not in ("none", "sample", "all"):
        raise ValueError(f"unknown cross_check mode {cross_check!r}")

    best: float | None = None
    candidates: list[tuple[float, ServicePlan]] = []
    enumerated = 0
    evaluated = 0
    unroutable = 0
    to_cross: list[tuple[ServicePlan, float]] = []

    for plan in enumerate_plans(scenario) if plans is None else plans:
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
        solved = milp_result.model
        base_model = (solved if solved is not None and solved.scenario is scenario
                      else build_model(scenario))
        cfg = SolverConfig()
        # each design is enumerated once, so identity finds the best in the sample
        if best_plans and not any(plan is best_plans[0] for plan, _ in to_cross):
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
