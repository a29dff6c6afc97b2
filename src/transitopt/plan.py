"""Decoded service designs and passenger flow assignments.

A ServicePlan pins the design side of the problem: for every route, period,
and pattern the direction stops served (one vehicle loop through them in
ascending stop order) and the headway, plus the fleet allocated per route and
period. A FlowAssignment holds the five flow families (entry, boarding,
inter-stop, exit, transfer).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from .network import RouteSpec, Scenario, ScenarioError, _int, _list, _num, _obj

__all__ = ["PatternPlan", "RoutePeriodPlan", "ServicePlan", "FlowAssignment",
           "PlanError", "load_plan", "loop_arcs", "model_order", "vehicle_need"]

_HEADWAY_TOL = 1e-9


class PlanError(ValueError):
    """Raised for plans that do not fit their scenario."""


def loop_arcs(stops: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Arcs of the closed vehicle loop through ``stops`` in listed order,
    including the closure arc back to the first stop."""
    if len(stops) == 0:
        return ()
    if len(stops) == 1:
        raise PlanError(f"a loop needs at least 2 stops, got {list(stops)}")
    return tuple((stops[k], stops[(k + 1) % len(stops)]) for k in range(len(stops)))


@dataclass(frozen=True)
class PatternPlan:
    """One pattern: served direction stops and its headway.

    An in-service pattern serves at least 2 stops, listed in strictly
    ascending order; its vehicles run one loop through them in that order
    and close it from the last stop back to the first. ``headway`` is None
    and ``stops`` empty when the pattern is out of service.
    ``headway_index`` is the 1-based menu position (0 = off).
    """

    stops: tuple[int, ...]
    headway: float | None
    headway_index: int

    def __post_init__(self):
        if self.headway is None:
            if self.stops:
                raise PlanError(f"out-of-service pattern serves stops {list(self.stops)}")
        elif len(self.stops) < 2 or any(u >= v for u, v in zip(self.stops, self.stops[1:])):
            raise PlanError("in-service pattern needs at least 2 stops in ascending stop "
                            f"order, got {list(self.stops)}")

    @property
    def in_service(self) -> bool:
        return self.headway is not None

    def arcs(self) -> tuple[tuple[int, int], ...]:
        return loop_arcs(self.stops)

    def cycle_time(self, route: RouteSpec) -> float:
        """Minutes for one full vehicle rotation around the loop."""
        return sum(route.travel_time(u, v) for u, v in self.arcs())


def vehicle_need(route: RouteSpec, patterns: Iterable[PatternPlan]) -> float:
    """Vehicles that run ``patterns`` on ``route``: cycle time over headway,
    summed across in-service patterns in pattern order."""
    return sum(pat.cycle_time(route) / pat.headway for pat in patterns if pat.in_service)


def model_order(patterns: Iterable[PatternPlan]) -> tuple[PatternPlan, ...]:
    """``patterns`` in the order the model holds them: in-service patterns
    first, by menu position (faster entries first), then the out-of-service
    ones; ties keep their listed order. The model's ``headway_order`` rows
    admit a pattern list exactly when it is already in this order."""
    return tuple(sorted(patterns, key=lambda pat: pat.headway_index or math.inf))


@dataclass(frozen=True)
class RoutePeriodPlan:
    patterns: tuple[PatternPlan, ...]
    fleet: float


@dataclass(frozen=True)
class ServicePlan:
    """cells[r][t] holds the design of route r in period t."""

    cells: tuple[tuple[RoutePeriodPlan, ...], ...]

    def cell(self, r: int, t: int) -> RoutePeriodPlan:
        return self.cells[r][t]

    def to_dict(self) -> dict[str, Any]:
        return {
            "routes": [
                {
                    "route": r,
                    "periods": [
                        {
                            "period": t,
                            "fleet": cell.fleet,
                            "patterns": [
                                {
                                    "pattern": p,
                                    "headway": pat.headway,
                                    "headway_index": pat.headway_index,
                                    "stops": list(pat.stops),
                                }
                                for p, pat in enumerate(cell.patterns)
                            ],
                        }
                        for t, cell in enumerate(periods)
                    ],
                }
                for r, periods in enumerate(self.cells)
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _lookup_headway_index(menu: tuple[float, ...], value: float, where: str) -> int:
    for k, v in enumerate(menu):
        if abs(v - value) <= _HEADWAY_TOL * max(1.0, abs(v)):
            return k + 1
    raise PlanError(f"{where}: headway {value} is not on the menu {list(menu)}")


def _read(parse: Callable[[Any, str], Any], value: Any, where: str) -> Any:
    """``value`` read by the scenario loader's rule ``parse``, refusals
    raised as ``PlanError``."""
    try:
        return parse(value, where)
    except ScenarioError as exc:
        raise PlanError(str(exc)) from None


def load_plan(doc: Mapping[str, Any], scenario: Scenario) -> ServicePlan:
    """Bind a parsed plan document to a scenario.

    Stops are integers and headways and fleets finite numbers, read as the
    scenario loader reads them. Headways must come from the route/period
    menu; an in-service pattern must serve valid direction stops forming an
    allowed loop in stop order, listed from any of its stops, and is stored
    in ascending order. A missing ``fleet`` defaults to the exact vehicle
    requirement of the cell's patterns.
    """
    routes_doc = _read(_obj, doc, "plan").get("routes")
    if not isinstance(routes_doc, list) or len(routes_doc) != len(scenario.routes):
        raise PlanError(f"plan must describe exactly {len(scenario.routes)} route(s)")

    cells: list[tuple[RoutePeriodPlan, ...]] = []
    for r, rdoc in enumerate(routes_doc):
        route = scenario.routes[r]
        periods_doc = _read(_obj, rdoc, f"plan routes[{r}]").get("periods")
        if not isinstance(periods_doc, list) or len(periods_doc) != len(scenario.periods):
            raise PlanError(f"plan routes[{r}] must describe exactly {len(scenario.periods)} period(s)")
        row: list[RoutePeriodPlan] = []
        for t, pdoc in enumerate(periods_doc):
            menu = route.headway_menu(t)
            pwhere = f"plan routes[{r}].periods[{t}]"
            pdoc = _read(_obj, pdoc, pwhere)
            pats_doc = _read(_list, pdoc.get("patterns", []), f"{pwhere}.patterns")
            if len(pats_doc) != route.n_patterns:
                raise PlanError(f"{pwhere} must describe exactly {route.n_patterns} pattern(s)")
            pats: list[PatternPlan] = []
            for p, pat_doc in enumerate(pats_doc):
                where = f"{pwhere}.patterns[{p}]"
                pat_doc = _read(_obj, pat_doc, where)
                headway = pat_doc.get("headway")
                stops = _read(_list, pat_doc.get("stops", []), f"{where}.stops")
                stops = tuple(_read(_int, s, f"{where}.stops[{k}]") for k, s in enumerate(stops))
                if headway is None:
                    if stops:
                        raise PlanError(f"{where}: out-of-service pattern must not serve stops")
                    pats.append(PatternPlan(stops=(), headway=None, headway_index=0))
                    continue
                if not stops:
                    raise PlanError(f"{where}: in-service pattern must serve stops")
                headway = _read(_num, headway, f"{where}.headway")
                hidx = _lookup_headway_index(menu, headway, where)
                _check_loop(route, stops, where)
                pats.append(PatternPlan(stops=tuple(sorted(stops)), headway=headway,
                                        headway_index=hidx))
            fleet = pdoc.get("fleet")
            if fleet is None:
                fleet = vehicle_need(route, pats)
            else:
                fleet = _read(_num, fleet, f"{pwhere}.fleet")
            row.append(RoutePeriodPlan(patterns=tuple(pats), fleet=float(fleet)))
        cells.append(tuple(row))
    return ServicePlan(cells=tuple(cells))


def _check_loop(route: RouteSpec, stops: tuple[int, ...], where: str) -> None:
    nd = route.n_dir
    for s in stops:
        if not 0 <= s < nd:
            raise PlanError(f"{where}: direction stop {s} out of range [0, {nd})")
    if len(set(stops)) != len(stops):
        raise PlanError(f"{where}: loop visits a stop twice: {list(stops)}")
    arcs = loop_arcs(stops)
    # a rotation of ascending order turns back to a lower stop exactly once
    if sum(u > v for u, v in arcs) != 1:
        raise PlanError(f"{where}: stops {list(stops)} are not one loop in stop order")
    for u, v in arcs:
        if not route.arc_allowed(u, v):
            raise PlanError(f"{where}: arc ({u}, {v}) is not allowed on route {route.id}")


@dataclass(frozen=True)
class FlowAssignment:
    """Sparse flow values, keyed per family.

    entry:      (t, r, d, i, c)       riders entering stop i for physical
                                      destination d under combination c
    boarding:   (t, r, d, i, c, p)    riders boarding pattern p; decoded
                                      from the model as p's frequency share
                                      of the cell's boarders, its entering
                                      plus its re-boarding riders
    inter_stop: (t, r, d, p, i, j)    riders on board between stops
    exit:       (t, r, j, p)          riders leaving the system at stop j
                                      from pattern p; decoded from the
                                      model as the riding flow of label
                                      physical_of(j) into j on p
    transfer:   (t, r, d, i, j, p, c) riders alighting pattern p at i and
                                      re-boarding at j under combination c;
                                      decoded from the model as a
                                      proportional split of each node
    """

    entry: dict[tuple, float] = field(default_factory=dict)
    boarding: dict[tuple, float] = field(default_factory=dict)
    inter_stop: dict[tuple, float] = field(default_factory=dict)
    exit: dict[tuple, float] = field(default_factory=dict)
    transfer: dict[tuple, float] = field(default_factory=dict)
