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

from .combos import enumerate_combinations
from .network import RouteSpec, Scenario, ScenarioError, _int, _list, _num, _obj

__all__ = ["PatternPlan", "RoutePeriodPlan", "ServicePlan", "FlowAssignment",
           "PlanError", "DecodeError", "check_cell", "load_plan", "loop_arcs",
           "model_order", "vehicle_need"]

_HEADWAY_TOL = 1e-9
NODE_TOL = 1e-6     # relative mismatch of a transfer node's alighters and boarders


class PlanError(ValueError):
    """Raised for plans that do not fit their scenario."""


class DecodeError(ValueError):
    """Solution violates a decoded-plan invariant (never silently repaired)."""


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
    ``headway_index`` is the 1-based menu position, 0 exactly when the
    pattern is out of service.
    """

    stops: tuple[int, ...]
    headway: float | None
    headway_index: int

    def __post_init__(self):
        off = self.headway is None
        if (self.headway_index != 0) if off else (self.headway_index < 1):
            raise PlanError(f"{'out-of' if off else 'in'}-service pattern has headway index "
                            f"{self.headway_index}")
        if off:
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
        stops, nd = self.stops, route.n_dir
        if stops and (stops[0] < 0 or stops[-1] >= nd):
            raise ScenarioError(f"direction stops {list(stops)} out of range [0, {nd})")
        tmat = route.travel_time_matrix()
        return sum(tmat[u][v] for u, v in self.arcs())


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


def _on_entry(value: float, entry: float) -> bool:
    """``value`` is the menu ``entry``, to the tolerance plans are read with."""
    return abs(value - entry) <= _HEADWAY_TOL * max(1.0, abs(entry))


def check_cell(route: RouteSpec, t: int, patterns: tuple[PatternPlan, ...]) -> None:
    """Raise ``PlanError`` unless ``patterns`` fit ``route`` in period t: one
    per route pattern, each in service at an entry of the period's menu, on
    the route's direction stops, along arcs it allows. ``load_plan``,
    ``model.fix_baseline`` and ``evaluator.assign_flows`` all ask this."""
    if len(patterns) != route.n_patterns:
        raise PlanError(f"route {route.id} runs {route.n_patterns} pattern(s) in period {t}, "
                        f"not {len(patterns)}")
    menu, nd = route.headway_menu(t), route.n_dir
    for p, pat in enumerate(patterns):
        if not pat.in_service:
            continue
        k = pat.headway_index
        if k > len(menu) or not _on_entry(pat.headway, menu[k - 1]):
            raise PlanError(f"headway {pat.headway} is not entry {k} of the menu {list(menu)} "
                            f"on route {route.id} (period {t}, pattern {p})")
        # stops ascend, so its ends bound them; no arc walk without a mask
        if pat.stops[0] < 0 or pat.stops[-1] >= nd or route.allowed_arcs is not None:
            for u, v in pat.arcs():
                if not (0 <= u < nd and 0 <= v < nd and route.arc_allowed(u, v)):
                    raise PlanError(f"arc ({u}, {v}) not allowed on route {route.id} "
                                    f"(period {t}, pattern {p}; direction stops 0..{nd - 1})")


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
    menu. An in-service pattern lists its stops once each, as one loop in
    stop order from any of its stops, and is stored in ascending order;
    each cell must then pass ``check_cell``. A missing ``fleet`` defaults
    to the exact vehicle requirement of the cell's patterns.
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
                hidx = next((k for k, v in enumerate(menu, 1) if _on_entry(headway, v)), 0)
                if not hidx:
                    raise PlanError(f"{where}: headway {headway} is not on the menu {list(menu)}")
                if len(set(stops)) != len(stops):
                    raise PlanError(f"{where}: loop visits a stop twice: {list(stops)}")
                # a rotation of ascending order turns back to a lower stop exactly once
                if sum(u > v for u, v in loop_arcs(stops)) != 1:
                    raise PlanError(f"{where}: stops {list(stops)} are not one loop in stop order")
                pats.append(PatternPlan(stops=tuple(sorted(stops)), headway=headway,
                                        headway_index=hidx))
            check_cell(route, t, tuple(pats))
            fleet = pdoc.get("fleet")
            if fleet is None:
                fleet = vehicle_need(route, pats)
            else:
                fleet = _read(_num, fleet, f"{pwhere}.fleet")
            row.append(RoutePeriodPlan(patterns=tuple(pats), fleet=float(fleet)))
        cells.append(tuple(row))
    return ServicePlan(cells=tuple(cells))


@dataclass(frozen=True)
class FlowAssignment:
    """Sparse flow values, keyed per family.

    entry:      (t, r, d, i, c)       riders entering stop i for physical
                                      destination d under combination c
    boarding:   (t, r, d, i, c, p)    riders boarding pattern p; derived
                                      as p's frequency share of the
                                      cell's boarders, its entering plus
                                      its re-boarding riders
    inter_stop: (t, r, d, p, i, j)    riders on board between stops
    exit:       (t, r, j, p)          riders leaving the system at stop j
                                      from pattern p; derived as the
                                      riding flow of label physical_of(j)
                                      into j on p
    transfer:   (t, r, d, i, j, p, c) riders alighting pattern p at i and
                                      re-boarding at j under combination c;
                                      derived as a proportional split of
                                      each node

    ``from_flows`` derives them, for the design model and the evaluator.
    """

    entry: dict[tuple, float] = field(default_factory=dict)
    boarding: dict[tuple, float] = field(default_factory=dict)
    inter_stop: dict[tuple, float] = field(default_factory=dict)
    exit: dict[tuple, float] = field(default_factory=dict)
    transfer: dict[tuple, float] = field(default_factory=dict)

    @classmethod
    def from_flows(cls, scenario: Scenario, entry: dict[tuple, float],
                   inter_stop: dict[tuple, float], alighting: dict[tuple, float],
                   reboarding: dict[tuple, float]) -> FlowAssignment:
        """The assignment of ``entry`` and ``inter_stop`` riders with its
        boarding, exit and transfer keys, given the riders ``alighting``
        pattern p at stop i to transfer, keyed (t, r, d, p, i), and
        ``reboarding`` at i under combination c, keyed (t, r, d, i, c). A
        transfer node (t, r, d, physical stop) whose two sides differ by more
        than ``NODE_TOL`` relative raises ``DecodeError``."""
        fa = cls(entry=entry, inter_stop=inter_stop)
        boarders = dict(entry)                          # (t, r, d, i, c) -> riders
        for key, v in reboarding.items():
            boarders[key] = boarders.get(key, 0.0) + v
        for (t, r, d, i, c), v in boarders.items():
            route = scenario.routes[r]
            shares = enumerate_combinations(route.n_patterns, route.headway_menu(t))[c].shares
            fa.boarding.update(((t, r, d, i, c, p), share * v)
                               for p, share in enumerate(shares) if share > 0.0)

        # riders leave at the first stop of their destination their ride reaches
        stop_of = [route.physical_of for route in scenario.routes]
        for (t, r, d, p, i, j), v in inter_stop.items():
            if stop_of[r](j) == d:
                fa.exit[(t, r, j, p)] = fa.exit.get((t, r, j, p), 0.0) + v

        # node (t, r, d, physical stop): alighters (i, p) and boarders (j, c)
        nodes: dict[tuple, tuple[list, list]] = {}
        for (t, r, d, p, i), v in alighting.items():
            nodes.setdefault((t, r, d, stop_of[r](i)), ([], []))[0].append((i, p, v))
        for (t, r, d, j, c), v in reboarding.items():
            nodes.setdefault((t, r, d, stop_of[r](j)), ([], []))[1].append((j, c, v))
        for (t, r, d, o), (out, into) in nodes.items():
            alighted, boarded = sum(v for *_, v in out), sum(v for *_, v in into)
            if abs(alighted - boarded) > NODE_TOL * max(1.0, boarded):
                raise DecodeError(f"period {t} route {r} stop {o} label {d}: {alighted} riders "
                                  f"alight to transfer, {boarded} board")
            fa.transfer.update(((t, r, d, i, j, p, c), a * w / boarded)
                               for i, p, a in out for j, c, w in into)
        return fa
