"""Transit corridor instances: stops, run times, demand, headway menus, fleet limits.

A route is a linear corridor served in both travel directions. Each physical
stop appears twice as a *direction stop*: outbound stops 0..n-1 in travel
order, inbound stops n..2n-1 laid out so that the opposite-direction twin of
direction stop ``i`` is always ``2n - 1 - i``. Vehicles cycle outbound,
reverse at the far terminal (between n-1 and n), run inbound, and reverse
again at the home terminal (between 2n-1 and 0). Forward travel therefore
coincides with increasing direction-stop index, except on the single
wrap-around step that closes the loop.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "ScenarioError",
    "Violation",
    "PeriodSpec",
    "OptionFlags",
    "RouteSpec",
    "DemandMatrix",
    "Scenario",
    "mirror_stop",
    "load_scenario",
    "validate_scenario",
]


class ScenarioError(ValueError):
    """Raised for malformed scenario documents or out-of-range indices."""


@dataclass(frozen=True)
class Violation:
    """One broken invariant, naming the offending field and the rule."""

    field: str
    rule: str

    def __str__(self) -> str:
        return f"{self.field}: {self.rule}"


def _added(values: Iterable[float]) -> float:
    """``values`` added left to right from 0, as ``sum`` does before Python
    3.12; from 3.12 ``sum`` of floats is compensated, which can change the
    last digit and with it the LP text. The package adds its float totals
    with this, so every Python version gives the same bits."""
    return reduce(operator.add, values, 0)


def mirror_stop(i: int, n_dir: int) -> int:
    """Opposite-direction twin of direction stop ``i`` on a route with
    ``n_dir`` direction stops. Involution: mirror(mirror(i)) == i."""
    if not isinstance(i, int) or not 0 <= i < n_dir:
        raise ScenarioError(f"direction stop {i} out of range [0, {n_dir})")
    return n_dir - i - 1


@dataclass(frozen=True)
class PeriodSpec:
    """One design period (e.g. peak, off-peak)."""

    id: int
    duration_hours: float


@dataclass(frozen=True)
class OptionFlags:
    """Model toggles.

    allow_transfers:      create transfer flows between directions/patterns.
    enforce_symmetry:     force each pattern to serve mirrored stop sets.
    enforce_capacity:     cap per-arc riders by vehicle capacity x frequency.
    require_full_pattern: pin pattern 0 of every route to the all-stops loop.
    integer_fleet:        restrict per-route fleet counts to whole vehicles.
    """

    allow_transfers: bool = True
    enforce_symmetry: bool = False
    enforce_capacity: bool = False
    require_full_pattern: bool = False
    integer_fleet: bool = False


@dataclass(frozen=True)
class RouteSpec:
    """One corridor: physical stops, per-direction run times, service menus.

    outbound_times[k] is the run time (minutes) from physical stop k to k+1;
    inbound_times[k] the run time from physical stop k+1 back to k.
    headway_menus holds one ascending menu of headway values (minutes) per
    period; menu index 0 is reserved for "out of service".
    """

    id: int
    stop_names: tuple[str, ...]
    outbound_times: tuple[float, ...]
    inbound_times: tuple[float, ...]
    vehicle_capacity: float
    n_patterns: int
    headway_menus: tuple[tuple[float, ...], ...]
    dwell_saving: float = 0.0
    turnback_time: float = 0.0
    allowed_arcs: tuple[tuple[bool, ...], ...] | None = None

    @property
    def n_physical(self) -> int:
        return len(self.stop_names)

    @property
    def n_dir(self) -> int:
        return 2 * len(self.stop_names)

    def mirror(self, i: int) -> int:
        return mirror_stop(i, self.n_dir)

    def physical_of(self, i: int) -> int:
        """Physical stop index behind direction stop ``i``."""
        n = self.n_physical
        return i if i < n else self.n_dir - 1 - i

    def direction_stops_of(self, phys: int) -> tuple[int, int]:
        """(outbound, inbound) direction stops of a physical stop."""
        if not 0 <= phys < self.n_physical:
            raise ScenarioError(f"physical stop {phys} out of range")
        return phys, self.n_dir - 1 - phys

    def headway_menu(self, t: int) -> tuple[float, ...]:
        return self.headway_menus[t]

    def arc_allowed(self, i: int, j: int) -> bool:
        if i == j:
            return False
        if self.allowed_arcs is None:
            return True
        return bool(self.allowed_arcs[i][j])

    def adjacent_times(self) -> tuple[float, ...]:
        """Time of the elementary step k -> (k+1) mod n_dir around the loop."""
        n = self.n_physical
        steps = list(self.outbound_times)
        steps.append(self.turnback_time)
        # Direction stop u in (n-1, 2n-1) sits at physical 2n-1-u; the step to
        # u+1 rides the inbound link indexed by its lower physical endpoint.
        steps.extend(self.inbound_times[n - 2 - k] for k in range(n - 1))
        steps.append(self.turnback_time)
        return tuple(steps)

    @cached_property
    def _travel_times(self) -> tuple[memoryview, ...]:
        # one walk around the loop from each stop; a read-only table, so
        # every caller can share it. The rows are read-only views into one
        # array('d'), which holds the floats unboxed in a single buffer.
        nd = self.n_dir
        adj = self.adjacent_times()
        dwell = self.dwell_saving
        flat = array("d", bytes(8 * nd * nd))
        for i in range(nd):
            total = 0.0
            k = i
            for steps in range(1, nd):
                total += adj[k]
                k = (k + 1) % nd
                flat[i * nd + k] = total - dwell * (steps - 1)
        view = memoryview(flat).toreadonly()
        return tuple(view[i * nd:(i + 1) * nd] for i in range(nd))

    def travel_time_matrix(self) -> tuple[memoryview, ...]:
        """Minutes from direction stop i to j along the forward loop, at
        ``[i][j]`` (0.0 on the diagonal): the steps between them, terminal
        reversals included, less ``dwell_saving`` per stop passed without
        serving. Computed once per route."""
        return self._travel_times

    def full_loop(self) -> tuple[int, ...]:
        return tuple(range(self.n_dir))


@dataclass(frozen=True)
class DemandMatrix:
    """Riders per period between physical stops of one route.

    Keys are (period, origin, destination); values are riders over the whole
    period. Origins and destinations are physical stop indices.
    """

    entries: Mapping[tuple[int, int, int], float] = field(default_factory=dict)

    def items(self) -> Iterator[tuple[tuple[int, int, int], float]]:
        return iter(self.entries.items())

    def riders(self, t: int, o: int, d: int) -> float:
        return float(self.entries.get((t, o, d), 0.0))

    def total_into(self, t: int, d: int) -> float:
        return _added(v for (tt, _, dd), v in self.entries.items() if tt == t and dd == d)

    def total(self) -> float:
        return _added(self.entries.values())


@dataclass(frozen=True)
class Scenario:
    """Full problem instance. Immutable after load; safe to share read-only."""

    periods: tuple[PeriodSpec, ...]
    routes: tuple[RouteSpec, ...]
    demand: tuple[DemandMatrix, ...]
    fleet_cap: float
    vehicle_hours_cap: float
    gamma_wait: float
    gamma_transfer: float
    transfer_time: float
    options: OptionFlags = OptionFlags()

    def total_riders(self) -> float:
        return _added(dm.total() for dm in self.demand)


# ---------------------------------------------------------------------------
# Scenario document loading
# ---------------------------------------------------------------------------

def _need(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _num(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    # JSON reads Infinity, NaN and 1e999 as floats; an integer past the float
    # range cannot convert at all.
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ScenarioError(f"{where}: must be a finite number, got {value!r}")
    return v


def _int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return value


def _bool(value: Any, where: str) -> bool:
    # bool("false") is True: only JSON true and false are flags
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true or false, got {value!r}")
    return value


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _obj(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _parse_route(doc: Mapping[str, Any], idx: int) -> tuple[RouteSpec, DemandMatrix]:
    where = f"routes[{idx}]"
    stops = _need(doc, "stops", where)
    if not isinstance(stops, list) or not all(isinstance(s, str) for s in stops):
        raise ScenarioError(f"{where}.stops: expected a list of stop names")

    lrt = _obj(_need(doc, "link_run_times", where), f"{where}.link_run_times")
    if "outbound" not in lrt or "inbound" not in lrt:
        raise ScenarioError(f"{where}.link_run_times: expected keys 'outbound' and 'inbound'")
    out_times = tuple(
        _num(v, f"{where}.link_run_times.outbound[{k}]")
        for k, v in enumerate(_list(lrt["outbound"], f"{where}.link_run_times.outbound"))
    )
    in_times = tuple(
        _num(v, f"{where}.link_run_times.inbound[{k}]")
        for k, v in enumerate(_list(lrt["inbound"], f"{where}.link_run_times.inbound"))
    )

    menus_doc = _list(_need(doc, "headway_menus", where), f"{where}.headway_menus")
    menus = tuple(
        tuple(_num(v, f"{where}.headway_menus[{t}][{k}]")
              for k, v in enumerate(_list(menu, f"{where}.headway_menus[{t}]")))
        for t, menu in enumerate(menus_doc)
    )

    allowed = doc.get("allowed_arcs")
    allowed_t: tuple[tuple[bool, ...], ...] | None = None
    if allowed is not None:
        allowed_t = tuple(tuple(_bool(v, f"{where}.allowed_arcs[{i}][{j}]")
                                for j, v in enumerate(_list(row, f"{where}.allowed_arcs[{i}]")))
                          for i, row in enumerate(_list(allowed, f"{where}.allowed_arcs")))

    route = RouteSpec(
        id=_int(doc.get("id", idx), f"{where}.id"),
        stop_names=tuple(stops),
        outbound_times=out_times,
        inbound_times=in_times,
        vehicle_capacity=_num(_need(doc, "capacity", where), f"{where}.capacity"),
        n_patterns=_int(_need(doc, "n_patterns", where), f"{where}.n_patterns"),
        headway_menus=menus,
        dwell_saving=_num(doc.get("dwell_saving", 0.0), f"{where}.dwell_saving"),
        turnback_time=_num(doc.get("turnback_time", 0.0), f"{where}.turnback_time"),
        allowed_arcs=allowed_t,
    )

    entries: dict[tuple[int, int, int], float] = {}
    for k, rec in enumerate(_list(_need(doc, "demand", where), f"{where}.demand")):
        rwhere = f"{where}.demand[{k}]"
        rec = _obj(rec, rwhere)
        t = _int(_need(rec, "t", rwhere), f"{rwhere}.t")
        o = _int(_need(rec, "o", rwhere), f"{rwhere}.o")
        d = _int(_need(rec, "d", rwhere), f"{rwhere}.d")
        riders = _num(_need(rec, "riders", rwhere), f"{rwhere}.riders")
        if (t, o, d) in entries:
            raise ScenarioError(f"{rwhere}: duplicate demand entry for (t={t}, o={o}, d={d})")
        entries[(t, o, d)] = riders
    return route, DemandMatrix(entries)


def load_scenario(doc: Mapping[str, Any]) -> Scenario:
    """Build a Scenario from a parsed JSON document; reading the file is the
    caller's (the CLI's) part, and a path is refused like any non-object.

    What a document needs to become a Scenario (keys, types, finite
    numbers, one record per demand pair, known options) is checked here
    and refused with a ScenarioError naming the offending path. Every value
    rule, signs and mask shape included, is validate_scenario's alone.
    """
    doc = _obj(doc, "scenario")

    periods: list[PeriodSpec] = []
    for k, p in enumerate(_list(_need(doc, "periods", "scenario"), "periods")):
        p = _obj(p, f"periods[{k}]")
        periods.append(PeriodSpec(
            id=_int(p.get("id", k), f"periods[{k}].id"),
            duration_hours=_num(_need(p, "duration_hours", f"periods[{k}]"),
                                f"periods[{k}].duration_hours"),
        ))

    routes_doc = _list(_need(doc, "routes", "scenario"), "routes")
    parsed = [_parse_route(_obj(r, f"routes[{k}]"), k) for k, r in enumerate(routes_doc)]

    opt_doc = _obj(doc.get("options", {}), "options")
    unknown = set(opt_doc) - {f.name for f in fields(OptionFlags)}
    if unknown:
        raise ScenarioError(f"options: unknown keys {sorted(unknown)}")
    options = OptionFlags(**{k: _bool(v, f"options.{k}") for k, v in opt_doc.items()})

    return Scenario(
        periods=tuple(periods),
        routes=tuple(r for r, _ in parsed),
        demand=tuple(dm for _, dm in parsed),
        fleet_cap=_num(_need(doc, "fleet_cap", "scenario"), "fleet_cap"),
        vehicle_hours_cap=_num(_need(doc, "vehicle_hours_cap", "scenario"), "vehicle_hours_cap"),
        gamma_wait=_num(_need(doc, "gamma_wait", "scenario"), "gamma_wait"),
        gamma_transfer=_num(_need(doc, "gamma_transfer", "scenario"), "gamma_transfer"),
        transfer_time=_num(_need(doc, "transfer_time", "scenario"), "transfer_time"),
        options=options,
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_scenario(s: Scenario) -> list[Violation]:
    """Check every instance invariant; violations are data, not exceptions."""
    out: list[Violation] = []
    bad = out.append

    if not s.periods:
        bad(Violation("periods", "at least one period is required"))
    if not s.routes:
        bad(Violation("routes", "at least one route is required"))
    for k, p in enumerate(s.periods):
        if p.id != k:
            bad(Violation(f"periods[{k}].id", f"period ids must be contiguous from 0, got {p.id}"))
        if p.duration_hours <= 0:
            bad(Violation(f"periods[{k}].duration_hours", "must be > 0"))

    if s.fleet_cap <= 0:
        bad(Violation("fleet_cap", "must be > 0"))
    if s.vehicle_hours_cap <= 0:
        bad(Violation("vehicle_hours_cap", "must be > 0"))
    if s.gamma_wait <= 0:
        bad(Violation("gamma_wait", "must be > 0"))
    if s.gamma_transfer <= 0:
        bad(Violation("gamma_transfer", "must be > 0"))
    if s.transfer_time < 0:
        bad(Violation("transfer_time", "must be >= 0"))

    if len(s.demand) != len(s.routes):
        bad(Violation("demand", "one demand matrix per route is required"))

    for ri, route in enumerate(s.routes):
        w = f"routes[{ri}]"
        n = route.n_physical
        clean = len(out)
        if n < 2:
            bad(Violation(f"{w}.stops", "a route needs at least 2 physical stops"))
            continue
        if len(route.outbound_times) != n - 1:
            bad(Violation(f"{w}.link_run_times.outbound", f"expected {n - 1} links, got {len(route.outbound_times)}"))
        if len(route.inbound_times) != n - 1:
            bad(Violation(f"{w}.link_run_times.inbound", f"expected {n - 1} links, got {len(route.inbound_times)}"))
        for k, v in enumerate(route.outbound_times):
            if v <= 0:
                bad(Violation(f"{w}.link_run_times.outbound[{k}]", "run times must be > 0"))
        for k, v in enumerate(route.inbound_times):
            if v <= 0:
                bad(Violation(f"{w}.link_run_times.inbound[{k}]", "run times must be > 0"))
        if route.dwell_saving < 0:
            bad(Violation(f"{w}.dwell_saving", "must be >= 0"))
        if route.turnback_time < 0:
            bad(Violation(f"{w}.turnback_time", "must be >= 0"))
        if route.vehicle_capacity <= 0:
            bad(Violation(f"{w}.capacity", "must be > 0"))
        if route.n_patterns < 1:
            bad(Violation(f"{w}.n_patterns", "must be >= 1"))

        if len(route.headway_menus) != len(s.periods):
            bad(Violation(f"{w}.headway_menus", f"expected one menu per period ({len(s.periods)}), got {len(route.headway_menus)}"))
        for t, menu in enumerate(route.headway_menus):
            if not menu:
                bad(Violation(f"{w}.headway_menus[{t}]", "menu must not be empty"))
                continue
            if any(v <= 0 for v in menu):
                bad(Violation(f"{w}.headway_menus[{t}]", "headway values must be > 0"))
            if any(menu[k] >= menu[k + 1] for k in range(len(menu) - 1)):
                bad(Violation(f"{w}.headway_menus[{t}]", f"headway values must be strictly ascending, got {list(menu)}"))

        if route.allowed_arcs is not None:
            nd = route.n_dir
            if len(route.allowed_arcs) != nd or any(len(row) != nd for row in route.allowed_arcs):
                bad(Violation(f"{w}.allowed_arcs", f"mask must be {nd}x{nd}"))
            else:
                for i in range(nd):
                    if route.allowed_arcs[i][i]:
                        bad(Violation(f"{w}.allowed_arcs[{i}][{i}]", "self-loop arcs are never allowed"))
                missing = [(i, (i + 1) % nd) for i in range(nd)
                           if not route.allowed_arcs[i][(i + 1) % nd]]
                if s.options.require_full_pattern and missing:
                    bad(Violation(f"{w}.allowed_arcs", "full pattern required but loop arcs "
                                                       f"{missing} are not allowed"))

        if route.dwell_saving > 0 and len(out) == clean:
            # the credit for skipped stops must not outweigh the ride; read
            # from the loop-time table, so only on a route without other faults
            nd, tmat = route.n_dir, route.travel_time_matrix()
            negative = next(((i, j) for i in range(nd) for j in range(nd)
                             if route.arc_allowed(i, j) and tmat[i][j] < 0), None)
            if negative is not None:
                i, j = negative
                bad(Violation(f"{w}.dwell_saving", f"makes allowed arc ({i}, {j}) take "
                                                   f"{tmat[i][j]:g} minutes; arc times must be >= 0"))

        if ri < len(s.demand):
            for (t, o, d), riders in s.demand[ri].items():
                dw = f"{w}.demand(t={t}, o={o}, d={d})"
                if not 0 <= t < len(s.periods):
                    bad(Violation(dw, f"period {t} does not exist"))
                if not (0 <= o < n and 0 <= d < n):
                    bad(Violation(dw, f"stops must lie in [0, {n})"))
                elif o == d:
                    bad(Violation(dw, "diagonal demand (origin == destination) is not allowed"))
                if riders < 0:
                    bad(Violation(dw, "riders must be >= 0"))

    return out
