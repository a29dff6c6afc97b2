"""Scenario factories shared across the test suite.

Everything goes through the JSON document form and load_scenario, so the
loader is exercised by every test. Random toys keep the default weights,
gamma_transfer 2.0 >= gamma_wait 1.5, unless asked for others. Neither the
model nor the evaluator lets riders pick a combination at a stop one of its
patterns skips; without that rule, a transfer cheaper than a wait would pay
for phantom boarding: riders board at the skipped stop, wait the shorter
joint headway and leave that pattern at once to transfer, and both paths
priced the same too-low optimum, which the oracle, pricing with the
evaluator, could not see. ``random_toy_doc`` says why the oracle's
enumeration is complete for its toys, and ``off_pattern_boardings`` finds
phantom boardings in an assignment.
"""

from __future__ import annotations

import random
from math import ceil

from transitopt import Scenario, ServicePlan, enumerate_combinations, load_scenario
from transitopt.backend import FLOW_CLAMP_TOL
from transitopt.plan import FlowAssignment


def scenario_doc(
    *,
    stops=("A", "B", "C"),
    out_times=(3.0, 4.0),
    in_times=(3.0, 4.0),
    menu=(5.0, 7.0),
    n_patterns=2,
    demand=(((0, 0, 2), 30.0), ((0, 2, 0), 20.0), ((0, 1, 2), 10.0)),
    period_hours=(1.0,),
    fleet_cap=12.0,
    vehicle_hours_cap=None,
    gamma_wait=1.5,
    gamma_transfer=2.0,
    transfer_time=3.0,
    dwell_saving=0.0,
    turnback_time=2.0,
    capacity=1000.0,
    allowed_arcs=None,
    transfers=True,
    symmetry=True,
    enforce_capacity=False,
    full_pattern=False,
    integer_fleet=False,
) -> dict:
    if vehicle_hours_cap is None:
        vehicle_hours_cap = fleet_cap * sum(period_hours)
    return {
        "periods": [{"id": k, "duration_hours": h} for k, h in enumerate(period_hours)],
        "routes": [
            {
                "id": 0,
                "stops": list(stops),
                "link_run_times": {"outbound": list(out_times), "inbound": list(in_times)},
                "dwell_saving": dwell_saving,
                "turnback_time": turnback_time,
                "allowed_arcs": allowed_arcs,
                "capacity": capacity,
                "n_patterns": n_patterns,
                "headway_menus": [list(menu) for _ in period_hours],
                "demand": [
                    {"t": t, "o": o, "d": d, "riders": riders}
                    for (t, o, d), riders in demand
                ],
            }
        ],
        "fleet_cap": fleet_cap,
        "vehicle_hours_cap": vehicle_hours_cap,
        "gamma_wait": gamma_wait,
        "gamma_transfer": gamma_transfer,
        "transfer_time": transfer_time,
        "options": {
            "allow_transfers": transfers,
            "enforce_symmetry": symmetry,
            "enforce_capacity": enforce_capacity,
            "require_full_pattern": full_pattern,
            "integer_fleet": integer_fleet,
        },
    }


def make_scenario(**kwargs) -> Scenario:
    return load_scenario(scenario_doc(**kwargs))


def add_route(doc: dict, *, stops, out_times, in_times, menu, n_patterns,
              demand, turnback_time=2.0, capacity=1000.0, dwell_saving=0.0) -> dict:
    rid = len(doc["routes"])
    doc["routes"].append(
        {
            "id": rid,
            "stops": list(stops),
            "link_run_times": {"outbound": list(out_times), "inbound": list(in_times)},
            "dwell_saving": dwell_saving,
            "turnback_time": turnback_time,
            "allowed_arcs": None,
            "capacity": capacity,
            "n_patterns": n_patterns,
            "headway_menus": [list(menu) for _ in doc["periods"]],
            "demand": [
                {"t": t, "o": o, "d": d, "riders": riders}
                for (t, o, d), riders in demand
            ],
        }
    )
    return doc


def random_toy_doc(seed: int, *, transfers: bool = False, full_pattern: bool = False,
                   dwell_saving: float = 0.0, gamma_transfer: float = 2.0,
                   transfer_time: float = 3.0) -> dict:
    """Small randomized single-route instance for oracle certification.

    The fleet pool always admits the full pattern at the largest menu
    headway, so the optimizer is never globally infeasible, and sometimes
    binds tightly enough to exclude two-pattern designs. Every admissible
    design is one loop in sorted stop order (the model's wrap row), so the
    oracle's sorted-subset enumeration is complete at any ``dwell_saving``.
    """
    rng = random.Random(seed)
    n = rng.choice([3, 3, 4]) if transfers else rng.choice([3, 4, 5])
    out_times = [round(rng.uniform(2.0, 8.0), 1) for _ in range(n - 1)]
    in_times = [round(rng.uniform(2.0, 8.0), 1) for _ in range(n - 1)]
    turnback = round(rng.uniform(1.0, 3.0), 1)
    lo = rng.randint(4, 7)
    menu = (float(lo), float(lo + rng.randint(1, 5)))

    pairs = [(o, d) for o in range(n) for d in range(n) if o != d]
    rng.shuffle(pairs)
    k = rng.randint(2, min(6, len(pairs)))
    demand = tuple(((0, o, d), float(rng.randint(5, 40))) for o, d in pairs[:k])

    full_cycle = sum(out_times) + sum(in_times) + 2 * turnback
    min_need = full_cycle / menu[1]
    fleet_cap = round(min_need * rng.uniform(1.1, 2.6), 2)

    return scenario_doc(
        stops=tuple(f"S{k}" for k in range(n)),
        out_times=tuple(out_times),
        in_times=tuple(in_times),
        menu=menu,
        n_patterns=2,
        demand=demand,
        fleet_cap=fleet_cap,
        vehicle_hours_cap=ceil(fleet_cap),
        turnback_time=turnback,
        dwell_saving=dwell_saving,
        gamma_transfer=gamma_transfer,
        transfer_time=transfer_time,
        transfers=transfers,
        symmetry=True,
        full_pattern=full_pattern,
    )


def ladder_doc(n: int, seed: int, *, transfers: bool) -> dict:
    """Mid-size corridor generator: one route of ``n`` stops, two patterns,
    menu (5, 7), dwell_saving 0.5, turnback 3, symmetry on, and pools of 60
    vehicles and 60 vehicle-hours."""
    rng = random.Random(seed)
    out_times = tuple(round(rng.uniform(1.5, 4.0), 1) for _ in range(n - 1))
    in_times = tuple(round(rng.uniform(1.5, 4.0), 1) for _ in range(n - 1))
    pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)}
    demand = tuple(((0, o, d), float(rng.randint(1, 60))) for o, d in pairs if o != d)
    return scenario_doc(
        stops=tuple(f"S{k}" for k in range(n)),
        out_times=out_times,
        in_times=in_times,
        menu=(5.0, 7.0),
        demand=demand,
        fleet_cap=60.0,
        vehicle_hours_cap=60.0,
        dwell_saving=0.5,
        turnback_time=3.0,
        transfers=transfers,
        symmetry=True,
    )


def city_doc() -> dict:
    """The city-scale instance of acceptance criterion 08: one route of 43
    stops, two patterns, transfers on, symmetry off, ~450 drawn pairs."""
    rng = random.Random(7)
    n = 43
    return scenario_doc(
        stops=tuple(f"S{k}" for k in range(n)),
        out_times=tuple(round(rng.uniform(1.5, 4.0), 1) for _ in range(n - 1)),
        in_times=tuple(round(rng.uniform(1.5, 4.0), 1) for _ in range(n - 1)),
        menu=(5.0, 7.0), n_patterns=2, turnback_time=3.0,
        demand=tuple(((0, o, d), float(rng.randint(1, 60)))
                     for o, d in {(rng.randrange(n), rng.randrange(n))
                                  for _ in range(450)} if o != d),
        fleet_cap=60.0, vehicle_hours_cap=60.0,
        transfers=True, symmetry=False,
    )


def full_pattern_plan_doc(scenario: Scenario, headway_choice: int = -1) -> dict:
    """Baseline plan: pattern 0 runs the full loop at one menu headway,
    remaining patterns out of service."""
    routes = []
    for r, route in enumerate(scenario.routes):
        periods = []
        for t in range(len(scenario.periods)):
            menu = route.headway_menu(t)
            headway = menu[headway_choice]
            patterns = [{"pattern": 0, "headway": headway, "stops": list(range(route.n_dir))}]
            for p in range(1, route.n_patterns):
                patterns.append({"pattern": p, "headway": None, "stops": []})
            periods.append({"period": t, "patterns": patterns})
        routes.append({"route": r, "periods": periods})
    return {"routes": routes}


def off_pattern_boardings(flows: FlowAssignment, scenario: Scenario,
                          plan: ServicePlan) -> list[tuple[str, tuple, float]]:
    """(column, key, riders) of each entering (``fw``) or re-boarding
    (``fx``) flow above ``FLOW_CLAMP_TOL`` whose combination has an active
    pattern that skips its stop; empty when every rider boards where the
    combination's patterns all stop."""
    found = []
    for column, family in (("fw", flows.entry), ("fx", flows.reboarding)):
        for (t, r, d, i, c), v in family.items():
            route = scenario.routes[r]
            combo = enumerate_combinations(route.n_patterns, route.headway_menu(t))[c]
            patterns = plan.cell(r, t).patterns
            if v > FLOW_CLAMP_TOL and any(i not in patterns[p].stops
                                          for p in combo.active_patterns):
                found.append((column, (t, r, d, i, c), v))
    return found
