"""Scenario documents for the benchmark workloads.

The generators live here, not in the test suite, so that a test refactor
cannot change the benchmark's inputs. They only build plain JSON documents;
the program under test receives nothing else.
"""

from __future__ import annotations

import random
from math import ceil


def corridor_doc(*, stops, out_times, in_times, menu, demand, fleet_cap,
                 vehicle_hours_cap, turnback_time, transfers, symmetry,
                 dwell_saving=0.0) -> dict:
    """One route with two patterns, one one-hour period; `demand` is
    [(o, d, riders), ...]."""
    return {
        "periods": [{"id": 0, "duration_hours": 1.0}],
        "routes": [{
            "id": 0,
            "stops": list(stops),
            "link_run_times": {"outbound": list(out_times), "inbound": list(in_times)},
            "dwell_saving": dwell_saving,
            "turnback_time": turnback_time,
            "allowed_arcs": None,
            "capacity": 1000.0,
            "n_patterns": 2,
            "headway_menus": [list(menu)],
            "demand": [{"t": 0, "o": o, "d": d, "riders": riders} for o, d, riders in demand],
        }],
        "fleet_cap": fleet_cap,
        "vehicle_hours_cap": vehicle_hours_cap,
        "gamma_wait": 1.5,
        "gamma_transfer": 2.0,
        "transfer_time": 3.0,
        "options": {
            "allow_transfers": transfers,
            "enforce_symmetry": symmetry,
            "enforce_capacity": False,
            "require_full_pattern": False,
            "integer_fleet": False,
        },
    }


def toy_doc(seed: int, *, transfers: bool) -> dict:
    """Desk-scale toy of 3-5 stops (3-4 with transfers), dwell_saving 0.

    The fleet pool always admits the full pattern at the larger menu
    headway, so the instance is feasible.
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
    demand = [(o, d, float(rng.randint(5, 40))) for o, d in pairs[:k]]
    min_need = (sum(out_times) + sum(in_times) + 2 * turnback) / menu[1]
    fleet_cap = round(min_need * rng.uniform(1.1, 2.6), 2)
    return corridor_doc(
        stops=[f"S{k}" for k in range(n)], out_times=out_times, in_times=in_times,
        menu=menu, demand=demand, fleet_cap=fleet_cap,
        vehicle_hours_cap=float(ceil(fleet_cap)), turnback_time=turnback,
        transfers=transfers, symmetry=True)


def ladder_doc(n: int, seed: int, *, transfers: bool, symmetry: bool = True,
               dwell_saving: float = 0.5, pair_draws: int | None = None) -> dict:
    """The mid-size corridor generator; with n = 43, symmetry off,
    dwell_saving 0 and 450 pair draws at seed 7 it is the city-scale
    acceptance instance."""
    rng = random.Random(seed)
    out_times = [round(rng.uniform(1.5, 4.0), 1) for _ in range(n - 1)]
    in_times = [round(rng.uniform(1.5, 4.0), 1) for _ in range(n - 1)]
    # Riders are drawn in set iteration order, as the reference generator does.
    pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(pair_draws or 3 * n)}
    demand = [(o, d, float(rng.randint(1, 60))) for o, d in pairs if o != d]
    return corridor_doc(
        stops=[f"S{k}" for k in range(n)], out_times=out_times, in_times=in_times,
        menu=(5.0, 7.0), demand=demand, fleet_cap=60.0, vehicle_hours_cap=60.0,
        turnback_time=3.0, transfers=transfers, symmetry=symmetry,
        dwell_saving=dwell_saving)


def city_doc() -> dict:
    return ladder_doc(43, 7, transfers=True, symmetry=False, dwell_saving=0.0,
                      pair_draws=450)


def full_pattern_plan_doc(doc: dict) -> dict:
    """Pattern 0 runs the full loop at the longest menu headway; the rest
    are off."""
    routes = []
    for r, route in enumerate(doc["routes"]):
        n_dir = 2 * len(route["stops"])
        periods = []
        for t, menu in enumerate(route["headway_menus"]):
            patterns = [{"pattern": 0, "headway": menu[-1],
                         "stops": list(range(n_dir))}]
            patterns += [{"pattern": p, "headway": None, "stops": []}
                         for p in range(1, route["n_patterns"])]
            periods.append({"period": t, "patterns": patterns})
        routes.append({"route": r, "periods": periods})
    return {"routes": routes}
