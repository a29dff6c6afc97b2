"""Abstract MILP assembly for the joint pattern / headway / fleet design.

The model couples, per route and period:

* pattern arcs (binary) that chain direction stops into one closed vehicle
  loop per in-service pattern and none for a pattern out of service,
* a headway pick per pattern from a discrete menu (index 0 = out of service),
* cycle minutes per (pattern, headway), nonzero only under the picked
  headway, that price vehicle requirements linearly,
* a combination pick per (entry stop, destination) that fixes which patterns
  riders may board and the perceived headway they wait,
* destination-labeled flows for entering, boarding, riding, exiting and
  (optionally) transferring riders,
* a per-route fleet variable drawing on shared vehicle and vehicle-hour pools.

The objective is the total weighted journey time: riding minutes, plus
weighted perceived waiting (half the combination headway per entering rider),
plus weighted transfer penalties.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, replace
from typing import Any

from .combos import enumerate_combinations
from .network import Scenario, validate_scenario
from .plan import PlanError, ServicePlan

__all__ = [
    "BuildError",
    "Var",
    "Row",
    "MilpModel",
    "build_model",
    "big_m_flow",
    "fix_baseline",
    "model_stats",
    "VAR_FAMILIES",
    "ROW_FAMILIES",
]


class BuildError(ValueError):
    """Raised when a scenario cannot be translated into a model."""


# Wire prefixes of the variable families. Key layout per family:
#   x  (t, r, p, i, j)        pattern arc                      binary
#   y  (t, r, p, h)           headway pick, h=0 means off      binary
#   cy (t, r, p, h)           cycle minutes under headway h>=1 continuous
#   z  (t, r, i, d, c)        combination pick                 binary
#   fw (t, r, d, i, c)        entry flow
#   fa (t, r, d, i, c, p)     boarding flow
#   fl (t, r, d, p, i, j)     inter-stop (riding) flow
#   fb (t, r, j, p)           exit flow
#   fx (t, r, d, i, j, p, c)  transfer flow (alight i, board j)
#   n  (r, t)                 fleet allocated to route r in period t
VAR_FAMILIES = ("x", "y", "cy", "z", "fw", "fa", "fl", "fb", "fx", "n")

# Constraint families in export order. Each row is tagged with exactly one.
ROW_FAMILIES = (
    "loop_balance",         # arcs in == arcs out at every stop of a pattern
    "loop_visit_cap",       # at most one incoming arc per stop
    "loop_wrap",            # one backward arc if in service, none if off
    "ride_arc_gate",        # riding flow only on selected arcs
    "pattern_symmetry",     # mirrored arc selection across directions
    "one_headway",          # each pattern picks exactly one menu entry (or off)
    "headway_order",        # faster patterns first; in-service patterns first
    "cycle_gate",           # cycle minutes only under the picked headway
    "cycle_split",          # cycle minutes sum to the selected arcs' minutes
    "arc_capacity",         # riders per arc capped by capacity x frequency
    "fleet_need",           # cycle time / headway, summed, within the fleet
    "fleet_pool",           # per-period fleet draw within the vehicle pool
    "fleet_hours",          # duration-weighted fleet within vehicle-hours
    "one_combination",      # at most one combination per entry stop and label
    "combination_menu",     # combination only if its headways are picked
    "board_gate",           # boarding only under the picked combination
    "board_share",          # boarding split matches the frequency-share rule
    "demand_entry",         # entries at both direction stops cover demand
    "demand_exit",          # exits at both direction stops cover demand
    "entry_board_balance",  # entries + transfers in == boardings
    "onboard_balance",      # boardings + riding in == riding out + transfers
    "arrive_exit_balance",  # riding into the destination == exits
)


@dataclass(slots=True)
class Var:
    id: int
    kind: str           # 'B' binary, 'C' continuous, 'I' integer
    lb: float
    ub: float
    family: str
    key: tuple


@dataclass(slots=True)
class Row:
    coeffs: list        # list[(var_id, coefficient)]
    sense: str          # '<=', '>=', '='
    rhs: float
    family: str
    key: tuple


@dataclass
class MilpModel:
    """Sparse minimization MILP plus the scenario it was built from."""

    variables: list[Var]
    objective: dict[int, float]
    rows: list[Row]
    scenario: Scenario


def big_m_flow(scenario: Scenario, r: int, t: int, d: int, share: bool = False) -> float:
    """Coupling constant for destination-``d`` flow rows of route r, period t.

    Flow conservation bounds every d-labeled flow by the total demand into d,
    so that sum is a valid (and per-destination tight) big-M. Frequency-share
    window rows compare headway-scaled flows and need the extra factor of the
    largest menu headway.
    """
    total = scenario.demand[r].total_into(t, d)
    if share:
        menu = scenario.routes[r].headway_menu(t)
        return max(menu) * total
    return total


def build_model(scenario: Scenario) -> MilpModel:
    """Translate a scenario into the complete abstract MILP."""
    violations = validate_scenario(scenario)
    if violations:
        raise BuildError(
            "scenario is invalid: " + "; ".join(str(v) for v in violations[:10])
            + ("" if len(violations) <= 10 else f" (+{len(violations) - 10} more)")
        )

    # The model is a million-odd container objects that form no reference
    # cycles; while they are created, the cyclic collector would walk the
    # growing set over and over and find nothing to free.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _assemble(scenario)
    finally:
        if collecting:
            gc.enable()


def _assemble(scenario: Scenario) -> MilpModel:
    """The variables, objective and rows of a valid scenario's model."""
    opts = scenario.options
    variables: list[Var] = []
    objective: dict[int, float] = {}
    rows_by_family: dict[str, list[Row]] = {f: [] for f in ROW_FAMILIES}

    def new_var(kind: str, family: str, key: tuple, lb: float = 0.0, ub: float = math.inf) -> int:
        vid = len(variables)
        variables.append(Var(vid, kind, lb, ub, family, key))
        return vid

    gamma_w = scenario.gamma_wait
    gamma_x = scenario.gamma_transfer
    t_x = scenario.transfer_time
    fleet_var: dict[tuple[int, int], int] = {}

    for t, period in enumerate(scenario.periods):
        for r, route in enumerate(scenario.routes):
            nd = route.n_dir
            n = route.n_physical
            menu = route.headway_menu(t)
            m = len(menu)
            patterns = range(route.n_patterns)
            combos = enumerate_combinations(route.n_patterns, menu)
            tmat = route.travel_time_matrix()
            t_full = sum(route.adjacent_times())
            mirror = [nd - 1 - i for i in range(nd)]

            arcs = [(i, j) for i in range(nd) for j in range(nd) if route.arc_allowed(i, j)]
            fwd_arcs = [(i, j) for (i, j) in arcs if i < j]
            in_allowed: list[list[int]] = [[] for _ in range(nd)]
            out_allowed: list[list[int]] = [[] for _ in range(nd)]
            fwd_in: list[list[int]] = [[] for _ in range(nd)]
            fwd_out: list[list[int]] = [[] for _ in range(nd)]
            for i, j in arcs:
                in_allowed[j].append(i)
                out_allowed[i].append(j)
                if i < j:
                    fwd_in[j].append(i)
                    fwd_out[i].append(j)

            combos_with_p: list[list[int]] = [[] for _ in patterns]
            for c, combo in enumerate(combos):
                for p in combo.active_patterns:
                    combos_with_p[p].append(c)

            big_m = {d: big_m_flow(scenario, r, t, d) for d in range(n)}
            big_m_share = {d: big_m_flow(scenario, r, t, d, share=True) for d in range(n)}

            # --- variables -------------------------------------------------
            xid: dict[tuple, int] = {}
            full_loop_arcs = set(zip(route.full_loop(), route.full_loop()[1:] + route.full_loop()[:1]))
            if opts.require_full_pattern:
                missing = [a for a in full_loop_arcs if not route.arc_allowed(*a)]
                if missing:
                    raise BuildError(
                        f"route {route.id}: full pattern required but loop arcs {missing} are not allowed")
            for p in patterns:
                for i, j in arcs:
                    lb = ub = None
                    if opts.require_full_pattern and p == 0:
                        fixed = 1.0 if (i, j) in full_loop_arcs else 0.0
                        lb, ub = fixed, fixed
                    xid[(p, i, j)] = new_var("B", "x", (t, r, p, i, j),
                                             lb if lb is not None else 0.0,
                                             ub if ub is not None else 1.0)

            yid: dict[tuple, int] = {}
            for p in patterns:
                for h in range(m + 1):
                    yid[(p, h)] = new_var("B", "y", (t, r, p, h), 0.0, 1.0)

            cyid: dict[tuple, int] = {}
            for p in patterns:
                for h in range(1, m + 1):
                    cyid[(p, h)] = new_var("C", "cy", (t, r, p, h))

            zid: dict[tuple, int] = {}
            for i in range(nd):
                for d in range(n):
                    if i == d or i == mirror[d]:
                        continue
                    for c in range(len(combos)):
                        zid[(i, d, c)] = new_var("B", "z", (t, r, i, d, c), 0.0, 1.0)

            fwid: dict[tuple, int] = {}
            for d in range(n):
                dd = mirror[d]
                for i in range(nd):
                    if i == d or i == dd:
                        continue
                    for c in range(len(combos)):
                        fwid[(d, i, c)] = new_var("C", "fw", (t, r, d, i, c))

            faid: dict[tuple, int] = {}
            for d in range(n):
                dd = mirror[d]
                for i in range(nd):
                    if i == d or i == dd:
                        continue
                    for c, combo in enumerate(combos):
                        for p in combo.active_patterns:
                            faid[(d, i, c, p)] = new_var("C", "fa", (t, r, d, i, c, p))

            flid: dict[tuple, int] = {}
            for d in range(n):
                dd = mirror[d]
                for p in patterns:
                    for i, j in fwd_arcs:
                        if i == d or i == dd:
                            continue
                        flid[(d, p, i, j)] = new_var("C", "fl", (t, r, d, p, i, j))

            fbid: dict[tuple, int] = {}
            for j in range(nd):
                for p in patterns:
                    fbid[(j, p)] = new_var("C", "fb", (t, r, j, p))

            fxid: dict[tuple, int] = {}
            if opts.allow_transfers:
                for d in range(n):
                    dd = mirror[d]
                    for i in range(nd):
                        if i == d or i == dd:
                            continue
                        for j in (i, mirror[i]):
                            for p in patterns:
                                for c in range(len(combos)):
                                    fxid[(d, i, j, p, c)] = new_var(
                                        "C", "fx", (t, r, d, i, j, p, c))

            n_kind = "I" if opts.integer_fleet else "C"
            fleet_var[(r, t)] = new_var(n_kind, "n", (r, t))

            # --- objective ---------------------------------------------------
            for (d, p, i, j), vid in flid.items():
                objective[vid] = tmat[i][j]
            for (d, i, c), vid in fwid.items():
                objective[vid] = gamma_w * combos[c].perceived_headway / 2.0
            for (d, i, j, p, c), vid in fxid.items():
                objective[vid] = gamma_x * (combos[c].perceived_headway / 2.0 + t_x)

            # --- pattern structure -------------------------------------------
            add = lambda fam, key, coeffs, sense, rhs: rows_by_family[fam].append(
                Row(coeffs, sense, rhs, fam, key))

            for p in patterns:
                for j in range(nd):
                    coeffs = [(xid[(p, i, j)], 1.0) for i in in_allowed[j]]
                    coeffs += [(xid[(p, j, k)], -1.0) for k in out_allowed[j]]
                    add("loop_balance", (t, r, p, j), coeffs, "=", 0.0)
            for p in patterns:
                for j in range(nd):
                    coeffs = [(xid[(p, i, j)], 1.0) for i in in_allowed[j]]
                    add("loop_visit_cap", (t, r, p, j), coeffs, "<=", 1.0)
            # Forward travel raises the stop index except on the wrap step, so
            # every cycle has an arc with i > j: one such arc per in-service
            # pattern leaves exactly one loop, in sorted stop order.
            for p in patterns:
                coeffs = [(xid[(p, i, j)], 1.0) for i, j in arcs if i > j]
                coeffs += [(yid[(p, h)], -1.0) for h in range(1, m + 1)]
                add("loop_wrap", (t, r, p), coeffs, "=", 0.0)

            for d in range(n):
                dd = mirror[d]
                M = big_m[d]
                for p in patterns:
                    for i, j in fwd_arcs:
                        if i == d or i == dd:
                            continue
                        coeffs = [(flid[(d, p, i, j)], 1.0)]
                        if M > 0.0:
                            coeffs.append((xid[(p, i, j)], -M))
                        add("ride_arc_gate", (t, r, d, p, i, j), coeffs, "<=", 0.0)

            if opts.enforce_symmetry:
                for p in patterns:
                    for i, j in arcs:
                        mi, mj = mirror[j], mirror[i]
                        if (i, j) == (mi, mj):
                            continue
                        if route.arc_allowed(mi, mj):
                            if (i, j) < (mi, mj):
                                add("pattern_symmetry", (t, r, p, i, j),
                                    [(xid[(p, i, j)], 1.0), (xid[(p, mi, mj)], -1.0)], "=", 0.0)
                        else:
                            add("pattern_symmetry", (t, r, p, i, j),
                                [(xid[(p, i, j)], 1.0)], "=", 0.0)

            # --- headways -----------------------------------------------------
            for p in patterns:
                add("one_headway", (t, r, p),
                    [(yid[(p, h)], 1.0) for h in range(m + 1)], "=", 1.0)

            # In-service patterns come first and take menu entries in
            # ascending order; prefix sums of the pick indicators dominate.
            for p1 in patterns:
                for p2 in patterns:
                    if p1 >= p2:
                        continue
                    for h in range(1, m + 1):
                        coeffs = [(yid[(p1, hh)], 1.0) for hh in range(1, h + 1)]
                        coeffs += [(yid[(p2, hh)], -1.0) for hh in range(1, h + 1)]
                        add("headway_order", (t, r, p1, p2, h), coeffs, ">=", 0.0)

            # A sorted single loop takes t_full less the dwell credits of its
            # skipped stops, so t_full bounds the cycle minutes.
            for p in patterns:
                for h in range(1, m + 1):
                    add("cycle_gate", (t, r, p, h),
                        [(cyid[(p, h)], 1.0), (yid[(p, h)], -t_full)], "<=", 0.0)
            for p in patterns:
                coeffs = [(cyid[(p, h)], 1.0) for h in range(1, m + 1)]
                coeffs += [(xid[(p, i, j)], -tmat[i][j]) for i, j in arcs]
                add("cycle_split", (t, r, p), coeffs, "=", 0.0)

            if opts.enforce_capacity:
                minutes = 60.0 * period.duration_hours
                cap = route.vehicle_capacity
                for p in patterns:
                    for i, j in fwd_arcs:
                        coeffs = [(flid[(d, p, i, j)], 1.0)
                                  for d in range(n)
                                  if (d, p, i, j) in flid]
                        coeffs += [(yid[(p, h)], -cap * minutes / menu[h - 1])
                                   for h in range(1, m + 1)]
                        add("arc_capacity", (t, r, p, i, j), coeffs, "<=", 0.0)

            coeffs = [(cyid[(p, h)], 1.0 / menu[h - 1])
                      for p in patterns for h in range(1, m + 1)]
            coeffs.append((fleet_var[(r, t)], -1.0))
            add("fleet_need", (t, r), coeffs, "<=", 0.0)

            # --- combinations ---------------------------------------------------
            for i in range(nd):
                for d in range(n):
                    if i == d or i == mirror[d]:
                        continue
                    add("one_combination", (t, r, i, d),
                        [(zid[(i, d, c)], 1.0) for c in range(len(combos))], "<=", 1.0)

            for i in range(nd):
                for d in range(n):
                    if i == d or i == mirror[d]:
                        continue
                    for c, combo in enumerate(combos):
                        for p in combo.active_patterns:
                            add("combination_menu", (t, r, i, d, c, p),
                                [(zid[(i, d, c)], 1.0),
                                 (yid[(p, combo.headway_indices[p])], -1.0)], "<=", 0.0)

            for d in range(n):
                dd = mirror[d]
                M = big_m[d]
                for i in range(nd):
                    if i == d or i == dd:
                        continue
                    for c, combo in enumerate(combos):
                        for p in combo.active_patterns:
                            coeffs = [(faid[(d, i, c, p)], 1.0)]
                            if M > 0.0:
                                coeffs.append((zid[(i, d, c)], -M))
                            add("board_gate", (t, r, d, i, c, p), coeffs, "<=", 0.0)

            for d in range(n):
                dd = mirror[d]
                Ms = big_m_share[d]
                for i in range(nd):
                    if i == d or i == dd:
                        continue
                    for c, combo in enumerate(combos):
                        act = combo.active_patterns
                        if len(act) < 2:
                            continue
                        for a in range(len(act)):
                            for b in range(a + 1, len(act)):
                                p1, p2 = act[a], act[b]
                                t1 = menu[combo.headway_indices[p1] - 1]
                                t2 = menu[combo.headway_indices[p2] - 1]
                                base = [(faid[(d, i, c, p1)], t1), (faid[(d, i, c, p2)], -t2)]
                                if Ms > 0.0:
                                    add("board_share", (t, r, d, i, c, p1, p2, "ub"),
                                        base + [(zid[(i, d, c)], Ms)], "<=", Ms)
                                    add("board_share", (t, r, d, i, c, p1, p2, "lb"),
                                        base + [(zid[(i, d, c)], -Ms)], ">=", -Ms)
                                else:
                                    add("board_share", (t, r, d, i, c, p1, p2, "eq"),
                                        base, "=", 0.0)

            # --- demand and conservation ---------------------------------------
            dm = scenario.demand[r]
            for o in range(n):
                for d in range(n):
                    if o == d:
                        continue
                    oo = mirror[o]
                    coeffs = [(fwid[(d, o, c)], 1.0) for c in range(len(combos))]
                    coeffs += [(fwid[(d, oo, c)], 1.0) for c in range(len(combos))]
                    add("demand_entry", (t, r, o, d), coeffs, "=", dm.riders(t, o, d))

            for d in range(n):
                dd = mirror[d]
                coeffs = [(fbid[(d, p)], 1.0) for p in patterns]
                coeffs += [(fbid[(dd, p)], 1.0) for p in patterns]
                add("demand_exit", (t, r, d), coeffs, "=", dm.total_into(t, d))

            for d in range(n):
                dd = mirror[d]
                for i in range(nd):
                    if i == d or i == dd:
                        continue
                    mi = mirror[i]
                    for c, combo in enumerate(combos):
                        coeffs = [(fwid[(d, i, c)], 1.0)]
                        if opts.allow_transfers:
                            for p in patterns:
                                coeffs.append((fxid[(d, i, i, p, c)], 1.0))
                                coeffs.append((fxid[(d, mi, i, p, c)], 1.0))
                        coeffs += [(faid[(d, i, c, p)], -1.0) for p in combo.active_patterns]
                        add("entry_board_balance", (t, r, d, i, c), coeffs, "=", 0.0)

            for d in range(n):
                dd = mirror[d]
                for p in patterns:
                    for j in range(nd):
                        if j == d or j == dd:
                            continue
                        coeffs = [(faid[(d, j, c, p)], 1.0) for c in combos_with_p[p]]
                        coeffs += [(flid[(d, p, i, j)], 1.0)
                                   for i in fwd_in[j] if i != d and i != dd]
                        coeffs += [(flid[(d, p, j, k)], -1.0) for k in fwd_out[j]]
                        if opts.allow_transfers:
                            mj = mirror[j]
                            for c in range(len(combos)):
                                coeffs.append((fxid[(d, j, j, p, c)], -1.0))
                                coeffs.append((fxid[(d, j, mj, p, c)], -1.0))
                        add("onboard_balance", (t, r, d, p, j), coeffs, "=", 0.0)

            for d in range(n):
                dd = mirror[d]
                for j in (d, dd):
                    for p in patterns:
                        coeffs = [(flid[(d, p, i, j)], 1.0)
                                  for i in fwd_in[j] if i != d and i != dd]
                        coeffs.append((fbid[(j, p)], -1.0))
                        add("arrive_exit_balance", (t, r, d, j, p), coeffs, "=", 0.0)

    # --- shared fleet pools -----------------------------------------------
    for t, period in enumerate(scenario.periods):
        coeffs = [(fleet_var[(r, t)], 1.0) for r in range(len(scenario.routes))]
        rows_by_family["fleet_pool"].append(
            Row(coeffs, "<=", scenario.fleet_cap, "fleet_pool", (t,)))
    coeffs = []
    for t, period in enumerate(scenario.periods):
        for r in range(len(scenario.routes)):
            coeffs.append((fleet_var[(r, t)], period.duration_hours))
    rows_by_family["fleet_hours"].append(
        Row(coeffs, "<=", scenario.vehicle_hours_cap, "fleet_hours", ()))

    rows: list[Row] = []
    for fam in ROW_FAMILIES:
        rows.extend(rows_by_family[fam])

    return MilpModel(
        variables=variables,
        objective=objective,
        rows=rows,
        scenario=scenario,
    )


def fix_baseline(model: MilpModel, plan: ServicePlan) -> MilpModel:
    """Pin all design variables (arcs, headways, fleet) to a given plan.

    Flows, combination picks and cycle minutes stay free (the pinned arcs
    determine the cycle minutes), so solving the result evaluates the plan
    through the same machinery that prices free designs.
    """
    scenario = model.scenario
    opts = scenario.options
    arcs: dict[tuple, set[tuple[int, int]]] = {}    # (t, r, p) -> arcs of the loop
    headway_index: dict[tuple, int] = {}            # (t, r, p) -> menu position
    for t in range(len(scenario.periods)):
        for r, route in enumerate(scenario.routes):
            cell = plan.cell(r, t)
            if len(cell.patterns) != route.n_patterns:
                raise PlanError(f"plan has {len(cell.patterns)} patterns for route {r}, "
                                f"model expects {route.n_patterns}")
            menu = route.headway_menu(t)
            nd = route.n_dir
            for p, pat in enumerate(cell.patterns):
                if pat.headway_index > len(menu):
                    raise PlanError(f"pattern {p} headway index {pat.headway_index} "
                                    f"outside menu of route {r}")
                if opts.require_full_pattern and p == 0 and set(pat.stops) != set(range(nd)):
                    raise PlanError("model requires pattern 0 to serve every stop, plan does not")
                loop = set(pat.arcs())
                for i, j in sorted(loop):
                    if not (0 <= i < nd and 0 <= j < nd and route.arc_allowed(i, j)):
                        raise PlanError(f"plan uses arc ({i}, {j}) not allowed on route {r}")
                arcs[(t, r, p)] = loop
                headway_index[(t, r, p)] = pat.headway_index

    def pinned(v: Var) -> Var:
        if v.family == "x":
            value = 1.0 if v.key[3:] in arcs[v.key[:3]] else 0.0
        elif v.family == "y":
            value = 1.0 if v.key[3] == headway_index[v.key[:3]] else 0.0
        elif v.family == "n":
            r, t = v.key
            value = plan.cell(r, t).fleet
        else:
            return v
        return replace(v, lb=value, ub=value)

    return MilpModel(
        variables=[pinned(v) for v in model.variables],
        objective=model.objective,
        rows=model.rows,
        scenario=scenario,
    )


def model_stats(model: MilpModel) -> dict[str, Any]:
    """Counts by variable kind and family, rows by family, nonzeros."""
    by_kind = {"binary": 0, "continuous": 0, "integer": 0}
    kind_names = {"B": "binary", "C": "continuous", "I": "integer"}
    by_family: dict[str, int] = {f: 0 for f in VAR_FAMILIES}
    for v in model.variables:
        by_kind[kind_names[v.kind]] += 1
        by_family[v.family] += 1
    rows_by_family: dict[str, int] = {f: 0 for f in ROW_FAMILIES}
    nnz = 0
    for row in model.rows:
        rows_by_family[row.family] += 1
        nnz += len(row.coeffs)
    return {
        "variables": {
            "total": len(model.variables),
            "by_kind": by_kind,
            "by_family": by_family,
        },
        "rows": {
            "total": len(model.rows),
            "by_family": rows_by_family,
        },
        "nonzeros": nnz,
    }
