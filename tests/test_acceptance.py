"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in captured
output on failure). The solved-instance registry is shared so that the
cross-cutting criteria (recomputation, fleet accounting, ordering) run
against every solve performed here.
"""

import json
import random
import time
from dataclasses import dataclass

import pytest

from transitopt import (
    FlowAssignment, Metrics, ServicePlan, SolverConfig, SolveResult,
    assign_flows, build_model, certify, compute_metrics,
    conservation_residuals, decode_plan, enumerate_combinations,
    fleet_requirement, frequency_shares, load_plan, load_scenario,
    model_stats, perceived_headway, solve,
)
from transitopt.cli import main as cli_main
from transitopt.model import MilpModel

from _factories import (add_route, city_doc, full_pattern_plan_doc,
                        off_pattern_boardings, random_toy_doc, scenario_doc)

DIRECT_SEEDS = list(range(1001, 1015))      # 14 toys without transfers
TRANSFER_SEEDS = list(range(2001, 2007))    # 6 toys with transfers
REL = 1e-6


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {state}"
    if detail:
        line += f" ({detail})"
    print(line)


@dataclass
class Solved:
    label: str
    scenario: object
    model: MilpModel
    result: SolveResult
    plan: ServicePlan
    flows: FlowAssignment
    oracle_eligible: bool


def _solve_instance(label, scenario, oracle_eligible):
    model = build_model(scenario)
    result = solve(model, SolverConfig(time_limit_s=300))
    assert result.status == "optimal", f"{label}: solver returned {result.status}"
    plan, flows = decode_plan(model, result)
    return Solved(label, scenario, model, result, plan, flows, oracle_eligible)


def _multi_route_doc():
    doc = scenario_doc(
        demand=(((0, 0, 2), 25.0), ((0, 2, 1), 10.0)),
        fleet_cap=9.0, vehicle_hours_cap=9.0, transfers=False)
    add_route(doc, stops=("X", "Y"), out_times=(6.0,), in_times=(6.0,),
              menu=(4.0, 8.0), n_patterns=1, turnback_time=1.0,
              demand=(((0, 0, 1), 30.0), ((0, 1, 0), 12.0)))
    return doc


def _multi_period_doc():
    return scenario_doc(
        period_hours=(2.0, 3.0),
        demand=(((0, 0, 2), 40.0), ((0, 2, 0), 25.0), ((1, 0, 2), 12.0)),
        fleet_cap=8.0, vehicle_hours_cap=26.0, transfers=False,
        full_pattern=True)


@pytest.fixture(scope="module")
def registry():
    records = []
    for seed in DIRECT_SEEDS:
        records.append(_solve_instance(
            f"toy-{seed}", load_scenario(random_toy_doc(seed, transfers=False)), True))
    for seed in TRANSFER_SEEDS:
        records.append(_solve_instance(
            f"toy-transfer-{seed}", load_scenario(random_toy_doc(seed, transfers=True)), True))
    records.append(_solve_instance("multi-route", load_scenario(_multi_route_doc()), False))
    records.append(_solve_instance("multi-period", load_scenario(_multi_period_doc()), False))
    return records


def test_criterion_01_combination_cardinality():
    t0 = time.perf_counter()
    c22 = len(enumerate_combinations(2, (5.25, 7.25)))
    c33 = len(enumerate_combinations(3, (5.25, 7.25, 10.25)))
    elapsed = time.perf_counter() - t0
    ok = c22 == 8 and c33 == 63 and elapsed < 1.0
    _report(1, "combination cardinality 8 and 63", ok,
            f"|C|={c22},{c33} in {elapsed:.3f}s")
    assert ok


def test_criterion_02_perceived_headway_identity():
    rng = random.Random(424242)
    worst = 0.0
    singles_exact = True
    for _ in range(1000):
        length = rng.randint(1, 7)
        menu = sorted({round(rng.uniform(1.0, 60.0), 6) for _ in range(length)})
        if not menu:
            continue
        vec = [rng.randint(0, len(menu)) for _ in range(rng.randint(1, 3))]
        if all(h == 0 for h in vec):
            vec[0] = rng.randint(1, len(menu))
        t_c = perceived_headway(vec, menu)
        inv = sum(1.0 / menu[h - 1] for h in vec if h != 0)
        worst = max(worst, abs(1.0 / t_c - inv))
        if sum(1 for h in vec if h != 0) == 1:
            (active,) = [menu[h - 1] for h in vec if h != 0]
            singles_exact = singles_exact and t_c == active
    ok = worst <= 1e-9 and singles_exact
    _report(2, "perceived headway harmonic identity", ok, f"worst residual {worst:.2e}")
    assert ok


def test_criterion_03_frequency_share_identities():
    rng = random.Random(515151)
    worst_sum = 0.0
    worst_ratio = 0.0
    for _ in range(1000):
        length = rng.randint(1, 7)
        menu = sorted({round(rng.uniform(1.0, 60.0), 6) for _ in range(length)})
        if not menu:
            continue
        vec = [rng.randint(0, len(menu)) for _ in range(rng.randint(1, 3))]
        if all(h == 0 for h in vec):
            vec[0] = rng.randint(1, len(menu))
        shares = frequency_shares(vec, menu)
        worst_sum = max(worst_sum, abs(sum(shares) - 1.0))
        active = [p for p, h in enumerate(vec) if h != 0]
        for a in range(len(active)):
            for b in range(a + 1, len(active)):
                p1, p2 = active[a], active[b]
                t1, t2 = menu[vec[p1] - 1], menu[vec[p2] - 1]
                worst_ratio = max(worst_ratio, abs(shares[p1] / shares[p2] - t2 / t1))
    ok = worst_sum <= 1e-12 and worst_ratio <= 1e-9
    _report(3, "frequency shares sum and ratio", ok,
            f"sum residual {worst_sum:.2e}, ratio residual {worst_ratio:.2e}")
    assert ok


def test_criterion_04_oracle_equivalence(registry):
    t0 = time.perf_counter()
    checked = 0
    failures = []
    for rec in registry:
        if not rec.oracle_eligible:
            continue
        report = certify(rec.scenario, rec.result, cross_check="sample")
        checked += 1
        if report.verdict != "match":
            failures.append((rec.label, report.best_objective, report.milp_objective))
    elapsed = time.perf_counter() - t0
    ok = not failures and checked >= 20 and elapsed < 600.0
    _report(4, "oracle equivalence on randomized toys", ok,
            f"{checked} scenarios in {elapsed:.1f}s" + (f", failures {failures}" if failures else ""))
    assert ok


def test_criterion_05_cross_module_recomputation(registry):
    worst_rel = 0.0
    worst_resid = 0.0
    off_pattern = []
    for rec in registry:
        fa = assign_flows(rec.scenario, rec.plan)
        m = compute_metrics(fa, rec.scenario, rec.plan)
        rel = abs(m.objective - rec.result.objective) / max(1.0, abs(rec.result.objective))
        worst_rel = max(worst_rel, rel)
        for flows in (rec.flows, fa):
            for family, resid in conservation_residuals(flows, rec.scenario, rec.plan).items():
                worst_resid = max(worst_resid, resid)
            off_pattern += off_pattern_boardings(flows, rec.scenario, rec.plan)
    ok = worst_rel <= REL and worst_resid <= 1e-6 and not off_pattern
    _report(5, "evaluator equals solver objective", ok,
            f"worst relative {worst_rel:.2e}, worst residual {worst_resid:.2e}, "
            f"{len(off_pattern)} boardings where a pattern skips the stop")
    assert ok


def test_criterion_06_baseline_dominance(registry, tmp_path):
    worst_delta = -1.0
    checked = 0
    for rec in registry[:6]:
        scen_path = tmp_path / f"{rec.label}.json"
        # re-derive the document from the factory that produced it
        seed = int(rec.label.rsplit("-", 1)[-1])
        doc = random_toy_doc(seed, transfers="transfer" in rec.label)
        scen_path.write_text(json.dumps(doc))
        scenario = load_scenario(doc)
        base_doc = full_pattern_plan_doc(scenario)
        base_path = tmp_path / f"{rec.label}-base.json"
        base_path.write_text(json.dumps(base_doc))
        out = tmp_path / f"{rec.label}-out"
        code = cli_main(["compare", "--scenario", str(scen_path),
                         "--baseline", str(base_path), "--out", str(out)])
        assert code == 0, rec.label
        comparison = json.loads((out / "comparison.json").read_text())
        delta = comparison["percent_change"]["objective"]
        worst_delta = max(worst_delta, delta)
        checked += 1
    ok = checked >= 6 and worst_delta <= 1e-9
    _report(6, "optimizer never loses to a feasible baseline", ok,
            f"worst objective delta {worst_delta:.3e}%")
    assert ok


def test_criterion_07_fleet_accounting(registry):
    # hand-checkable cases, exact
    s70 = load_scenario(scenario_doc(
        stops=("A", "B"), out_times=(33.0,), in_times=(33.0,), menu=(7.0,),
        n_patterns=1, turnback_time=2.0, demand=(((0, 0, 1), 5.0),), fleet_cap=10.0))
    plan70 = load_plan(full_pattern_plan_doc(s70), s70)
    exact = fleet_requirement(plan70, s70)[(0, 0)] == 10.0

    s6030 = load_scenario(scenario_doc(
        stops=("A", "B", "C"), out_times=(10.0, 10.0), in_times=(10.0, 10.0),
        menu=(5.0, 10.0), n_patterns=2, turnback_time=10.0, dwell_saving=15.0,
        demand=(((0, 0, 2), 5.0),), fleet_cap=20.0))
    plan6030 = load_plan({"routes": [{"route": 0, "periods": [{"period": 0, "patterns": [
        {"pattern": 0, "headway": 5.0, "stops": [0, 1, 2, 3, 4, 5]},
        {"pattern": 1, "headway": 10.0, "stops": [0, 2, 3, 5]},
    ]}]}]}, s6030)
    exact = exact and fleet_requirement(plan6030, s6030)[(0, 0)] == 15.0

    # pools never violated on any decoded plan (1e-6 rounding, then hard <=)
    pools_ok = True
    for rec in registry:
        need = fleet_requirement(rec.plan, rec.scenario)
        for t, period in enumerate(rec.scenario.periods):
            total = sum(rec.plan.cell(r, t).fleet for r in range(len(rec.scenario.routes)))
            if round(total, 6) > rec.scenario.fleet_cap:
                pools_ok = False
        hours = sum(period.duration_hours * rec.plan.cell(r, t).fleet
                    for t, period in enumerate(rec.scenario.periods)
                    for r in range(len(rec.scenario.routes)))
        if round(hours, 6) > rec.scenario.vehicle_hours_cap:
            pools_ok = False
        for (r, t), v in need.items():
            if round(v - rec.plan.cell(r, t).fleet, 6) > 0:
                pools_ok = False
    ok = exact and pools_ok
    _report(7, "fleet accounting exact and pools respected", ok)
    assert ok


def test_criterion_08_model_scale():
    scenario = load_scenario(city_doc())
    t0 = time.perf_counter()
    model = build_model(scenario)
    elapsed = time.perf_counter() - t0
    stats = model_stats(model)
    n_bin = stats["variables"]["by_kind"]["binary"]
    n_cont = stats["variables"]["by_kind"]["continuous"]
    ok = (3e4 <= n_bin <= 2e5) and (3e5 <= n_cont <= 3e6) and elapsed < 60.0
    _report(8, "city-scale variable counts bracket reported sizes", ok,
            f"binary {n_bin}, continuous {n_cont}, build {elapsed:.1f}s")
    assert ok


def test_criterion_09_determinism(tmp_path):
    doc = random_toy_doc(1001, transfers=False)
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(doc))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["solve", "--scenario", str(scen_path), "--out", str(out)]) == 0
        outs.append(out)
    same_lp = (outs[0] / "model.lp").read_bytes() == (outs[1] / "model.lp").read_bytes()
    m1 = json.loads((outs[0] / "metrics.json").read_text())
    m2 = json.loads((outs[1] / "metrics.json").read_text())
    same_obj = m1["objective"] == m2["objective"]
    same_plan = (outs[0] / "plan.json").read_bytes() == (outs[1] / "plan.json").read_bytes()
    ok = same_lp and same_obj and same_plan
    _report(9, "byte-identical exports and identical objectives", ok)
    assert ok


def test_criterion_10_headway_ordering(registry):
    ok = True
    for rec in registry:
        for r in range(len(rec.scenario.routes)):
            for t in range(len(rec.scenario.periods)):
                idx = [pat.headway_index for pat in rec.plan.cell(r, t).patterns]
                for p1 in range(len(idx)):
                    for p2 in range(p1 + 1, len(idx)):
                        if idx[p2] != 0 and (idx[p1] == 0 or idx[p1] > idx[p2]):
                            ok = False
    _report(10, "headway ordering holds in every solution", ok)
    assert ok
