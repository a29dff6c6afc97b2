"""Pinned outputs: the LP text of small models and of the city model, the
size of the city model, and the size of the evaluator's program for the
city's full-pattern plan.

The pins were last taken when ``combination_menu`` went from one row per
(cell, combination, active pattern) to one row per (cell, pattern, menu
entry), which sums the old rows of one pattern and entry. Every other row is
unchanged. Any change to the LP text or to a family's size shows up here.
"""

import hashlib

import pytest

from transitopt import (assign_flows, build_model, fix_baseline, load_plan, load_scenario,
                        model_stats, write_lp)

from _blocks import record_programs
from _factories import city_doc, full_pattern_plan_doc, random_toy_doc
from test_builder import two_route_two_period_doc

LP_SHA256 = {
    "transfers-off-1": "9855d136a3b3a17fd1926fe98e84687f684fb780a545af6c4d934009c99dee46",
    "transfers-off-2": "65e261821d00921cdc44f9c9630d660d7ea433d5285dee102010c3246147b61b",
    "transfers-off-3": "c50458fa9f56cebec8a35629060b151ad4d091b51f0ec6c0f9b3e676007c849c",
    "transfers-on-dwell-1": "2f33ca989f19d9a70c1c77e81af6173437efcff5778262289010b85d785e7b07",
    "transfers-on-dwell-2": "aed151e35a4f2799cca37f72afc919dda9746034b3526b104709278dbb653f12",
    "transfers-on-dwell-3": "5aa2602d2d5a836e2f185e198b829504cd51ed1758304f0131086a4135e60605",
    "capacity-1": "52e3c7ff448063f4c78d0133feca26722771079f571fe9da1a2950f8487b93a3",
    "capacity-2": "38b977d71ff0b19d1eb89eb2506cfdead59141cb6045fd8de4c6de32e5680348",
    "capacity-3": "f6f64f9924f2e6c7df55acfd32dc61d13f40977859eb0530629160debcd4f562",
    "two-periods-1": "90fde99de9832a63dcb2bdbee4ded39ed3a3a6b87ed5fc0e53078d589766ff00",
    "two-periods-2": "a180b4f7eff0f47ec3d73dfe5e5185626ac8ad6b09f62d812b22b25483dd0701",
    "two-periods-3": "03feb585441eb6f12ca9580ab1fc8f52b00966d6e93b8344a5abe74f0daffdb6",
    "integer-fleet-1": "00879d782fa0d6495f14533b55faaf2eccdee6546866a2252b3b7dc92252a0b1",
    "integer-fleet-2": "0b6f1a9810a3a44da7d695116144ed75b0b15b545995fa940062f5891f42a456",
    "integer-fleet-3": "b5e47ba29a48cc6ab58d36fffc37bfde37aceb37b4031cfc631878fd8816ce2b",
    "symmetry-1": "72b246aceb36ed93319a2f0e1cfcba34d3ace880e170c6a481a8939dc369d27d",
    "symmetry-2": "76985fe815d6c5e712a975f847db31dbc7babadccfa24510a661c88af3cfd59b",
    "symmetry-3": "832587dadec5e293f2bf854cd100e693f2be796d90d264602e608b2ca28592d8",
    "fixed-baseline-1": "b35acc8dfac62399aa88fe6bfbfddb12fefb188ea415f38eb169dba27dcce029",
    "fixed-baseline-2": "1a5a8e68a8d6c5053daf38f0d197d40516e50dbc84d135465242f38619f3d36c",
    "fixed-baseline-3": "231e14223a85bbb7b93a6a06f70cec275092bca4d16bc3b45876cc163019debd",
}


def variant_doc(seed: int, variant: str) -> dict:
    """``random_toy_doc(seed)`` with symmetry off, then one change: transfers
    on with dwell credits, capacity, a second period, a whole-vehicle fleet or
    symmetry on."""
    if variant == "transfers-on-dwell":
        doc = random_toy_doc(seed, transfers=True, dwell_saving=0.5)
    else:
        doc = random_toy_doc(seed)
    options = doc["options"]
    options["enforce_symmetry"] = variant == "symmetry"
    options["enforce_capacity"] = variant == "capacity"
    options["integer_fleet"] = variant == "integer-fleet"
    if variant == "two-periods":
        doc["periods"].append({"id": 1, "duration_hours": 2.0})
        route = doc["routes"][0]
        route["headway_menus"].append([h + 1.0 for h in route["headway_menus"][0]])
        route["demand"] += [dict(e, t=1, riders=e["riders"] + 1.0) for e in route["demand"]]
    return doc


@pytest.mark.parametrize("case", sorted(LP_SHA256))
def test_lp_text_pinned(case):
    variant, seed = case.rsplit("-", 1)
    scenario = load_scenario(variant_doc(int(seed), variant))
    model = build_model(scenario)
    if variant == "fixed-baseline":
        model = fix_baseline(model, load_plan(full_pattern_plan_doc(scenario), scenario))
    assert hashlib.sha256(write_lp(model).encode()).hexdigest() == LP_SHA256[case]


# The second route runs three patterns on the menu (4, 6, 9), so its
# perceived headways add three frequencies; their total must not depend on
# the interpreter (``sum`` of floats is compensated from Python 3.12).
THREE_PATTERN_LP_SHA256 = "cd55f2f13e5643e3a5d35120eb9f42fa91ed0c1d7db56e61a94d7ef28f0896f3"


def test_three_pattern_lp_text_pinned():
    data = write_lp(build_model(load_scenario(two_route_two_period_doc()))).encode()
    assert hashlib.sha256(data).hexdigest() == THREE_PATTERN_LP_SHA256


# sha256 and length of the city model's LP text
CITY_LP = ("f74a1e9e9b35d73597dc9cd8bc53778f2a75116b7d95b3095ed0c50cd332ac7f", 68_715_986)


def test_city_lp_text_pinned():
    data = write_lp(build_model(load_scenario(city_doc()))).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == CITY_LP


def test_city_model_stats_pinned():
    stats = model_stats(build_model(load_scenario(city_doc())))
    assert stats == {
        "variables": {
            "total": 415563,
            "by_kind": {"binary": 43522, "continuous": 372041, "integer": 0},
            "by_family": {"x": 14620, "y": 6, "cy": 4, "z": 28896, "fw": 28896,
                          "fl": 307020, "ft": 7224, "fx": 28896, "n": 1},
        },
        "rows": {
            "total": 364999,
            "by_family": {
                "loop_balance": 172, "loop_wrap": 2,
                "ride_arc_gate": 307020, "pattern_symmetry": 0, "one_headway": 2,
                "headway_order": 2, "cycle_gate": 4, "cycle_split": 2, "arc_capacity": 0,
                "fleet_need": 1, "fleet_pool": 1, "fleet_hours": 1, "one_combination": 3612,
                "combination_menu": 14448, "board_gate": 28896, "demand_entry": 1806,
                "onboard_balance": 7224, "transfer_balance": 1806,
            },
        },
        "nonzeros": 1604365,
    }


def test_city_evaluator_program_pinned(monkeypatch):
    # one combination, so no picks: per destination (43) 84 entries,
    # re-boardings and alightings each, and 83 or 84 riding flows
    sizes = record_programs(monkeypatch)
    scenario = load_scenario(city_doc())
    assign_flows(scenario, load_plan(full_pattern_plan_doc(scenario), scenario))
    assert sizes == [{
        "columns": 14406, "binaries": 0, "nonzeros": 28728,
        "rows": {"demand_entry": 1806, "transfer_balance": 1806, "onboard_balance": 3612},
    }]
