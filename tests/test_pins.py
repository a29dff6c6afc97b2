"""Pinned outputs: the LP text of small models and of the city model, the
size of the city model, and the size of the evaluator's program for the
city's full-pattern plan.

The pins were last taken when the families the other rows imply were
deleted (``loop_visit_cap``; the exit flow ``fb`` with ``demand_exit`` and
``arrive_exit_balance``; the boarding copy ``fa`` with
``entry_board_balance``): those rows go, and ``board_gate`` and
``onboard_balance`` read ``fw`` (and ``fx``) where they read ``fa``. Every
other row is unchanged. Any change to the LP text or to a family's size
shows up here.
"""

import hashlib

import pytest

from transitopt import (assign_flows, build_model, fix_baseline, load_plan, load_scenario,
                        model_stats, write_lp)

from _blocks import record_programs
from _factories import city_doc, full_pattern_plan_doc, random_toy_doc

LP_SHA256 = {
    "transfers-off-1": "7f1c226670db056b81154e344aab844a39992b66f87fa4893d2a4e227592d963",
    "transfers-off-2": "167522053465131fa543d69eb0cb4a8a1439c8cbbb3f333fa4394029ff6ad577",
    "transfers-off-3": "d6aa0428838ca755358a45f84b444e5c738306112636bc3369813ea24f9d8b98",
    "transfers-on-dwell-1": "0c0ace80d72a187f598a3d52f2ba31e680157ad458654def47408ee2cfdb93e8",
    "transfers-on-dwell-2": "0c12177f3df37abd1538336e246a416b4d795912da202a1dee1d2c698dfb375d",
    "transfers-on-dwell-3": "54e003738854267ef73efda18313579c4cb621a55aabc08552c3d6c3322d559f",
    "capacity-1": "ed6f0777d18723beebe88a1f18c162b5d1ddd84d5d7481da173d602086af5cbb",
    "capacity-2": "f8e295a6bb5b5e77f446739e7c0ede1c7c86f04015b0d1cb83db69170cf67e46",
    "capacity-3": "252c8633d3369c600dd15617b1c1e7c407e31822b81e2533c58d5086c87ba2fe",
    "two-periods-1": "61da6f1c1d1d20488a9848c94fb63f659b9e9e405f08438b9249871be2863f8b",
    "two-periods-2": "20efc0fe363177848df98d0ba3543a9bd54aecf1f4b9397f140e406d961371ca",
    "two-periods-3": "1338335ca17aa1eb6f102ae05c43f4a82d29a0b413ffc86cb4ab2cd90beb3513",
    "integer-fleet-1": "fbc12a8623eeb8552107685d16ff02259239f0f963d91bf23e3746ee82147755",
    "integer-fleet-2": "5b538aaa417902539ca489a914fb1bfc0c83e5e85c7812f66093ef1c86898092",
    "integer-fleet-3": "9e84d8b366758b890652ef026e0c07cf5a5a8f7b1fd60557434209e5567cc029",
    "symmetry-1": "41f087bed3d2de2762b9296fdf571536272561c9ba30373f521ba899420cc8da",
    "symmetry-2": "5a6eb8b387498519cea83c370e4e08afe0b0a36ae3f2debd031bd00ef381d27c",
    "symmetry-3": "99bd23d47211a2f444d88630beebe65ebe9e51f0ad643a740a28036eb7c1deba",
    "fixed-baseline-1": "dc652f004d2e6035f1ae91716a5ded44f0196ccd59603f73c03eb59b4dba92ed",
    "fixed-baseline-2": "f11f3f6b14f49cc0eb0fbc9ab227319975d3bd9161cb46eab982493a6244a183",
    "fixed-baseline-3": "39ae3889e766b2842dda5fa2d1244df6277349108e2698cbdd4c21f232bd33f3",
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


# sha256 and length of the city model's LP text
CITY_LP = ("c59d5448ab083d2df21ed29bed0c34123230b76831d658ab606995e0554323df", 70_266_290)


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
            "total": 393895,
            "by_family": {
                "loop_balance": 172, "loop_wrap": 2,
                "ride_arc_gate": 307020, "pattern_symmetry": 0, "one_headway": 2,
                "headway_order": 2, "cycle_gate": 4, "cycle_split": 2, "arc_capacity": 0,
                "fleet_need": 1, "fleet_pool": 1, "fleet_hours": 1, "one_combination": 3612,
                "combination_menu": 43344, "board_gate": 28896, "demand_entry": 1806,
                "onboard_balance": 7224, "transfer_balance": 1806,
            },
        },
        "nonzeros": 1633261,
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
