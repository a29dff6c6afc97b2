"""Pinned outputs: the LP text of small models and of the city model, and
the size of the city model.

The pins were last taken when the frequency-share rows became plain
equalities; the LP text is otherwise byte-identical to the writer's before
the model moved to array blocks. Any change to the LP text or to a family's
size shows up here.
"""

import hashlib

import pytest

from transitopt import (build_model, fix_baseline, load_plan, load_scenario, model_stats,
                        write_lp)

from _factories import city_doc, full_pattern_plan_doc, random_toy_doc

LP_SHA256 = {
    "transfers-off-1": "7b7ab2d4ffa9514449ade840ff5ef4d47ef7ad52ec21d83c9f53016028004ffe",
    "transfers-off-2": "215c641d03da0fb3e16e983ccf633a6b8fb353d93659452418ca0d0f79c3087f",
    "transfers-off-3": "c1f1f8507d2c8aa0d29274e5ab3ce8a49fe1542d000fc4cf7d2e03ec1d732067",
    "transfers-on-dwell-1": "552e184bd4bf5696068b8c49809bd3d3cb7f8c7b1e521556e2be17ef3f53fa58",
    "transfers-on-dwell-2": "b144cf76012c0951f65d563f9fa6081f6dd52264cb4b7ddd7feb28f54c77015e",
    "transfers-on-dwell-3": "0ef2e8abb7c92c4fbb0cfdab484cd8730b26cf0a04aee452d26b9a0c567f6d4a",
    "capacity-1": "bf8d654a0f7f68a54cbc0c454c7b4a54d9fe48f46bcac5ff8e705b0250d9327b",
    "capacity-2": "9805696e2ad85854e9d4add6f1db846b0b5a49815bcca15043c81d778cacc83a",
    "capacity-3": "150eb7172676d2148dc7d65f46ae97a111e30924977bd74c4d441d45641242fe",
    "two-periods-1": "0959075c40caeb986e25080b4b2267021097159cad21db40b61b2318525ed272",
    "two-periods-2": "0ee85e48a86ed309660a28cb069427566484bde0558ee89ba9d68d4ef1a4711e",
    "two-periods-3": "bf999d49ca263353358f6b5b229e1da5dc1fb8e30b2fb71f2c42c59d09bfa350",
    "integer-fleet-1": "1d3571952bb5cf4409ac02cc5034ee7c654e6eb31f9ab9dbb6bcb4c157114985",
    "integer-fleet-2": "887b8b0a4dffb904b6e5283c34a08f24bcdf26558a31d88c18a713784c6fa58d",
    "integer-fleet-3": "3a3c22776bb87fed639ec5d5617f6a187a70dabe1515e681b14c0246db41bfdc",
    "symmetry-1": "91211fa453ce62def5058056eec043168a554212f2255671035e3b983ba744b4",
    "symmetry-2": "0eeefd7a97a5374b3c5250d0b344e233e573989053bd3be69fdafd6cad39b43f",
    "symmetry-3": "e0db4a5c978057300bbfd9bcf1382bf985700a113b8dc38ee4982b6784f9a63f",
    "fixed-baseline-1": "b98775b40f2443dcfdc341d4ede6039d343c9811a42ec40104a63fce28931548",
    "fixed-baseline-2": "df35e0c7ff68000286bb37c51d7b59fc4be65d085800617b137cbc0afa7f270f",
    "fixed-baseline-3": "a8c62c8bccf43aa94a7979ecdbc7140bc5c1f7144ef48c22c8014773d13392f0",
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
CITY_LP = ("9e3cf7dad9802ef189858581676401f92cde22b209a0573c62b9b1160809165c", 83_380_380)


def test_city_lp_text_pinned():
    data = write_lp(build_model(load_scenario(city_doc()))).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == CITY_LP


def test_city_model_stats_pinned():
    stats = model_stats(build_model(load_scenario(city_doc())))
    assert stats == {
        "variables": {
            "total": 538543,
            "by_kind": {"binary": 43522, "continuous": 495021, "integer": 0},
            "by_family": {"x": 14620, "y": 6, "cy": 4, "z": 28896, "fw": 28896, "fa": 43344,
                          "fl": 307020, "fb": 172, "fx": 115584, "n": 1},
        },
        "rows": {
            "total": 450268,
            "by_family": {
                "loop_balance": 172, "loop_visit_cap": 172, "loop_wrap": 2,
                "ride_arc_gate": 307020, "pattern_symmetry": 0, "one_headway": 2,
                "headway_order": 2, "cycle_gate": 4, "cycle_split": 2, "arc_capacity": 0,
                "fleet_need": 1, "fleet_pool": 1, "fleet_hours": 1, "one_combination": 3612,
                "combination_menu": 43344, "board_gate": 43344, "board_share": 14448,
                "demand_entry": 1806, "demand_exit": 43, "entry_board_balance": 28896,
                "onboard_balance": 7224, "arrive_exit_balance": 172,
            },
        },
        "nonzeros": 1901065,
    }
