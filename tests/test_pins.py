"""Pinned outputs: the LP text of small models and of the city model, and
the size of the city model.

The toy hashes and the city counts were taken from the writer and builder
as they stood before the model moved to array blocks, the city hash before
the writer yielded its text in chunks; any change to the LP text or to a
family's size shows up here.
"""

import hashlib

import pytest

from transitopt import (build_model, fix_baseline, load_plan, load_scenario, model_stats,
                        write_lp)

from _factories import city_doc, full_pattern_plan_doc, random_toy_doc

LP_SHA256 = {
    "transfers-off-1": "e01f8106a5fe67069242a9170c3d546a53ff540302306411453bcc9e750889e0",
    "transfers-off-2": "b211c1a2865e65f9fc544f1475293a7406c03ef75a6e4b0d99fc55a63d7143c5",
    "transfers-off-3": "da0c8d3965316da304ec164d713733d11c264c04cfb7c37d4e203dce7790e90f",
    "transfers-on-dwell-1": "acd10f440b8792f7503bc42202b0e8ad6fe1b587c423ac73bbb96f2d8d2600f5",
    "transfers-on-dwell-2": "7e5fc0a7ab003cde7330db9986f9da8bb50c1c3095eaadf853144374e1777c5a",
    "transfers-on-dwell-3": "59e406c0c6af0ce4d9db6d7ea14b6725b69d59358826b1999a7d488be1ddd443",
    "capacity-1": "ef2ec9da246bc42b1dc3116603f57ac1cb0724cf59c07c28a94c2949e92aa797",
    "capacity-2": "13446fb508aadaf62e4abf21c7b93322b8459f641389c5f907e5c9bf1257b2fc",
    "capacity-3": "1b35c23de5170347b0bc1a5669e01d0882c977bce0d287485021dda74241e398",
    "two-periods-1": "cd00524e15c86e648970e2b8dedc2efeb4ff85a7336f2f12917e42521eeedf5c",
    "two-periods-2": "5020b1565cfd4ea43fd02f3af33bdd9b7c17259b20435b296f8941be032de279",
    "two-periods-3": "1a8d365656f40eebb65ba20e2b884e1877bbaabccf02a03bd4a929eafb1e5dbc",
    "integer-fleet-1": "c9f11cd9577b74af7c285b74e5761c9a84131c62454e7c0aacf1deeb603c6d66",
    "integer-fleet-2": "7bda96e6c36fa843c33bd2ca25dedcbb11e5fd9e77fb37c5d2daa39fece23da7",
    "integer-fleet-3": "8036674d6d254568b80b97eb020c0658ae29092aeddd31df87d025840646f079",
    "symmetry-1": "2a88c42979a469251c719c6a6bc3d2c7ccd08cafd0c2f6b06c182bb84c29eb29",
    "symmetry-2": "80f394b9ca1cd3a1150fe3e73bd0a0b6130acdf47a5eeb23f6d8297d3e5b7416",
    "symmetry-3": "a1176a48795da16cb359a2674501cdbbdcfdcfebac3acbb7f88930277aa1ecc4",
    "fixed-baseline-1": "be40717fad80f55041c8c0781b0249d8d5d23bde97ae54b3be91b9832bc91f26",
    "fixed-baseline-2": "2d188be78af3e0b14501007f0358e422a7f101f56e3e23c0359ac6204265897e",
    "fixed-baseline-3": "68bbcd40f089aade3f1b0b91a6b2c9a252c80b5995bde0db31c7631b74806337",
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
CITY_LP = ("9ae506a5bc816d9ba524af15c5c57fd9b8dbfff1a3284877c96c8b4c9e7be879", 85_561_692)


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
            "total": 464716,
            "by_family": {
                "loop_balance": 172, "loop_visit_cap": 172, "loop_wrap": 2,
                "ride_arc_gate": 307020, "pattern_symmetry": 0, "one_headway": 2,
                "headway_order": 2, "cycle_gate": 4, "cycle_split": 2, "arc_capacity": 0,
                "fleet_need": 1, "fleet_pool": 1, "fleet_hours": 1, "one_combination": 3612,
                "combination_menu": 43344, "board_gate": 43344, "board_share": 28896,
                "demand_entry": 1806, "demand_exit": 43, "entry_board_balance": 28896,
                "onboard_balance": 7224, "arrive_exit_balance": 172,
            },
        },
        "nonzeros": 1958857,
    }
