"""Pinned outputs: the LP text of small models and of the city model, and
the size of the city model.

The pins were last taken when transfers came to pass through one node per
physical stop and destination (``ft`` alighting, ``fx`` re-boarding and one
``transfer_balance`` row per node), which changed only the models with
transfers on; the LP text is otherwise byte-identical to the writer's before
the model moved to array blocks. Any change to the LP text or to a family's
size shows up here.
"""

import hashlib

import pytest

from transitopt import (build_model, fix_baseline, load_plan, load_scenario, model_stats,
                        write_lp)

from _factories import city_doc, full_pattern_plan_doc, random_toy_doc

LP_SHA256 = {
    "transfers-off-1": "f8d008380236ff3ef04032861abe56fbf7d036b43723d5d001d72175ac336f02",
    "transfers-off-2": "fd62416dc2e0286475bdf1ef7533be1941ab6822f2f91167fc6b4741c2210988",
    "transfers-off-3": "a9331dbb32bcc7e23b6cb9370a0e2c215bf0ae5974f80284f4075bae17bd721c",
    "transfers-on-dwell-1": "daea82991717a66377b7d5dd9e44d183d1712671080a0534a54d8e3c36f902d6",
    "transfers-on-dwell-2": "881fd1e50c7bb926089b0fa9c8e15e0b901f3d3e1d8e287e7f412ede6b410e19",
    "transfers-on-dwell-3": "f2bcf29cbfc60bc1a1b9e7fc136aedc313c91d352dc24148714dc07acbbd0ac5",
    "capacity-1": "6f6723320c3f802f7e5130784c249934f943e1ece06e3f1915d9a676db4b5484",
    "capacity-2": "003942e0aa9e335b07aa2d6bda2262d270b2000cf06e9c0cf332d06077c0fd47",
    "capacity-3": "018a629445d668a2c7d34f8d723708e0df7c1414725943c1684ad1aa95eff689",
    "two-periods-1": "841138a52f035068529f8060d53abeb95523270b9eba7d8f320caae9ba96bb49",
    "two-periods-2": "65dc9f7a94762e7a55e2629ac89584deb4b3ed494c31c16f59f0e39e55930197",
    "two-periods-3": "fcd3f61a3e83f69d1d82750596b5fea7e72f0caf4d69683e3e8b531451744f3c",
    "integer-fleet-1": "6bf9babe9afb76906fb4ee4582efa90860507c72ae29aec510893543626fa109",
    "integer-fleet-2": "e2798d586c5ecc5320056b1c605f559659bd5a00de8ca0f65d1df4d4857b3c56",
    "integer-fleet-3": "67ed4f6a103540e01e2d507cf52b49429ab264fe419d015b2630f4d555b916f9",
    "symmetry-1": "0111598fa13ca4781ccdaaddf88efa4c20599505d64fd10b628ba8bc1c7b048a",
    "symmetry-2": "0001f823d24373a52459ec89c331de904c473dc427ef7c13574651bdadbc3f72",
    "symmetry-3": "8a5b48149f2eb067de52b9187998b6231c82a250661b404c5585aff4285960b2",
    "fixed-baseline-1": "c4732209cd42f42b64c392ce2fe3d20b159feb3365577b581be2f77010b84d86",
    "fixed-baseline-2": "de5a51acd965c505cdf875af6a4b05476cd099fc1c27677af5f77926a7835f87",
    "fixed-baseline-3": "211bbf641986ef65128cf4e42b7eb8433a3d2e4f2b85e75c684b388baf868151",
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
CITY_LP = ("9ee4277071eb630c2db2c4c10125147ab679b6687caf4bfff562ae25aad21dac", 71_901_486)


def test_city_lp_text_pinned():
    data = write_lp(build_model(load_scenario(city_doc()))).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == CITY_LP


def test_city_model_stats_pinned():
    stats = model_stats(build_model(load_scenario(city_doc())))
    assert stats == {
        "variables": {
            "total": 444631,
            "by_kind": {"binary": 43522, "continuous": 401109, "integer": 0},
            "by_family": {"x": 14620, "y": 6, "cy": 4, "z": 28896, "fw": 28896, "fa": 28896,
                          "fl": 307020, "fb": 172, "ft": 7224, "fx": 28896, "n": 1},
        },
        "rows": {
            "total": 423178,
            "by_family": {
                "loop_balance": 172, "loop_visit_cap": 172, "loop_wrap": 2,
                "ride_arc_gate": 307020, "pattern_symmetry": 0, "one_headway": 2,
                "headway_order": 2, "cycle_gate": 4, "cycle_split": 2, "arc_capacity": 0,
                "fleet_need": 1, "fleet_pool": 1, "fleet_hours": 1, "one_combination": 3612,
                "combination_menu": 43344, "board_gate": 28896,
                "demand_entry": 1806, "demand_exit": 43, "entry_board_balance": 28896,
                "onboard_balance": 7224, "transfer_balance": 1806, "arrive_exit_balance": 172,
            },
        },
        "nonzeros": 1669897,
    }
