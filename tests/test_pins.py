"""Pinned outputs: the LP text of small models and of the city model, the
size of the city model, and the size of the evaluator's program for the
city's full-pattern plan.

The pins were last taken when a cell's picks were held to the patterns
that stop at its entry stop: a continuous ``sv`` column per (pattern, stop),
fixed to the count of the pattern's arcs leaving the stop by one
``stop_served`` row, and one ``combination_served`` row per (cell, pattern)
capping the picks that hold the pattern by it. Every model has the two
new families, so every LP text changes; every other row is unchanged. The city
gains 172 columns, 7,396 rows and 65,360 nonzeros, and its text 1,726,976
bytes (+2.5 %). Any change to the LP text or to a family's size shows up
here.
"""

import hashlib

import pytest

from transitopt import (assign_flows, build_model, fix_baseline, load_plan, load_scenario,
                        model_stats, write_lp)

from _blocks import record_programs
from _factories import city_doc, full_pattern_plan_doc, random_toy_doc
from test_builder import two_route_two_period_doc

LP_SHA256 = {
    "transfers-off-1": "b0c61d90b92ef20abab5d012fbc0d41a4efdd6be1579cfea97d6de39f08443f1",
    "transfers-off-2": "24bf2dfcb5c9ec1d90f9627a687420fb4cfe87c2979c02c96b4e5bbeb5b17872",
    "transfers-off-3": "e91a25593c09eddd6c51b3a1255ce22bd39cbea70c0b68871b22244caf2fd1af",
    "transfers-on-dwell-1": "c7ab81e0ffba65b5cce25e61ccbe2091295c5fef9fe396aa9d01e51bbae6f56b",
    "transfers-on-dwell-2": "a499ac7d71b872fa10742847026082f8861bc09ee9292fecc1740463b4461cfa",
    "transfers-on-dwell-3": "d931f30be7beb37acafa71d17752c4192bf5eefa1f132f9daa4a62092c562cfa",
    "capacity-1": "13caa964eeda38c6a94a53f35af8032c99759c50016983b6ae05c264039a933e",
    "capacity-2": "0472647db9815eb150543b2fce1f0818d79e6efb67386c10afffcfdd69ec7250",
    "capacity-3": "452944e8e0262c648e39134ada43e21a4d62d69aaf097ce08ffa0ee77b661a81",
    "two-periods-1": "4f3404c9a665f464959e209f807809d1064b300654a1f6b35bae3f025b77a058",
    "two-periods-2": "956d6284cf51d238d9b67d72190b0fba2cf61017bf17f0eeb1e1ddfe4e87792c",
    "two-periods-3": "430d9c4475ba1889be5d2efd18ed679f2778c73a5bb15baba00a2ebea2da11a1",
    "integer-fleet-1": "ea3b653d89a8ed0aad1cb2431a7b56d368ecb895342dc3e5a6050b231a52fceb",
    "integer-fleet-2": "a4b65c338e77ef8555fb90e255449e1f6f67140febf7cf59b8b103b220c1c6b6",
    "integer-fleet-3": "03e4f9b572a01e060974a2c5dc08b78bec75ed3aa3f0b4af6b45ad10880830ee",
    "symmetry-1": "a599ddfe72a431cf918b8d5d60bb5c5711d2890d344950a81d7468174714477d",
    "symmetry-2": "4a26321817108697f8966cbeb5d26d95609a11697e930d9f2850f9f34e3c2d24",
    "symmetry-3": "486a2e5f7232ce5d92a0359e49cfb2bd795ca83ae77f69a4da9978cdb4a3c245",
    "fixed-baseline-1": "fe22d23553eb46ab3b1b00af58bf47900f6007ccae732d1a034bf7ee0fe03da8",
    "fixed-baseline-2": "2377f94dadf4dc4893c8873429064216e3c82835c6e9d5abd9b1266469cf495a",
    "fixed-baseline-3": "93eb2933758a652f28acdf17e4425b1dae2723f17ca50e469027755b55f289ce",
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
THREE_PATTERN_LP_SHA256 = "6bab27764db2656f7e08a6834eefae1e2d9649f8225594d25dd70f3488d26a85"


def test_three_pattern_lp_text_pinned():
    data = write_lp(build_model(load_scenario(two_route_two_period_doc()))).encode()
    assert hashlib.sha256(data).hexdigest() == THREE_PATTERN_LP_SHA256


# sha256 and length of the city model's LP text
CITY_LP = ("2c7c86299701ed594c5fe2319fe564a512b4f0eed5aa836b3057b3b2cbf949fc", 70_442_962)


def test_city_lp_text_pinned():
    data = write_lp(build_model(load_scenario(city_doc()))).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == CITY_LP


def test_city_model_stats_pinned():
    stats = model_stats(build_model(load_scenario(city_doc())))
    assert stats == {
        "variables": {
            "total": 415735,
            "by_kind": {"binary": 43522, "continuous": 372213, "integer": 0},
            "by_family": {"x": 14620, "y": 6, "cy": 4, "sv": 172, "z": 28896, "fw": 28896,
                          "fl": 307020, "ft": 7224, "fx": 28896, "n": 1},
        },
        "rows": {
            "total": 372395,
            "by_family": {
                "loop_balance": 172, "loop_wrap": 2,
                "ride_arc_gate": 307020, "pattern_symmetry": 0, "one_headway": 2,
                "headway_order": 2, "cycle_gate": 4, "cycle_split": 2, "arc_capacity": 0,
                "fleet_need": 1, "fleet_pool": 1, "fleet_hours": 1, "one_combination": 3612,
                "combination_menu": 14448, "stop_served": 172, "combination_served": 7224,
                "board_gate": 28896, "demand_entry": 1806,
                "onboard_balance": 7224, "transfer_balance": 1806,
            },
        },
        "nonzeros": 1669725,
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
