"""Abstract MILP assembly for the joint pattern / headway / fleet design.

The model couples, per route and period:

* pattern arcs (binary) that chain direction stops into one closed vehicle
  loop per in-service pattern and none for a pattern out of service,
* a headway pick per pattern from a discrete menu (index 0 = out of service),
* cycle minutes per (pattern, headway), nonzero only under the picked
  headway, that price vehicle requirements linearly,
* a combination pick per (entry stop, destination) that fixes which patterns
  riders may board and the perceived headway they wait,
* destination-labeled flows for entering, riding and (optionally)
  transferring riders through one node per physical stop; a cell's boarders
  are its entering plus its re-boarding riders, each pattern's frequency
  share of them is a coefficient of that pattern's on-board balance, and
  riders leave where their riding flow reaches a stop of their destination,
* a per-route fleet variable drawing on shared vehicle and vehicle-hour pools.

The objective is the total weighted journey time: riding minutes, plus
weighted perceived waiting (half the combination headway per entering rider),
plus weighted transfer penalties.

The model is stored as numpy blocks, one per family and (period, route).
A ``VarBlock`` is a contiguous id range with an integer key matrix, one kind
and ``lb``/``ub`` arrays. A ``RowBlock`` holds its rows in CSR form (terms
in written order), a sense code and right-hand side per row, and one array
per key position. The objective is id and coefficient arrays in insertion
order: per (period, route) riding, then waiting, then transfer terms. Every
stored index array (keys, ``indptr``, ``cols``, objective ids) is int32, the
width HiGHS takes; the builder's temporary id lookups stay int64.
``MilpModel.variables`` and ``.rows`` build ``Var``/``Row`` views of the
blocks on every access; they are kept only for ``perfbench/tracing.py``'s
``_model_size``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate, repeat
from typing import Any, Sequence

import numpy as np

from .combos import enumerate_combinations
from .network import Scenario, validate_scenario
from .plan import PlanError, ServicePlan, check_plan, model_order

__all__ = [
    "BuildError",
    "Var",
    "Row",
    "VarBlock",
    "RowBlock",
    "MilpModel",
    "Builder",
    "var_block",
    "row_block",
    "id_table",
    "build_model",
    "big_m_flow",
    "fix_baseline",
    "model_stats",
    "VAR_FAMILIES",
    "VAR_KEYS",
    "ROW_FAMILIES",
    "SENSES",
]


class BuildError(ValueError):
    """Raised when a scenario cannot be translated into a model."""


# Variable families in id order, each with the labels of its key positions;
# LP names are the family prefix plus ``_<label><index>`` per position.
VAR_KEYS = {
    "x": ("t", "r", "p", "i", "j"),             # pattern arc                      binary
    "y": ("t", "r", "p", "h"),                  # headway pick, h=0 means off      binary
    "cy": ("t", "r", "p", "h"),                 # cycle minutes under headway h>=1 continuous
    "z": ("t", "r", "i", "d", "c"),             # combination pick                 binary
    "fw": ("t", "r", "d", "i", "c"),            # entry flow
    "fl": ("t", "r", "d", "p", "i", "j"),       # inter-stop (riding) flow
    "ft": ("t", "r", "d", "p", "i"),            # alighting pattern p at i to transfer
    "fx": ("t", "r", "d", "i", "c"),            # transfer boarding at i under combination c
    "n": ("r", "t"),                            # fleet allocated to route r in period t
}
VAR_FAMILIES = tuple(VAR_KEYS)

# Constraint families in export order. Each row is tagged with exactly one.
ROW_FAMILIES = (
    "loop_balance",         # arcs in == arcs out at every stop of a pattern
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
    "combination_menu",     # per cell, p and h: picks that run p at h only if y[p, h]
    "board_gate",           # entries + transfer boardings only under the picked combination
    "demand_entry",         # entries at both direction stops cover demand
    "onboard_balance",      # boardings + riding in == riding out + alightings
    "transfer_balance",     # alightings == transfer boardings at a physical stop
)

# Row senses; a RowBlock stores each row's position in this tuple.
SENSES = ("<=", ">=", "=")


# ``Var`` and ``Row`` are the element types of ``MilpModel.variables`` and
# ``.rows``, kept only for ``perfbench/tracing.py::_model_size``.
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


@dataclass(frozen=True, slots=True)
class VarBlock:
    """Variables ``start .. start + len(lb) - 1`` of one family and kind."""

    family: str
    kind: str
    start: int
    keys: np.ndarray    # (variables, key length) int32
    lb: np.ndarray
    ub: np.ndarray

    @property
    def stop(self) -> int:
        return self.start + len(self.lb)


@dataclass(frozen=True, slots=True)
class RowBlock:
    """Rows of one family: row k has terms ``indptr[k]:indptr[k + 1]`` of
    ``cols``/``vals`` in written order, sense ``SENSES[sense[k]]``, right-hand
    side ``rhs[k]`` and key ``tuple(col[k] for col in keys)``. ``indptr``,
    ``cols`` and the integer key arrays are int32; a key shared by all rows
    is a zero-stride broadcast."""

    family: str
    keys: tuple         # one array per key position
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray


@dataclass
class MilpModel:
    """Sparse minimization MILP plus the scenario it was built from."""

    var_blocks: list[VarBlock]      # contiguous, in id order
    row_blocks: list[RowBlock]      # in export order
    obj_ids: np.ndarray             # int32
    obj_coefs: np.ndarray
    scenario: Scenario | None

    @property
    def n_vars(self) -> int:
        return self.var_blocks[-1].stop if self.var_blocks else 0

    @property
    def variables(self) -> list[Var]:
        out: list[Var] = []
        for b in self.var_blocks:
            out += map(Var, range(b.start, b.stop), repeat(b.kind), b.lb.tolist(),
                       b.ub.tolist(), repeat(b.family), map(tuple, b.keys.tolist()))
        return out

    @property
    def rows(self) -> list[Row]:
        out: list[Row] = []
        for b in self.row_blocks:
            terms = list(zip(b.cols.tolist(), b.vals.tolist()))
            bounds = b.indptr.tolist()
            keys = zip(*(col.tolist() for col in b.keys)) if b.keys else repeat(())
            out += (Row(terms[lo:hi], SENSES[s], rhs, b.family, key)
                    for lo, hi, s, rhs, key in zip(bounds, bounds[1:], b.sense.tolist(),
                                                   b.rhs.tolist(), keys))
        return out


def var_block(family: str, kind: str, start: int, keys: Sequence, lb: Any = 0.0,
              ub: Any = None) -> VarBlock:
    """Variables ``start, start + 1, ...``: ``keys`` has one entry per key
    position, an array or a value shared by all; ``lb`` and ``ub`` are per
    variable or shared, ``ub`` 1 for binaries and infinity otherwise unless
    given."""
    size = max((len(k) for k in keys if np.ndim(k)), default=1)
    matrix = np.empty((size, len(keys)), dtype=np.int32)
    for k, column in enumerate(keys):
        matrix[:, k] = column
    if ub is None:
        ub = 1.0 if kind == "B" else math.inf
    return VarBlock(family, kind, start, matrix, np.full(size, lb, dtype=np.float64),
                    np.full(size, ub, dtype=np.float64))


def row_block(family: str, keys: Sequence, terms: Sequence[tuple[Any, Any]], sense: Any,
              rhs: Any) -> RowBlock:
    """Rows of ``family``, one per row of each term group's arrays.

    A term group is ``(cols, coefs)``: ``cols`` holds variable ids, one row
    per model row (a 1-D array is one term per row), with -1 where a row has
    no term; ``coefs`` is broadcast to its shape. A row's terms are its
    groups' terms, in group order. ``keys`` (integers, one entry per key
    position), ``sense`` (a symbol, or one symbol per row) and ``rhs`` are per
    row or shared by all."""
    groups = []
    for cols, coefs in terms:
        cols = np.asarray(cols, dtype=np.int32)
        coefs = np.broadcast_to(np.asarray(coefs, dtype=np.float64), cols.shape)
        groups.append((cols, coefs) if cols.ndim == 2 else (cols[:, None], coefs[:, None]))
    nrows = len(groups[0][0])
    cols = np.concatenate([c for c, _ in groups], axis=1)
    vals = np.concatenate([v for _, v in groups], axis=1)
    present = cols >= 0
    indptr = np.zeros(nrows + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    codes = [SENSES.index(s) for s in ([sense] if isinstance(sense, str) else sense)]
    return RowBlock(family, tuple(np.broadcast_to(np.asarray(k, dtype=np.int32), (nrows,))
                                  for k in keys),
                    indptr, cols[present], vals[present], np.full(nrows, codes, dtype=np.int8),
                    np.full(nrows, rhs, dtype=np.float64))


def id_table(shape: tuple, where: tuple, ids: np.ndarray) -> np.ndarray:
    """Variable ids by index tuple: ``ids`` at ``where``, -1 elsewhere."""
    table = np.full(shape, -1, dtype=np.int64)
    table[where] = ids
    return table


class Builder:
    """Collects a model's blocks: variables get consecutive ids, rows are
    exported grouped by family in ``ROW_FAMILIES`` order."""

    def __init__(self) -> None:
        self._vars: list[VarBlock] = []
        self._size = 0
        self._objective: list[tuple[np.ndarray, np.ndarray]] = []
        self._rows: dict[str, list[RowBlock]] = {f: [] for f in ROW_FAMILIES}

    def add_vars(self, family: str, kind: str, keys: Sequence, lb: Any = 0.0,
                 ub: Any = None) -> np.ndarray:
        """Ids of the new variables (see ``var_block``)."""
        block = var_block(family, kind, self._size, keys, lb, ub)
        self._vars.append(block)
        self._size = block.stop
        return np.arange(block.start, block.stop)

    def add_objective(self, ids: np.ndarray, coefs: Any) -> None:
        self._objective.append((ids, np.broadcast_to(np.asarray(coefs, np.float64), ids.shape)))

    def add_rows(self, *args) -> None:
        """Rows of one family (see ``row_block``); a block of no rows is dropped."""
        block = row_block(*args)
        if len(block.rhs):
            self._rows[block.family].append(block)

    def model(self, scenario: Scenario) -> MilpModel:
        ids, coefs = (np.concatenate(part) for part in zip(*self._objective))
        return MilpModel(self._vars, [b for f in ROW_FAMILIES for b in self._rows[f]],
                         ids.astype(np.int32), coefs, scenario)


def big_m_flow(scenario: Scenario, r: int, t: int, d: int) -> float:
    """Coupling constant for destination-``d`` flow rows of route r, period t.

    Flow conservation bounds every d-labeled flow by the total demand into d,
    so that sum is a valid (and per-destination tight) big-M. For the one
    ``board_gate`` row per entry cell, which bounds the boarders of all
    patterns together: at an optimum no rider passes a cell twice, since the
    second visit closes a cycle that contains a transfer, and a transfer
    costs more than 0. So every boarder of a cell is a distinct rider into d.
    """
    return scenario.demand[r].total_into(t, d)


def build_model(scenario: Scenario) -> MilpModel:
    """Translate a scenario into the complete abstract MILP."""
    violations = validate_scenario(scenario)
    if violations:
        raise BuildError(
            "scenario is invalid: " + "; ".join(str(v) for v in violations[:10])
            + ("" if len(violations) <= 10 else f" (+{len(violations) - 10} more)")
        )
    b = Builder()
    fleet_ids = np.zeros((len(scenario.periods), len(scenario.routes)), dtype=np.int64)
    for t in range(len(scenario.periods)):
        for r in range(len(scenario.routes)):
            fleet_ids[t, r] = _add_route_period(b, scenario, t, r)

    # --- shared fleet pools -----------------------------------------------
    periods = np.arange(len(scenario.periods))
    b.add_rows("fleet_pool", (periods,), [(fleet_ids, 1.0)], "<=", scenario.fleet_cap)
    hours = [[p.duration_hours] for p in scenario.periods]
    b.add_rows("fleet_hours", (), [(fleet_ids.reshape(1, -1),
                                    np.broadcast_to(hours, fleet_ids.shape).reshape(1, -1))],
               "<=", scenario.vehicle_hours_cap)
    return b.model(scenario)


def _add_route_period(b: Builder, scenario: Scenario, t: int, r: int) -> int:
    """Add the variables, objective terms and rows of route r in period t;
    return the id of its fleet variable.

    Each ``*id`` array maps a family's index tuple to variable ids, -1 where
    the variable does not exist; the rows are written by indexing them."""
    opts = scenario.options
    period = scenario.periods[t]
    route = scenario.routes[r]
    nd = route.n_dir
    n = route.n_physical
    menu = route.headway_menu(t)
    m = len(menu)
    npat = route.n_patterns
    combos = enumerate_combinations(npat, menu)
    nc = len(combos)
    tmat = np.array(route.travel_time_matrix(), dtype=np.float64)
    *_, t_full = accumulate(route.adjacent_times())     # left to right: sum() compensates from 3.12
    mirror = nd - 1 - np.arange(nd)
    dests = np.arange(n)
    pats = np.arange(npat)

    allowed = np.array([[route.arc_allowed(i, j) for j in range(nd)] for i in range(nd)],
                       dtype=bool).reshape(nd, nd)
    arc_i, arc_j = np.nonzero(allowed)                  # arcs, i then j ascending
    fwd_i, fwd_j = np.nonzero(np.triu(allowed, 1))      # forward arcs (i < j)
    # entry[d, i]: stop i can take riders to destination d (neither of its stops)
    entry = (np.arange(nd) != dests[:, None]) & (np.arange(nd) != mirror[:n, None])
    ent_d, ent_i = np.nonzero(entry)                    # cells in (d, i) order
    n_ent = len(ent_d)
    shares = np.array([combo.shares for combo in combos])          # [c, p]

    big_m = np.array([big_m_flow(scenario, r, t, d) for d in range(n)], dtype=np.float64)

    # --- variables -------------------------------------------------
    lb, ub = 0.0, None
    if opts.require_full_pattern:
        # pattern 0 runs the full loop (k, k + 1 mod nd), no other arc
        fixed = (arc_j == (arc_i + 1) % nd).astype(np.float64)
        rest = np.ones(len(arc_i) * (npat - 1))
        lb = np.concatenate([fixed, np.zeros_like(rest)])
        ub = np.concatenate([fixed, rest])
    x_p = np.repeat(pats, len(arc_i))
    x_i, x_j = np.tile(arc_i, npat), np.tile(arc_j, npat)
    xid = id_table((npat, nd, nd), (x_p, x_i, x_j),
                   b.add_vars("x", "B", (t, r, x_p, x_i, x_j), lb, ub))

    y_p, y_h = np.divmod(np.arange(npat * (m + 1)), m + 1)
    yid = b.add_vars("y", "B", (t, r, y_p, y_h)).reshape(npat, m + 1)

    cy_p, cy_h = np.divmod(np.arange(npat * m), m)
    cyid = b.add_vars("cy", "C", (t, r, cy_p, cy_h + 1)).reshape(npat, m)  # [p, h - 1]

    z_i, z_d = np.nonzero(entry.T)                      # cells in (i, d) order
    zid = id_table((nd, n, nc), (z_i, z_d),
                   b.add_vars("z", "B", (t, r, np.repeat(z_i, nc), np.repeat(z_d, nc),
                                         np.tile(np.arange(nc), len(z_i)))).reshape(-1, nc))

    fw_d, fw_i = np.repeat(ent_d, nc), np.repeat(ent_i, nc)
    fw_c = np.tile(np.arange(nc), n_ent)
    fw_ids = b.add_vars("fw", "C", (t, r, fw_d, fw_i, fw_c))
    fwid = id_table((n, nd, nc), (ent_d, ent_i), fw_ids.reshape(n_ent, nc))

    fl_d, fl_p, fl_a = np.nonzero(np.broadcast_to(entry[:, fwd_i][:, None, :],
                                                  (n, npat, len(fwd_i))))
    fl_i, fl_j = fwd_i[fl_a], fwd_j[fl_a]
    fl_ids = b.add_vars("fl", "C", (t, r, fl_d, fl_p, fl_i, fl_j))
    flid = id_table((n, npat, nd, nd), (fl_d, fl_p, fl_i, fl_j), fl_ids)
    fl_into = flid.transpose(0, 1, 3, 2)                # [d, p, j, i]

    ob_d, ob_p, ob_j = np.nonzero(np.broadcast_to(entry[:, None, :], (n, npat, nd)))
    if opts.allow_transfers:
        # alighting per on-board balance row, re-boarding per cell and combination
        ft_ids = b.add_vars("ft", "C", (t, r, ob_d, ob_p, ob_j))
        ftid = id_table((n, npat, nd), (ob_d, ob_p, ob_j), ft_ids)
        fx_ids = b.add_vars("fx", "C", (t, r, fw_d, fw_i, fw_c))
        fxid = id_table((n, nd, nc), (ent_d, ent_i), fx_ids.reshape(n_ent, nc))

    nid = int(b.add_vars("n", "I" if opts.integer_fleet else "C", (r, t))[0])

    # --- objective ---------------------------------------------------
    b.add_objective(fl_ids, tmat[fl_i, fl_j])
    wait = [scenario.gamma_wait * combo.perceived_headway / 2.0 for combo in combos]
    b.add_objective(fw_ids, np.tile(wait, n_ent))
    if opts.allow_transfers:
        change = [scenario.gamma_transfer * (combo.perceived_headway / 2.0 + scenario.transfer_time)
                  for combo in combos]
        b.add_objective(fx_ids, np.tile(change, n_ent))

    # --- pattern structure -------------------------------------------
    pj_p, pj_j = np.divmod(np.arange(npat * nd), nd)
    arcs_into = xid.transpose(0, 2, 1).reshape(npat * nd, nd)   # row (p, j): x[p, i, j]
    arcs_out = xid.reshape(npat * nd, nd)                       # row (p, j): x[p, j, k]
    b.add_rows("loop_balance", (t, r, pj_p, pj_j),
               [(arcs_into, 1.0), (arcs_out, -1.0)], "=", 0.0)
    # Forward travel raises the stop index except on the wrap step, so
    # every cycle has an arc with i > j: one such arc per in-service
    # pattern leaves exactly one loop, in sorted stop order. The same
    # count caps each stop's inflow at 1, fractional arcs too: a
    # circulation's cycles weigh together at most its backward flow.
    back_i, back_j = np.tril_indices(nd, -1)
    b.add_rows("loop_wrap", (t, r, pats),
               [(xid[:, back_i, back_j], 1.0), (yid[:, 1:], -1.0)], "=", 0.0)

    gate_x = np.where(big_m[fl_d] > 0.0, xid[fl_p, fl_i, fl_j], -1)
    b.add_rows("ride_arc_gate", (t, r, fl_d, fl_p, fl_i, fl_j),
               [(fl_ids, 1.0), (gate_x, -big_m[fl_d])], "<=", 0.0)

    if opts.enforce_symmetry:
        # arc (i, j) mirrors to (mirror j, mirror i): one row per pair, and
        # a row fixing the arc at 0 when its mirror is not allowed
        mi, mj = mirror[arc_j], mirror[arc_i]
        keep = (((arc_i != mi) | (arc_j != mj))
                & (~allowed[mi, mj] | (arc_i < mi) | ((arc_i == mi) & (arc_j < mj))))
        s_p = np.repeat(pats, keep.sum())
        s_i, s_j = np.tile(arc_i[keep], npat), np.tile(arc_j[keep], npat)
        b.add_rows("pattern_symmetry", (t, r, s_p, s_i, s_j),
                   [(xid[s_p, s_i, s_j], 1.0), (xid[s_p, mirror[s_j], mirror[s_i]], -1.0)],
                   "=", 0.0)

    # --- headways -----------------------------------------------------
    b.add_rows("one_headway", (t, r, pats), [(yid, 1.0)], "=", 1.0)

    # In-service patterns come first and take menu entries in
    # ascending order; prefix sums of the pick indicators dominate.
    p1, p2 = np.triu_indices(npat, 1)
    o_p1, o_p2 = np.repeat(p1, m), np.repeat(p2, m)
    o_h = np.tile(np.arange(1, m + 1), len(p1))
    upto = np.arange(1, m + 1) <= o_h[:, None]
    b.add_rows("headway_order", (t, r, o_p1, o_p2, o_h),
               [(np.where(upto, yid[o_p1, 1:], -1), 1.0),
                (np.where(upto, yid[o_p2, 1:], -1), -1.0)], ">=", 0.0)

    # A sorted single loop takes t_full less the dwell credits of its
    # skipped stops, so t_full bounds the cycle minutes.
    b.add_rows("cycle_gate", (t, r, cy_p, cy_h + 1),
               [(cyid.ravel(), 1.0), (yid[:, 1:].ravel(), -t_full)], "<=", 0.0)
    b.add_rows("cycle_split", (t, r, pats),
               [(cyid, 1.0), (xid.reshape(npat, nd * nd), -tmat.ravel())], "=", 0.0)

    if opts.enforce_capacity:
        minutes = 60.0 * period.duration_hours
        cap = route.vehicle_capacity
        seats = [-cap * minutes / menu[h - 1] for h in range(1, m + 1)]
        c_p = np.repeat(pats, len(fwd_i))
        c_i, c_j = np.tile(fwd_i, npat), np.tile(fwd_j, npat)
        b.add_rows("arc_capacity", (t, r, c_p, c_i, c_j),
                   [(flid[:, c_p, c_i, c_j].T, 1.0), (yid[c_p, 1:], seats)], "<=", 0.0)

    per_vehicle = [1.0 / menu[h - 1] for h in range(1, m + 1)]
    b.add_rows("fleet_need", (t, r),
               [(cyid.reshape(1, -1), np.tile(per_vehicle, npat)), ([nid], -1.0)], "<=", 0.0)

    # --- combinations ---------------------------------------------------
    b.add_rows("one_combination", (t, r, z_i, z_d), [(zid[z_i, z_d], 1.0)], "<=", 1.0)

    # a cell picks at most one combination, so one row per pattern p and
    # entry h caps all its picks that run p at h: (m + 1)^(npat - 1) of them
    runs = np.array([combo.headway_indices for combo in combos])              # [c, p]
    runs_at = np.array([np.flatnonzero(runs[:, p] == h) for p, h in zip(cy_p, cy_h + 1)])
    m_i, m_d = np.repeat(z_i, len(cy_p)), np.repeat(z_d, len(cy_p))
    m_p, m_h = np.tile(cy_p, len(z_i)), np.tile(cy_h + 1, len(z_i))
    b.add_rows("combination_menu", (t, r, m_i, m_d, m_p, m_h),
               [(zid[z_i, z_d][:, runs_at].reshape(len(m_i), -1), 1.0), (yid[m_p, m_h], -1.0)],
               "<=", 0.0)

    # a cell's boarders are its entries plus its transfer boardings
    boarders = [(ids, 1.0) for ids in ([fw_ids, fx_ids] if opts.allow_transfers else [fw_ids])]
    gate_z = np.where(big_m[fw_d] > 0.0, zid[fw_i, fw_d, fw_c], -1)
    b.add_rows("board_gate", (t, r, fw_d, fw_i, fw_c),
               boarders + [(gate_z, -big_m[fw_d])], "<=", 0.0)

    # --- demand and conservation ---------------------------------------
    dm = scenario.demand[r]
    o, d = np.nonzero(~np.eye(n, dtype=bool))
    b.add_rows("demand_entry", (t, r, o, d),
               [(fwid[d, o], 1.0), (fwid[d, mirror[o]], 1.0)], "=",
               [dm.riders(t, oo, dd) for oo, dd in zip(o.tolist(), d.tolist())])

    # riders boarding at j under combination c split across its active
    # patterns in proportion to frequency: pattern p gets shares[c, p]
    split = shares[:, ob_p].T                           # [row, c]
    groups = [(np.where(split > 0.0, ids[ob_d, ob_j], -1), split)
              for ids in ([fwid, fxid] if opts.allow_transfers else [fwid])]
    # No balance at d's stops: riders exit where their ride reaches one, and
    # the equalities elsewhere make that inflow the demand into d.
    groups += [(fl_into[ob_d, ob_p, ob_j], 1.0), (flid[ob_d, ob_p, ob_j], -1.0)]
    if opts.allow_transfers:
        groups.append((ft_ids, -1.0))
        # riders alighting at either direction stop of o board again at either
        b.add_rows("transfer_balance", (t, r, o, d),
                   [(ftid[d, :, o], 1.0), (ftid[d, :, mirror[o]], 1.0),
                    (fxid[d, o], -1.0), (fxid[d, mirror[o]], -1.0)], "=", 0.0)
    b.add_rows("onboard_balance", (t, r, ob_d, ob_p, ob_j), groups, "=", 0.0)
    return nid


def fix_baseline(model: MilpModel, plan: ServicePlan) -> MilpModel:
    """Pin all design variables (arcs, headways, fleet) to a given plan.

    Raises ``PlanError`` for a plan that fails ``plan.check_plan``, or for
    a cell whose first pattern in ``model_order`` is not the full loop when
    the model requires one. Each cell's patterns are pinned in
    ``model_order``, the one order of them the ``headway_order`` rows
    admit. Flows, combination picks and cycle minutes stay free (the pinned
    arcs determine the cycle minutes), so solving the result evaluates the
    plan through the same machinery that prices free designs. The result
    shares every block except the bounds of the pinned families.
    """
    scenario = model.scenario
    check_plan(plan, scenario)
    opts = scenario.options
    nt, nr = len(scenario.periods), len(scenario.routes)
    npat = max((route.n_patterns for route in scenario.routes), default=0)
    nd_max = max((route.n_dir for route in scenario.routes), default=0)
    on_loop = np.zeros((nt, nr, npat, nd_max, nd_max))   # [t, r, p, i, j]: 1.0 on the loop
    headway_index = np.zeros((nt, nr, npat), dtype=np.int64)   # [t, r, p]: menu position
    fleet = np.zeros((nr, nt))                                  # [r, t]: vehicles
    for t in range(nt):
        for r, route in enumerate(scenario.routes):
            cell = plan.cell(r, t)
            for p, pat in enumerate(model_order(cell.patterns)):
                if opts.require_full_pattern and p == 0 and pat.stops != route.full_loop():
                    raise PlanError("model requires pattern 0 to serve every stop, plan does not")
                for i, j in pat.arcs():
                    on_loop[t, r, p, i, j] = 1.0
                headway_index[t, r, p] = pat.headway_index
            fleet[r, t] = cell.fleet

    def at(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """``table`` at each row of ``keys``, one column per axis."""
        return table.take(keys @ (np.array(table.strides) // table.itemsize))

    # each family's pinned values, one array pass over the block's key matrix
    pinned = {
        "x": lambda keys: at(on_loop, keys),
        "y": lambda keys: (at(headway_index, keys[:, :3]) == keys[:, 3]).astype(np.float64),
        "n": lambda keys: at(fleet, keys),
    }

    def pin(block: VarBlock) -> VarBlock:
        value = pinned.get(block.family)
        if value is None:
            return block
        values = value(block.keys)
        return replace(block, lb=values, ub=values.copy())

    return replace(model, var_blocks=[pin(b) for b in model.var_blocks])


def model_stats(model: MilpModel) -> dict[str, Any]:
    """Counts by variable kind and family, rows by family, nonzeros."""
    by_kind = {"binary": 0, "continuous": 0, "integer": 0}
    kind_names = {"B": "binary", "C": "continuous", "I": "integer"}
    by_family: dict[str, int] = {f: 0 for f in VAR_FAMILIES}
    for b in model.var_blocks:
        by_kind[kind_names[b.kind]] += len(b.lb)
        by_family[b.family] += len(b.lb)
    rows_by_family: dict[str, int] = {f: 0 for f in ROW_FAMILIES}
    nnz = 0
    for b in model.row_blocks:
        rows_by_family[b.family] += len(b.rhs)
        nnz += len(b.cols)
    return {
        "variables": {
            "total": model.n_vars,
            "by_kind": by_kind,
            "by_family": by_family,
        },
        "rows": {
            "total": sum(rows_by_family.values()),
            "by_family": rows_by_family,
        },
        "nonzeros": nnz,
    }
