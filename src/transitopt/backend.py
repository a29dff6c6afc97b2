"""Solver contract, row blocks as one CSR matrix, HiGHS via scipy, and
solution decoding.

``csr_rows`` concatenates row blocks into one CSR matrix with two-sided row
bounds; ``_model_arrays`` turns a built model into those arrays plus its
objective, integrality and bounds. ``solve_arrays`` is the one HiGHS call
(through ``scipy.optimize.milp``), for the model and the evaluator's
assignment programs alike, and ``decode_plan`` turns the assignment back
into domain objects, one variable block at a time. scipy is imported on the
first solve, so commands that never solve do not load it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import SENSES, MilpModel, RowBlock
from .plan import FlowAssignment, PatternPlan, RoutePeriodPlan, ServicePlan, loop_arcs

__all__ = [
    "SolverConfig",
    "SolveResult",
    "SolverError",
    "DecodeError",
    "solve",
    "decode_plan",
]

BINARY_TOL = 1e-6
FLOW_CLAMP_TOL = 1e-9


class SolverError(RuntimeError):
    """Malformed input or numerical failure inside the solver."""


class DecodeError(ValueError):
    """Solution violates a decoded-plan invariant (never silently repaired)."""


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters. rel_gap 0.0 asks for a proven optimum."""

    time_limit_s: float = 600.0
    rel_gap: float = 0.0

    def __post_init__(self):
        if self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be > 0")
        if not 0.0 <= self.rel_gap < 1.0:
            raise ValueError("rel_gap must lie in [0, 1)")


@dataclass(frozen=True)
class SolveResult:
    status: str                      # optimal | feasible | infeasible | timeout | error
    objective: float | None
    assignment: np.ndarray | None    # dense, indexed by variable id
    wall_time_s: float
    gap: float | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "feasible")


def csr_rows(blocks: list[RowBlock], ncols: int):
    """The rows of ``blocks``, in order, as one CSR matrix over ``ncols``
    columns (columns ascending within each row) and the two-sided bounds of
    ``lo <= A x <= hi``."""
    from scipy.sparse import csr_matrix

    offsets = np.cumsum([0] + [len(b.cols) for b in blocks])
    indptr = np.concatenate([[0]] + [b.indptr[1:] + at for b, at in zip(blocks, offsets)])
    a = csr_matrix((np.concatenate([b.vals for b in blocks]),
                    np.concatenate([b.cols for b in blocks]), indptr),
                   shape=(len(indptr) - 1, ncols))
    a.sum_duplicates()  # canonical form
    sense = np.concatenate([b.sense for b in blocks])
    rhs = np.concatenate([b.rhs for b in blocks])
    lo = np.where(sense == SENSES.index("<="), -np.inf, rhs)
    hi = np.where(sense == SENSES.index(">="), np.inf, rhs)
    return a, lo, hi


def _model_arrays(model: MilpModel):
    """Objective, CSR rows with two-sided bounds ``lo <= A x <= hi``,
    integrality and variable bounds of ``model``."""
    nvar = model.n_vars
    c = np.zeros(nvar)
    c[model.obj_ids] = model.obj_coefs
    var_blocks = model.var_blocks
    integrality = np.concatenate([np.full(len(b.lb), b.kind != "C", dtype=np.uint8)
                                  for b in var_blocks])
    lb = np.concatenate([b.lb for b in var_blocks])
    ub = np.concatenate([b.ub for b in var_blocks])
    a, lo, hi = csr_rows(model.row_blocks, nvar)
    return c, a, lo, hi, integrality, lb, ub


def solve_arrays(c, a, row_lo, row_hi, integrality, lb, ub, cfg: SolverConfig) -> SolveResult:
    """Run HiGHS through scipy on raw arrays."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    start = time.perf_counter()
    options = {
        "time_limit": float(cfg.time_limit_s),
        "mip_rel_gap": float(cfg.rel_gap),
        "presolve": True,
        "disp": False,
    }
    try:
        res = milp(
            c=c,
            constraints=LinearConstraint(a, row_lo, row_hi),
            integrality=integrality,
            bounds=Bounds(lb, ub),
            options=options,
        )
    except Exception as exc:  # scipy raises on malformed inputs
        raise SolverError(f"solver failure: {exc}") from exc
    wall = time.perf_counter() - start

    gap = getattr(res, "mip_gap", None)
    if res.status == 0:
        objective = float(res.fun)
        check = float(np.dot(c, res.x))
        if abs(check - objective) > 1e-6 * max(1.0, abs(objective)):
            raise SolverError(
                f"objective recomputation mismatch: reported {objective}, recomputed {check}")
        return SolveResult("optimal", objective, np.asarray(res.x), wall, gap=gap)
    if res.status == 1:
        if res.x is not None:
            return SolveResult("feasible", float(res.fun), np.asarray(res.x), wall,
                               gap=gap, message=str(res.message))
        return SolveResult("timeout", None, None, wall, message=str(res.message))
    if res.status == 2:
        return SolveResult("infeasible", None, None, wall, message=str(res.message))
    return SolveResult("error", None, None, wall, message=str(res.message))


def solve(model: MilpModel, cfg: SolverConfig | None = None) -> SolveResult:
    return solve_arrays(*_model_arrays(model), cfg or SolverConfig())


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode_plan(model: MilpModel, result: SolveResult) -> tuple[ServicePlan, FlowAssignment]:
    """Turn a solved assignment back into domain objects, re-verifying the
    structural invariants; any violation raises instead of being repaired."""
    if not result.ok or result.assignment is None:
        raise DecodeError(f"cannot decode a solve with status {result.status!r}")
    scenario = model.scenario
    x = result.assignment

    fa = FlowAssignment()
    targets = {"fw": fa.entry, "fa": fa.boarding, "fl": fa.inter_stop,
               "fb": fa.exit, "fx": fa.transfer}
    selected: dict[tuple, list[tuple[int, int]]] = {}   # (t, r, p) -> arcs picked
    picks: dict[tuple, list[int]] = {}                  # (t, r, p) -> headways picked
    fleet: dict[tuple, float] = {}                      # (r, t) -> vehicles
    for b in model.var_blocks:
        family = b.family
        vals = np.asarray(x[b.start:b.stop], dtype=np.float64)
        target = targets.get(family)
        if target is not None:
            negative = np.flatnonzero(vals < -FLOW_CLAMP_TOL)
            if len(negative):
                k = negative[0]
                raise DecodeError(f"flow {tuple(b.keys[k].tolist())} is negative beyond "
                                  f"tolerance: {float(vals[k])}")
            hit = np.flatnonzero(vals > 0.0)
            target.update(zip(map(tuple, b.keys[hit].tolist()), vals[hit].tolist()))
        elif family == "n":
            fleet.update(zip(map(tuple, b.keys.tolist()), vals.tolist()))
        elif family in ("x", "y", "z"):
            rounded = np.round(vals)
            bad = np.abs(vals - rounded) > BINARY_TOL
            idx = np.flatnonzero(bad | (rounded != 0.0))
            for k, key in zip(idx.tolist(), map(tuple, b.keys[idx].tolist())):
                if bad[k]:
                    raise DecodeError(
                        f"variable {b.start + k} should be binary, got {float(vals[k])}")
                if family == "x":
                    selected.setdefault(key[:3], []).append(key[3:])
                elif family == "y":
                    picks.setdefault(key[:3], []).append(key[3])
                else:
                    t, r, i, d, c = key
                    prior = fa.combo_choice.get((t, r, i, d))
                    if prior is not None and prior != c:
                        raise DecodeError(
                            f"entry stop {i} label {d}: two combinations picked ({prior} and {c})")
                    fa.combo_choice[(t, r, i, d)] = c

    cells: list[tuple[RoutePeriodPlan, ...]] = []
    for r, route in enumerate(scenario.routes):
        row: list[RoutePeriodPlan] = []
        for t in range(len(scenario.periods)):
            menu = route.headway_menu(t)
            pats: list[PatternPlan] = []
            for p in range(route.n_patterns):
                where = f"period {t} route {r} pattern {p}"
                hpicks = picks.get((t, r, p), [])
                if len(hpicks) != 1:
                    raise DecodeError(f"{where}: expected exactly one headway pick, got {hpicks}")
                hidx = hpicks[0]
                arcs = sorted(selected.get((t, r, p), []))
                if hidx == 0:
                    if arcs:
                        raise DecodeError(f"{where}: out of service but uses arcs {arcs}")
                    pats.append(PatternPlan(stops=(), headway=None, headway_index=0))
                    continue
                # one loop in stop order leaves each served stop by one arc
                stops = tuple(u for u, _ in arcs)
                if len(stops) < 2 or arcs != sorted(loop_arcs(stops)):
                    raise DecodeError(f"{where}: arcs {arcs} are not one loop "
                                      "through its stops in stop order")
                pats.append(PatternPlan(stops=stops, headway=menu[hidx - 1], headway_index=hidx))
            chosen_idx = [pat.headway_index for pat in pats]
            for p1 in range(len(chosen_idx)):
                for p2 in range(p1 + 1, len(chosen_idx)):
                    h1, h2 = chosen_idx[p1], chosen_idx[p2]
                    if h2 != 0 and (h1 == 0 or h1 > h2):
                        raise DecodeError(
                            f"period {t} route {r}: headway ordering violated "
                            f"(pattern {p1} index {h1} vs pattern {p2} index {h2})")
            row.append(RoutePeriodPlan(patterns=tuple(pats), fleet=fleet[(r, t)]))
        cells.append(tuple(row))
    return ServicePlan(cells=tuple(cells)), fa
