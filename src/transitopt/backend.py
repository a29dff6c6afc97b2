"""Solver contract, row blocks as one CSR matrix, HiGHS through scipy's
bundled binding, and solution decoding.

``csr_rows`` concatenates row blocks, as written, into one CSR matrix
(plain numpy arrays) with two-sided row bounds; ``_model_arrays`` turns a
built model into those arrays plus its objective, integrality and bounds.
``solve_arrays`` is the one HiGHS call: it hands the arrays to the HiGHS
binding that scipy ships (``scipy.optimize._highspy._core``), which
``_highs`` loads from its file on the first solve. Neither
``scipy.optimize`` nor ``scipy.sparse`` is imported, and commands that
never solve load no scipy module at all. ``solve`` is the package's one way
to it, for the design model and the evaluator's assignment programs alike:
it runs a ``MilpModel`` and keeps it on its result (``SolveResult.model``),
so ``oracle.certify`` can pin designs on the model that was solved without
building another. ``read_flows`` reads the flow columns of a solved model
or evaluator program back, and ``decode_plan`` turns the rest of the
assignment into domain objects, one variable block at a time; both hand
the flows to ``FlowAssignment.from_flows``, which checks the transfer
nodes.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .model import SENSES, MilpModel, RowBlock
from .plan import (DecodeError, FlowAssignment, PatternPlan, RoutePeriodPlan, ServicePlan,
                   loop_arcs, model_order)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "SolverError",
    "DecodeError",
    "solve",
    "read_flows",
    "decode_plan",
]

BINARY_TOL = 1e-6
FLOW_CLAMP_TOL = 1e-7  # HiGHS's primal feasibility tolerance; optimal flows dip below 0 within it


class SolverError(RuntimeError):
    """Malformed input or numerical failure inside the solver."""


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters. rel_gap 0.0 asks for a proven optimum. HiGHS checks
    ``time_limit_s`` only after presolve and the root LP, so small limits are
    overshot: the test factories' ``ladder_doc(6, 7, transfers=True)`` at
    0.05 s returns ``timeout`` after 0.3 to 0.4 s on a 2-core machine."""

    time_limit_s: float = 600.0
    rel_gap: float = 0.0

    def __post_init__(self):
        if not self.time_limit_s > 0:
            raise ValueError("time_limit_s must be > 0")
        if not 0.0 <= self.rel_gap < 1.0:
            raise ValueError("rel_gap must lie in [0, 1)")


@dataclass(frozen=True, eq=False)
class SolveResult:
    status: str                      # optimal | feasible | infeasible | timeout | error
    objective: float | None
    assignment: np.ndarray | None    # dense, indexed by variable id
    wall_time_s: float
    gap: float | None = None
    message: str = ""
    # the model ``solve`` ran, a design model or an evaluator program;
    # None for ``solve_arrays``' own results
    model: MilpModel | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "feasible")


def csr_rows(blocks: list[RowBlock], ncols: int):
    """The rows of ``blocks``, in order, as one CSR matrix over ``ncols``
    columns and the two-sided bounds of ``lo <= A x <= hi``.

    The matrix is ``(indptr, indices, data, (nrows, ncols))``: the blocks'
    rows as written, terms in their written order, with int32 indices as
    HiGHS takes them. HiGHS keeps its own column-wise copy, so the order of
    the terms within a row never reaches the solver."""
    offsets = np.cumsum([0] + [len(b.cols) for b in blocks])
    indptr = np.concatenate([[0]] + [b.indptr[1:] + at for b, at in zip(blocks, offsets)])
    indptr = indptr.astype(np.int32)
    indices = np.concatenate([b.cols for b in blocks]).astype(np.int32, copy=False)
    data = np.concatenate([b.vals for b in blocks])
    sense = np.concatenate([b.sense for b in blocks])
    rhs = np.concatenate([b.rhs for b in blocks])
    lo = np.where(sense == SENSES.index("<="), -np.inf, rhs)
    hi = np.where(sense == SENSES.index(">="), np.inf, rhs)
    return (indptr, indices, data, (len(indptr) - 1, ncols)), lo, hi


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


_CORE = "scipy.optimize._highspy._core"


def _highs():
    """scipy's HiGHS binding, loaded once from its file inside the installed
    scipy without importing scipy's packages.

    It is registered in ``sys.modules`` under its own name, so a later
    ``import scipy.optimize`` reuses it, and a binding scipy loaded first is
    reused here: the extension is initialised once per process."""
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    spec = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
    home = Path(spec.submodule_search_locations[0]) if spec else Path("scipy")
    candidates = [home / "optimize" / "_highspy" / f"_core{suffix}"
                  for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in candidates if p.is_file()), None)
    if path is None:
        raise SolverError(f"HiGHS binding not found: expected {candidates[0]} (scipy >= 1.17)")
    try:
        core_spec = importlib.util.spec_from_file_location(_CORE, path)
        core = importlib.util.module_from_spec(core_spec)
        core_spec.loader.exec_module(core)
    except ImportError as exc:
        raise SolverError(f"HiGHS binding {path} failed to load: {exc}") from exc
    sys.modules[_CORE] = core
    return core


def solve_arrays(c, a, row_lo, row_hi, integrality, lb, ub, cfg: SolverConfig) -> SolveResult:
    """Minimise ``c x`` subject to ``row_lo <= A x <= row_hi`` and
    ``lb <= x <= ub`` with HiGHS, ``a`` being the CSR tuple of ``csr_rows``
    and ``integrality`` 1 for integer columns.

    HiGHS gets the options scipy's ``milp`` gives it plus one: Feasibility
    Jump, HiGHS's LP-free start heuristic, is off. It costs a fixed 10 to
    25 ms on every MIP that gets past presolve, more than the small
    programs of the evaluator and the oracle take in all, and the mid-size
    ladder reaches the same optima and incumbents without it. The model
    status of its run maps to ours as in ``milp``: a time or iteration limit
    is ``feasible`` when a MIP has an incumbent and ``timeout`` otherwise, a
    model error counts as ``infeasible``, and unbounded and every other
    status is ``error``. A model HiGHS refuses to load (a row that repeats
    a column, say) raises ``SolverError``. ``wall_time_s`` covers HiGHS
    alone."""
    h = _highs()
    ms = h.HighsModelStatus
    indptr, indices, data, (nrows, ncols) = a
    c, lb, ub, row_lo, row_hi = (np.asarray(v, dtype=np.float64)
                                 for v in (c, lb, ub, row_lo, row_hi))
    if not np.isfinite(c).all():
        raise SolverError("solver failure: objective coefficients must be finite")
    integrality = np.asarray(integrality, dtype=np.int32)
    is_mip = bool(integrality.any())
    highs = h._Highs()
    for option, value in (("log_to_console", False), ("presolve", "on"),
                          ("time_limit", float(cfg.time_limit_s)),
                          ("mip_rel_gap", float(cfg.rel_gap)),
                          ("mip_heuristic_run_feasibility_jump", False)):
        if highs.setOptionValue(option, value) == h.HighsStatus.kError:
            raise SolverError(f"HiGHS refused option {option}={value!r}")

    start = time.perf_counter()
    try:
        loaded = highs.passModel(ncols, nrows, len(data), int(h.MatrixFormat.kRowwise),
                                 int(h.ObjSense.kMinimize), 0.0, c, lb, ub, row_lo, row_hi,
                                 indptr, indices, data, integrality)
    except (TypeError, ValueError) as exc:  # arrays the binding cannot take
        raise SolverError(f"solver failure: {str(exc).splitlines()[0]}") from exc
    if loaded == h.HighsStatus.kError:
        raise SolverError("solver failure: HiGHS refused the model "
                          "(for example a row that repeats a column)")
    ran = highs.run() != h.HighsStatus.kError
    status = highs.getModelStatus()
    info = highs.getInfo()
    objective = info.objective_function_value
    limited = status in (ms.kTimeLimit, ms.kIterationLimit)
    has_x = ran and (status == ms.kOptimal or limited and is_mip and objective != h.kHighsInf)
    x = np.array(highs.getSolution().col_value) if has_x else None
    wall = time.perf_counter() - start

    gap = info.mip_gap if is_mip else None
    message = f"HiGHS model status: {highs.modelStatusToString(status)}"
    if status == ms.kOptimal and has_x:
        check = float(np.dot(c, x))
        if abs(check - objective) > 1e-6 * max(1.0, abs(objective)):
            raise SolverError(
                f"objective recomputation mismatch: reported {objective}, recomputed {check}")
        return SolveResult("optimal", float(objective), x, wall, gap=gap)
    if limited:
        if has_x:
            return SolveResult("feasible", float(objective), x, wall, gap=gap, message=message)
        return SolveResult("timeout", None, None, wall, message=message)
    if status in (ms.kInfeasible, ms.kModelError):
        return SolveResult("infeasible", None, None, wall, message=message)
    return SolveResult("error", None, None, wall, message=message)


def solve(model: MilpModel, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve ``model``; the result keeps it as ``model``."""
    return replace(solve_arrays(*_model_arrays(model), cfg or SolverConfig()), model=model)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def read_flows(model: MilpModel, x: np.ndarray) -> tuple[dict[tuple, float], ...]:
    """The entering, riding, alighting and re-boarding flows of assignment
    ``x``, as ``FlowAssignment.from_flows`` takes them: each value above 0
    of the ``fw``, ``fl``, ``ft`` and ``fx`` columns, keyed as the column.
    A value below ``-FLOW_CLAMP_TOL`` raises ``DecodeError``."""
    flows: dict[str, dict[tuple, float]] = {"fw": {}, "fl": {}, "ft": {}, "fx": {}}
    for b in model.var_blocks:
        target = flows.get(b.family)
        if target is None:
            continue
        vals = np.asarray(x[b.start:b.stop], dtype=np.float64)
        negative = np.flatnonzero(vals < -FLOW_CLAMP_TOL)
        if len(negative):
            k = negative[0]
            raise DecodeError(f"flow {tuple(b.keys[k].tolist())} is negative beyond "
                              f"tolerance: {float(vals[k])}")
        hit = np.flatnonzero(vals > 0.0)
        target.update(zip(map(tuple, b.keys[hit].tolist()), vals[hit].tolist()))
    return tuple(flows.values())


def decode_plan(model: MilpModel, result: SolveResult) -> tuple[ServicePlan, FlowAssignment]:
    """Turn a solved assignment back into domain objects, re-verifying the
    structural invariants; any violation raises instead of being repaired."""
    if not result.ok or result.assignment is None:
        raise DecodeError(f"cannot decode a solve with status {result.status!r}")
    scenario = model.scenario
    x = result.assignment

    selected: dict[tuple, list[tuple[int, int]]] = {}   # (t, r, p) -> arcs picked
    picks: dict[tuple, list[int]] = {}                  # (t, r, p) -> headways picked
    chosen: dict[tuple, int] = {}                       # (t, r, i, d) -> combination
    fleet: dict[tuple, float] = {}                      # (r, t) -> vehicles
    for b in model.var_blocks:
        family = b.family
        vals = np.asarray(x[b.start:b.stop], dtype=np.float64)
        if family == "n":
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
                    prior = chosen.setdefault((t, r, i, d), c)
                    if prior != c:
                        raise DecodeError(
                            f"entry stop {i} label {d}: two combinations picked ({prior} and {c})")

    fa = FlowAssignment.from_flows(scenario, *read_flows(model, x))

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
            if model_order(pats) != tuple(pats):
                raise DecodeError(
                    f"period {t} route {r}: headway indices "
                    f"{[pat.headway_index for pat in pats]} are not in model order")
            row.append(RoutePeriodPlan(patterns=tuple(pats), fleet=fleet[(r, t)]))
        cells.append(tuple(row))
    return ServicePlan(cells=tuple(cells)), fa
