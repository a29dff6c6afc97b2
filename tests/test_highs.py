"""The backend's HiGHS call: loading scipy's bundled binding, living next to
``scipy.optimize``, agreeing with ``scipy.optimize.milp`` and reporting the
time-limit statuses.

``scipy.optimize`` and ``scipy.sparse`` are imported here only, as an
independent reference; the package itself imports neither.
"""

import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import transitopt
import transitopt.evaluator as evaluator
from transitopt import (SolverConfig, assign_flows, build_model, load_plan, load_scenario,
                        solve)
from transitopt.backend import (_CORE, SolverError, _highs, _model_arrays, csr_rows,
                                solve_arrays)
from transitopt.cli import main
from transitopt.model import SENSES, RowBlock

from _factories import (full_pattern_plan_doc, ladder_doc, make_scenario, random_toy_doc,
                        scenario_doc)

SRC = Path(transitopt.__file__).resolve().parent.parent

# max -x0 - 2 x1 over integers with x0 + x1 <= 3.5: optimum -6 at (0, 3)
TINY = ("import numpy as np\n"
        "c = np.array([-1.0, -2.0])\n"
        "integrality = np.array([1, 1])\n")
TINY_BACKEND = ("from transitopt.backend import SolverConfig, _highs, solve_arrays\n"
                "a = (np.array([0, 2], np.int32), np.array([0, 1], np.int32), np.ones(2), (1, 2))\n"
                "ours = solve_arrays(c, a, np.array([-np.inf]), np.array([3.5]), integrality,\n"
                "                    np.zeros(2), np.full(2, np.inf), SolverConfig())\n"
                "assert ours.status == 'optimal' and ours.objective == -6.0, ours\n")
TINY_SCIPY = ("from scipy.optimize import LinearConstraint, milp\n"
              "res = milp(c, integrality=integrality,\n"
              "           constraints=LinearConstraint(np.ones((1, 2)), -np.inf, 3.5))\n"
              "assert res.status == 0 and res.fun == -6.0, res\n")


def run_python(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestBinding:
    def test_binding_first_then_scipy_optimize(self):
        out = run_python(
            "import sys\n" + TINY + TINY_BACKEND
            + "assert not [m for m in sys.modules if m in ('scipy', 'scipy.optimize')]\n"
            + "core = _highs()\n" + TINY_SCIPY
            + f"print(sys.modules[{_CORE!r}] is core)\n")
        assert out.splitlines() == ["True"]

    def test_scipy_optimize_first_then_binding(self):
        # the backend reuses the extension scipy loaded instead of a second init
        out = run_python(
            "import sys\n" + TINY + TINY_SCIPY
            + f"core = sys.modules[{_CORE!r}]\n" + TINY_BACKEND
            + "from scipy.optimize._highspy import _highs_wrapper\n"
            + "print(_highs() is core, core._Highs is _highs_wrapper._h._Highs)\n")
        assert out.splitlines() == ["True True"]

    def test_missing_binding_is_one_solver_error(self, monkeypatch, tmp_path, capsys):
        _highs()  # loaded, so that the entry removed here comes back afterwards
        monkeypatch.delitem(sys.modules, _CORE)
        fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        fake.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
        with pytest.raises(SolverError) as info:
            _highs()
        expected = tmp_path / "optimize" / "_highspy" / "_core"
        assert str(info.value).startswith(f"HiGHS binding not found: expected {expected}")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_doc()))
        assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: SolverError: HiGHS binding not found")


# ---------------------------------------------------------------------------
# Differential: the same arrays through scipy.optimize.milp
# ---------------------------------------------------------------------------

def reference(c, indptr, cols, vals, sense, rhs, integrality, lb, ub, cfg):
    """Status, objective and assignment of ``scipy.optimize.milp`` on the
    rows given in CSR form, assembled by ``scipy.sparse``, with Feasibility
    Jump off as in ``solve_arrays``. ``milp`` hands that option to HiGHS
    verbatim and warns that it did; that one warning is filtered."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    a = csr_matrix((vals, cols, indptr), shape=(len(indptr) - 1, len(c)))
    a.sum_duplicates()
    lo = np.where(sense == SENSES.index("<="), -np.inf, rhs)
    hi = np.where(sense == SENSES.index(">="), np.inf, rhs)
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"Unrecognized options detected: \{'mip_heuristic_run_feasibility_jump'\}",
            RuntimeWarning)
        res = milp(c=c, constraints=LinearConstraint(a, lo, hi), integrality=integrality,
                   bounds=Bounds(lb, ub),
                   options={"time_limit": cfg.time_limit_s, "mip_rel_gap": cfg.rel_gap,
                            "presolve": True, "disp": False,
                            "mip_heuristic_run_feasibility_jump": False})
    status = {0: "optimal", 2: "infeasible"}.get(res.status, "error")
    if res.status == 1:
        status = "feasible" if res.x is not None else "timeout"
    return status, res.fun if res.x is not None else None, res.x


def model_reference(model, cfg):
    """``reference`` on ``model``, its row blocks joined here in order."""
    c, _, _, _, integrality, lb, ub = _model_arrays(model)
    blocks = model.row_blocks
    offsets = np.cumsum([0] + [len(b.cols) for b in blocks])
    indptr = np.concatenate([[0]] + [b.indptr[1:] + at for b, at in zip(blocks, offsets)])
    return reference(c, indptr, *(np.concatenate([getattr(b, f) for b in blocks])
                                  for f in ("cols", "vals", "sense", "rhs")),
                     integrality, lb, ub, cfg)


def assert_same(ours, ref):
    status, objective, x = ref
    assert ours.status == status
    assert ours.objective == objective
    if x is None:
        assert ours.assignment is None
    else:
        assert ours.assignment.tobytes() == np.asarray(x).tobytes()


def test_csr_rows_keeps_written_order():
    # two blocks with an empty row each and columns out of order
    blocks = [RowBlock("a", (), np.array([0, 2, 2]), np.array([2, 0]), np.array([0.5, 2.0]),
                       np.array([0, 1], np.int8), np.array([1.0, 2.0])),
              RowBlock("b", (), np.array([0, 0, 2]), np.array([3, 1]), np.array([1.0, 5.0]),
                       np.array([2, 0], np.int8), np.array([3.0, 4.0]))]
    (indptr, indices, data, shape), lo, hi = csr_rows(blocks, 4)
    assert shape == (4, 4)
    assert indptr.dtype == indices.dtype == np.int32
    assert indptr.tolist() == [0, 2, 2, 2, 4]
    assert indices.tolist() == [2, 0, 3, 1]
    assert data.tolist() == [0.5, 2.0, 1.0, 5.0]
    assert lo.tolist() == [-np.inf, 2.0, 3.0, -np.inf]
    assert hi.tolist() == [1.0, np.inf, 3.0, 4.0]


def test_repeated_column_is_a_solver_error():
    # x0 + x0 + x1 <= 4: HiGHS refuses the row, which is a fault in the
    # arrays, never an infeasible program
    c = np.array([-1.0, -1.0])
    args = (np.array([-np.inf]), np.array([4.0]), np.zeros(2), np.zeros(2), np.full(2, 9.0),
            SolverConfig())
    repeated = (np.array([0, 3], np.int32), np.array([0, 0, 1], np.int32), np.ones(3), (1, 2))
    with pytest.raises(SolverError, match="refused the model"):
        solve_arrays(c, repeated, *args)
    summed = (np.array([0, 2], np.int32), np.array([0, 1], np.int32), np.array([2.0, 1.0]),
              (1, 2))
    assert solve_arrays(c, summed, *args).objective == -4.0


TWO_PERIODS = dict(period_hours=(1.0, 2.0),
                   demand=(((0, 0, 2), 30.0), ((0, 2, 0), 20.0), ((1, 1, 2), 15.0),
                           ((1, 0, 1), 10.0)))
CASES = ([(f"toy{seed}-{'transfers' if tr else 'direct'}", random_toy_doc(seed, transfers=tr))
          for seed in range(1, 7) for tr in (False, True)]
         + [(f"ladder{n}-{'transfers' if tr else 'direct'}", ladder_doc(n, 7, transfers=tr))
            for n in (3, 4) for tr in (False, True)]
         + [("capacity", scenario_doc(enforce_capacity=True, capacity=25.0)),
            ("two-periods", scenario_doc(**TWO_PERIODS)),
            ("integer-fleet", scenario_doc(integer_fleet=True)),
            ("full-pattern", scenario_doc(full_pattern=True)),
            ("no-symmetry", scenario_doc(symmetry=False)),
            ("capacity-integer-two-periods",
             scenario_doc(enforce_capacity=True, capacity=25.0, integer_fleet=True,
                          **TWO_PERIODS)),
            ("toy3-transfers-dwell", random_toy_doc(3, transfers=True, dwell_saving=0.5))])


class TestAgainstScipyMilp:
    @pytest.mark.parametrize("doc", [doc for _, doc in CASES], ids=[name for name, _ in CASES])
    def test_model_solves_match(self, doc):
        model = build_model(load_scenario(doc))
        (indptr, indices, _, (nrows, ncols)), _, _ = csr_rows(model.row_blocks, model.n_vars)
        keys = np.repeat(np.arange(nrows), np.diff(indptr)) * ncols + indices
        assert len(np.unique(keys)) == len(keys), "a row repeats a column"
        cfg = SolverConfig(time_limit_s=120)
        ours = solve(model, cfg)
        assert ours.status == "optimal"
        assert_same(ours, model_reference(model, cfg))

    def test_infeasible_matches(self):
        model = build_model(make_scenario(fleet_cap=0.5, vehicle_hours_cap=0.5))
        cfg = SolverConfig(time_limit_s=120)
        ours = solve(model, cfg)
        assert ours.status == "infeasible"
        assert_same(ours, model_reference(model, cfg))

    def test_evaluator_program_with_capacity_matches(self, monkeypatch):
        # the full-pattern plan leaves one combination, so its program is an
        # LP; a second pattern in service gives the program binary picks
        programs = []

        def recording(model):
            programs.append((model, solve_program(model)))
            return programs[-1][1]

        solve_program = evaluator.milp
        monkeypatch.setattr(evaluator, "milp", recording)
        scenario = make_scenario(enforce_capacity=True, capacity=25.0, symmetry=False)
        one = full_pattern_plan_doc(scenario)
        two = full_pattern_plan_doc(scenario)
        two["routes"][0]["periods"][0]["patterns"][1].update(headway=5.0, stops=[0, 1, 4, 5])
        for doc in (one, two):
            assign_flows(scenario, load_plan(doc, scenario))
        assert len(programs) == 2
        for (model, ours), picks in zip(programs, (False, True)):
            assert ours.status == "optimal"
            assert _model_arrays(model)[4].any() == picks
            assert_same(ours, model_reference(model, SolverConfig()))


class TestTimeLimit:
    """A transfers-on rung that takes seconds to prove (ladder n = 6) under
    limits far below that. Which status comes back depends on the machine,
    so either is accepted, but each must keep its contract."""

    @pytest.mark.parametrize("limit", [0.01, 2.0])
    def test_feasible_or_timeout(self, limit):
        model = build_model(load_scenario(ladder_doc(6, 7, transfers=True)))
        result = solve(model, SolverConfig(time_limit_s=limit))
        assert result.status in ("feasible", "timeout")
        if result.status == "feasible":
            assert result.ok
            assert result.assignment is not None and len(result.assignment) == model.n_vars
            assert result.gap is not None and result.gap > 0
            c = _model_arrays(model)[0]
            assert float(np.dot(c, result.assignment)) == pytest.approx(result.objective)
        else:
            assert not result.ok
            assert result.assignment is None and result.gap is None
            assert result.objective is None
