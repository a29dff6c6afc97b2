"""Joint optimization of transit service patterns, headways, and fleet sizes.

The package models a set of bi-directional corridor routes sharing a vehicle
pool. Binary decisions pick each pattern's stop loop and headway; continuous
destination-labeled flows price riders' journeys (riding, perceived waiting,
transfers). A HiGHS backend solves the model; an independent evaluator
re-prices fixed designs; a brute-force oracle certifies toy instances.
"""

from .backend import (DecodeError, SolverConfig, SolveResult, SolverError,
                      decode_plan, solve)
from .combos import (Combination, CombinationSet, enumerate_combinations,
                     frequency_shares, perceived_headway)
from .evaluator import (EvaluationError, InsufficientCapacityError, Metrics,
                        UnroutableDemandError, assign_flows, compute_metrics,
                        conservation_residuals, fleet_requirement)
from .lpio import write_lp
from .model import (BuildError, MilpModel, Row, Var, big_m_flow, build_model,
                    fix_baseline, model_stats)
from .network import (DemandMatrix, OptionFlags, PeriodSpec, RouteSpec,
                      Scenario, ScenarioError, Violation, arc_travel_time,
                      load_scenario, mirror_stop, validate_scenario)
from .oracle import (InternalInconsistencyError, OracleReport, OracleSizeError,
                     certify, enumerate_plans)
from .plan import (FlowAssignment, PatternPlan, PlanError, RoutePeriodPlan,
                   ServicePlan, load_plan, loop_arcs)

__version__ = "0.1.0"
