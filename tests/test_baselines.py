import warnings

import numpy as np
import pytest

from sliding_opt.baselines import BaselineConfig, gd_run, zogd_run
from sliding_opt.geometry import FeasibleSet, NormPair, make_setup
from sliding_opt.harness import RunConfig, run
from sliding_opt.network import (Graph, NetworkProblem, build_laplacian, lift_to_penalized)
from sliding_opt.oracles import NoisyZeroOrderOracle, SmoothingEstimator
from sliding_opt.problems import make_strongly_convex_instance, wire_composite
from sliding_opt.sliding import Budgets, CompositeProblem, SolverAbort


def quad_problem(n=2, feasible=None, reference=None):
    """f = 0 through the zero-order oracle, g = 0.5 ||x||^2 exactly."""
    if feasible is None:
        feasible = FeasibleSet.box(-2.0 * np.ones(n), 2.0 * np.ones(n))
    norms = NormPair.euclidean()
    setup = make_setup(norms, feasible, "half_sq_euclid")
    oracle = NoisyZeroOrderOracle(lambda X: np.zeros(len(X)), M=0.0, s=1.0)
    est = SmoothingEstimator(oracle, r=0.01, n=feasible.n, norms=norms,
                             rng=np.random.default_rng(0))
    return CompositeProblem(setup, lambda x: 0.5 * float(np.dot(x, x)),
                            lambda x: np.asarray(x, dtype=float), est,
                            psi0_reference=reference,
                            f_subgrad=lambda x: np.zeros(feasible.n), L=1.0)


# -- first-order baseline ----------------------------------------------------

def test_gd_single_explicit_step():
    problem = quad_problem()
    cfg = BaselineConfig(N_steps=1, step_rule="constant", eta0=0.5)
    x, trace = gd_run(problem, cfg, np.array([1.0, 0.0]))
    assert x == pytest.approx([0.5, 0.0])
    assert trace.rows[0].step == 0
    assert trace.rows[0].psi0 == pytest.approx(0.5)
    assert trace.final().psi0 == pytest.approx(0.125)


def test_gd_zero_step_is_identity():
    problem = quad_problem()
    cfg = BaselineConfig(N_steps=5, step_rule="constant", eta0=0.0)
    x, _ = gd_run(problem, cfg, np.array([1.0, -1.0]))
    assert x == pytest.approx([1.0, -1.0])


def test_gd_inv_sqrt_schedule():
    problem = quad_problem()
    cfg = BaselineConfig(N_steps=2, step_rule="inv_sqrt", eta0=0.2)
    x, _ = gd_run(problem, cfg, np.array([1.0, 0.0]))
    x1 = 0.8  # 1 - 0.2/sqrt(1)
    x2 = x1 * (1.0 - 0.2 / np.sqrt(2.0))
    assert x == pytest.approx([x2, 0.0])


def test_gd_counts_one_first_order_call_per_step():
    problem = quad_problem()
    cfg = BaselineConfig(N_steps=7, step_rule="constant", eta0=0.1)
    gd_run(problem, cfg, np.zeros(2))
    assert problem.counters.fo_calls == 7
    assert problem.counters.zo_calls == 0


def test_gd_requires_clean_subgradient():
    problem = quad_problem()
    problem.f_subgrad = None
    cfg = BaselineConfig(N_steps=1, step_rule="constant", eta0=0.1)
    with pytest.raises(ValueError, match="f_subgrad"):
        gd_run(problem, cfg, np.zeros(2))


def test_gd_running_best_reports_monotone_trace():
    problem = quad_problem()
    # overshooting constant step makes raw iterates oscillate
    cfg = BaselineConfig(N_steps=30, step_rule="constant", eta0=1.9,
                         averaging="running_best")
    _, trace = gd_run(problem, cfg, np.array([1.5, -1.0]), checkpoints=30)
    vals = [row.psi0 for row in trace.rows]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_gd_uniform_average_includes_start():
    n = 2
    feasible = FeasibleSet.whole_space(n, bound_hint=100.0)
    norms = NormPair.euclidean()
    setup = make_setup(norms, feasible, "half_sq_euclid")
    oracle = NoisyZeroOrderOracle(lambda X: np.zeros(len(X)), M=0.0, s=1.0)
    est = SmoothingEstimator(oracle, r=0.01, n=n, norms=norms,
                             rng=np.random.default_rng(0))
    c = np.array([1.0, -2.0])
    problem = CompositeProblem(setup, lambda x: float(c @ x), lambda x: c, est,
                               f_subgrad=lambda x: np.zeros(n), L=1.0)
    cfg = BaselineConfig(N_steps=2, step_rule="constant", eta0=0.1,
                         averaging="uniform_avg")
    x0 = np.array([3.0, 3.0])
    x, _ = gd_run(problem, cfg, x0)
    # iterates x0 - t*0.1*c for t = 0,1,2; mean shift is 0.1*c
    assert x == pytest.approx(x0 - 0.1 * c)


def test_gd_subgradient_method_approaches_optimum():
    instance, feasible = make_strongly_convex_instance(4, seed=12, mu=1.0, L=1.0, l1=0.1)
    problem, _ = wire_composite(instance, feasible,
                                sphere_rng=np.random.default_rng(0))
    M_comb = instance.M_bound() + 2.0 * np.sqrt(4.0) * instance.L
    cfg = BaselineConfig(N_steps=500, step_rule="inv_sqrt",
                         eta0=problem.setup.D_X / M_comb, averaging="running_best")
    x, _ = gd_run(problem, cfg, np.zeros(4))
    gap = problem.psi0(x) - instance.optimal_value()
    assert -1e-12 <= gap <= 0.2


@pytest.mark.parametrize("kwargs, message", [
    (dict(N_steps=1, averaging="median"), "averaging: unknown 'median'"),
    (dict(N_steps=-1), "N_steps: must be >= 0"),
    (dict(N_steps=1, step_rule="geometric"), "step_rule: unknown 'geometric'"),
    (dict(N_steps=1, eta0=0.0), "eta0: must be > 0"),
    (dict(N_steps=1, step_rule="constant", eta0=-0.5), "eta0: must be >= 0"),
])
def test_baseline_config_rejects_invalid_settings_when_built(kwargs, message):
    with pytest.raises(ValueError) as err:
        BaselineConfig(**kwargs)
    assert str(err.value) == message


def test_baseline_config_validation():
    problem = quad_problem()
    with pytest.raises(ValueError):
        gd_run(problem, BaselineConfig(N_steps=-1), np.zeros(2))
    with pytest.raises(ValueError):
        gd_run(problem, BaselineConfig(N_steps=1, averaging="median"), np.zeros(2))
    with pytest.raises(ValueError):
        gd_run(problem, BaselineConfig(N_steps=1, step_rule="inv_sqrt", eta0=0.0),
               np.zeros(2))
    with pytest.raises(ValueError):
        BaselineConfig(N_steps=1, step_rule="geometric").step_size(1)
    with pytest.raises(ValueError):
        gd_run(problem, BaselineConfig(N_steps=1, step_rule="constant", eta0=0.1),
               np.array([5.0, 5.0]))


# -- zeroth-order baseline ---------------------------------------------------

def test_zogd_counts_two_values_per_step_and_no_gradients():
    instance, feasible = make_strongly_convex_instance(4, seed=1, mu=1.0, L=1.0, l1=0.1)
    problem, sugg = wire_composite(instance, feasible,
                                   sphere_rng=np.random.default_rng(0))
    cfg = BaselineConfig(N_steps=9, step_rule="inv_sqrt", eta0=0.1, r=sugg["r"])
    zogd_run(problem, cfg, np.zeros(4), rng=np.random.default_rng(1))
    assert problem.counters.zo_calls == 18
    assert problem.counters.fo_calls == 0


def test_zogd_requires_positive_radius():
    problem = quad_problem()
    with pytest.raises(ValueError, match="r"):
        zogd_run(problem, BaselineConfig(N_steps=1), np.zeros(2))


def test_zogd_descends_a_smooth_quadratic():
    problem = quad_problem(n=3, reference=0.0)
    cfg = BaselineConfig(N_steps=400, step_rule="inv_sqrt", eta0=0.5, r=0.01,
                         averaging="running_best")
    x, trace = zogd_run(problem, cfg, np.array([1.5, -1.0, 0.5]),
                        rng=np.random.default_rng(3))
    assert problem.psi0(x) <= 0.05
    assert trace.final().psi0 <= trace.rows[0].psi0


def test_zogd_budget_halt():
    instance, feasible = make_strongly_convex_instance(4, seed=2, mu=1.0, L=1.0, l1=0.1)
    problem, sugg = wire_composite(instance, feasible,
                                   sphere_rng=np.random.default_rng(0))
    cfg = BaselineConfig(N_steps=100, step_rule="inv_sqrt", eta0=0.1, r=sugg["r"])
    budgets = Budgets(max_zo_calls=30)
    _, trace = zogd_run(problem, cfg, np.zeros(4), rng=np.random.default_rng(1),
                        budgets=budgets)
    assert trace.metadata["budget.halted"] == "zo_calls"
    assert trace.final().zo_calls == 30  # exactly 2 per step, checked at each step


def test_zogd_aborts_when_values_blow_up():
    n = 2
    feasible = FeasibleSet.box(-np.ones(n), np.ones(n))
    norms = NormPair.euclidean()
    setup = make_setup(norms, feasible, "half_sq_euclid")

    def spiky(X):
        return np.where(np.linalg.norm(X, axis=1) > 1e-12, np.inf, 0.0)

    oracle = NoisyZeroOrderOracle(spiky, M=1.0, s=1.0)
    est = SmoothingEstimator(oracle, r=0.01, n=n, norms=norms,
                             rng=np.random.default_rng(0))
    problem = CompositeProblem(setup, lambda x: 0.0, lambda x: np.zeros(n), est,
                               f_subgrad=lambda x: np.zeros(n), L=1.0)
    cfg = BaselineConfig(N_steps=3, step_rule="constant", eta0=0.1, r=0.01)
    with pytest.raises(SolverAbort):
        zogd_run(problem, cfg, np.zeros(n), rng=np.random.default_rng(1))


def test_gd_divergence_aborts_without_overflow_warnings():
    # an oversized step from compare's tuning grid: the node subgradients and
    # then the checkpoint's clean value overflow before the run aborts
    cfg = RunConfig(experiment="geom_median", method="gd", seed=1, n=3, m=5,
                    topology="star", R=100.0, N=200, checkpoints=10, eta_scale=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverAbort):
            run(cfg)


def test_zogd_full_value_queries_cost_communication_on_lifted_problems():
    lap = build_laplacian(Graph.star(3))
    n = 2
    oracles = [NoisyZeroOrderOracle(lambda X: np.sum(X, axis=1), M=np.sqrt(2.0), s=1.0)
               for _ in range(3)]
    net = NetworkProblem(lap, n, oracles, R=2.0)
    per_node = make_setup(NormPair.euclidean(),
                          FeasibleSet.box(-np.ones(n), np.ones(n)), "half_sq_euclid")
    problem = lift_to_penalized(net, per_node, r=1e-2,
                                sphere_rng=np.random.default_rng(0))
    cfg = BaselineConfig(N_steps=4, step_rule="inv_sqrt", eta0=0.05, r=1e-2)
    zogd_run(problem, cfg, np.zeros(6), rng=np.random.default_rng(1))
    assert problem.counters.zo_calls == 8
    assert problem.counters.comm_rounds == 8  # one round per full-objective value query
    assert problem.counters.fo_calls == 0
