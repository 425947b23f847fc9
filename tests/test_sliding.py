import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sliding_opt.geometry import FeasibleSet, NormPair, make_setup, projector, prox_step
from sliding_opt.oracles import NoiseModel, NoisyZeroOrderOracle, SmoothingEstimator
from sliding_opt.problems import make_strongly_convex_instance, wire_composite
from sliding_opt.sliding import (Budgets, CompositeProblem, RestartConfig, SolverAbort,
                                 _checkpoint_steps, build_schedule, ps_procedure,
                                 suggest_r_delta, theoretical_bound, zosa_run)


def smooth_only_problem(g_value, g_grad, feasible, *, L, r=1e-3, reference=None, seed=0):
    """Composite problem with f identically zero (estimator returns exact zeros)."""
    norms = NormPair.euclidean()
    setup = make_setup(norms, feasible, "half_sq_euclid")
    oracle = NoisyZeroOrderOracle(lambda X: np.zeros(len(X)), M=0.0, s=2 * r)
    est = SmoothingEstimator(oracle, r=r, n=feasible.n, norms=norms,
                             rng=np.random.default_rng(seed))
    return CompositeProblem(setup, g_value, g_grad, est, psi0_reference=reference,
                            f_subgrad=lambda x: np.zeros(feasible.n), L=L)


def basic_schedule(problem, *, N, M_est=0.0, Delta=0.0, r=1e-3, mu=0.0, T_cap=10 ** 6):
    setup = problem.setup
    return build_schedule(L=problem.L, M_est=M_est, n=setup.feasible.n, C1=setup.norms.C1,
                          p_star=1.0, Delta=Delta, r=r,
                          D_tilde=0.75 * setup.D_XV ** 2, N=N, mu=mu, T_cap=T_cap)


# -- schedule ----------------------------------------------------------------

def test_schedule_recursions_hold_exactly():
    sched = build_schedule(L=2.5, M_est=1.0, n=4, C1=1.0, p_star=1.0,
                           Delta=0.0, r=0.1, D_tilde=1.0, N=100)
    t = np.arange(1.0, 10 ** 4 + 1)
    p = t / 2.0
    P = 2.0 / ((t + 1.0) * (t + 2.0))
    P_prev = np.concatenate(([1.0], P[:-1]))
    assert np.abs(P - p / (1.0 + p) * P_prev).max() <= 1e-12
    theta = 2.0 * (t + 1.0) / (t * (t + 3.0))
    theta_def = (P_prev - P) / ((1.0 - P) * P_prev)
    assert np.abs(theta[1:] - theta_def[1:]).max() <= 1e-12

    k = np.arange(1.0, 10 ** 3 + 1)
    Gamma = 2.0 / (k * (k + 1.0))
    gamma = 2.0 / (k + 1.0)
    Gamma_prev = np.concatenate(([1.0], Gamma[:-1]))
    assert np.abs(Gamma[1:] - (1.0 - gamma[1:]) * Gamma_prev[1:]).max() <= 1e-12
    beta = 2.0 * sched.L / k
    assert np.all(beta - sched.L * gamma >= -1e-12)


def test_gamma_beta_ratio_monotone_with_inner_counts():
    sched = build_schedule(L=1.0, M_est=0.3, n=6, C1=1.0, p_star=1.0,
                           Delta=1e-4, r=0.01, D_tilde=2.0, N=50)
    vals = []
    for k in range(1, 51):
        T_k, _, _ = sched.inner_steps(k)
        P_T = 2.0 / ((T_k + 1.0) * (T_k + 2.0))
        Gamma = 2.0 / (k * (k + 1.0))
        vals.append(sched.gamma(k) * sched.beta(k) / (Gamma * (1.0 - P_T)))
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_inner_steps_floor_cap_and_growth():
    sched = build_schedule(L=1.0, M_est=1.0, n=10, C1=1.0, p_star=1.0,
                           Delta=0.0, r=0.1, D_tilde=100.0, N=10, T_cap=50)
    T1, raw1, capped1 = sched.inner_steps(1)
    assert T1 == max(1, math.ceil(raw1)) and not capped1
    T_prev = 0
    for k in range(1, 11):
        T_k, _, _ = sched.inner_steps(k)
        assert T_k >= T_prev
        T_prev = T_k
    big = build_schedule(L=1.0, M_est=10.0, n=10, C1=1.0, p_star=1.0,
                         Delta=0.0, r=0.1, D_tilde=1.0, N=10, T_cap=7)
    T, _, capped = big.inner_steps(10)
    assert T == 7 and capped
    # a D_tilde near underflow makes the raw count inf; the cap still holds
    tiny = build_schedule(L=1.0, M_est=10.0, n=10, C1=1.0, p_star=1.0,
                          Delta=0.0, r=0.1, D_tilde=5e-324, N=10, T_cap=7)
    assert tiny.inner_steps(10) == (7, math.inf, True)


def loop_checkpoint_steps(N, checkpoints):
    """The checkpoint set as one step per requested checkpoint computes it."""
    if checkpoints <= 0:
        return {N}
    ks = {min(N, max(1, round(N * j / checkpoints))) for j in range(1, checkpoints + 1)}
    return ks | {N}


def test_checkpoint_steps_match_the_loop_and_skip_it_from_N_on():
    for N in range(1, 60):
        for checkpoints in range(0, 3 * N + 3):
            assert set(_checkpoint_steps(N, checkpoints)) == loop_checkpoint_steps(N, checkpoints)
    t0 = time.perf_counter()
    assert set(_checkpoint_steps(10, 10 ** 12)) == set(range(1, 11))
    assert time.perf_counter() - t0 < 1.0


def test_zero_moment_schedule_takes_single_inner_step():
    sched = build_schedule(L=1.0, M_est=0.0, n=3, C1=1.0, p_star=1.0,
                           Delta=0.0, r=0.1, D_tilde=1.0, N=15)
    assert all(sched.inner_steps(k)[0] == 1 for k in range(1, 16))


def test_build_schedule_validation():
    kw = dict(M_est=1.0, n=3, C1=1.0, p_star=1.0, Delta=0.0, r=0.1, N=5)
    with pytest.raises(ValueError):
        build_schedule(L=0.0, D_tilde=1.0, **kw)
    with pytest.raises(ValueError):
        build_schedule(L=1.0, D_tilde=0.0, **kw)
    with pytest.raises(ValueError):
        build_schedule(L=1.0, D_tilde=1.0, T_cap=0, **kw)


# -- inner loop --------------------------------------------------------------

def test_ps_single_step_matches_closed_form():
    feasible = FeasibleSet.ball2(np.zeros(2), 1.0)
    problem = smooth_only_problem(lambda x: 0.5 * float(x @ x), lambda x: np.asarray(x),
                                  feasible, L=1.0)
    x = np.array([0.4, -0.2])
    h_grad = np.array([1.0, 2.0])
    beta = 1.0
    u_last, u_avg = ps_procedure(problem, h_grad, x, beta, T=1)
    # estimator contributes zero for f = 0, so the step is the pure prox:
    # argmin <h_grad, u> + beta V(x, u) + beta p_1 V(u_0, u) with p_1 = 1/2
    expected = (beta * x + beta * 0.5 * x - h_grad) / (beta * 1.5)
    nrm = np.linalg.norm(expected)
    if nrm > 1.0:
        expected = expected / nrm
    assert u_last == pytest.approx(expected)
    assert u_avg == pytest.approx(u_last)


class _ScriptedEstimator:
    """Stands in for the smoothing estimator: hands out the given gradient
    estimates in turn and records each point it is asked at."""

    def __init__(self, ghats):
        self.n = ghats.shape[1]
        self.oracle = NoisyZeroOrderOracle(lambda X: np.zeros(len(X)), M=0.0, s=1.0)
        self._ghats = iter(ghats)
        self.at = []

    def estimate_gradient(self, x):
        self.at.append(x.copy())
        return next(self._ghats)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_N = 4
_finite = st.floats(-1e3, 1e3)
_vec = arrays(np.float64, _N, elements=_finite)
_steps = st.integers(1, 6).flatmap(
    lambda T: arrays(np.float64, (T, _N), elements=_finite))


@pytest.mark.parametrize("feasible", [
    FeasibleSet.whole_space(_N, 10.0),
    FeasibleSet.box(-np.ones(_N), 2.0 * np.ones(_N)),
    FeasibleSet.ball2(np.full(_N, 0.5), 1.0),
], ids=["whole_space", "box", "ball2"])
@settings(max_examples=150, deadline=None)
@given(x_anchor=_vec, h_grad=_vec, ghats=_steps, beta=st.floats(1e-3, 1e3))
def test_ps_inner_step_is_prox_step_bit_for_bit(feasible, x_anchor, h_grad, ghats, beta):
    # estimates up to 1e3 against sets of size 1 put most targets outside the
    # box and the ball, so the projection is exercised, not only the identity
    setup = make_setup(NormPair.euclidean(), feasible, "half_sq_euclid")
    est = _ScriptedEstimator(ghats)
    problem = CompositeProblem(setup, lambda x: 0.0, lambda x: np.zeros(_N), est, L=1.0)
    u_last, _ = ps_procedure(problem, h_grad, x_anchor, beta, len(ghats))
    iterates = est.at[1:] + [u_last]
    for t, (u_prev, ghat, u) in enumerate(zip(est.at, ghats, iterates), start=1):
        expected = prox_step(setup, h_grad + ghat, x_anchor, u_prev, beta, 0.5 * t)
        assert _same_bits(u, expected)


@settings(max_examples=300, deadline=None)
@given(z=_vec, ends=arrays(np.float64, (2, _N), elements=_finite))
def test_box_projector_is_clip_on_finite_input(z, ends):
    lo, hi = np.sort(ends, axis=0)
    assert _same_bits(projector(FeasibleSet.box(lo, hi))(z), np.clip(z, lo, hi))


def test_ps_aborts_on_non_finite_prox_target():
    # beta = 2L/k is tiny for a small L, so a huge but finite h_grad puts
    # the prox target past the largest float
    feasible = FeasibleSet.whole_space(2, 10.0)
    problem = smooth_only_problem(lambda x: 0.0, lambda x: np.zeros(2), feasible, L=1e-10)
    x = np.array([0.1, -0.2])
    with np.errstate(over="ignore"), pytest.raises(SolverAbort) as err:
        ps_procedure(problem, np.array([1e300, 0.0]), x, 2e-10, T=3, k=4, phase=2)
    state = err.value.state
    assert (state.k, state.t, state.phase) == (4, 1, 2)
    assert np.array_equal(state.x, x)


_SPECIALS = (math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), size=st.integers(1, 400), exponent=st.floats(-300.0, 300.0),
       injected=st.lists(st.sampled_from(_SPECIALS), max_size=4))
def test_one_call_finiteness_check_agrees_with_isfinite(data, size, exponent, injected):
    # ps_procedure's abort check: <z, 0> is NaN exactly when an entry is inf or NaN
    z = data.draw(arrays(np.float64, size, elements=st.floats(-1.0, 1.0))) * 10.0 ** exponent
    for value in injected:
        z[data.draw(st.integers(0, size - 1))] = value
    with np.errstate(invalid="ignore"):
        assert math.isfinite(z.dot(np.zeros(size))) == bool(np.isfinite(z).all())


class _WarningCountingEstimator(_ScriptedEstimator):
    """A scripted estimator that also records how many warnings were caught
    before each call, that is, during the steps before it."""

    def __init__(self, ghats, caught):
        super().__init__(ghats)
        self.caught, self.before = caught, []

    def estimate_gradient(self, x):
        self.before.append(len(self.caught))
        return super().estimate_gradient(x)


@pytest.mark.parametrize("feasible", [
    FeasibleSet.whole_space(_N, 10.0),
    FeasibleSet.box(-np.ones(_N), 2.0 * np.ones(_N)),
], ids=["whole_space", "box"])
@settings(max_examples=100, deadline=None)
@given(x_anchor=_vec, h_grad=_vec, ghats=_steps, data=st.data(),
       huge=st.sampled_from((1e300, -1e300, 1e308)), beta=st.floats(1e-12, 1e-9))
def test_ps_overflowing_target_aborts_as_the_serial_prox_does(feasible, x_anchor, h_grad,
                                                              ghats, data, huge, beta):
    # a huge estimate at step t_bad puts (.. - a) / (beta (1 + p)) past the largest float
    t_bad = data.draw(st.integers(1, len(ghats)))
    ghats[t_bad - 1, data.draw(st.integers(0, _N - 1))] = huge
    setup = make_setup(NormPair.euclidean(), feasible, "half_sq_euclid")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = _WarningCountingEstimator(ghats, caught)
        problem = CompositeProblem(setup, lambda x: 0.0, lambda x: np.zeros(_N), est, L=1.0)
        with pytest.raises(SolverAbort) as err:
            ps_procedure(problem, h_grad, x_anchor, beta, len(ghats), k=3, phase=1)
    # the steps before t_bad are prox steps, and none of them warns
    u = x_anchor
    for t, ghat in enumerate(ghats[:t_bad - 1], start=1):
        u = prox_step(setup, h_grad + ghat, x_anchor, u, beta, 0.5 * t)
    assert est.before == [0] * t_bad and caught
    assert str(err.value) == f"non-finite prox target (outer k=3, inner t={t_bad}, phase=1)"
    state = err.value.state
    assert (state.k, state.t, state.phase) == (3, t_bad, 1)
    assert _same_bits(state.x, u)


def test_ps_rejects_entropy_setup_and_mismatched_shapes():
    simplex = make_setup(NormPair.l1(3), FeasibleSet.simplex(3), "entropy")
    euclid = smooth_only_problem(lambda x: 0.0, lambda x: np.zeros(3),
                                 FeasibleSet.whole_space(3, 10.0), L=1.0)
    entropy = CompositeProblem(simplex, lambda x: 0.0, lambda x: np.zeros(3),
                               euclid.estimator, L=1.0)
    x = np.full(3, 1.0 / 3.0)
    with pytest.raises(ValueError, match="half_sq_euclid"):
        ps_procedure(entropy, np.zeros(3), x, 1.0, T=1)
    with pytest.raises(ValueError):
        ps_procedure(euclid, np.zeros(2), x, 1.0, T=1)
    with pytest.raises(ValueError):
        ps_procedure(euclid, np.zeros(3), x[:2], 1.0, T=1)
    with pytest.raises(ValueError, match="beta"):
        ps_procedure(euclid, np.zeros(3), x, 0.0, T=1)


# -- convex solver -----------------------------------------------------------

def test_zosa_single_outer_iteration_collapses_blends():
    feasible = FeasibleSet.ball2(np.zeros(3), 1.0)
    problem = smooth_only_problem(lambda x: 0.5 * float(x @ x), lambda x: np.asarray(x),
                                  feasible, L=1.0, reference=0.0)
    sched = basic_schedule(problem, N=1)
    x0 = np.array([0.9, 0.0, 0.0])
    x_bar, trace = zosa_run(problem, sched, x0, checkpoints=1)
    # gamma_1 = 1: the model point is x0 and x_bar_1 equals the PS average
    _, u_avg = ps_procedure(problem, problem._g_grad(x0), x0, sched.beta(1), 1)
    assert x_bar == pytest.approx(u_avg)


def test_zosa_drives_smooth_quadratic_to_zero_within_bound():
    feasible = FeasibleSet.ball2(np.zeros(4), 1.0)
    problem = smooth_only_problem(lambda x: 0.5 * float(x @ x), lambda x: np.asarray(x),
                                  feasible, L=1.0, reference=0.0)
    setup = problem.setup
    for N in (5, 20):
        sched = basic_schedule(problem, N=N)
        x_bar, _ = zosa_run(problem, sched, np.array([0.9, 0.1, -0.3, 0.2]),
                            checkpoints=1)
        gap = problem.psi0(x_bar)
        assert gap <= 12.0 * problem.L * setup.D_XV ** 2 / (N * (N + 1.0))
    assert gap <= 1e-2  # N=20 run is already deep into convergence


def test_zosa_counters_match_schedule():
    instance, feasible = make_strongly_convex_instance(6, seed=5, mu=1.0, L=1.0, l1=0.1)
    problem, _ = wire_composite(instance, feasible, eps=1e-3,
                                sphere_rng=np.random.default_rng(77))
    sched = build_schedule(L=instance.L, M_est=instance.M_bound(), n=6, C1=1.0,
                           p_star=1.0, Delta=0.0, r=problem.estimator.r,
                           D_tilde=0.75 * problem.setup.D_XV ** 2, N=7)
    zosa_run(problem, sched, np.zeros(6), checkpoints=3)
    assert problem.counters.fo_calls == 7
    expected_zo = 2 * sum(sched.inner_steps(k)[0] for k in range(1, 8))
    assert problem.counters.zo_calls == expected_zo


def test_zosa_is_deterministic_for_fixed_seed():
    def run_once():
        instance, feasible = make_strongly_convex_instance(5, seed=9, mu=1.0, L=1.0, l1=0.1)
        problem, _ = wire_composite(instance, feasible, eps=1e-3,
                                    sphere_rng=np.random.default_rng(123))
        sched = build_schedule(L=instance.L, M_est=instance.M_bound(), n=5, C1=1.0,
                               p_star=1.0, Delta=0.0, r=problem.estimator.r,
                               D_tilde=0.75 * problem.setup.D_XV ** 2, N=6)
        x_bar, trace = zosa_run(problem, sched, np.zeros(5), checkpoints=4)
        return x_bar, [row.psi0 for row in trace.rows]
    xa, pa = run_once()
    xb, pb = run_once()
    assert np.array_equal(xa, xb)
    assert pa == pb


def test_zosa_longer_horizon_shrinks_gap_within_bound():
    gaps = {}
    for N in (5, 10, 20):
        total = 0.0
        for seed in range(20):
            instance, feasible = make_strongly_convex_instance(10, seed=404, mu=1.0, L=1.0, l1=0.1)
            problem, sugg = wire_composite(instance, feasible, eps=1e-3,
                                           sphere_rng=np.random.default_rng(1000 + seed))
            sched = build_schedule(L=instance.L, M_est=instance.M_bound(), n=10, C1=1.0,
                                   p_star=1.0, Delta=0.0, r=problem.estimator.r,
                                   D_tilde=0.75 * problem.setup.D_XV ** 2, N=N)
            x_bar, _ = zosa_run(problem, sched, np.zeros(10), checkpoints=1)
            total += problem.psi0(x_bar) - instance.optimal_value()
        gaps[N] = total / 20.0
        limit = (12.0 * instance.L * problem.setup.D_XV ** 2 / (N * (N + 1.0))
                 + 2.0 * sugg["r"] * instance.M_bound())
        assert gaps[N] <= limit
    assert gaps[5] > gaps[10] > gaps[20]
    assert gaps[5] / gaps[20] >= 4.0  # roughly quadratic decay; measured ~8.5x


def test_zosa_rejects_infeasible_start():
    feasible = FeasibleSet.ball2(np.zeros(2), 1.0)
    problem = smooth_only_problem(lambda x: 0.0, lambda x: np.zeros(2), feasible, L=1.0)
    sched = basic_schedule(problem, N=2)
    with pytest.raises(ValueError):
        zosa_run(problem, sched, np.array([2.0, 0.0]))


def test_zosa_budget_halts_within_one_outer_iteration():
    instance, feasible = make_strongly_convex_instance(6, seed=3, mu=1.0, L=1.0, l1=0.1)
    problem, _ = wire_composite(instance, feasible, eps=1e-3,
                                sphere_rng=np.random.default_rng(55))
    sched = build_schedule(L=instance.L, M_est=instance.M_bound(), n=6, C1=1.0,
                           p_star=1.0, Delta=0.0, r=problem.estimator.r,
                           D_tilde=0.75 * problem.setup.D_XV ** 2, N=40)
    budget = 60
    budgets = Budgets(max_zo_calls=budget)
    _, trace = zosa_run(problem, sched, np.zeros(6), checkpoints=5, budgets=budgets)
    assert trace.metadata["budget.halted"] == "zo_calls"
    final = trace.final()
    assert final.step < 40
    max_T = max(sched.inner_steps(k)[0] for k in range(1, 41))
    assert budget <= final.zo_calls <= budget + 2 * max_T


def test_zosa_aborts_on_non_finite_objective():
    feasible = FeasibleSet.box(-np.ones(2), np.ones(2))
    norms = NormPair.euclidean()
    setup = make_setup(norms, feasible, "half_sq_euclid")

    def bad_f(X):
        # finite at the start so the step-0 checkpoint passes
        return np.where(np.linalg.norm(X, axis=1) > 1e-12, np.nan, 0.0)

    oracle = NoisyZeroOrderOracle(bad_f, M=1.0, s=1.0)
    est = SmoothingEstimator(oracle, r=0.1, n=2, norms=norms,
                             rng=np.random.default_rng(0))
    problem = CompositeProblem(setup, lambda x: 0.0, lambda x: np.zeros(2), est, L=1.0)
    sched = basic_schedule(problem, N=3, M_est=1.0, r=0.1)
    with pytest.raises(SolverAbort) as err:
        zosa_run(problem, sched, np.zeros(2))
    assert "k=1" in str(err.value)


# -- restarted solver --------------------------------------------------------

def test_restart_default_phase_length():
    assert RestartConfig(rho0=1.0, phases=3).resolved_N0(L=1.0, mu=0.1) == 16


def test_mzosa_zero_phases_returns_start():
    instance, feasible = make_strongly_convex_instance(4, seed=1)
    problem = smooth_only_problem(instance.g_value, instance.g_grad, feasible, L=instance.L)
    sched = basic_schedule(problem, N=4, mu=float(np.min(instance.h)))
    y0 = np.zeros(4)
    y, trace = zosa_run(problem, sched, y0, restart=RestartConfig(rho0=1.0, phases=0))
    assert np.array_equal(y, y0)
    assert len(trace.rows) == 1


def test_mzosa_requires_positive_mu():
    instance, feasible = make_strongly_convex_instance(4, seed=2, mu=1.0, L=1.0, l1=0.1)
    problem, _ = wire_composite(instance, feasible, sphere_rng=np.random.default_rng(5))
    sched = basic_schedule(problem, N=4, mu=0.0)
    with pytest.raises(ValueError, match="mu"):
        zosa_run(problem, sched, np.zeros(4), restart=RestartConfig(rho0=1.0, phases=2))


@pytest.mark.parametrize("mu, rho0, phases, message", [
    (-0.5, 1.0, 2, "mu: must be > 0 for the restarted solver"),
    (0.5, 0.0, 2, "rho0: must be > 0"),
    (0.5, -1.0, 2, "rho0: must be > 0"),
    (0.5, 1.0, -1, "phases: must be >= 0"),
    # rho0 / (mu * 2^phases) underflows to 0 (and 2.0 ** phases would overflow)
    (0.5, 10.0, 1100, "phases: rho0 / (mu * 2^phases) must be a positive finite number"),
])
def test_restart_rejects_out_of_range_fields(mu, rho0, phases, message):
    instance, feasible = make_strongly_convex_instance(4, seed=2, mu=1.0, L=1.0, l1=0.1)
    problem, _ = wire_composite(instance, feasible, sphere_rng=np.random.default_rng(5))
    sched = basic_schedule(problem, N=4, mu=mu)
    restart = RestartConfig(rho0=rho0, phases=phases, N0=3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        zosa_run(problem, sched, np.zeros(4), restart=restart)
    assert problem.counters.zo_calls == 0


def test_mzosa_halves_gap_each_phase_and_counts_first_order_calls():
    # smooth strongly convex objective, zero-order part absent -> deterministic
    instance, feasible = make_strongly_convex_instance(6, seed=8, l1=0.0)
    reference = instance.optimal_value()
    problem = smooth_only_problem(instance.g_value, instance.g_grad, feasible,
                                  L=instance.L, reference=reference)
    x0 = np.clip(instance.z + 1.0, -2.0, 2.0)
    rho0 = problem.psi0(x0) - reference
    mu = float(np.min(instance.h))
    sched = basic_schedule(problem, N=1, mu=mu)
    phases = 5
    restart = RestartConfig(rho0=rho0, phases=phases)
    N0 = restart.resolved_N0(instance.L, mu)
    y, trace = zosa_run(problem, sched, x0, checkpoints=1, restart=restart)
    assert problem.counters.fo_calls == N0 * phases
    for i in range(1, phases + 1):
        rows_i = [row for row in trace.rows if row.phase == i and row.step == i * N0]
        assert rows_i, f"missing final row for phase {i}"
        gap_i = rows_i[-1].psi0 - reference
        assert gap_i <= rho0 / 2.0 ** i + 1e-12


# -- bounds and accuracy suggestions -----------------------------------------

def test_theoretical_bound_clean_limit_matches_hand_value():
    sched = build_schedule(L=1.0, M_est=1.0, n=4, C1=1.0, p_star=1.0,
                           Delta=0.0, r=0.1, D_tilde=3.0, N=10)
    setup = make_setup(NormPair.euclidean(), FeasibleSet.ball2(np.zeros(4), 1.0),
                       "half_sq_euclid")
    bound = theoretical_bound(sched, setup, None, 10)
    assert bound == pytest.approx(12.0 * 1.0 * 4.0 / 110.0)
    assert bound == pytest.approx(0.43636, abs=1e-5)


def test_theoretical_bound_includes_smoothing_and_noise_terms():
    norms = NormPair.euclidean()
    setup = make_setup(norms, FeasibleSet.ball2(np.zeros(4), 1.0), "half_sq_euclid")
    noise = NoiseModel("uniform", 1e-3, rng=np.random.default_rng(1))
    oracle = NoisyZeroOrderOracle(lambda X: np.zeros(len(X)), M=2.0, s=1.0, noise=noise)
    est = SmoothingEstimator(oracle, r=0.05, n=4, norms=norms,
                             rng=np.random.default_rng(0))
    sched = build_schedule(L=1.0, M_est=2.0, n=4, C1=1.0, p_star=1.0,
                           Delta=1e-3, r=0.05, D_tilde=3.0, N=10)
    got = theoretical_bound(sched, setup, est, 10)
    expected = (2 * 0.05 * 2.0 + 12.0 * setup.D_XV ** 2 / 110.0
                + 4 * 1e-3 * setup.D_X * 1.0 / 0.05)
    assert got == pytest.approx(expected)
    phase_bound = theoretical_bound(sched, setup, est, 3,
                                    restart=RestartConfig(rho0=4.0, phases=6))
    expected_phase = (2 * 0.05 * 2.0 + 4.0 / 8.0
                      + 2 * 4 * 1e-3 * setup.D_X * 1.0 / 0.05)
    assert phase_bound == pytest.approx(expected_phase)


def test_suggest_r_delta_hand_values():
    out = suggest_r_delta(0.1, 1.0, 10, 2.0, 1.0)
    assert out["r"] == pytest.approx(0.025)
    assert out["delta_max"] == pytest.approx(6.25e-5)
    l1_out = suggest_r_delta(0.1, 1.0, 10, 2.0, 0.5)
    assert l1_out["delta_max"] == pytest.approx(0.1 ** 2 / (8 * 10 * 1.0 * 2.0 * 0.5))


def test_suggest_r_delta_validation():
    with pytest.raises(ValueError):
        suggest_r_delta(0.0, 1.0, 5, 1.0, 1.0)
    with pytest.raises(ValueError):
        suggest_r_delta(0.1, 0.0, 5, 1.0, 1.0)
    with pytest.raises(ValueError):
        suggest_r_delta(0.1, 1.0, 5, float("inf"), 1.0)
