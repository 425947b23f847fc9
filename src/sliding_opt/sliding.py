"""Gradient sliding with a zeroth-order inner loop, and its restarted variant.

The outer loop linearizes the smooth component g at an interpolation point
and hands the linear model to an inner loop that only touches the non-smooth
component f through the two-point sphere estimator. First-order work (one
gradient of g per outer iteration) and zeroth-order work (two f-values per
inner iteration) are counted separately.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .geometry import ProximalSetup, projector
from .oracles import Counters, EstimatorError, SmoothingEstimator
from .trace import RunTrace, TraceRow


@dataclass
class SlidingSchedule:
    """Step-size and inner-loop schedule for a horizon of N outer iterations.

    M_tilde and sigma_sq summarize the estimator's first and second moments;
    D_tilde scales the inner-iteration count (for restarts it shrinks per
    phase). T_cap bounds the inner loop, with the cap noted in run metadata
    whenever it binds.
    """

    L: float
    mu: float
    M_tilde: float
    sigma_sq: float
    D_tilde: float
    N: int
    T_cap: int = 10 ** 6

    def beta(self, k: int) -> float:
        return 2.0 * self.L / k

    def gamma(self, k: int) -> float:
        return 2.0 / (k + 1.0)

    def inner_steps(self, k: int):
        """(T_k, raw value, capped?) for outer iteration k."""
        raw = self.N * (self.M_tilde ** 2 + self.sigma_sq) * k * k / (self.D_tilde * self.L ** 2)
        if raw > self.T_cap:    # exactly when ceil(raw) > T_cap; raw may be inf
            return self.T_cap, raw, True
        return max(1, math.ceil(raw)), raw, False


def build_schedule(*, L: float, M_est: float, n: int, C1: float, p_star: float,
                   Delta: float, r: float, D_tilde: float, N: int,
                   mu: float = 0.0, T_cap: int = 10 ** 6,
                   c_const: float = 1.0, C_const: float = 1.0) -> SlidingSchedule:
    if L <= 0:
        raise ValueError("L: must be > 0")
    if D_tilde <= 0:
        raise ValueError("D_tilde: must be > 0")
    if N < 1:
        raise ValueError("N: must be >= 1")
    if T_cap < 1:
        raise ValueError("T_cap: must be >= 1")
    if r <= 0:
        raise ValueError("r: must be > 0")
    M_tilde = c_const * math.sqrt(n) * C1 * M_est
    sigma_sq = 4.0 * p_star ** 2 * (C_const * n * M_est ** 2 + (n * Delta / r) ** 2)
    return SlidingSchedule(L=L, mu=mu, M_tilde=M_tilde, sigma_sq=sigma_sq, D_tilde=D_tilde,
                           N=N, T_cap=T_cap)


@dataclass
class Budgets:
    """Secondary halt conditions checked once per outer iteration."""

    max_zo_calls: int | None = None
    max_comm_rounds: int | None = None
    max_wall_ms: float | None = None

    def exceeded(self, counters: Counters, wall0: float) -> str | None:
        """The first budget spent by a run that started at perf_counter() == wall0."""
        if self.max_zo_calls is not None and counters.zo_calls >= self.max_zo_calls:
            return "zo_calls"
        if self.max_comm_rounds is not None and counters.comm_rounds >= self.max_comm_rounds:
            return "comm_rounds"
        if self.max_wall_ms is not None:
            if (time.perf_counter() - wall0) * 1e3 >= self.max_wall_ms:
                return "wall_ms"
        return None


@dataclass
class SolverState:
    k: int
    t: int
    phase: int
    x: np.ndarray


class SolverAbort(RuntimeError):
    """Non-finite value or estimator failure inside a run; carries the loop state."""

    def __init__(self, message, state: SolverState):
        super().__init__(f"{message} (outer k={state.k}, inner t={state.t}, phase={state.phase})")
        self.state = state


class CompositeProblem:
    """A composite objective f + g with the oracle access the solvers expect.

    f is reachable only through a noisy zero-order oracle and its smoothing
    estimator; g through exact values and gradients. `counters` is the f
    oracle's cost ledger: the oracle counts zero-order calls into it and
    grad_g first-order calls. A decentralized instance passes its network,
    whose penalty R <x, Wx> is then g: its counters hold the communication
    rounds, a counted g value costs one round, and checkpoints record the
    consensus violation <x, Wx>.
    f_subgrad (clean) exists so first-order baselines can be run on the same
    instance, never used by the sliding solvers.
    """

    def __init__(self, setup: ProximalSetup, g_value, g_grad,
                 estimator: SmoothingEstimator, *, psi0_reference: float | None = None,
                 f_subgrad=None, net=None, L: float | None = None):
        self.setup = setup
        self._g_value = g_value
        self._g_grad = g_grad
        self.estimator = estimator
        self.f_oracle = estimator.oracle
        self.counters = self.f_oracle.counters
        self.psi0_reference = psi0_reference
        self.f_subgrad = f_subgrad
        self.net = net
        self.L = L

    def g(self, x) -> float:
        return float(self._g_value(x))

    def g_counted(self, x) -> float:
        if self.net is not None:
            return self.net.penalty(x)
        return self.g(x)

    def grad_g(self, x) -> np.ndarray:
        self.counters.fo_calls += 1
        return self._g_grad(x)

    def f_clean(self, x) -> float:
        return float(self.f_oracle.clean_values(np.asarray(x, dtype=float)[None])[0])

    def psi0(self, x) -> float:
        return self.f_clean(x) + self.g(x)


def _checkpoint_steps(N: int, checkpoints: int):
    if checkpoints <= 0:
        return {N}
    if checkpoints >= N:
        # round(N j / checkpoints) then takes every value in 1..N
        return range(1, N + 1)
    ks = {min(N, max(1, round(N * j / checkpoints))) for j in range(1, checkpoints + 1)}
    ks.add(N)
    return ks


def _record(trace: RunTrace, problem: CompositeProblem, x, step: int, k: int, phase: int,
            wall0: float, bound: float | None):
    net = problem.net
    with np.errstate(over="ignore", invalid="ignore"):
        if net is None:
            cons = None
            psi0 = problem.psi0(x)
        else:
            # a lifted problem's g is R <x, Wx>: one product serves both columns
            cons = net.consensus_violation(x)
            psi0 = problem.f_clean(x) + net.R * cons
    if not np.isfinite(psi0):
        raise SolverAbort(f"non-finite objective {psi0} at checkpoint",
                          SolverState(k=k, t=0, phase=phase, x=x))
    gap = None if problem.psi0_reference is None else psi0 - problem.psi0_reference
    c = problem.counters
    trace.add_row(TraceRow(step=step, fo_calls=c.fo_calls, zo_calls=c.zo_calls,
                           comm_rounds=c.comm_rounds, psi0=psi0,
                           gap_vs_reference=gap, consensus_sq_norm=cons, phase=phase,
                           bound=bound, wall_ms=(time.perf_counter() - wall0) * 1e3))


class _Recorder:
    """What every solver loop shares: the checked copy x0 of the start point,
    the trace with its step-0 row and wall clock, the checkpoint rows, and the
    budget halt (`halted`, also written as `budget.halted`)."""

    def __init__(self, problem: CompositeProblem, x0, budgets: Budgets | None,
                 phase: int = 0, *, with_bound: bool = False):
        x0 = np.asarray(x0, dtype=float)
        if not problem.setup.feasible.contains(x0, tol=1e-9):
            raise ValueError("x0: not in the feasible set")
        self.x0 = x0.copy()
        self.problem = problem
        self.budgets = budgets
        self.trace = RunTrace(with_bound=with_bound)
        self.halted = None
        self.wall0 = time.perf_counter()
        _record(self.trace, problem, self.x0, 0, 0, phase, self.wall0, None)

    def due(self, k: int, marks) -> bool:
        if self.budgets is not None:
            self.halted = self.budgets.exceeded(self.problem.counters, self.wall0)
        return k in marks or self.halted is not None

    def record(self, x, step: int, k: int, phase: int = 0, bound: float | None = None):
        _record(self.trace, self.problem, x, step, k, phase, self.wall0, bound)
        if self.halted is not None:
            self.trace.metadata["budget.halted"] = self.halted


def ps_procedure(problem: CompositeProblem, h_grad, x_anchor, beta: float, T: int, *,
                 k: int = 1, phase: int = 0):
    """Inner prox loop against the linear model h with gradient h_grad.

    Starting from the anchor, T steps of: draw a fresh gradient estimate at
    the current point, take the doubly-regularized prox step, fold the result
    into the weighted running average. Returns (last iterate, average).

    The setup must be Euclidean (half_sq_euclid). Its prox step is inlined
    with prox_step's operations in prox_step's order, so the iterates are
    the same bits; the inputs are checked once per call, not per step.
    """
    setup = problem.setup
    estimator = problem.estimator
    n = setup.feasible.n
    if beta <= 0:
        raise ValueError("beta: must be > 0")
    if setup.dgf_id != "half_sq_euclid":
        raise ValueError(f"ps_procedure: needs the half_sq_euclid setup, got '{setup.dgf_id}'")
    x_anchor = np.asarray(x_anchor, dtype=float)
    h_grad = np.asarray(h_grad, dtype=float)
    if x_anchor.shape != (n,) or h_grad.shape != (n,) or estimator.n != n:
        raise ValueError(f"ps_procedure: x_anchor {x_anchor.shape}, h_grad {h_grad.shape} and "
                         f"estimator dimension {estimator.n} must match the set's {n}")
    # the whole space projects z to z: its fresh target is the next iterate
    proj = None if setup.feasible.kind == "whole_space" else projector(setup.feasible)
    zeros = np.zeros(n)
    bx = beta * x_anchor
    u = x_anchor.copy()
    u_tilde = u.copy()
    for t in range(1, T + 1):
        try:
            ghat = estimator.estimate_gradient(u)
        except EstimatorError as err:
            raise SolverAbort(str(err), SolverState(k=k, t=t, phase=phase, x=u)) from err
        a = h_grad + ghat
        p = 0.5 * t
        target = beta * p * u
        target += bx
        target -= a
        target /= beta * (1.0 + p)
        # <target, 0> is NaN exactly when an entry is inf or NaN
        if not math.isfinite(target.dot(zeros)):
            raise SolverAbort("non-finite prox target",
                              SolverState(k=k, t=t, phase=phase, x=u))
        u = target if proj is None else proj(target)
        if t == 1:
            u_tilde = u.copy()
        else:
            d = u - u_tilde
            d *= 2.0 * (t + 1.0) / (t * (t + 3.0))
            u_tilde += d
    return u, u_tilde


@dataclass
class RestartConfig:
    """Restart scheme for strongly convex objectives: rho0 bounds the initial
    gap, each of `phases` runs halves it using N0 outer iterations."""

    rho0: float
    phases: int
    N0: int | None = None

    def resolved_N0(self, L: float, mu: float) -> int:
        if self.N0 is not None:
            return self.N0
        return 2 * math.ceil(math.sqrt(5.0 * L / mu))


def zosa_run(problem: CompositeProblem, sched: SlidingSchedule, x0, *,
             checkpoints: int = 50, budgets: Budgets | None = None,
             with_bound: bool = False, restart: RestartConfig | None = None):
    """Run the sliding solver from x0: sched.N outer iterations, or with a
    restart (mu-strongly convex f + g, sched.mu > 0), its phases of N0 outer
    iterations each.

    Phase i = 1..phases uses D_tilde = rho0 / (mu * 2^i) and starts from the
    previous phase's output; steps count on across phases. Returns (final
    averaged iterate, trace). The trace gets a step-0 row, a row at up to
    `checkpoints` evenly spaced outer iterations of each phase plus its last
    one, and a final row immediately after any budget trips (the counters on
    that row show the overshoot). with_bound adds each row's
    theoretical_bound: after k outer iterations, or under a restart after
    the row's phase.
    """
    if restart is None:
        phases = [(0, sched)]
    else:
        if sched.mu <= 0:
            raise ValueError("mu: must be > 0 for the restarted solver")
        if restart.rho0 <= 0:
            raise ValueError("rho0: must be > 0")
        if restart.phases < 0:
            raise ValueError("phases: must be >= 0")
        if not 0 < math.ldexp(restart.rho0 / sched.mu, -restart.phases) < math.inf:
            raise ValueError("phases: rho0 / (mu * 2^phases) must be a positive finite number")
        N0 = restart.resolved_N0(sched.L, sched.mu)
        phases = [(i, replace(sched, D_tilde=math.ldexp(restart.rho0 / sched.mu, -i), N=N0))
                  for i in range(1, restart.phases + 1)]
    rec = _Recorder(problem, x0, budgets, phases[0][0] if phases else 0,
                    with_bound=with_bound)
    x_bar = rec.x0
    cap_hit = False
    step = 0
    for phase, sched_i in phases:
        marks = _checkpoint_steps(sched_i.N, checkpoints)
        x_prev = x_bar
        for k in range(1, sched_i.N + 1):
            step += 1
            gamma = sched_i.gamma(k)
            beta = sched_i.beta(k)
            T_k, _, capped = sched_i.inner_steps(k)
            cap_hit = cap_hit or capped
            x_under = (1.0 - gamma) * x_bar + gamma * x_prev
            h_grad = problem.grad_g(x_under)
            if not np.all(np.isfinite(h_grad)):
                raise SolverAbort(f"non-finite smooth gradient at outer iteration {k}",
                                  SolverState(k=k, t=0, phase=phase, x=x_under))
            x_prev, x_tilde = ps_procedure(problem, h_grad, x_prev, beta, T_k,
                                           k=k, phase=phase)
            x_bar = (1.0 - gamma) * x_bar + gamma * x_tilde
            if rec.due(k, marks):
                bound = None
                if with_bound:
                    bound = theoretical_bound(sched, problem.setup, problem.estimator,
                                              k if restart is None else phase, restart=restart)
                rec.record(x_bar, step, k, phase, bound)
            if rec.halted is not None:
                break
        if rec.halted is not None:
            break
    rec.trace.metadata["derived.T_cap_hit"] = "true" if cap_hit else "false"
    return x_bar, rec.trace


def theoretical_bound(sched: SlidingSchedule, setup: ProximalSetup,
                      est: SmoothingEstimator | None, k_or_phase: int, *,
                      restart: RestartConfig | None = None) -> float:
    """Expected-gap bound on the full objective after k outer iterations
    (convex) or after phase i (restarted).

    est = None takes the clean small-radius limit (no smoothing or noise
    terms). With est given, the smoothing term 2 r M and the noise-bias term
    n Delta D_X p_star / r (doubled under restarts) are included.
    """
    if k_or_phase < 1:
        raise ValueError("k_or_phase: must be >= 1")
    if est is None:
        smooth_term = 0.0
        noise_term = 0.0
    else:
        M = est.oracle.M
        Delta = est.oracle.Delta
        smooth_term = 2.0 * est.r * M
        noise_term = est.n * Delta * setup.D_X * est.p_star / est.r if Delta > 0 else 0.0
    if restart is None:
        k = k_or_phase
        return smooth_term + 12.0 * sched.L * setup.D_XV ** 2 / (k * (k + 1.0)) + noise_term
    return smooth_term + math.ldexp(restart.rho0, -k_or_phase) + 2.0 * noise_term


def suggest_r_delta(eps: float, M: float, n: int, D_X: float, p_star: float) -> dict:
    """Smoothing radius and admissible noise level for a target accuracy eps.

    r = eps/(4M) keeps the smoothing term at eps/2; delta_max keeps the
    noise-bias term at eps/8.
    """
    if eps <= 0:
        raise ValueError("eps: must be > 0")
    if M <= 0:
        raise ValueError("M: must be > 0")
    if n < 1:
        raise ValueError("n: must be >= 1")
    if not np.isfinite(D_X) or D_X <= 0:
        raise ValueError("D_X: must be finite and > 0")
    r = eps / (4.0 * M)
    delta_max = eps ** 2 / (8.0 * n * M * D_X * min(p_star, 1.0))
    return {"r": r, "delta_max": delta_max}
