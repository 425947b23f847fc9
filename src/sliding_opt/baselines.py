"""First-order and zeroth-order baseline descent methods on the same problems.

gd_run gets clean subgradients of the whole composite objective; zogd_run
sees it only through two-point value queries of f + g. Both share the trace
format with the sliding solvers so comparisons line up column for column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import projector
from .oracles import EstimatorError, SmoothingEstimator, _stack
from .sliding import (Budgets, CompositeProblem, SolverAbort, SolverState, _checkpoint_steps,
                      _Recorder)


STEP_RULES = ("constant", "inv_sqrt")
AVERAGING_MODES = ("last", "running_best", "uniform_avg")


@dataclass
class BaselineConfig:
    """Step rule (constant eta0, or eta0/sqrt(t)), iteration count, reporting mode.

    averaging: 'last' reports the current iterate, 'running_best' the best
    objective value seen, 'uniform_avg' the running mean of iterates. r is
    the two-point estimator radius (zogd only).
    """

    N_steps: int
    step_rule: str = "inv_sqrt"
    eta0: float = 1.0
    averaging: str = "last"
    r: float = 0.0

    def __post_init__(self):
        if self.N_steps < 0:
            raise ValueError("N_steps: must be >= 0")
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"step_rule: unknown '{self.step_rule}'")
        if self.step_rule == "constant" and self.eta0 < 0:
            raise ValueError("eta0: must be >= 0")
        if self.step_rule == "inv_sqrt" and self.eta0 <= 0:
            raise ValueError("eta0: must be > 0")
        if self.averaging not in AVERAGING_MODES:
            raise ValueError(f"averaging: unknown '{self.averaging}'")

    def step_size(self, t: int) -> float:
        if self.step_rule == "constant":
            return self.eta0
        return self.eta0 / math.sqrt(t)


class _Reporter:
    """Tracks the reported point per the averaging mode."""

    def __init__(self, cfg, problem, x0):
        self.mode = cfg.averaging
        self.problem = problem
        self.x = np.asarray(x0, dtype=float).copy()
        if self.mode == "running_best":
            self.best_val = problem.psi0(self.x)
            self.best_x = self.x.copy()
        elif self.mode == "uniform_avg":
            self.mean = self.x.copy()
            self.count = 1

    def update(self, x):
        self.x = x
        if self.mode == "running_best":
            val = self.problem.psi0(x)
            if val < self.best_val:
                self.best_val = val
                self.best_x = x.copy()
        elif self.mode == "uniform_avg":
            self.count += 1
            self.mean += (x - self.mean) / self.count

    def point(self) -> np.ndarray:
        if self.mode == "running_best":
            return self.best_x
        if self.mode == "uniform_avg":
            return self.mean
        return self.x


def _descent_loop(problem: CompositeProblem, cfg: BaselineConfig, x0, direction_fn, *,
                  checkpoints: int, budgets: Budgets | None):
    rec = _Recorder(problem, x0, budgets)
    x = rec.x0
    proj = projector(problem.setup.feasible)
    reporter = _Reporter(cfg, problem, x)
    marks = _checkpoint_steps(max(cfg.N_steps, 1), checkpoints)
    for t in range(1, cfg.N_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            d = direction_fn(x, t)
            target = x - cfg.step_size(t) * d
        if not np.isfinite(target).all():
            raise SolverAbort(f"non-finite iterate at step {t}",
                              SolverState(k=t, t=0, phase=0, x=x))
        x = proj(target)
        reporter.update(x)
        if rec.due(t, marks):
            rec.record(reporter.point(), t, t)
        if rec.halted is not None:
            break
    return reporter.point(), rec.trace


def gd_run(problem: CompositeProblem, cfg: BaselineConfig, x0, *,
           checkpoints: int = 50, budgets: Budgets | None = None):
    """Projected subgradient descent with clean first-order access to f + g.

    One combined subgradient per step, counted as one first-order call.
    """
    if problem.f_subgrad is None:
        raise ValueError("problem: f_subgrad required for the first-order baseline")

    def direction(x, t):
        return problem.f_subgrad(x) + problem.grad_g(x)

    return _descent_loop(problem, cfg, x0, direction,
                         checkpoints=checkpoints, budgets=budgets)


class _FullValueOracle:
    """Value oracle for f + g on a (k, dim) stack: the noisy f path plus
    exact g, each g value counted as a communication on decentralized
    instances."""

    def __init__(self, problem: CompositeProblem):
        self.problem = problem
        self.s = problem.f_oracle.s

    def evaluate(self, X) -> np.ndarray:
        X = _stack(X)
        return self.problem.f_oracle.evaluate(X) + [self.problem.g_counted(x) for x in X]


def zogd_run(problem: CompositeProblem, cfg: BaselineConfig, x0, *,
             rng: np.random.Generator | None = None, checkpoints: int = 50,
             budgets: Budgets | None = None):
    """Zeroth-order projected descent on the full objective.

    Each step takes one two-point sphere estimate of f + g (two value
    queries, hence zo_calls = 2 * steps and zero first-order calls).
    """
    if cfg.r <= 0:
        raise ValueError("r: must be > 0 for the zeroth-order baseline")
    full = _FullValueOracle(problem)
    n = problem.setup.feasible.n
    estimator = SmoothingEstimator(full, r=cfg.r, n=n, norms=problem.setup.norms, rng=rng)

    def direction(x, t):
        try:
            return estimator.estimate_gradient(x)
        except EstimatorError as err:
            raise SolverAbort(str(err), SolverState(k=t, t=0, phase=0, x=x)) from err

    return _descent_loop(problem, cfg, x0, direction,
                         checkpoints=checkpoints, budgets=budgets)
