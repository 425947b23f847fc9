"""The benchmark's workloads and the code that runs one repetition of them.

Every workload is a fixed list of jobs on the public API: a job is either one
`sliding_opt.run(cfg)` call or one `sliding_opt.compare(...)` call (the
`bench` CLI path). The `--seed` argument picks the master seeds of the runs,
so the same seed always gives the same inputs; the default seed reproduces
the configurations whose traces are recorded in golden.json.

A repetition runs its jobs closed-loop, one after the other, in this process
and thread. While it runs, the public `run` function and the solver entry
points are wrapped where the callers look them up (see hooks.py), so each
solver run inside a `compare` call is observed too: its config, its trace or
its exception, and the seconds spent inside the solver.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import sliding_opt
from sliding_opt import RunConfig

import hooks

DEFAULT_SEED = 0

# The functions a run's solver time is measured around; the first call to any
# of them also ends set-up. Nested calls (mzosa_run calls zosa_run) count once.
SOLVER_ENTRIES = (("sliding_opt.sliding", "zosa_run"), ("sliding_opt.sliding", "mzosa_run"),
                  ("sliding_opt.baselines", "gd_run"), ("sliding_opt.baselines", "zogd_run"))
RUN_ENTRY = ("sliding_opt.harness", "run")


@dataclass(frozen=True)
class Job:
    """One public call: `run(cfg)`, or `compare(cfg, methods, seeds, metric)` when
    methods is non-empty."""

    cfg: RunConfig
    methods: tuple = ()
    seeds: tuple = ()
    metric: str = ""


def _nesterov_jobs(seed: int, tiny: bool) -> list:
    return [Job(RunConfig(experiment="nesterov", method="zosa", seed=seed + 1,
                          max_zo_calls=2000 if tiny else 200000, checkpoints=20))]


def _geom_cfg(topology: str, seed: int, tiny: bool) -> RunConfig:
    return RunConfig(experiment="geom_median", method="zosa", topology=topology, m=20, n=10,
                     R=100.0, max_comm_rounds=30 if tiny else 1500,
                     checkpoints=10 if tiny else 150, seed=seed + 1)


def _chain_jobs(seed: int, tiny: bool) -> list:
    return [Job(_geom_cfg("chain", seed, tiny))]


def _star_jobs(seed: int, tiny: bool) -> list:
    seeds = tuple(range(seed + 1, seed + (3 if tiny else 5)))
    return [Job(_geom_cfg("star", seed, tiny), methods=("zosa", "zogd", "gd"), seeds=seeds,
                metric="budget_to_gap:0.01")]


def _synthetic_jobs(seed: int, tiny: bool) -> list:
    count = 2 if tiny else 20
    base = RunConfig(experiment="synthetic", method="mzosa", n=10, box_half=2.0, mu=0.1,
                     l1=0.01, rho0=6.0, phases=2 if tiny else 6, noise_kind="uniform",
                     Delta=1e-5, checkpoints=1)
    return [Job(replace(base, seed=count * seed + i)) for i in range(count)]


# name -> jobs(seed, tiny); README.md says why each workload is here.
WORKLOADS = {"nesterov-zosa": _nesterov_jobs, "geom-chain-zosa": _chain_jobs,
             "geom-star-bench": _star_jobs, "synthetic-mzosa-sweep": _synthetic_jobs}


@dataclass
class RunRecord:
    """One solver run seen through the public `run` call."""

    cfg: RunConfig
    trace: object = None          # RunTrace, or None when the run raised
    error: BaseException | None = None
    body: str = ""

    @property
    def label(self) -> str:
        return f"{self.cfg.method} seed={self.cfg.seed} eta_scale={self.cfg.eta_scale!r}"

    def counters(self) -> tuple:
        final = self.trace.final()
        return final.fo_calls, final.zo_calls, final.comm_rounds

    def signature(self) -> list:
        """What golden.json records for this run."""
        if self.trace is None:
            return [self.label, type(self.error).__name__]
        return [self.label, hashlib.sha256(self.body.encode()).hexdigest(), *self.counters()]


@dataclass
class Rep:
    """One repetition of a workload: every run it made and every compare table."""

    runs: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    errors: list = field(default_factory=list)   # exceptions that escaped a job
    wall_s: float = 0.0
    solver_s: float = 0.0
    serialize_s: float = 0.0


class _SolverClock:
    """Sums the seconds spent in the outermost solver entry calls."""

    def __init__(self):
        self.depth = 0
        self.total = 0.0

    def wrap(self, fn, _name):
        def timed(*args, **kwargs):
            self.depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                if self.depth == 0:
                    self.total += time.perf_counter() - t0
        return timed


def _observe_runs(rep: Rep, on_run=None):
    def wrap(fn, _name):
        def observed(cfg, *args, **kwargs):
            if on_run is not None:
                on_run()
            record = RunRecord(cfg=replace(cfg))
            rep.runs.append(record)
            try:
                record.trace = fn(cfg, *args, **kwargs)
            except Exception as exc:
                # compare() censors SolverAbort itself; the checks decide which
                # exceptions were expected
                record.error = exc
                raise
            return record.trace
        return observed
    return wrap


def run_jobs(jobs, on_run=None) -> Rep:
    """Run one repetition of `jobs`; `on_run` is called as each solver run starts.

    Trace bodies are serialized after the clock stops.
    """
    rep = Rep()
    clock = _SolverClock()
    own = hooks.Patches()
    try:
        own.wrap_all([RUN_ENTRY], _observe_runs(rep, on_run))
        own.wrap_all(SOLVER_ENTRIES, clock.wrap)
        t0 = time.perf_counter()
        for job in jobs:
            try:
                if job.methods:
                    _, text = sliding_opt.compare(job.cfg, list(job.methods), list(job.seeds),
                                                  metric=job.metric)
                    rep.tables.append(text)
                else:
                    sliding_opt.run(job.cfg)
            except Exception as exc:
                rep.errors.append(exc)
        rep.wall_s = time.perf_counter() - t0
    finally:
        own.restore()
    rep.solver_s = clock.total if clock.total > 0 else rep.wall_s
    t0 = time.perf_counter()
    for record in rep.runs:
        if record.trace is not None:
            record.body = record.trace.body_text()
    rep.serialize_s = time.perf_counter() - t0
    return rep


class ReachedSolver(BaseException):
    """Raised at the first solver call of a set-up probe. A BaseException, so
    no handler for ordinary errors inside the program swallows it."""


def setup_seconds(jobs, t_import: float) -> float:
    """Seconds from `t_import` (taken before `import sliding_opt`) to the first
    solver call of the first job: instance build, reference solve and horizon
    resolution are all inside."""
    reached = []

    def stop(fn, _name):
        def first_call(*args, **kwargs):
            reached.append(time.perf_counter())
            raise ReachedSolver
        return first_call

    patches = hooks.Patches()
    patches.wrap_all(SOLVER_ENTRIES, stop)
    job = jobs[0]
    try:
        if job.methods:
            sliding_opt.compare(job.cfg, list(job.methods), list(job.seeds), metric=job.metric)
        else:
            sliding_opt.run(job.cfg)
    except ReachedSolver:
        pass
    finally:
        patches.restore()
    if not reached:
        raise RuntimeError("set-up probe: no solver entry point was called")
    return reached[0] - t_import
