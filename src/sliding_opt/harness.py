"""Experiment harness: flat run configs, named seed streams, builders for the
bundled objectives, the run/replay entry points, and multi-seed comparisons.

A run is described by a flat `key = value` config file plus command-line
overrides. A run accepts only the settings its experiment and method read
(`read_fields`). Every config field is echoed into the trace metadata, so a
saved trace file is enough to re-execute the run without the original config.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import os
import sys
import traceback
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, get_args, get_type_hints

import numpy as np

from .baselines import AVERAGING_MODES, STEP_RULES, BaselineConfig, gd_run, zogd_run
from .geometry import FeasibleSet, NormPair, make_setup
from .network import (NetworkProblem, Graph, build_laplacian, dual_bound_radius,
                      lift_to_penalized, penalty_coefficient, read_edge_list)
from .oracles import NOISE_KINDS, NoiseModel
from .problems import (GeometricMedianInstance, NesterovLassoInstance, dataset_path,
                       make_strongly_convex_instance, prox_grad_reference, read_libsvm,
                       weiszfeld, wire_composite)
from .sliding import (Budgets, CompositeProblem, RestartConfig, SolverAbort,
                      build_schedule, suggest_r_delta, zosa_run)
from .trace import RunTrace, format_float


class ConfigError(ValueError):
    """A run configuration problem; messages start with the offending field."""


TOPOLOGIES = ("star", "complete", "chain", "cycle", "custom")
REFERENCE_MODES = ("auto", "none")

# Fixed offsets under the master seed; every consumer of randomness draws from
# its own stream so that, e.g., changing the noise realization leaves the data
# and the sphere directions untouched. Ids 1 and 4 belonged to retired
# streams and stay unused, so that no other stream moves.
STREAM_IDS = {"data": 0, "sphere": 2, "noise": 3}


def seed_stream(master: int, name: str, index: int | None = None) -> np.random.Generator:
    """Generator for the named substream of a master seed.

    Streams derive as SeedSequence(master, spawn_key=(STREAM_IDS[name],));
    per-node variants append the node index to the spawn key.
    """
    if name not in STREAM_IDS:
        raise ConfigError(f"stream: unknown '{name}'")
    key = (STREAM_IDS[name],) if index is None else (STREAM_IDS[name], index)
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=key))


def stream_seed_int(master: int, name: str) -> int:
    """A plain integer seed drawn from the named stream (for seeded factories)."""
    if name not in STREAM_IDS:
        raise ConfigError(f"stream: unknown '{name}'")
    seq = np.random.SeedSequence(master, spawn_key=(STREAM_IDS[name],))
    return int(seq.generate_state(1)[0])


# ---------------------------------------------------------------------------
# configuration


@dataclass(slots=True)
class RunConfig:
    """One run of one method on one experiment.

    Optional numeric fields left at None are derived (r, L, R, m, eta0, ...) or
    treated as absent (N, budgets). Derived values land in the trace metadata
    under derived.*.
    """

    experiment: str = ""
    method: str = ""
    seed: int = 0
    n: int = 0                       # 0 = experiment default
    N: int | None = None
    phases: int = 6
    N0: int | None = None
    max_zo_calls: int | None = None
    max_comm_rounds: int | None = None
    max_wall_ms: float | None = None
    checkpoints: int = 50
    out_path: str | None = None
    eps: float = 1e-3
    r: float | None = None
    noise_kind: str = "zero"
    Delta: float = 0.0
    topology: str = "star"
    m: int | None = None
    edge_file: str | None = None
    R: float | None = None
    L: float | None = None
    mu: float = 0.0
    c_const: float = 1.0
    C_const: float = 1.0
    T_cap: int = 10 ** 6
    rho0: float | None = None
    dataset: str = "german.numer"
    l1: float | None = None
    bound_hint: float | None = None
    box_half: float = 2.0
    step_rule: str = "inv_sqrt"
    eta0: float | None = None
    eta_scale: float = 1.0
    averaging: str = "last"
    with_bound: bool = False
    reference: str = "auto"


# A run reads a setting when moving it off its default changes the trace body
# or a derived.* value. out_path and max_wall_ms are read but change neither;
# seed names the replicate, but runs of the SEED_FREE pairs draw nothing from it.
READ_BY_EVERY_RUN = frozenset({"experiment", "method", "seed", "checkpoints", "eps", "r",
                               "reference", "out_path", "max_wall_ms"})
SEED_FREE = frozenset({("nesterov", "gd"), ("logreg", "gd")})
EXPERIMENT_READS = {
    "geom_median": frozenset({"n", "m", "topology", "edge_file", "R", "bound_hint",
                              "max_comm_rounds"}),
    "logreg": frozenset({"dataset", "L", "l1", "bound_hint"}),
    "nesterov": frozenset({"n", "L", "l1", "bound_hint"}),
    "synthetic": frozenset({"n", "L", "mu", "l1", "box_half"}),
}
_ZERO_ORDER = {"max_zo_calls", "noise_kind", "Delta"}
_SLIDING = {*_ZERO_ORDER, "T_cap", "c_const", "C_const", "with_bound"}
_BASELINE = {"N", "step_rule", "eta0", "eta_scale", "averaging"}
METHOD_READS = {"zosa": frozenset({"N", *_SLIDING}),
                "mzosa": frozenset({"phases", "N0", "rho0", "mu", *_SLIDING}),
                "gd": frozenset(_BASELINE), "zogd": frozenset({*_ZERO_ORDER, *_BASELINE})}
EXPERIMENTS = tuple(EXPERIMENT_READS)
METHODS = tuple(METHOD_READS)
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}


def read_fields(experiment: str, method: str) -> frozenset:
    """The RunConfig fields a run of `method` on `experiment` reads."""
    return READ_BY_EVERY_RUN | EXPERIMENT_READS[experiment] | METHOD_READS[method]


def _reject_unread(cfg: RunConfig, reads: frozenset, label: str):
    for name, default in _DEFAULTS.items():
        _require(name in reads or getattr(cfg, name) == default,
                 f"{name}: not read by experiment = {cfg.experiment} with {label}; unset it")


def _field_types() -> dict:
    """Field name -> (value type, None allowed), read from the RunConfig annotations."""
    out = {}
    for name, hint in get_type_hints(RunConfig).items():
        args = get_args(hint)
        kind = next((a for a in args if a is not type(None)), hint)
        out[name] = (kind, type(None) in args)
    return out


_FIELD_TYPES = _field_types()
# what validate accepts for each field type; only a bool field takes a bool
_ACCEPTED = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}


def _coerce(key: str, raw: str):
    kind, none_ok = _FIELD_TYPES[key]
    raw = raw.strip()
    if none_ok and raw.lower() in ("", "none"):
        return None
    # 'none' is a value of a text field such as reference, not a missing one
    if raw == "" or (kind is not str and raw.lower() == "none"):
        raise ConfigError(f"{key}: a value is required")
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected true/false, got '{raw}'")
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            pass
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got '{raw}'") from None
        if not val.is_integer():
            raise ConfigError(f"{key}: expected an integer, got '{raw}'")
        return int(val)
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got '{raw}'") from None
    return raw


def parse_config_file(path) -> dict:
    """Read a flat config file into a key -> raw string mapping.

    Blank lines and lines starting with # are skipped; everything else must
    be `key = value` (first = splits). Later duplicates win.
    """
    mapping = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{stripped}'")
            key, _, value = stripped.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping


def apply_overrides(mapping: dict, overrides) -> dict:
    """Fold `key=value` override strings into a raw mapping (overrides win)."""
    out = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override: expected key=value, got '{item}'")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def from_mapping(mapping: dict) -> RunConfig:
    cfg = RunConfig()
    for key, raw in mapping.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{key}: unknown config key")
        setattr(cfg, key, _coerce(key, raw))
    return cfg


def load_config(path, overrides=()) -> RunConfig:
    """Parse a config file and fold in overrides; `run` and `compare` validate."""
    return from_mapping(apply_overrides(parse_config_file(path), overrides))


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _check_topology(topology: str, edge_file: str | None):
    _require(topology in TOPOLOGIES,
             f"topology: must be one of {', '.join(TOPOLOGIES)}, got '{topology}'")
    _require((topology == "custom") == (edge_file is not None),
             "edge_file: required for topology = custom, and read only there")


_CHOICES = {"experiment": EXPERIMENTS, "method": METHODS, "noise_kind": NOISE_KINDS,
            "step_rule": STEP_RULES, "averaging": AVERAGING_MODES, "reference": REFERENCE_MODES}


def _check_choices(cfg: RunConfig):
    for name, choices in _CHOICES.items():
        value = getattr(cfg, name)
        _require(value in choices, f"{name}: must be one of {', '.join(choices)}, got '{value}'")


def validate(cfg: RunConfig):
    _check_choices(cfg)
    for name, (kind, none_ok) in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        if value is None and none_ok:
            continue
        _require(isinstance(value, _ACCEPTED[kind]) and isinstance(value, bool) == (kind is bool),
                 f"{name}: expected {kind.__name__}, got {value!r}")
        _require(kind is not float or math.isfinite(value),
                 f"{name}: must be finite, got {value!r}")
    _reject_unread(cfg, read_fields(cfg.experiment, cfg.method), f"method = {cfg.method}")
    # n = 0 picks the experiment's default dimension
    for name, lower in (("seed", 0), ("n", 0), ("Delta", 0), ("checkpoints", 0), ("mu", 0),
                        ("T_cap", 1), ("N", 1), ("N0", 1), ("max_zo_calls", 1),
                        ("max_comm_rounds", 1), ("m", 2)):
        value = getattr(cfg, name)
        _require(value is None or value >= lower, f"{name}: must be >= {lower}")
    for name in ("eps", "box_half", "c_const", "C_const", "eta_scale", "max_wall_ms", "r", "R",
                 "L", "rho0", "l1", "bound_hint", "eta0"):
        value = getattr(cfg, name)
        _require(value is None or value > 0, f"{name}: must be > 0")
    if cfg.experiment == "geom_median":
        _check_topology(cfg.topology, cfg.edge_file)

    if cfg.method == "mzosa":
        _require(cfg.rho0 is not None, "rho0: required for method = mzosa")
        _require(cfg.mu > 0, "mu: must be > 0 for method = mzosa")
        _require(cfg.phases >= 1, "phases: must be >= 1 for method = mzosa")
        _require(0 < math.ldexp(cfg.rho0 / cfg.mu, -cfg.phases) < math.inf,
                 "phases: rho0 / (mu * 2^phases) must be a positive finite number")
    elif cfg.N is None:
        _require(cfg.max_wall_ms is None, "max_wall_ms: a wall budget only halts a run; set N")
        _require((cfg.max_zo_calls is None) != (cfg.max_comm_rounds is None),
                 "N: set N or exactly one of max_zo_calls | max_comm_rounds")


# ---------------------------------------------------------------------------
# experiment builders


@dataclass
class _Build:
    problem: CompositeProblem
    x0: np.ndarray
    delta_max: float
    quiet_grad: Callable
    derived: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)


def _wire_l1(cfg: RunConfig, inst, feasible: FeasibleSet, reference: dict,
             derived: dict | None = None) -> _Build:
    # the one wiring of the three l1 experiments; reference is solved by the caller
    problem, sugg = wire_composite(
        inst, feasible, eps=cfg.eps, Delta=cfg.Delta, noise_kind=cfg.noise_kind, r=cfg.r,
        psi0_reference=reference.get("value"), sphere_rng=seed_stream(cfg.seed, "sphere"),
        noise_rng=seed_stream(cfg.seed, "noise"))
    return _Build(problem=problem, x0=np.zeros(inst.n), delta_max=sugg["delta_max"],
                  quiet_grad=inst.g_grad, derived=derived or {}, reference=reference)


def _build_synthetic(cfg: RunConfig) -> _Build:
    # curvatures span [mu, L]; a convex run (mu = 0) gets H = L*I
    L = cfg.L if cfg.L is not None else 1.0
    _require(cfg.mu <= L, "mu: must be <= L")
    inst, feasible = make_strongly_convex_instance(
        cfg.n if cfg.n else 10, stream_seed_int(cfg.seed, "data"),
        mu=cfg.mu if cfg.mu > 0 else L, L=L, l1=cfg.l1 if cfg.l1 is not None else 0.1,
        box_half=cfg.box_half)
    reference = {}
    if cfg.reference == "auto":
        reference = {"kind": "closed_form", "value": float(inst.optimal_value())}
    return _wire_l1(cfg, inst, feasible, reference)


def _build_smooth_lasso(cfg: RunConfig, inst) -> _Build:
    # the worst-case and logistic objectives live on the whole space
    bound_hint = cfg.bound_hint if cfg.bound_hint is not None else 2.0 * math.sqrt(inst.n)
    reference = {}
    if cfg.reference == "auto":
        ref = prox_grad_reference(inst.g_value, inst.g_grad, inst.l1, inst.L, np.zeros(inst.n))
        reference = {"kind": "prox_grad", "value": ref["value"],
                     "iterations": ref["iterations"], "tol": ref["tol"]}
    return _wire_l1(cfg, inst, FeasibleSet.whole_space(inst.n, bound_hint), reference,
                    {"nonconforming_compactness": True, "bound_hint": bound_hint})


def _build_nesterov(cfg: RunConfig) -> _Build:
    l1 = cfg.l1 if cfg.l1 is not None else 1e-3
    L = cfg.L if cfg.L is not None else 4.0
    return _build_smooth_lasso(cfg, NesterovLassoInstance(n=cfg.n if cfg.n else 50, L=L, l1=l1))


def _build_logreg(cfg: RunConfig) -> _Build:
    l1 = cfg.l1 if cfg.l1 is not None else 1e-4
    path = dataset_path(cfg.dataset)
    if not os.path.exists(path):
        raise ConfigError(f"dataset: '{cfg.dataset}' not found (looked at {path}; "
                          f"set SLIDING_OPT_DATA to the dataset directory)")
    inst = read_libsvm(path, l1=l1)
    inst.L = cfg.L if cfg.L is not None else inst.smoothness()
    build = _build_smooth_lasso(cfg, inst)
    build.derived["dataset_rows"] = inst.m
    return build


def build_graph(topology: str, m: int | None, edge_file: str | None) -> Graph:
    """The mixing graph of a TOPOLOGIES name on m nodes (None: 20); custom reads
    edge_file, on the file's node count when m is None."""
    _check_topology(topology, edge_file)
    if topology == "custom":
        return read_edge_list(edge_file, m=m)
    return getattr(Graph, topology)(m if m is not None else 20)


def _build_geom_median(cfg: RunConfig) -> _Build:
    n = cfg.n if cfg.n else 10
    graph = build_graph(cfg.topology, cfg.m, cfg.edge_file)
    lap = build_laplacian(graph)
    m = graph.m
    inst = GeometricMedianInstance.sample(m, n, seed_stream(cfg.seed, "data"))
    R = cfg.R if cfg.R is not None else penalty_coefficient(1.0, m, lap, cfg.eps)
    bound_hint = cfg.bound_hint if cfg.bound_hint is not None else 8.0 * math.sqrt(n)
    per_node = make_setup(NormPair.euclidean(), FeasibleSet.whole_space(n, bound_hint),
                          "half_sq_euclid")
    M_lift = 1.0 / math.sqrt(m)
    sugg = suggest_r_delta(cfg.eps, M_lift, m * n, per_node.D_X * math.sqrt(m), 1.0)
    r = cfg.r if cfg.r is not None else sugg["r"]
    uniform = cfg.noise_kind == "uniform"
    noise_models = [NoiseModel(cfg.noise_kind, cfg.Delta,
                               (i + 1.0) * np.arange(1, n + 1, dtype=float),
                               seed_stream(cfg.seed, "noise", i) if uniform else None)
                    for i in range(m)]
    oracles = inst.make_node_oracles(s=2.0 * r, noise_models=noise_models)
    net = NetworkProblem(lap, n, oracles, R)
    reference = {}
    psi0_ref = None
    if cfg.reference == "auto":
        _, ref_val = weiszfeld(inst)
        psi0_ref = ref_val
        reference = {"kind": "weiszfeld", "value": ref_val}
    problem = lift_to_penalized(net, per_node, r=r,
                                sphere_rng=seed_stream(cfg.seed, "sphere"),
                                node_values=inst.node_values, node_subgrads=inst.node_subgrads,
                                psi0_reference=psi0_ref)
    derived = {"nonconforming_compactness": True, "bound_hint": bound_hint, "m": m,
               "R": R, "chi": lap.chi, "lambda_max": lap.lambda_max,
               "lambda_min_plus": lap.lambda_min_plus,
               "R_y": dual_bound_radius(1.0, m, lap), "edges": len(graph.edges)}
    return _Build(problem=problem, x0=inst.anchors.ravel().copy(), delta_max=sugg["delta_max"],
                  quiet_grad=(lambda x: 2.0 * R * net.apply_W_quiet(x)),
                  derived=derived, reference=reference)


_BUILDERS = {"synthetic": _build_synthetic, "nesterov": _build_nesterov,
             "logreg": _build_logreg, "geom_median": _build_geom_median}


# ---------------------------------------------------------------------------
# horizon resolution


def _zosa_zo_cost(sched_kwargs: dict, N: int) -> int:
    sched = build_schedule(N=N, **sched_kwargs)
    return 2 * sum(sched.inner_steps(k)[0] for k in range(1, N + 1))


def _largest_N_for_zo(sched_kwargs: dict, budget: int) -> int:
    """Largest N whose scheduled zero-order work 2*sum_k T_k fits the budget."""
    if _zosa_zo_cost(sched_kwargs, 1) > budget:
        return 1
    hi = 1
    while hi < 10 ** 7 and _zosa_zo_cost(sched_kwargs, 2 * hi) <= budget:
        hi *= 2
    lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _zosa_zo_cost(sched_kwargs, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def _resolve_horizon(cfg: RunConfig, sched_kwargs: dict | None) -> tuple:
    """(N, primary budget dimension) for the non-restarted methods.

    With N set the budgets are secondary halts. Otherwise exactly one of the
    zero-order and communication budgets is set (validated): a communication
    budget converts exactly (1 round per zosa/gd step, 2 per zogd step), and a
    zero-order budget picks the largest N whose scheduled work fits (zosa) or
    budget // 2 steps (zogd). A wall-clock budget only halts a run early.
    """
    if cfg.N is not None:
        return cfg.N, "N"
    per_step_comm = {"zosa": 1, "gd": 1, "zogd": 2}
    if cfg.max_comm_rounds is not None:
        return max(1, cfg.max_comm_rounds // per_step_comm[cfg.method]), "max_comm_rounds"
    if cfg.method == "zogd":
        return max(1, cfg.max_zo_calls // 2), "max_zo_calls"
    return _largest_N_for_zo(sched_kwargs, cfg.max_zo_calls), "max_zo_calls"


# ---------------------------------------------------------------------------
# run


def _package_version() -> str:
    from . import __version__
    return __version__


def _meta_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))    # normalizes numpy scalars too
    return str(value)


def _finalize_metadata(trace: RunTrace, cfg: RunConfig, derived: dict, reference: dict):
    meta = {"version": _package_version()}
    for f in dataclasses.fields(RunConfig):
        meta[f"config.{f.name}"] = _meta_value(getattr(cfg, f.name))
    for key, value in derived.items():
        meta[f"derived.{key}"] = _meta_value(value)
    for key, value in reference.items():
        meta[f"reference.{key}"] = _meta_value(value)
    for key, value in trace.metadata.items():
        if key not in meta:
            meta[key] = value
    # the traces of one compare share their keys and most of their values
    trace.metadata = {sys.intern(key): sys.intern(value) for key, value in meta.items()}


def _default_eta0(cfg: RunConfig, b: _Build) -> float:
    """Step-size scale from the gradient magnitude at the start point.

    gd sees the combined subgradient; zogd's estimator magnitude carries an
    extra sqrt(dim) factor, so its default shrinks accordingly.
    """
    grad0 = np.asarray(b.quiet_grad(b.x0), dtype=float)
    if cfg.method == "gd":
        sub = np.asarray(b.problem.f_subgrad(b.x0), dtype=float)
        denom = float(np.linalg.norm(sub + grad0))
    else:
        n = b.problem.estimator.n
        denom = math.sqrt(n) * (b.problem.f_oracle.M + float(np.linalg.norm(grad0)))
    return b.problem.setup.D_X / (denom + 1e-12)


def _execute(cfg: RunConfig, b: _Build) -> tuple:
    problem = b.problem
    setup, est = problem.setup, problem.estimator
    budgets = None
    if any(v is not None for v in (cfg.max_zo_calls, cfg.max_comm_rounds, cfg.max_wall_ms)):
        budgets = Budgets(max_zo_calls=cfg.max_zo_calls, max_comm_rounds=cfg.max_comm_rounds,
                          max_wall_ms=cfg.max_wall_ms)
    derived = dict(b.derived)
    derived.update(dim=est.n, r=est.r, M_est=problem.f_oracle.M, p_star=est.p_star, L=problem.L,
                   delta_max=b.delta_max)

    if cfg.method in ("zosa", "mzosa"):
        sched_kwargs = dict(L=problem.L, M_est=problem.f_oracle.M, n=est.n, C1=setup.norms.C1,
                            p_star=est.p_star, Delta=cfg.Delta, r=est.r, mu=cfg.mu,
                            T_cap=cfg.T_cap, c_const=cfg.c_const, C_const=cfg.C_const)
        restart = None
        if cfg.method == "zosa":
            D_tilde = 0.75 * setup.D_XV ** 2
            N, primary = _resolve_horizon(cfg, dict(sched_kwargs, D_tilde=D_tilde))
            derived.update(N=N, D_tilde=D_tilde)
        else:
            # the schedule of phase 1; zosa_run rescales D_tilde for each phase
            restart = RestartConfig(rho0=cfg.rho0, phases=cfg.phases, N0=cfg.N0)
            restart.N0 = N = restart.resolved_N0(problem.L, cfg.mu)
            D_tilde, primary = cfg.rho0 / (2.0 * cfg.mu), "phases"
            derived.update(N0=N, rho0=cfg.rho0, phases=cfg.phases)
        sched = build_schedule(N=N, D_tilde=D_tilde, **sched_kwargs)
        _, trace = zosa_run(problem, sched, b.x0, checkpoints=cfg.checkpoints,
                            budgets=budgets, with_bound=cfg.with_bound, restart=restart)
        derived.update(M_tilde=sched.M_tilde, sigma_sq=sched.sigma_sq, budget_primary=primary)
        return trace, derived

    N, primary = _resolve_horizon(cfg, None)
    base = cfg.eta0 if cfg.eta0 is not None else _default_eta0(cfg, b)
    eta_eff = base * cfg.eta_scale
    bl = BaselineConfig(N_steps=N, step_rule=cfg.step_rule, eta0=eta_eff,
                        averaging=cfg.averaging, r=(est.r if cfg.method == "zogd" else 0.0))
    if cfg.method == "gd":
        _, trace = gd_run(problem, bl, b.x0, checkpoints=cfg.checkpoints, budgets=budgets)
    else:
        _, trace = zogd_run(problem, bl, b.x0, rng=seed_stream(cfg.seed, "sphere"),
                            checkpoints=cfg.checkpoints, budgets=budgets)
    derived.update(N=N, eta0=eta_eff, budget_primary=primary)
    return trace, derived


def run(cfg: RunConfig) -> RunTrace:
    """Execute one configured run; returns the trace (and writes out_path)."""
    validate(cfg)
    b = _BUILDERS[cfg.experiment](cfg)
    try:
        trace, derived = _execute(cfg, b)
    except SolverAbort as abort:
        # a caller that keeps the abort keeps its state, not the run's problem
        del b
        exc = abort
        while exc is not None:
            traceback.clear_frames(exc.__traceback__)
            exc = exc.__context__
        raise
    _finalize_metadata(trace, cfg, derived, b.reference)
    if cfg.out_path:
        trace.to_csv(cfg.out_path)
    return trace


def config_from_metadata(metadata: dict) -> RunConfig:
    """Rebuild the RunConfig echoed into a trace's metadata."""
    mapping = {key[len("config."):]: str(value)
               for key, value in metadata.items() if key.startswith("config.")}
    if not mapping:
        raise ConfigError("metadata: no config.* entries to rebuild a run from")
    cfg = from_mapping(mapping)
    validate(cfg)
    return cfg


def replay(trace_or_path) -> RunTrace:
    """Re-execute the run recorded in a trace; the body must come out identical.

    A trace written by another package version is still replayed, with a
    UserWarning naming both versions: its body may legitimately differ.
    """
    trace = trace_or_path
    if not isinstance(trace, RunTrace):
        trace = RunTrace.from_csv(trace_or_path)
    recorded, installed = trace.metadata.get("version"), _package_version()
    if recorded != installed:
        warnings.warn(f"replay: trace written by sliding-opt {recorded}, "
                      f"installed version is {installed}", UserWarning, stacklevel=2)
    cfg = config_from_metadata(trace.metadata)
    cfg.out_path = None
    return run(cfg)


# ---------------------------------------------------------------------------
# multi-seed comparison


def parse_seed_spec(spec: str) -> list:
    """Seed list from 'a..b' (inclusive), 'a,b,c', or a single integer."""
    s = spec.strip()
    try:
        if ".." in s:
            first, _, last = s.partition("..")
            lo, hi = int(first), int(last)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(tok) for tok in s.split(",")]
    except ValueError:
        raise ConfigError(f"seeds: expected 'a..b' or a comma list, got '{spec}'") from None


def parse_metric(spec: str) -> tuple:
    """('gap_at_budget', None) or ('budget_to_gap', target)."""
    if spec == "gap_at_budget":
        return "gap_at_budget", None
    if spec.startswith("budget_to_gap:"):
        tail = spec[len("budget_to_gap:"):]
        try:
            target = float(tail)
        except ValueError:
            raise ConfigError(f"metric: bad target '{tail}'") from None
        if not (math.isfinite(target) and target > 0):
            raise ConfigError(f"metric: target must be finite and > 0, got '{tail}'")
        return "budget_to_gap", target
    raise ConfigError(f"metric: unknown '{spec}'")


def _score(trace: RunTrace, metric: str, target, cost_attr: str) -> float:
    rows = trace.rows
    if not rows or rows[0].gap_vs_reference is None:
        raise ConfigError("reference: comparison metrics need reference = auto")
    gap0 = rows[0].gap_vs_reference
    if not gap0 > 0:
        raise ConfigError("reference: the start point already meets the reference value")
    if metric == "gap_at_budget":
        return rows[-1].gap_vs_reference / gap0
    for row in rows:
        if row.gap_vs_reference / gap0 <= target:
            return float(getattr(row, cost_attr))
    return float("inf")


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile that keeps censored (inf) scores as inf."""
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi or v[lo] == v[hi]:
        return float(v[lo])
    frac = pos - lo
    return float(v[lo] * (1.0 - frac) + v[hi] * frac)


_TUNING_GRID = (1.0, 0.1, 10.0)


def _for_method(cfg: RunConfig, method: str) -> RunConfig:
    """cfg run by `method`, validated: the fields that method does not read on
    cfg's experiment go back to their defaults."""
    run_cfg = replace(cfg, method=method)
    _check_choices(run_cfg)
    reads = read_fields(cfg.experiment, method)
    run_cfg = replace(run_cfg, **{name: default for name, default in _DEFAULTS.items()
                                  if name not in reads})
    validate(run_cfg)
    return run_cfg


def compare(cfg: RunConfig, methods, seeds, metric: str = "gap_at_budget",
            out_path=None) -> tuple:
    """Median and quartiles of a metric per method over shared seeds.

    gap_at_budget is the final gap relative to the start gap; budget_to_gap:t
    is the first recorded cost (comm_rounds on the decentralized experiment,
    zo_calls otherwise) at which the relative gap reaches t, inf if never.
    Baselines without an explicit step size get a one-seed grid search over
    {0.1, 1, 10} x the default scale; the chosen factor is reported. Each
    method runs cfg with the settings it does not read at their defaults; a
    setting that none of the methods reads is rejected. Returns (rows, csv_text).
    """
    metric_kind, target = parse_metric(metric)
    if not methods:
        raise ConfigError("methods: at least one method required")
    if not seeds:
        raise ConfigError("seeds: at least one seed required")
    cost_attr = "comm_rounds" if cfg.experiment == "geom_median" else "zo_calls"
    run_cfgs = {method: _for_method(cfg, method) for method in methods}
    _reject_unread(cfg, frozenset().union(*(read_fields(cfg.experiment, m) for m in methods)),
                   f"methods = {','.join(methods)}")

    @functools.cache
    def score(method, seed, scale):
        run_cfg = run_cfgs[method]
        run_cfg = replace(run_cfg, seed=seed, eta_scale=scale * run_cfg.eta_scale,
                          out_path=None, with_bound=False)
        try:
            return _score(run(run_cfg), metric_kind, target, cost_attr)
        except SolverAbort:
            # a diverged run (e.g. an oversized tuning candidate) is censored
            return float("inf")

    rows = []
    for method in methods:
        scale = 1.0
        if method in ("gd", "zogd") and cfg.eta0 is None:
            scale = min(_TUNING_GRID, key=lambda s: score(method, seeds[0], s))
        # a seed-free run's score holds for every seed
        free = (cfg.experiment, method) in SEED_FREE
        scores = [score(method, seeds[0] if free else seed, scale) for seed in seeds]
        median, q25, q75 = (_quantile(scores, q) for q in (0.5, 0.25, 0.75))
        rows.append({"method": method,
                     "topology": cfg.topology if cfg.experiment == "geom_median" else "-",
                     "metric": metric,
                     "median": median, "q25": q25, "q75": q75,
                     "seeds": len(seeds),
                     "eta_scale": scale})

    lines = ["method,topology,metric,median,q25,q75,seeds,eta_scale"]
    for row in rows:
        lines.append(",".join([row["method"], row["topology"], row["metric"],
                               format_float(row["median"]), format_float(row["q25"]),
                               format_float(row["q75"]), str(row["seeds"]),
                               format_float(row["eta_scale"])]))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    return rows, text
