"""The paper's cost identities, read off the final row of real runs.

fo counts gradients of g, zo counts value queries of f (two per estimate),
comm counts communication rounds; the inner-loop lengths T_k are recomputed
from the schedule the trace's derived.* values describe. On the
decentralized experiment every round is one counted NetworkProblem.apply_W
call, which is how `perfbench --trace 1` counts them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliding_opt.harness import RunConfig, read_fields, run
from sliding_opt.network import NetworkProblem
from sliding_opt.sliding import build_schedule

SYNTHETIC = dict(experiment="synthetic", seed=1, n=4, noise_kind="uniform", Delta=1e-4,
                 checkpoints=3)
GEOM = dict(experiment="geom_median", seed=2, n=3, m=4, topology="star", R=0.02,
            T_cap=20, checkpoints=3)


def read_only(**kw) -> RunConfig:
    """The run of kw without the settings its experiment and method do not read."""
    reads = read_fields(kw["experiment"], kw["method"])
    return RunConfig(**{key: value for key, value in kw.items() if key in reads})


CASES = {
    "synthetic-zosa": dict(SYNTHETIC, method="zosa", N=6),
    "synthetic-mzosa": dict(SYNTHETIC, method="mzosa", mu=0.1, rho0=2.0, phases=2, N0=4),
    "synthetic-gd": dict(SYNTHETIC, method="gd", N=6),
    "synthetic-zogd": dict(SYNTHETIC, method="zogd", N=6),
    "geom-zosa": dict(GEOM, method="zosa", N=5),
    "geom-gd": dict(GEOM, method="gd", N=5),
    "geom-zogd": dict(GEOM, method="zogd", N=5),
}


def scheduled_inner_steps(meta: dict, N: int, D_tilde: float) -> list:
    """T_1..T_N of the schedule the run's metadata describes."""
    sched = build_schedule(
        L=float(meta["derived.L"]), M_est=float(meta["derived.M_est"]),
        n=int(meta["derived.dim"]), C1=1.0, p_star=float(meta["derived.p_star"]),
        Delta=float(meta["config.Delta"]), r=float(meta["derived.r"]), D_tilde=D_tilde, N=N,
        T_cap=int(meta["config.T_cap"]), c_const=float(meta["config.c_const"]),
        C_const=float(meta["config.C_const"]))
    return [sched.inner_steps(k)[0] for k in range(1, N + 1)]


def run_counting_rounds(cfg: RunConfig):
    """(trace, number of NetworkProblem.apply_W calls during the run)."""
    calls = []
    apply_W = NetworkProblem.apply_W

    def counted(self, x):
        calls.append(1)
        return apply_W(self, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NetworkProblem, "apply_W", counted)
        trace = run(cfg)
    return trace, len(calls)


def check_counter_identities(cfg: RunConfig):
    trace, apply_W_calls = run_counting_rounds(cfg)
    meta = trace.metadata
    final = trace.final()
    fo, zo, comm, steps = final.fo_calls, final.zo_calls, final.comm_rounds, final.step
    halted = meta.get("budget.halted")
    # outer iterations (sliding) or steps (baselines) the run had scheduled
    if cfg.method == "zosa":
        T = scheduled_inner_steps(meta, int(meta["derived.N"]), float(meta["derived.D_tilde"]))
    elif cfg.method == "mzosa":
        N0, phases = int(meta["derived.N0"]), int(meta["derived.phases"])
        T = [t for i in range(1, phases + 1)
             for t in scheduled_inner_steps(meta, N0, cfg.rho0 / (cfg.mu * 2.0 ** i))]
    else:
        T = [None] * int(meta["derived.N"])
    # a budget halt ends the run after the step that spent it
    assert steps == len(T) if halted is None else 1 <= steps <= len(T)
    if cfg.method in ("zosa", "mzosa"):
        assert fo == steps
        assert zo == 2 * sum(T[:steps])
    elif cfg.method == "gd":
        assert fo == steps
        assert zo == 0
    else:
        assert fo == 0
        assert zo == 2 * steps
    if cfg.experiment != "geom_median":
        assert comm == apply_W_calls == 0
    else:
        assert comm == apply_W_calls
        assert comm == (zo if cfg.method == "zogd" else fo)
    if halted is not None:
        assert {"zo_calls": zo, "comm_rounds": comm}[halted] >= getattr(cfg, f"max_{halted}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_counter_identities(name):
    check_counter_identities(read_only(**CASES[name]))


@st.composite
def small_configs(draw):
    experiment = draw(st.sampled_from(["synthetic", "nesterov", "geom_median"]))
    method = draw(st.sampled_from(["zosa", "mzosa", "gd", "zogd"]))
    noise_kind = draw(st.sampled_from(["zero", "uniform", "adversarial_sine"]))
    kw = dict(experiment=experiment, method=method, seed=draw(st.integers(0, 50)),
              n=draw(st.integers(2, 5)), noise_kind=noise_kind,
              Delta=0.0 if noise_kind == "zero" else draw(st.sampled_from([1e-5, 1e-3])),
              T_cap=draw(st.integers(1, 30)), checkpoints=draw(st.integers(0, 4)),
              reference="none")
    if experiment == "geom_median":
        m = draw(st.integers(2, 5))
        topologies = ["star", "chain", "complete"] + (["cycle"] if m >= 3 else [])
        kw.update(m=m, topology=draw(st.sampled_from(topologies)),
                  R=draw(st.sampled_from([0.02, 1.0])))
    budgets = [None, "max_zo_calls"] if method != "gd" else [None]
    if experiment == "geom_median":
        budgets.append("max_comm_rounds")
    budget = draw(st.sampled_from(budgets))
    if budget is not None:
        kw[budget] = draw(st.integers(1, 120))
    if method == "mzosa":
        kw.update(mu=draw(st.sampled_from([0.1, 0.5, 1.0])), rho0=draw(st.sampled_from([0.5, 2.0])),
                  phases=draw(st.integers(1, 3)), N0=draw(st.integers(1, 4)))
    elif budget is None or draw(st.booleans()):
        kw["N"] = draw(st.integers(1, 8))
    return read_only(**kw)


@settings(max_examples=150, deadline=None)
@given(small_configs())
def test_counter_identities_over_random_configs(cfg):
    check_counter_identities(cfg)
