"""The paper's cost identities, read off the final row of real runs.

fo counts gradients of g, zo counts value queries of f (two per estimate),
comm counts communication rounds; the inner-loop lengths T_k are recomputed
from the schedule the trace's derived.* values describe.
"""

import pytest

from sliding_opt.harness import RunConfig, run
from sliding_opt.sliding import build_schedule

SYNTHETIC = dict(experiment="synthetic", seed=1, n=4, noise_kind="uniform", Delta=1e-4,
                 checkpoints=3)
GEOM = dict(experiment="geom_median", seed=2, n=3, m=4, topology="star", R=0.02,
            T_cap=20, checkpoints=3)

CASES = {
    "synthetic-zosa": dict(SYNTHETIC, method="zosa", N=6),
    "synthetic-mzosa": dict(SYNTHETIC, method="mzosa", mu=0.1, rho0=2.0, phases=2, N0=4),
    "synthetic-gd": dict(SYNTHETIC, method="gd", N=6),
    "synthetic-zogd": dict(SYNTHETIC, method="zogd", N=6),
    "geom-zosa": dict(GEOM, method="zosa", N=5),
    "geom-gd": dict(GEOM, method="gd", N=5),
    "geom-zogd": dict(GEOM, method="zogd", N=5),
}


def scheduled_inner_steps(meta: dict, N: int, D_tilde: float) -> int:
    sched = build_schedule(
        L=float(meta["derived.L"]), M_est=float(meta["derived.M_est"]),
        n=int(meta["derived.dim"]), C1=1.0, p_star=float(meta["derived.p_star"]),
        Delta=float(meta["config.Delta"]), r=float(meta["derived.r"]), D_tilde=D_tilde, N=N,
        T_cap=int(meta["config.T_cap"]), c_const=float(meta["config.c_const"]),
        C_const=float(meta["config.C_const"]))
    return sum(sched.inner_steps(k)[0] for k in range(1, N + 1))


@pytest.mark.parametrize("name", sorted(CASES))
def test_counter_identities(name):
    cfg = RunConfig(**CASES[name])
    trace = run(cfg)
    meta = trace.metadata
    final = trace.final()
    fo, zo, comm = final.fo_calls, final.zo_calls, final.comm_rounds
    if cfg.method == "zosa":
        N = int(meta["derived.N"])
        assert fo == N
        assert zo == 2 * scheduled_inner_steps(meta, N, float(meta["derived.D_tilde"]))
    elif cfg.method == "mzosa":
        N0, phases = int(meta["derived.N0"]), int(meta["derived.phases"])
        assert fo == N0 * phases
        assert zo == 2 * sum(scheduled_inner_steps(meta, N0, cfg.rho0 / (cfg.mu * 2.0 ** i))
                             for i in range(1, phases + 1))
    elif cfg.method == "gd":
        assert fo == int(meta["derived.N"])
        assert zo == 0
    else:
        assert fo == 0
        assert zo == 2 * final.step == 2 * int(meta["derived.N"])
    if cfg.experiment != "geom_median":
        assert comm == 0
    elif cfg.method == "zogd":
        assert comm == zo
    else:
        assert comm == fo
