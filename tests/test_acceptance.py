"""Acceptance gate: thirteen numbered criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each criterion is also a regular test, so -v alone shows pass/fail.
Criterion 11 skips (not fails) when its dataset file is absent.

Each criterion also has a wall-clock gate, measured with time.perf_counter on
the machine that runs it; a criterion whose checks all hold but which runs
past its gate fails. Criterion 02's gate is 30 s for its 2x10^6 single
estimates (10^6 with a clean oracle, 10^6 with a noisy one).
"""

import math
import os
import time

import numpy as np
import pytest

from sliding_opt.geometry import NormPair
from sliding_opt.harness import RunConfig, _score, run
from sliding_opt.network import Graph, NetworkProblem, build_laplacian
from sliding_opt.oracles import (NoiseModel, NoisyZeroOrderOracle, SmoothingEstimator,
                                 sample_sphere)
from sliding_opt.problems import dataset_path, read_libsvm
from sliding_opt.sliding import SolverAbort, build_schedule, suggest_r_delta


def report(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {tag}: {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def report_skip(num: int, name: str, reason: str):
    print(f"criterion {num:02d} SKIP: {name} ({reason})")
    pytest.skip(reason)


def sched_kwargs_from_metadata(meta: dict) -> dict:
    return dict(L=float(meta["derived.L"]), M_est=float(meta["derived.M_est"]),
                n=int(meta["derived.dim"]), C1=1.0,
                p_star=float(meta["derived.p_star"]),
                Delta=float(meta["config.Delta"]), r=float(meta["derived.r"]),
                D_tilde=float(meta["derived.D_tilde"]),
                T_cap=int(meta["config.T_cap"]))


def scheduled_zo_cost(meta: dict) -> int:
    sched = build_schedule(N=int(meta["derived.N"]), **sched_kwargs_from_metadata(meta))
    return 2 * sum(sched.inner_steps(k)[0] for k in range(1, sched.N + 1))


# ---------------------------------------------------------------------------


def test_criterion_01_schedule_identities():
    t0 = time.perf_counter()
    t = np.arange(1.0, 10 ** 4 + 1)
    p = t / 2.0
    P = 2.0 / ((t + 1.0) * (t + 2.0))
    P_prev = np.concatenate(([1.0], P[:-1]))
    err_P = np.abs(P - p / (1.0 + p) * P_prev).max()
    theta = 2.0 * (t + 1.0) / (t * (t + 3.0))
    theta_def = (P_prev - P) / ((1.0 - P) * P_prev)
    err_theta = np.abs(theta[1:] - theta_def[1:]).max()

    k = np.arange(1.0, 10 ** 3 + 1)
    Gamma = 2.0 / (k * (k + 1.0))
    gamma = 2.0 / (k + 1.0)
    Gamma_prev = np.concatenate(([1.0], Gamma[:-1]))
    err_Gamma = np.abs(Gamma[1:] - (1.0 - gamma[1:]) * Gamma_prev[1:]).max()

    sched = build_schedule(L=2.5, M_est=1.0, n=4, C1=1.0, p_star=1.0,
                           Delta=0.0, r=0.1, D_tilde=1.0, N=1000)
    beta_err = max(abs(sched.beta(int(kk)) - 2.0 * 2.5 / kk) for kk in k[:50])
    gamma_err = max(abs(sched.gamma(int(kk)) - 2.0 / (kk + 1.0)) for kk in k[:50])
    elapsed = time.perf_counter() - t0
    ok = (err_P <= 1e-12 and err_theta <= 1e-12 and err_Gamma <= 1e-12
          and beta_err <= 1e-12 and gamma_err <= 1e-12 and elapsed < 1.0)
    report(1, "schedule identities", ok,
           f"max errs {err_P:.1e}/{err_theta:.1e}/{err_Gamma:.1e}, {elapsed:.2f}s")


def test_criterion_02_estimator_moments():
    t0 = time.perf_counter()
    n, S = 8, 10 ** 6
    c = np.ones(n) / math.sqrt(n)          # linear f, M = ||c|| = 1
    x = np.zeros(n)
    norms = NormPair.euclidean()

    clean = NoisyZeroOrderOracle(lambda X: X @ c, M=1.0, s=10.0)
    est = SmoothingEstimator(clean, r=0.1, n=n, norms=norms,
                             rng=np.random.default_rng(11))
    acc = np.zeros(n)
    acc_sq = 0.0
    for _ in range(S):
        g = est.estimate_gradient(x)
        acc += g
        acc_sq += float(g @ g)
    mean = acc / S
    bias_clean = float(np.linalg.norm(mean - c))
    var_total = max(acc_sq / S - float(mean @ mean), 0.0)
    stderr_clean = math.sqrt(var_total / S)

    Delta, r = 1e-3, 0.1
    noisy = NoisyZeroOrderOracle(lambda X: X @ c, M=1.0, s=10.0,
                                 noise=NoiseModel("uniform", Delta, rng=np.random.default_rng(12)))
    est_n = SmoothingEstimator(noisy, r=r, n=n, norms=norms,
                               rng=np.random.default_rng(13))
    acc = np.zeros(n)
    acc_sq = 0.0
    for _ in range(S):
        g = est_n.estimate_gradient(x)
        acc += g
        acc_sq += float(g @ g)
    mean_n = acc / S
    second_moment = acc_sq / S
    bias_noisy = float(np.linalg.norm(mean_n - c))
    var_n = max(second_moment - float(mean_n @ mean_n), 0.0)
    stderr_noisy = math.sqrt(var_n / S)
    second_bound = 2.0 * (10.0 * n * 1.0 + n ** 2 * Delta ** 2 / r ** 2)

    elapsed = time.perf_counter() - t0
    ok = (bias_clean <= 3.0 * stderr_clean
          and bias_noisy <= n * Delta / r + 3.0 * stderr_noisy
          and second_moment <= second_bound
          and elapsed < 30.0)
    report(2, "estimator moments", ok,
           f"clean bias {bias_clean:.2e} vs {3 * stderr_clean:.2e}, noisy bias "
           f"{bias_noisy:.2e} vs {n * Delta / r + 3 * stderr_noisy:.2e}, "
           f"2nd moment {second_moment:.1f} vs {second_bound:.1f}, {elapsed:.1f}s")


def test_criterion_03_smoothing_approximation():
    t0 = time.perf_counter()
    n, S = 6, 3000
    rng = np.random.default_rng(21)
    oracle = NoisyZeroOrderOracle(lambda X: np.linalg.norm(X, axis=1), M=1.0, s=10.0)
    worst = -math.inf
    ok = True
    for r in (0.1, 0.01):
        for _ in range(20):
            x = rng.standard_normal(n)
            E = np.array([sample_sphere(n, rng) for _ in range(S)])
            vals = oracle.evaluate(x + r * E)
            f_hat = float(vals.mean())
            stderr = float(vals.std(ddof=1)) / math.sqrt(S)
            err = abs(f_hat - float(np.linalg.norm(x)))
            worst = max(worst, err - (r * 1.0 + 3.0 * stderr))
            ok = ok and err <= r * 1.0 + 3.0 * stderr
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(3, "smoothing approximation", ok,
           f"worst slack {worst:.2e} (<= 0 required), {elapsed:.1f}s")


def _synthetic_cfg(seed, N, **kw):
    cfg = RunConfig(experiment="synthetic", method="zosa", seed=seed, n=10,
                    N=N, checkpoints=1)
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


def test_criterion_04_convex_rate_bound():
    t0 = time.perf_counter()
    seeds = range(20)
    details = []
    ok = True
    bound_parts = None
    for N in (5, 10, 20):
        gaps = []
        for seed in seeds:
            trace = run(_synthetic_cfg(seed, N))
            gaps.append(trace.final().gap_vs_reference)
            if bound_parts is None:
                meta = trace.metadata
                L = float(meta["derived.L"])
                D_sq = float(meta["derived.D_tilde"]) / 0.75
                r = float(meta["derived.r"])
                M = float(meta["derived.M_est"])
                bound_parts = (L, D_sq, r, M)
        L, D_sq, r, M = bound_parts
        bound = 12.0 * L * D_sq / (N * (N + 1.0)) + 2.0 * r * M
        mean_gap = float(np.mean(gaps))
        ok = ok and mean_gap <= bound
        details.append(f"N={N}: {mean_gap:.3g}<={bound:.3g}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(4, "convex rate bound", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_05_noise_floor():
    t0 = time.perf_counter()
    n, eps = 10, 1e-3
    M = 0.1 * math.sqrt(n)
    D_X = 4.0 * math.sqrt(n)
    sugg = suggest_r_delta(eps, M, n, D_X, 1.0)
    Delta = 10.0 * sugg["delta_max"]
    seeds = range(20)
    N_large = 40

    def mean_gap(N, noisy):
        kw = dict(noise_kind="uniform", Delta=Delta) if noisy else {}
        gaps = [run(_synthetic_cfg(seed, N, **kw)).final().gap_vs_reference
                for seed in seeds]
        return np.asarray(gaps)

    clean = mean_gap(N_large, noisy=False)
    noisy = mean_gap(N_large, noisy=True)
    plateau_probe = float(mean_gap(25, noisy=True).mean())
    # paired runs share the sphere stream, so the difference isolates the noise
    diff = noisy - clean
    stderr = float(diff.std(ddof=1)) / math.sqrt(len(diff))
    full_bound = (2.0 * sugg["r"] * M + n * Delta * D_X / sugg["r"]
                  + 12.0 * 1.0 * D_X ** 2 / (N_large * (N_large + 1.0)))
    above_floor = float(diff.mean()) >= -3.0 * stderr
    below_bound = float(noisy.mean()) <= full_bound
    elapsed = time.perf_counter() - t0
    ok = above_floor and below_bound and elapsed < 120.0
    report(5, "noise floor", ok,
           f"noisy {noisy.mean():.3g} vs clean {clean.mean():.3g} "
           f"(diff {diff.mean():.2g} +- {stderr:.2g}), N=25 probe {plateau_probe:.3g}, "
           f"bound {full_bound:.3g}, {elapsed:.1f}s")


def test_criterion_06_strongly_convex_restarts():
    t0 = time.perf_counter()
    rho0, phases, N0 = 6.0, 6, 16
    seeds = range(20)
    per_phase = {i: [] for i in range(1, phases + 1)}
    fo_ok = True
    for seed in seeds:
        cfg = RunConfig(experiment="synthetic", method="mzosa", seed=seed, n=10,
                        mu=0.1, l1=0.01, rho0=rho0, phases=phases, checkpoints=1)
        trace = run(cfg)
        assert int(trace.metadata["derived.N0"]) == N0
        fo_ok = fo_ok and trace.final().fo_calls == N0 * phases
        for i in range(1, phases + 1):
            rows = [row for row in trace.rows if row.phase == i and row.step == i * N0]
            assert len(rows) == 1
            per_phase[i].append(rows[0].gap_vs_reference)
    ok = fo_ok
    details = []
    for i in range(1, phases + 1):
        mean_i = float(np.mean(per_phase[i]))
        gate = rho0 / 2.0 ** i
        ok = ok and mean_i <= gate
        details.append(f"i={i}: {mean_i:.3g}<={gate:.3g}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 180.0
    report(6, "strongly convex restarts", ok,
           f"fo={N0 * phases} exact; " + "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_07_oracle_accounting():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True
    details = []
    for trial in range(5):
        if trial < 3:
            cfg = RunConfig(experiment="synthetic", method="zosa",
                            seed=int(rng.integers(0, 1000)),
                            n=int(rng.integers(4, 13)), N=int(rng.integers(3, 13)),
                            checkpoints=3)
            if trial == 2:
                cfg.noise_kind, cfg.Delta = "uniform", 1e-5
        else:
            cfg = RunConfig(experiment="geom_median", method="zosa",
                            seed=int(rng.integers(0, 1000)), n=int(rng.integers(3, 6)),
                            m=int(rng.integers(4, 7)),
                            topology=("star", "cycle")[trial - 3],
                            N=int(rng.integers(3, 9)), checkpoints=3)
        trace = run(cfg)
        final = trace.final()
        N = int(trace.metadata["derived.N"])
        fo_exact = final.fo_calls == N
        zo_exact = final.zo_calls == scheduled_zo_cost(trace.metadata)
        comm_exact = (cfg.experiment != "geom_median") or final.comm_rounds == N
        ok = ok and fo_exact and zo_exact and comm_exact
        details.append(f"{cfg.experiment[:4]}:fo={final.fo_calls}/N={N}"
                       f",zo={final.zo_calls}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(7, "oracle accounting", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_08_laplacian_spectra():
    t0 = time.perf_counter()
    ok = all(abs(build_laplacian(Graph.complete(m)).chi - 1.0) <= 1e-12
             for m in range(3, 9))
    ok = ok and abs(build_laplacian(Graph.star(3)).chi - 3.0) <= 1e-12

    rng = np.random.default_rng(8)
    worst_block = 0.0
    worst_quad = 0.0
    factories = (Graph.star, Graph.complete, Graph.chain)
    for m in range(3, 7):
        for n in range(1, 7):
            lap = build_laplacian(factories[(m + n) % 3](m))
            oracles = [NoisyZeroOrderOracle(lambda X: np.zeros(len(X)), M=0.0, s=1.0)
                       for _ in range(m)]
            net = NetworkProblem(lap, n, oracles, R=1.0)
            x = rng.standard_normal(m * n)
            dense = np.kron(lap.W_bar, np.eye(n)) @ x
            worst_block = max(worst_block,
                              float(np.max(np.abs(net.apply_W_quiet(x) - dense))))
            lam, V = np.linalg.eigh(lap.W_bar)
            sqrtW = V @ np.diag(np.sqrt(np.maximum(lam, 0.0))) @ V.T
            ref = float(np.linalg.norm((sqrtW @ x.reshape(m, n)).ravel()) ** 2)
            quad = net.consensus_violation(x)
            worst_quad = max(worst_quad, abs(quad - ref))
    elapsed = time.perf_counter() - t0
    ok = ok and worst_block <= 1e-12 and worst_quad <= 1e-10 and elapsed < 10.0
    report(8, "laplacian spectra", ok,
           f"blockwise err {worst_block:.1e}, quad err {worst_quad:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# decentralized reproduction (criteria 9 and 12 share these runs)

_C9_TOPOLOGIES = ("star", "complete", "chain", "cycle")
_C9_SEEDS = tuple(range(1, 11))
_C9_CACHE = {}


def _geom_cfg(topology, method, seed, eta_scale=1.0):
    return RunConfig(experiment="geom_median", method=method, seed=seed, n=10, m=20,
                     R=100.0, topology=topology, max_comm_rounds=1500,
                     checkpoints=150, eta_scale=eta_scale)


def _comm_to_gap(cfg):
    try:
        return _score(run(cfg), "budget_to_gap", 1e-2, "comm_rounds")
    except SolverAbort:
        return math.inf    # diverged candidate is censored, not fatal


def _tuned_scores(topology, method):
    tune = {}
    for scale in (1.0, 0.1, 10.0):
        tune[scale] = _comm_to_gap(_geom_cfg(topology, method, _C9_SEEDS[0], scale))
    best = min(tune, key=lambda s: tune[s])
    scores = [tune[best]]
    scores += [_comm_to_gap(_geom_cfg(topology, method, seed, best))
               for seed in _C9_SEEDS[1:]]
    return scores, best


def _criterion9_data():
    if _C9_CACHE:
        return _C9_CACHE
    data = {}
    for topology in _C9_TOPOLOGIES:
        zosa_traces = [run(_geom_cfg(topology, "zosa", seed)) for seed in _C9_SEEDS]
        zosa_scores = [_score(trace, "budget_to_gap", 1e-2, "comm_rounds")
                       for trace in zosa_traces]
        zogd_scores, zogd_scale = _tuned_scores(topology, "zogd")
        gd_scores, gd_scale = _tuned_scores(topology, "gd")
        data[topology] = {
            "zosa_traces": zosa_traces,
            "zosa_median": float(np.median(zosa_scores)),
            "zogd_median": float(np.median(zogd_scores)),
            "gd_median": float(np.median(gd_scores)),
            "scales": (zogd_scale, gd_scale),
        }
    _C9_CACHE.update(data)
    return _C9_CACHE


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_09_geometric_median_reproduction():
    t0 = time.perf_counter()
    data = _criterion9_data()
    ok = True
    details = []
    for topology in _C9_TOPOLOGIES:
        d = data[topology]
        ok = ok and math.isfinite(d["zosa_median"])
        ok = ok and d["zosa_median"] <= d["zogd_median"]
        details.append(f"{topology}: zosa {d['zosa_median']:.0f} <= zogd "
                       f"{d['zogd_median']:.0f} (gd {d['gd_median']:.0f} reported)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(9, "geometric median comm rounds", ok,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_10_nesterov_equal_budget():
    t0 = time.perf_counter()
    seeds = range(1, 11)

    def final_gap(method, seed, scale=1.0):
        cfg = RunConfig(experiment="nesterov", method=method, seed=seed,
                        max_zo_calls=10 ** 5, checkpoints=20, eta_scale=scale)
        return run(cfg).final().gap_vs_reference

    zosa_gaps = [final_gap("zosa", seed) for seed in seeds]
    tune = {scale: final_gap("zogd", 1, scale) for scale in (1.0, 0.1, 10.0)}
    best = min(tune, key=lambda s: tune[s])
    zogd_gaps = [tune[best]] + [final_gap("zogd", seed, best) for seed in list(seeds)[1:]]
    med_zosa = float(np.median(zosa_gaps))
    med_zogd = float(np.median(zogd_gaps))
    elapsed = time.perf_counter() - t0
    ok = med_zosa < med_zogd and elapsed < 120.0
    report(10, "equal zero-order budget", ok,
           f"zosa median gap {med_zosa:.3g} < zogd {med_zogd:.3g} "
           f"(scale {best}), {elapsed:.1f}s")


def test_criterion_11_logreg_dataset():
    t0 = time.perf_counter()
    path = dataset_path("german.numer")
    if not os.path.exists(path):
        report_skip(11, "logreg on german.numer", f"dataset not found at {path}")
    inst = read_libsvm(path, l1=1e-4)
    dims_ok = inst.m == 1000 and inst.n == 24
    cfg = RunConfig(experiment="logreg", method="zosa", seed=1,
                    max_zo_calls=10 ** 6, checkpoints=200)
    trace = run(cfg)
    gap0 = trace.rows[0].gap_vs_reference
    best_rel = min(row.gap_vs_reference / gap0 for row in trace.rows)
    elapsed = time.perf_counter() - t0
    ok = dims_ok and best_rel <= 0.01 and elapsed < 300.0
    report(11, "logreg on german.numer", ok,
           f"m={inst.m} n={inst.n}, best relative gap {best_rel:.3g}, {elapsed:.1f}s")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_12_consensus_guarantee():
    t0 = time.perf_counter()
    data = _criterion9_data()
    ok = True
    details = []
    for topology in _C9_TOPOLOGIES:
        traces = data[topology]["zosa_traces"]
        meta = traces[0].metadata
        R = float(meta["derived.R"])
        R_y = float(meta["derived.R_y"])
        mean_gap = float(np.mean([trace.final().gap_vs_reference for trace in traces]))
        mean_zeta_sq = float(np.mean([trace.final().consensus_sq_norm
                                      for trace in traces]))
        eps = max(mean_gap, R_y ** 2 / R)
        lhs = math.sqrt(mean_zeta_sq)
        rhs = 2.0 * eps / R_y
        ok = ok and lhs <= rhs
        details.append(f"{topology}: {lhs:.2e}<={rhs:.2e}")
    elapsed = time.perf_counter() - t0
    report(12, "consensus guarantee", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_13_determinism():
    t0 = time.perf_counter()
    cfg_a = _synthetic_cfg(5, 12, noise_kind="uniform", Delta=1e-4)
    body_a1 = run(cfg_a).body_text()
    body_a2 = run(cfg_a).body_text()
    cfg_b = RunConfig(experiment="geom_median", method="zogd", seed=2, n=3, m=5,
                      topology="star", N=8, checkpoints=4)
    body_b1 = run(cfg_b).body_text()
    body_b2 = run(cfg_b).body_text()
    elapsed = time.perf_counter() - t0
    ok = body_a1 == body_a2 and body_b1 == body_b2 and elapsed < 60.0
    report(13, "replay determinism", ok,
           f"synthetic and lifted bodies byte-identical, {elapsed:.1f}s")
