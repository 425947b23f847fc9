"""Fixed-input microsecond numbers for paths and sizes no workload isolates.

Each number times one public call on inputs built from fixed seeds, in
batches, and reports the median batch's microseconds per call. The same
functions stand in for a layer that the traced workload never reaches, so
every per-layer metric is a measured time on every workload.
"""

from __future__ import annotations

import time

import numpy as np

from sliding_opt import (BaselineConfig, FeasibleSet, GeometricMedianInstance, Graph,
                         NetworkProblem, NormPair, build_laplacian, gd_run,
                         lift_to_penalized, make_setup, prox_step, sample_sphere, zogd_run)

_BATCHES = 5
_BATCH_S = 0.02


def _us_per_call(call) -> float:
    call()
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            call()
        if time.perf_counter() - t0 >= _BATCH_S / 4 or loops >= 1 << 20:
            break
        loops *= 4
    times = []
    for _ in range(_BATCHES):
        t0 = time.perf_counter()
        for _ in range(loops):
            call()
        times.append((time.perf_counter() - t0) / loops)
    return 1e6 * sorted(times)[_BATCHES // 2]


def _sphere(n):
    rng = np.random.default_rng(0)
    return lambda: sample_sphere(n, rng)


def _prox(setup, n):
    a = np.random.default_rng(0).standard_normal(n)
    anchor = np.full(n, 1.0 / n)    # inside every set used here, simplex included
    return lambda: prox_step(setup, a, anchor, anchor, 2.0, 3.0)


def _euclid(feasible):
    return make_setup(NormPair.euclidean(), feasible, "half_sq_euclid")


class _Geom:
    """The m=20, n=10 star-graph lifted problem the network numbers use."""

    def __init__(self):
        m, n = 20, 10
        inst = GeometricMedianInstance.sample(m, n, np.random.default_rng(0))
        net = NetworkProblem(build_laplacian(Graph.star(m)), n,
                             inst.make_node_oracles(s=0.1), R=100.0)
        per_node = _euclid(FeasibleSet.whole_space(n, 8.0 * np.sqrt(n)))
        subgrads = [(lambda x, _i=i: inst.node_subgrad(_i, x)) for i in range(m)]
        self.inst, self.net = inst, net
        self.problem = lift_to_penalized(net, per_node, r=1e-3,
                                         sphere_rng=np.random.default_rng(0),
                                         node_subgrads=subgrads)
        self.x = inst.anchors.ravel() + 0.1

    def baseline(self, method, steps=200):
        cfg = BaselineConfig(N_steps=steps, eta0=1e-3, r=1e-3 if method == "zogd" else 0.0)
        if method == "gd":
            call = lambda: gd_run(self.problem, cfg, self.x, checkpoints=1)
        else:
            call = lambda: zogd_run(self.problem, cfg, self.x, checkpoints=1,
                                    rng=np.random.default_rng(0))
        return _us_per_call(call) / steps


def measure(names) -> dict:
    """Microseconds per call for each requested metric name."""
    geom = _Geom()
    lifted = lambda: _us_per_call(lambda: geom.problem.f_oracle.evaluate(geom.x))
    table = {
        "oracles.sample_sphere_us.n10": lambda: _us_per_call(_sphere(10)),
        "oracles.sample_sphere_us.n50": lambda: _us_per_call(_sphere(50)),
        "oracles.sample_sphere_us.n200": lambda: _us_per_call(_sphere(200)),
        "geometry.prox_step_us.whole_space": lambda: _us_per_call(
            _prox(_euclid(FeasibleSet.whole_space(50, 10.0)), 50)),
        "geometry.prox_step_us.box": lambda: _us_per_call(
            _prox(_euclid(FeasibleSet.box(-2.0 * np.ones(10), 2.0 * np.ones(10))), 10)),
        "geometry.prox_step_us.ball2": lambda: _us_per_call(
            _prox(_euclid(FeasibleSet.ball2(np.zeros(50), 1.0)), 50)),
        "geometry.prox_step_us.simplex": lambda: _us_per_call(
            _prox(make_setup(NormPair.l1(50), FeasibleSet.simplex(50), "entropy"), 50)),
        "network.lifted_evaluate_us": lifted,
        "network.lifted_evaluate_us.m20n10": lifted,
        "network.apply_W_us": lambda: _us_per_call(lambda: geom.net.apply_W(geom.x)),
        "problems.node_subgrad_us": lambda: _us_per_call(
            lambda: geom.inst.node_subgrad(3, geom.x[:10])),
        "baselines.step_us.gd": lambda: geom.baseline("gd"),
        "baselines.step_us.zogd": lambda: geom.baseline("zogd"),
    }
    return {name: table[name]() for name in names}


# Metrics that are fixed-input numbers on every workload.
ALWAYS = ("oracles.sample_sphere_us.n10", "oracles.sample_sphere_us.n50",
          "oracles.sample_sphere_us.n200", "geometry.prox_step_us.ball2",
          "geometry.prox_step_us.simplex", "network.lifted_evaluate_us.m20n10")
# Layer metrics that fall back to their fixed-input number when not reached.
STAND_INS = ("geometry.prox_step_us.whole_space", "geometry.prox_step_us.box",
             "network.lifted_evaluate_us", "network.apply_W_us", "problems.node_subgrad_us",
             "baselines.step_us.gd", "baselines.step_us.zogd")
