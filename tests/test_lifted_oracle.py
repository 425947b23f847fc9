"""The lifted oracle's block evaluation, and the lifted problem's block
subgradient, against the per-node loops they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliding_opt.geometry import FeasibleSet, NormPair, make_setup
from sliding_opt.network import (Graph, NetworkProblem, _LiftedOracle, build_laplacian,
                                 lift_to_penalized)
from sliding_opt.oracles import NoiseModel, NoisyZeroOrderOracle
from sliding_opt.problems import GeometricMedianInstance

NOISE_KINDS = ("zero", "uniform", "adversarial_sine")


def build_net(m, n, seed, noise_kind, terms):
    """A star network on m nodes; 'geom' nodes are a geometric-median
    instance's oracles, 'generic' ones linear functions given as lambdas."""
    rng = np.random.default_rng(seed)
    inst = GeometricMedianInstance.sample(m, n, rng)
    noise = [NoiseModel.build(noise_kind, 0.01 * (i + 1), (i + 1.0) * np.arange(1, n + 1),
                              np.random.default_rng([seed, i])) for i in range(m)]
    if terms == "geom":
        oracles = inst.make_node_oracles(s=0.1, noise_models=noise)
    else:
        coefs = rng.standard_normal((m, n))
        oracles = [NoisyZeroOrderOracle(lambda x, c=c: float(c @ x), M=1.0, s=0.1, noise=nm)
                   for c, nm in zip(coefs, noise)]
    return inst, NetworkProblem(build_laplacian(Graph.star(m)), n, oracles, R=1.0)


def loop_value(net, x, clean=False):
    """What the lifted oracle computed before its block evaluation."""
    total = 0.0
    for oracle, block in zip(net.node_oracles, np.asarray(x).reshape(net.m, net.n)):
        total += oracle.clean_value(block) if clean else oracle.evaluate(block)
    return total / net.m


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=120, deadline=None)
@given(m=st.integers(2, 30), n=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1),
       noise_kind=st.sampled_from(NOISE_KINDS), terms=st.sampled_from(("geom", "generic")),
       queries=st.integers(1, 4), spread=st.sampled_from((0.0, 1e-8, 1.0, 1e3)))
def test_block_evaluate_equals_the_per_node_loop(m, n, seed, noise_kind, terms, queries,
                                                 spread):
    inst, net = build_net(m, n, seed, noise_kind, terms)
    _, ref = build_net(m, n, seed, noise_kind, terms)
    lifted = _LiftedOracle(net)
    rng = np.random.default_rng(seed + 1)
    for _ in range(queries):
        # spread 0 puts every block on its anchor, where the norm is zero
        x = inst.anchors.ravel() + spread * rng.standard_normal(m * n)
        assert same_bits(lifted.evaluate(x), loop_value(ref, x))
        assert same_bits(lifted.clean_value(x), loop_value(ref, x, clean=True))
    assert net.counters.zo_calls == queries
    # each node keeps its own count, as it did under the per-node loop
    assert all(o.counters.zo_calls == queries for o in net.node_oracles + ref.node_oracles)


@pytest.mark.parametrize("noise_kind", NOISE_KINDS)
def test_geometric_median_nodes_take_the_block_path(noise_kind):
    inst, net = build_net(5, 3, 0, noise_kind, "geom")
    lifted = _LiftedOracle(net)
    assert lifted._values == inst.node_values


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 64), n=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_node_values_equal_node_value_bit_for_bit(m, n, seed):
    rng = np.random.default_rng(seed)
    inst = GeometricMedianInstance.sample(m, n, rng)
    X = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 8)
    values = inst.node_values(X)
    assert all(same_bits(v, inst.node_value(i, X[i])) for i, v in enumerate(values))


# distance scales of a row from its anchor: 0 puts the row on its anchor, and
# 1e-200 / 1e200 make the squared norm underflow to 0 / overflow to inf
_SCALES = (0.0, 1e-200, 1e-160, 1e-8, 1.0, 1e8, 1e160, 1e200)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       scales=st.lists(st.sampled_from(_SCALES), min_size=1, max_size=8))
def test_node_subgrads_equal_node_subgrad_bit_for_bit(m, n, seed, scales):
    rng = np.random.default_rng(seed)
    scale = np.array([scales[i % len(scales)] for i in range(m)])[:, None]
    anchors = scale * rng.standard_normal((m, n))
    inst = GeometricMedianInstance(m, n, anchors)
    X = np.where(scale == 0.0, anchors, scale * rng.standard_normal((m, n)))
    with np.errstate(over="ignore", under="ignore"):
        rows = inst.node_subgrads(X)
        loop = np.stack([inst.node_subgrad(i, X[i]) for i in range(m)])
    assert rows.shape == (m, n)
    assert rows.tobytes() == loop.tobytes()


def test_lifted_subgradient_block_path_equals_list_path():
    m, n = 7, 4
    inst, net = build_net(m, n, 3, "zero", "geom")
    per_node = make_setup(NormPair.euclidean(), FeasibleSet.whole_space(n, 10.0),
                          "half_sq_euclid")

    def lift(subgrads):
        return lift_to_penalized(net, per_node, r=1e-3, sphere_rng=np.random.default_rng(0),
                                 node_subgrads=subgrads).f_subgrad

    block = lift(inst.node_subgrads)
    listed = lift([(lambda x, i=i: inst.node_subgrad(i, x)) for i in range(m)])
    rng = np.random.default_rng(4)
    # the start point of a gd run (every block on its anchor), one block on
    # its anchor, and points off every anchor
    on_one = inst.anchors.copy()
    on_one[1:] += rng.standard_normal((m - 1, n))
    for X in (inst.anchors, on_one, inst.anchors + 1e-6 * rng.standard_normal((m, n)),
              1e3 * rng.standard_normal((m, n))):
        x = X.ravel()
        assert block(x).tobytes() == listed(x).tobytes()
