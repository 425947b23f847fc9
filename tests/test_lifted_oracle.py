"""The lifted oracle's stacked evaluation, and the lifted problem's block
subgradient, against the serial per-node loops they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliding_opt.geometry import FeasibleSet, NormPair, make_setup
from sliding_opt.harness import _BUILDERS, RunConfig
from sliding_opt.network import (Graph, NetworkProblem, _LiftedOracle, build_laplacian,
                                 lift_to_penalized)
from sliding_opt.oracles import _NOISE_BLOCK, NOISE_KINDS, NoiseModel, NoisyZeroOrderOracle
from sliding_opt.problems import GeometricMedianInstance

# how the node values are computed: the instance's node_values on the whole
# stack (the harness path), each geometric-median node oracle on its column,
# or each node oracle of a generic per-node function on its column
TERMS = ("geom_block", "geom_nodes", "generic")


def build_net(m, n, seed, noise_kind, terms):
    """A star network on m nodes with node i's noise seeded by [seed, i]; returns
    the instance, the network, its lifted oracle and the serial per-point
    node functions."""
    rng = np.random.default_rng(seed)
    inst = GeometricMedianInstance.sample(m, n, rng)
    noise = [NoiseModel(noise_kind, 0.01 * (i + 1), (i + 1.0) * np.arange(1, n + 1),
                        np.random.default_rng([seed, i])) for i in range(m)]
    if terms == "generic":
        coefs = rng.standard_normal((m, n))
        oracles = [NoisyZeroOrderOracle(lambda X, c=c: np.add.reduce(np.abs(X - c), axis=-1),
                                        M=1.0, s=0.1, noise=nm)
                   for c, nm in zip(coefs, noise)]
        point_fns = [lambda x, c=c: float(np.add.reduce(np.abs(x - c))) for c in coefs]
    else:
        oracles = inst.make_node_oracles(s=0.1, noise_models=noise)
        point_fns = [lambda x, b=b: float(np.linalg.norm(x - b)) for b in inst.anchors]
    net = NetworkProblem(build_laplacian(Graph.star(m)), n, oracles, R=1.0)
    lifted = _LiftedOracle(net, inst.node_values if terms == "geom_block" else None)
    return inst, net, lifted, point_fns


def serial_noise(nm, x) -> float:
    """One point's noise as a per-point oracle drew it."""
    if nm.kind == "zero":
        return 0.0
    if nm.kind == "uniform":
        return -nm.Delta + 2.0 * nm.Delta * nm.rng.random()
    return nm.Delta * float(np.sin(float(nm.omega @ x) / max(nm.Delta, 1e-30)))


def loop_value(point_fns, models, m, x, clean=False):
    """What the lifted oracle computed for one point before it answered stacks."""
    total = 0.0
    for f, nm, block in zip(point_fns, models, np.asarray(x).reshape(m, -1)):
        total += f(block) if clean else f(block) + serial_noise(nm, block)
    return total / m


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=120, deadline=None)
@given(m=st.integers(2, 30), n=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1),
       noise_kind=st.sampled_from(NOISE_KINDS), terms=st.sampled_from(TERMS),
       k=st.integers(1, 4), queries=st.integers(1, 4),
       spread=st.sampled_from((0.0, 1e-8, 1.0, 1e3)))
def test_block_evaluate_equals_the_per_node_loop(m, n, seed, noise_kind, terms, k, queries,
                                                 spread):
    inst, net, lifted, point_fns = build_net(m, n, seed, noise_kind, terms)
    ref = [o.noise for o in build_net(m, n, seed, noise_kind, terms)[1].node_oracles]
    rng = np.random.default_rng(seed + 1)
    for q in range(1, queries + 1):
        # spread 0 puts every block on its anchor, where the norm is zero
        X = inst.anchors.ravel() + spread * rng.standard_normal((k, m * n))
        got, clean = lifted.evaluate(X), lifted.clean_values(X)
        assert got.shape == clean.shape == (k,)
        for j, x in enumerate(X):
            assert same_bits(got[j], loop_value(point_fns, ref, m, x))
            assert same_bits(clean[j], loop_value(point_fns, ref, m, x, clean=True))
        # a stacked call of k points counts k into the network only: k calls
        # per node, and the node oracles' own counters stay untouched
        assert net.counters.zo_calls == q * k
        assert all(o.counters.zo_calls == 0 for o in net.node_oracles)
    # a single point is a stack of one
    x = inst.anchors.ravel() + spread * rng.standard_normal(m * n)
    assert same_bits(lifted.evaluate(x)[0], loop_value(point_fns, ref, m, x))
    assert net.counters.zo_calls == queries * k + 1


@settings(max_examples=15, deadline=None)
@given(m=st.integers(2, 5), n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       terms=st.sampled_from(TERMS), ks=st.lists(st.integers(1, 5), min_size=1, max_size=10))
def test_noisy_block_evaluate_equals_the_per_node_loop_across_a_refill(m, n, seed, terms, ks):
    inst, net, lifted, point_fns = build_net(m, n, seed, "uniform", terms)
    ref = [o.noise for o in build_net(m, n, seed, "uniform", terms)[1].node_oracles]
    rng = np.random.default_rng(seed + 1)
    drawn = 0
    # each node's model draws one value per row: cross its first block boundary
    while drawn <= _NOISE_BLOCK:
        k = ks[drawn % len(ks)]
        X = inst.anchors.ravel() + rng.standard_normal((k, m * n))
        got = lifted.evaluate(X)
        assert all(same_bits(got[j], loop_value(point_fns, ref, m, x)) for j, x in enumerate(X))
        drawn += k


@pytest.mark.parametrize("noise_kind", NOISE_KINDS)
def test_geometric_median_nodes_take_the_block_path(noise_kind):
    cfg = RunConfig(experiment="geom_median", m=5, n=3, noise_kind=noise_kind,
                    Delta=0.0 if noise_kind == "zero" else 1e-3, reference="none")
    values = _BUILDERS["geom_median"](cfg).problem.f_oracle._values
    assert values.__func__ is GeometricMedianInstance.node_values


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 64), n=st.integers(1, 200), k=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_node_values_equal_node_value_bit_for_bit(m, n, k, seed):
    rng = np.random.default_rng(seed)
    inst = GeometricMedianInstance.sample(m, n, rng)
    X = rng.standard_normal((k, m, n)) * 10.0 ** rng.integers(-8, 8)
    values = inst.node_values(X)
    assert values.shape == (k, m)
    assert all(same_bits(values[j, i], np.linalg.norm(X[j, i] - inst.anchors[i]))
               for j in range(k) for i in range(m))
    assert inst.node_values(X[0]).tobytes() == values[0].tobytes()


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
    inst, net, _, _ = build_net(m, n, 3, "zero", "geom_nodes")
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
