import numpy as np
import pytest

from sliding_opt.geometry import FeasibleSet, NormPair, make_setup
from sliding_opt.network import (Graph, GraphError, NetworkProblem,
                                 build_laplacian, dual_bound_radius, lift_to_penalized,
                                 penalty_coefficient, read_edge_list)
from sliding_opt.oracles import NoisyZeroOrderOracle
from sliding_opt.sliding import _record
from sliding_opt.trace import RunTrace


def zero_oracles(m):
    return [NoisyZeroOrderOracle(lambda X: np.zeros(len(X)), M=1.0, s=1.0) for _ in range(m)]


def two_node_net(n=1, R=1.0):
    lap = build_laplacian(Graph.chain(2))
    oracles = zero_oracles(2)
    return NetworkProblem(lap, n, oracles, R)


# -- graphs and spectra ------------------------------------------------------

def test_two_node_chain_apply():
    net = two_node_net()
    out = net.apply_W_quiet(np.array([1.0, 0.0]))
    assert out == pytest.approx([1.0, -1.0])
    assert net.counters.comm_rounds == 0


def test_star_three_spectrum():
    lap = build_laplacian(Graph.star(3))
    assert np.allclose(np.sort(lap.eigenvalues), [0.0, 1.0, 3.0], atol=1e-12)
    assert lap.lambda_max == pytest.approx(3.0)
    assert lap.lambda_min_plus == pytest.approx(1.0)
    assert lap.chi == pytest.approx(3.0)


def test_chain_three_spectrum():
    lap = build_laplacian(Graph.chain(3))
    assert np.allclose(np.sort(lap.eigenvalues), [0.0, 1.0, 3.0], atol=1e-12)


def test_complete_graph_is_perfectly_conditioned():
    for m in range(3, 9):
        lap = build_laplacian(Graph.complete(m))
        assert lap.chi == pytest.approx(1.0, abs=1e-10)
        assert lap.lambda_max == pytest.approx(float(m), abs=1e-10)


def test_cycle_spectrum_known_values():
    lap = build_laplacian(Graph.cycle(4))
    assert np.allclose(np.sort(lap.eigenvalues), [0.0, 2.0, 2.0, 4.0], atol=1e-12)
    with pytest.raises(GraphError):
        Graph.cycle(2)


def test_graph_validation_errors():
    with pytest.raises(GraphError, match="out of range"):
        Graph(3, [(0, 5)])
    with pytest.raises(GraphError, match="self-loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(GraphError, match="m: must be >= 2"):
        Graph(1, [])


def test_disconnected_graph_reports_components():
    with pytest.raises(GraphError) as err:
        Graph(4, [(0, 1), (2, 3)])
    msg = str(err.value)
    assert "[0, 1]" in msg and "[2, 3]" in msg


@pytest.mark.parametrize("m, edges, message", [
    (4, ((0, 1),), "graph is disconnected; components: [[0, 1], [2], [3]]"),
    (3, ((0, 5),), "edge (0,5): node out of range for m=3"),
    (3, ((0, 0), (0, 1), (1, 2)), "edge (0,0): self-loop"),
])
def test_graph_constructor_rejects_an_invalid_graph(m, edges, message):
    with pytest.raises(GraphError) as err:
        Graph(m, edges)
    assert str(err.value) == message


def test_graph_constructor_stores_sorted_edges():
    graph = Graph(3, [(2, 1), (1, 0)], "path")
    assert (graph.m, graph.edges, graph.topology_tag) == (3, ((0, 1), (1, 2)), "path")
    assert graph == Graph(3, ((0, 1), (2, 1)), "path")


def test_blockwise_apply_matches_kronecker():
    rng = np.random.default_rng(6)
    for m, n in [(2, 1), (3, 2), (4, 3), (6, 6)]:
        graph = Graph.cycle(m) if m >= 3 else Graph.chain(m)
        lap = build_laplacian(graph)
        oracles = zero_oracles(m)
        net = NetworkProblem(lap, n, oracles, R=2.0)
        x = rng.standard_normal(m * n)
        dense = np.kron(lap.W_bar, np.eye(n)) @ x
        assert np.abs(net.apply_W_quiet(x) - dense).max() <= 1e-12


def test_consensus_violation_matches_sqrt_laplacian_norm():
    rng = np.random.default_rng(11)
    lap = build_laplacian(Graph.star(5))
    n = 3
    oracles = zero_oracles(5)
    net = NetworkProblem(lap, n, oracles, R=1.0)
    eigval, eigvec = np.linalg.eigh(lap.W_bar)
    sqrt_W = eigvec @ np.diag(np.sqrt(np.maximum(eigval, 0.0))) @ eigvec.T
    for _ in range(5):
        x = rng.standard_normal(5 * n)
        direct = net.consensus_violation(x)
        via_sqrt = float(np.sum((sqrt_W @ x.reshape(5, n)) ** 2))
        assert direct == pytest.approx(via_sqrt, abs=1e-10)
    consensus = np.tile(rng.standard_normal(n), 5)
    assert net.consensus_violation(consensus) <= 1e-18
    assert net.counters.comm_rounds == 0  # diagnostics never count


# -- penalty parameters ------------------------------------------------------

def test_penalty_coefficient_examples():
    lap = build_laplacian(Graph.star(3))
    assert penalty_coefficient(2.0, 3, lap, 0.1) == pytest.approx(40.0 / 3.0)
    # degenerate single-node convention: lambda_min_plus = 1
    assert penalty_coefficient(2.0, 1, None, 0.1) == pytest.approx(40.0)
    with pytest.raises(ValueError):
        penalty_coefficient(2.0, 3, lap, 0.0)
    with pytest.raises(ValueError):
        penalty_coefficient(2.0, 0, lap, 0.1)


def test_dual_bound_radius_example():
    lap = build_laplacian(Graph.star(3))
    assert dual_bound_radius(2.0, 3, lap) == pytest.approx(2.0 / np.sqrt(3.0))


def test_network_problem_validation():
    lap = build_laplacian(Graph.chain(2))
    oracles = zero_oracles(1)
    with pytest.raises(ValueError, match="node_oracles"):
        NetworkProblem(lap, 1, oracles, R=1.0)
    with pytest.raises(ValueError, match="R"):
        NetworkProblem(lap, 1, oracles * 2, R=0.0)
    net = two_node_net(n=2)
    with pytest.raises(ValueError, match="stacked dimension"):
        net.apply_W_quiet(np.zeros(3))


def test_penalty_lipschitz_constant():
    lap = build_laplacian(Graph.star(4))
    oracles = zero_oracles(4)
    net = NetworkProblem(lap, 2, oracles, R=5.0)
    assert net.L_penalty == pytest.approx(2.0 * 5.0 * lap.lambda_max)


# -- edge-list files ---------------------------------------------------------

def test_edge_list_round_trip(tmp_path):
    path = tmp_path / "ring.edges"
    path.write_text("# a 4-cycle\n0 1\n1 2\n\n2 3\n3 0\n")
    graph = read_edge_list(path)
    assert graph.m == 4
    assert graph.edges == Graph.cycle(4).edges


def test_edge_list_m_override_checks_connectivity(tmp_path):
    path = tmp_path / "ring.edges"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    with pytest.raises(GraphError, match="disconnected"):
        read_edge_list(path, m=5)


def test_edge_list_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n1 2 3\n")
    with pytest.raises(GraphError, match=r"bad\.edges:2"):
        read_edge_list(bad)
    nonint = tmp_path / "nonint.edges"
    nonint.write_text("0 x\n")
    with pytest.raises(GraphError, match=r"nonint\.edges:1"):
        read_edge_list(nonint)
    empty = tmp_path / "empty.edges"
    empty.write_text("# nothing\n")
    with pytest.raises(GraphError, match="no edges"):
        read_edge_list(empty)


# -- lifted composite problem ------------------------------------------------

def lifted_fixture(m=3, n=2, R=4.0, box_half=1.0, seed=0):
    lap = build_laplacian(Graph.star(m))
    rng = np.random.default_rng(seed)
    coefs = [rng.standard_normal(n) for _ in range(m)]
    oracles = [NoisyZeroOrderOracle(lambda X, c=c: X @ c, M=float(np.linalg.norm(c)), s=1.0)
               for c in coefs]
    net = NetworkProblem(lap, n, oracles, R)
    per_node = make_setup(NormPair.euclidean(),
                          FeasibleSet.box(-box_half * np.ones(n), box_half * np.ones(n)),
                          "half_sq_euclid")
    subgrads = [lambda x, c=c: c for c in coefs]
    problem = lift_to_penalized(net, per_node, r=1e-3,
                                sphere_rng=np.random.default_rng(seed + 1),
                                node_subgrads=subgrads)
    return net, coefs, problem


def test_lift_counts_one_round_per_gradient():
    net, _, problem = lifted_fixture()
    x = np.zeros(6)
    g1 = problem.grad_g(x)
    assert problem.counters.fo_calls == 1 and problem.counters.comm_rounds == 1
    assert g1 == pytest.approx(2.0 * net.R * net.apply_W_quiet(x))
    problem.g(x)  # uncounted value path
    assert problem.counters.comm_rounds == 1
    problem.g_counted(x)
    assert problem.counters.comm_rounds == 2


def test_lift_zero_order_call_averages_nodes_and_counts_every_oracle():
    net, coefs, problem = lifted_fixture()
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, size=6)
    val, = problem.f_oracle.evaluate(x)
    blocks = x.reshape(3, 2)
    assert val == pytest.approx(np.mean([c @ b for c, b in zip(coefs, blocks)]))
    # one call queries every node once: the network's count is the count per
    # node, and the lift leaves the node oracles' own counters alone
    assert problem.counters is net.counters and problem.counters.zo_calls == 1
    assert all(o.counters.zo_calls == 0 for o in net.node_oracles)
    assert problem.f_oracle.clean_values(x) == pytest.approx([val])  # zero noise


def test_lift_estimate_costs_two_stacked_calls():
    net, _, problem = lifted_fixture()
    problem.estimator.estimate_gradient(np.zeros(6))
    assert problem.counters is net.counters and problem.counters.zo_calls == 2
    assert all(o.counters.zo_calls == 0 for o in net.node_oracles)
    assert problem.counters.comm_rounds == 0  # penalty untouched by the f estimator


def test_lifted_checkpoint_row_takes_one_consensus_product(monkeypatch):
    net, _, problem = lifted_fixture()
    x = np.random.default_rng(5).uniform(-1.0, 1.0, size=6)
    want = [problem.psi0(x), net.consensus_violation(x)]
    products = []
    apply_W_quiet = NetworkProblem.apply_W_quiet
    monkeypatch.setattr(NetworkProblem, "apply_W_quiet",
                        lambda self, v: products.append(v) or apply_W_quiet(self, v))
    trace = RunTrace()
    _record(trace, problem, x, 0, 0, 0, 0.0, None)
    row = trace.final()
    assert np.array([row.psi0, row.consensus_sq_norm]).tobytes() == np.array(want).tobytes()
    assert len(products) == 1 and problem.counters.comm_rounds == 0


def test_lift_scales_diameter_and_lipschitz_bound():
    net, coefs, problem = lifted_fixture(m=3, n=2, box_half=1.0)
    per_node_DX = float(np.linalg.norm(2.0 * np.ones(2)))
    assert problem.setup.D_X == pytest.approx(per_node_DX * np.sqrt(3.0))
    assert problem.f_oracle.M == pytest.approx(max(np.linalg.norm(c) for c in coefs)
                                               / np.sqrt(3.0))
    assert problem.L == pytest.approx(net.L_penalty)


def test_lift_subgradient_stacks_blocks_over_m():
    net, coefs, problem = lifted_fixture()
    x = np.ones(6)
    sg = problem.f_subgrad(x)
    expected = np.concatenate(coefs) / 3.0
    assert sg == pytest.approx(expected)


def test_lift_whole_space_scales_bound_hint():
    lap = build_laplacian(Graph.chain(2))
    oracles = zero_oracles(2)
    net = NetworkProblem(lap, 2, oracles, R=1.0)
    per_node = make_setup(NormPair.euclidean(), FeasibleSet.whole_space(2, bound_hint=3.0),
                          "half_sq_euclid")
    problem = lift_to_penalized(net, per_node, r=1e-3,
                                sphere_rng=np.random.default_rng(0))
    assert problem.setup.feasible.bound_hint == pytest.approx(3.0 * np.sqrt(2.0))
    assert problem.setup.D_X == pytest.approx(3.0 * np.sqrt(2.0))


def test_lift_rejects_unsupported_per_node_sets():
    lap = build_laplacian(Graph.chain(2))
    oracles = zero_oracles(2)
    net = NetworkProblem(lap, 2, oracles, R=1.0)
    simplex_setup = make_setup(NormPair.l1(2), FeasibleSet.simplex(2), "entropy")
    with pytest.raises(ValueError):
        lift_to_penalized(net, simplex_setup, r=1e-3,
                          sphere_rng=np.random.default_rng(0))
    ball_setup = make_setup(NormPair.euclidean(), FeasibleSet.ball2(np.zeros(2), 1.0),
                            "half_sq_euclid")
    with pytest.raises(ValueError, match="unsupported"):
        lift_to_penalized(net, ball_setup, r=1e-3,
                          sphere_rng=np.random.default_rng(0))
