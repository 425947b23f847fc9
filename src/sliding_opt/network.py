"""Communication graphs, Laplacians, and the penalty lift to a single composite problem.

The mixing matrix is the graph Laplacian applied blockwise to stacked
per-node vectors; the Kronecker form is never materialized. Every counted
application is one communication round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import FeasibleSet, NormPair, make_setup
from .oracles import Counters, SmoothingEstimator
from .sliding import CompositeProblem

# Relative threshold separating the zero eigenvalue from the connectivity eigenvalue.
_EIG_REL_TOL = 1e-9
# left-to-right float sums from 0 (-0.0 sums to 0.0); Python >= 3.12's sum() compensates
_ordered_sum = sum if sum([1.0, 1e100, 1.0, -1e100]) == 0.0 else (
    lambda row: float(np.add.accumulate([0.0, *row])[-1]))


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """A connected undirected graph on nodes 0..m-1 without self-loops or
    duplicate edges; edges are stored as sorted (min, max) pairs."""

    m: int
    edges: tuple
    topology_tag: str = "custom"

    def __post_init__(self):
        m = self.m
        if m < 2:
            raise GraphError("m: must be >= 2")
        seen = set()
        for (i, j) in self.edges:
            if not (0 <= i < m and 0 <= j < m):
                raise GraphError(f"edge ({i},{j}): node out of range for m={m}")
            if i == j:
                raise GraphError(f"edge ({i},{j}): self-loop")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphError(f"edge ({i},{j}): duplicate")
            seen.add(key)
        adj = [[] for _ in range(m)]
        for (i, j) in seen:
            adj[i].append(j)
            adj[j].append(i)
        comp = [-1] * m
        label = 0
        for start in range(m):
            if comp[start] >= 0:
                continue
            stack = [start]
            comp[start] = label
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if comp[w] < 0:
                        comp[w] = label
                        stack.append(w)
            label += 1
        if label > 1:
            groups = [[v for v in range(m) if comp[v] == c] for c in range(label)]
            raise GraphError(f"graph is disconnected; components: {groups}")
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @staticmethod
    def star(m: int) -> "Graph":
        return Graph(m, [(0, i) for i in range(1, m)], "star")

    @staticmethod
    def complete(m: int) -> "Graph":
        return Graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)], "complete")

    @staticmethod
    def chain(m: int) -> "Graph":
        return Graph(m, [(i, i + 1) for i in range(m - 1)], "chain")

    @staticmethod
    def cycle(m: int) -> "Graph":
        if m < 3:
            raise GraphError("m: cycle needs m >= 3")
        return Graph(m, [(i, (i + 1) % m) for i in range(m)], "cycle")


def read_edge_list(path, m: int | None = None) -> Graph:
    """Parse an edge-list file: one '<i> <j>' pair per line, 0-indexed,
    whitespace-separated, full-line '#' comments allowed."""
    edges = []
    max_node = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            parts = body.split()
            if len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected two node indices, got {body!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(f"{path}:{lineno}: non-integer node index in {body!r}") from None
            edges.append((i, j))
            max_node = max(max_node, i, j)
    if not edges:
        raise GraphError(f"{path}: no edges")
    return Graph(m if m is not None else max_node + 1, edges)


@dataclass(frozen=True)
class Laplacian:
    graph: Graph
    W_bar: np.ndarray
    eigenvalues: np.ndarray
    lambda_max: float
    lambda_min_plus: float
    chi: float


def build_laplacian(graph: Graph) -> Laplacian:
    """Degree-diagonal minus adjacency; spectrum via symmetric eigensolve."""
    m = graph.m
    W = np.zeros((m, m))
    for (i, j) in graph.edges:
        W[i, i] += 1.0
        W[j, j] += 1.0
        W[i, j] -= 1.0
        W[j, i] -= 1.0
    eig = np.linalg.eigvalsh(W)
    lam_max = float(eig[-1])
    positive = eig[eig > _EIG_REL_TOL * max(lam_max, 1.0)]
    if positive.size == 0:
        raise GraphError("Laplacian has no positive eigenvalue")
    lam_min_plus = float(positive[0])
    return Laplacian(graph, W, eig, lam_max, lam_min_plus, lam_max / lam_min_plus)


def penalty_coefficient(M: float, m: int, lap: Laplacian | None, eps: float) -> float:
    """Penalty weight R = M^2 / (m * lambda_min_plus * eps) making the
    eps-accurate penalized solution eps-consensus-accurate.

    lap = None is the degenerate single-rig convention lambda_min_plus = 1.
    """
    if eps <= 0:
        raise ValueError("eps: must be > 0")
    if m < 1:
        raise ValueError("m: must be >= 1")
    lam = 1.0 if lap is None else lap.lambda_min_plus
    return M ** 2 / (m * lam * eps)


def dual_bound_radius(M: float, m: int, lap: Laplacian) -> float:
    """Bound on the optimal consensus multiplier norm: M / sqrt(m * lambda_min_plus)."""
    return M / np.sqrt(m * lap.lambda_min_plus)


class NetworkProblem:
    """Per-node zero-order oracles coupled by a Laplacian penalty.

    apply_W is the counted blockwise mixing step (one communication round in
    counters.comm_rounds); the _quiet variant serves diagnostics and never
    touches the counter. The lifted oracle counts its calls there too; each
    queries every node once, so zo_calls are also the calls per node.
    """

    def __init__(self, lap: Laplacian, n: int, node_oracles: list, R: float):
        if R <= 0:
            raise ValueError("R: must be > 0")
        if len(node_oracles) != lap.graph.m:
            raise ValueError(f"node_oracles: expected {lap.graph.m}, got {len(node_oracles)}")
        self.lap = lap
        self.n = int(n)
        self.m = lap.graph.m
        self.node_oracles = node_oracles
        self.R = float(R)
        self.L_penalty = 2.0 * R * lap.lambda_max
        self.counters = Counters()

    def _check_dim(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.m * self.n:
            raise ValueError(f"x: expected stacked dimension {self.m * self.n}, got {x.size}")
        return x

    def apply_W_quiet(self, x) -> np.ndarray:
        x = self._check_dim(x)
        return (self.lap.W_bar @ x.reshape(self.m, self.n)).ravel()

    def apply_W(self, x) -> np.ndarray:
        self.counters.comm_rounds += 1
        return self.apply_W_quiet(x)

    def penalty(self, x) -> float:
        """R <x, Wx> at the cost of one communication round."""
        x = self._check_dim(x)
        return self.R * max(float(x @ self.apply_W(x)), 0.0)

    def consensus_violation(self, x) -> float:
        """<x, Wx> = ||sqrt(W) x||_2^2, clamped at 0; uncounted.

        Must tolerate diverged iterates: overflow propagates as inf/nan for
        the caller's finiteness checks instead of warning.
        """
        x = self._check_dim(x)
        with np.errstate(over="ignore", invalid="ignore"):
            return max(float(x @ self.apply_W_quiet(x)), 0.0)


class _LiftedOracle:
    """Stacked zero-order oracle: a call on k points of the lifted space
    evaluates every node's term on its own block of each point, adds node
    i's noise, drawn from its own model over its k rows, and averages each
    point's nodes left to right. It counts k into the network's counters only.
    The node values come from node_values on the (k, m, n) stack when given,
    else from node i's oracle f on its (k, n) column.
    """

    def __init__(self, net: NetworkProblem, node_values=None):
        self.net = net
        oracles = net.node_oracles
        self.M = max(o.M for o in oracles) / np.sqrt(net.m)
        self.s = min(o.s for o in oracles)
        self.Delta = max(o.Delta for o in oracles)
        self.counters = net.counters
        self._shape = (-1, net.m, net.n)
        self._values = node_values or (
            lambda X: np.stack([o.f(X[:, i]) for i, o in enumerate(oracles)], axis=1))
        self._noise = [(i, o.noise) for i, o in enumerate(oracles) if o.noise.kind != "zero"]

    def _mean(self, vals) -> np.ndarray:
        m = self.net.m
        return np.array([_ordered_sum(row) / m for row in vals.tolist()])

    def evaluate(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float).reshape(self._shape)
        self.counters.zo_calls += len(X)
        vals = self._values(X)
        if self._noise:
            # a zero-noise node adds 0.0, as its own oracle would
            noise = np.zeros(vals.shape)
            for i, nm in self._noise:
                noise[:, i] = nm.samples(X[:, i])
            vals = vals + noise
        return self._mean(vals)

    def clean_values(self, X) -> np.ndarray:
        return self._mean(self._values(np.asarray(X, dtype=float).reshape(self._shape)))


def lift_to_penalized(net: NetworkProblem, setup_per_node, *, r: float,
                      sphere_rng: np.random.Generator,
                      node_values=None, node_subgrads=None,
                      psi0_reference: float | None = None) -> CompositeProblem:
    """Lift per-node objectives to one composite problem on the stacked space.

    f becomes the node average through a stacked zero-order oracle; g becomes
    the penalty R <x, Wx> with gradient 2 R W x (one communication round per
    counted evaluation or gradient). Supports whole_space and box per-node
    sets; diameters scale by sqrt(m), the Lipschitz bound by 1/sqrt(m).
    node_values maps a (k, m, n) stack of node points to their (k, m) clean
    values. node_subgrads (first-order baselines only) maps the (m, n) stack
    of node points to their subgradients, or lists m per-node functions.
    """
    fs = setup_per_node.feasible
    m, n = net.m, net.n
    if fs.n != n:
        raise ValueError(f"setup_per_node: dimension {fs.n} != node dimension {n}")
    if setup_per_node.dgf_id != "half_sq_euclid":
        raise ValueError("lift_to_penalized: only the Euclidean setup lifts")
    if fs.kind == "whole_space":
        stacked_set = FeasibleSet.whole_space(m * n, bound_hint=fs.bound_hint * np.sqrt(m))
    elif fs.kind == "box":
        stacked_set = FeasibleSet.box(np.tile(fs.lo, m), np.tile(fs.hi, m))
    else:
        raise ValueError(f"lift_to_penalized: per-node set kind '{fs.kind}' unsupported")
    setup = make_setup(NormPair.euclidean(), stacked_set, "half_sq_euclid",
                       D_X=setup_per_node.D_X * np.sqrt(m))

    oracle = _LiftedOracle(net, node_values)
    estimator = SmoothingEstimator(oracle, r=r, n=m * n, norms=setup.norms, rng=sphere_rng)

    def g_value(x):
        return net.R * net.consensus_violation(x)

    def g_grad(x):
        return 2.0 * net.R * net.apply_W(x)

    f_subgrad = None
    if node_subgrads is not None:
        rows = node_subgrads if callable(node_subgrads) else (
            lambda X: np.array([sg(row) for sg, row in zip(node_subgrads, X)], dtype=float))

        def f_subgrad(x):
            return rows(np.asarray(x, dtype=float).reshape(m, n)).ravel() / m

    return CompositeProblem(setup, g_value, g_grad, estimator,
                            psi0_reference=psi0_reference, f_subgrad=f_subgrad,
                            net=net, L=net.L_penalty)
