"""Experiment objectives, dataset ingestion, and reference solvers.

Three families: the decentralized geometric median, l1-regularized logistic
regression on LIBSVM data, and Nesterov's worst-case smooth function plus an
l1 term. A separable synthetic instance with a closed-form optimum backs the
verification tests. The l1 instances share `L1Term` and `wire_composite`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import FeasibleSet, NormPair, make_setup
from .oracles import NoiseModel, NoisyZeroOrderOracle, SmoothingEstimator
from .sliding import CompositeProblem, suggest_r_delta


class L1Term:
    """f = l1 * ||x||_1 for instances with l1 and n; M_bound() is its Lipschitz bound."""

    def f_values(self, X):
        """f of each row of a (k, n) stack; of a single point, its value."""
        return self.l1 * np.add.reduce(np.abs(X), axis=-1)

    def f_subgrad(self, x) -> np.ndarray:
        return self.l1 * np.sign(np.asarray(x, dtype=float))

    def M_bound(self) -> float:
        return self.l1 * math.sqrt(self.n)


# ---------------------------------------------------------------------------
# geometric median

def _row_norms(D) -> np.ndarray:
    """The Euclidean norm of each row of D (its last axis), each equal to
    np.linalg.norm of that row bit for bit."""
    # vecdot runs the dot kernel of np.linalg.norm on each row
    return np.sqrt(np.vecdot(D, D))


@dataclass(frozen=True)
class GeometricMedianInstance:
    """Anchors b_i; node i holds f_i(x) = ||x - b_i||_2 (Lipschitz constant 1)."""

    m: int
    n: int
    anchors: np.ndarray

    @staticmethod
    def sample(m: int, n: int, rng: np.random.Generator) -> "GeometricMedianInstance":
        # Anchor law: mean-1 Gaussian with covariance 2*I.
        anchors = 1.0 + math.sqrt(2.0) * rng.standard_normal((m, n))
        return GeometricMedianInstance(m, n, anchors)

    def node_values(self, X) -> np.ndarray:
        """The node values of a (..., m, n) stack of node points: entry
        [..., i] is node i's distance ||X[..., i, :] - b_i||_2."""
        return _row_norms(np.asarray(X) - self.anchors)

    def node_subgrad(self, i: int, x) -> np.ndarray:
        d = np.asarray(x, dtype=float) - self.anchors[i]
        nd = float(np.linalg.norm(d))
        if nd == 0.0:
            return np.zeros_like(d)
        return d / nd

    def node_subgrads(self, X) -> np.ndarray:
        """All m node subgradients at once, row i of X being node i's point;
        row i equals node_subgrad(i, X[i]) bit for bit, +0.0 where its norm is 0."""
        D = np.asarray(X, dtype=float) - self.anchors
        nd = _row_norms(D)[:, None]
        return np.divide(D, nd, out=np.zeros_like(D), where=nd != 0.0)

    def objective(self, x) -> float:
        """Consensus objective: the mean anchor distance of a single point."""
        x = np.asarray(x, dtype=float)
        return float(np.mean(np.linalg.norm(self.anchors - x, axis=1)))

    def make_node_oracles(self, *, s: float, noise_models: list | None = None) -> list:
        """Node i's oracle: the distances of a (k, n) stack to b_i, plus its noise."""
        models = noise_models if noise_models is not None else [None] * self.m
        return [NoisyZeroOrderOracle(lambda X, b=b: _row_norms(X - b), M=1.0, s=s, noise=nm)
                for b, nm in zip(self.anchors, models)]


def weiszfeld(instance: GeometricMedianInstance, tol: float = 1e-13,
              max_iter: int = 100000) -> tuple:
    """Long-run Weiszfeld iteration; returns (median point, objective value).

    Distances are floored at 1e-15 so an iterate landing on an anchor cannot
    divide by zero; Gaussian anchors make that event measure-zero anyway.
    """
    b = instance.anchors
    x = b.mean(axis=0)
    for _ in range(max_iter):
        d = np.maximum(np.linalg.norm(b - x, axis=1), 1e-15)
        w = 1.0 / d
        x_new = (w[:, None] * b).sum(axis=0) / w.sum()
        if np.linalg.norm(x_new - x) <= tol * max(1.0, np.linalg.norm(x)):
            x = x_new
            break
        x = x_new
    return x, instance.objective(x)


# ---------------------------------------------------------------------------
# l1 logistic regression

@dataclass
class LogRegLassoInstance(L1Term):
    """Average logistic loss over (A, y) plus l1 * ||x||_1."""

    A: "scipy.sparse.csr_matrix"
    y: np.ndarray
    l1: float = 0.0
    L: float | None = None          # set by the caller, from smoothness() or a user bound

    def __post_init__(self):
        # the transpose view, built once: every A^T product runs through it
        self._AT = self.A.T

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def g_value(self, x) -> float:
        t = self.y * (self.A @ np.asarray(x, dtype=float))
        # log(1 + exp(-t)) without overflow on either tail
        return float(np.mean(np.where(t >= 0, np.log1p(np.exp(-np.abs(t))),
                                      np.log1p(np.exp(-np.abs(t))) - t)))

    def g_grad(self, x) -> np.ndarray:
        t = self.y * (self.A @ np.asarray(x, dtype=float))
        sig = 1.0 / (1.0 + np.exp(np.minimum(t, 50.0)))
        coeff = -self.y * sig / self.m
        return np.asarray(self._AT @ coeff).ravel()

    def smoothness(self, iters: int = 100, tol: float = 1e-10) -> float:
        """L = ||A||_2^2 / (4m) with the spectral norm from power iteration."""
        rng = np.random.default_rng(0)
        v = rng.standard_normal(self.n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = np.asarray(self._AT @ (self.A @ v)).ravel()
            lam_new = float(np.linalg.norm(w))
            if lam_new == 0.0:
                return 0.0
            v = w / lam_new
            if abs(lam_new - lam) <= tol * max(lam_new, 1.0):
                lam = lam_new
                break
            lam = lam_new
        return lam / (4.0 * self.m)


def read_libsvm(path, l1: float = 0.0) -> LogRegLassoInstance:
    """Parse a LIBSVM-format text file into a sparse instance.

    Labels in {-1,+1} pass through; {0,1} maps 0 to -1; {1,2} maps 1 to -1
    (order-preserving). The feature count is the maximum 1-based index seen.
    """
    import scipy.sparse as sp    # the package's only scipy use; imported on demand

    labels = []
    rows, cols, vals = [], [], []
    n_features = 0
    with open(path) as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            body = line.strip()
            if not body:
                continue
            parts = body.split()
            try:
                labels.append(float(parts[0]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad label {parts[0]!r}") from None
            line_cols = set()
            for item in parts[1:]:
                idx, _, val = item.partition(":")
                try:
                    j = int(idx)
                    v = float(val)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad feature entry {item!r}") from None
                if j < 1:
                    raise ValueError(f"{path}:{lineno}: feature index {j} < 1")
                if j in line_cols:
                    raise ValueError(f"{path}:{lineno}: feature index {j} repeated")
                if not math.isfinite(v):
                    raise ValueError(f"{path}:{lineno}: non-finite value in {item!r}")
                line_cols.add(j)
                rows.append(len(labels) - 1)
                cols.append(j - 1)
                vals.append(v)
                n_features = max(n_features, j)
        if not labels:
            raise ValueError(f"{path}: empty dataset")
    y = np.asarray(labels)
    uniq = set(np.unique(y).tolist())
    if uniq <= {-1.0, 1.0}:
        pass
    elif uniq <= {0.0, 1.0}:
        y = np.where(y == 0.0, -1.0, 1.0)
    elif uniq <= {1.0, 2.0}:
        y = np.where(y == 1.0, -1.0, 1.0)
    else:
        raise ValueError(f"{path}: unsupported label set {sorted(uniq)}")
    A = sp.csr_matrix((vals, (rows, cols)), shape=(len(labels), n_features))
    return LogRegLassoInstance(A=A, y=y, l1=l1)


def dataset_path(name_or_path: str) -> str:
    """Resolve a dataset argument: absolute/existing paths win, then the
    SLIDING_OPT_DATA root, then the working directory."""
    if os.path.isabs(name_or_path) or os.path.exists(name_or_path):
        return name_or_path
    root = os.environ.get("SLIDING_OPT_DATA")
    if root:
        candidate = os.path.join(root, name_or_path)
        if os.path.exists(candidate):
            return candidate
    return name_or_path


# ---------------------------------------------------------------------------
# Nesterov's worst-case smooth function plus l1

@dataclass(frozen=True)
class NesterovLassoInstance(L1Term):
    """g(x) = (L/8)(x_1^2 + sum (x_i - x_{i+1})^2 + x_n^2) - (L/4) x_1, plus l1*||x||_1.

    The gradient is (L/4)(T x - e_1) with T the [-1, 2, -1] tridiagonal
    matrix, so g is L-smooth (lambda_max(T) < 4).
    """

    n: int
    L: float = 4.0
    l1: float = 1e-3

    def g_value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        d = x[1:] - x[:-1]
        quad = x[0] ** 2 + float(np.add.reduce(d * d)) + x[-1] ** 2
        return self.L / 8.0 * quad - self.L / 4.0 * x[0]

    def g_grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        Tx = 2.0 * x
        Tx[:-1] -= x[1:]
        Tx[1:] -= x[:-1]
        Tx[0] -= 1.0
        return self.L / 4.0 * Tx


# ---------------------------------------------------------------------------
# synthetic verification instances (separable, closed-form optimum)

def _soft_threshold(z, lam):
    return np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)


@dataclass(frozen=True)
class SeparableLassoInstance(L1Term):
    """g(x) = 0.5 (x-z)' H (x-z) with diagonal H, f(x) = l1 ||x||_1.

    Separability gives the exact optimum x_i* = soft(z_i, l1/h_i) and the
    exact optimal value, which anchors convergence tests.
    """

    z: np.ndarray
    h: np.ndarray
    l1: float

    @property
    def n(self) -> int:
        return self.z.size

    def g_value(self, x) -> float:
        d = np.asarray(x, dtype=float) - self.z
        return 0.5 * float(d @ (self.h * d))

    def g_grad(self, x) -> np.ndarray:
        return self.h * (np.asarray(x, dtype=float) - self.z)

    def psi0(self, x) -> float:
        return self.g_value(x) + float(self.f_values(x))

    def minimizer(self) -> np.ndarray:
        return _soft_threshold(self.z, self.l1 / self.h)

    def optimal_value(self) -> float:
        return self.psi0(self.minimizer())

    @property
    def L(self) -> float:
        return float(np.max(self.h))


def make_strongly_convex_instance(n: int, seed: int, *, mu: float = 0.1, L: float = 1.0,
                                  l1: float = 0.01, box_half: float = 2.0) -> tuple:
    """Check instance with diagonal curvatures spanning [mu, L] (mu = L gives H = L*I)
    on the box [-box_half, box_half]^n.

    Returns (instance, feasible set); z is drawn in [-1, 1]^n so the
    soft-threshold optimum sits strictly inside the default box.
    """
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=n)
    h = np.linspace(mu, L, n)
    instance = SeparableLassoInstance(z=z, h=h, l1=l1)
    feasible = FeasibleSet.box(-box_half * np.ones(n), box_half * np.ones(n))
    return instance, feasible


def wire_composite(instance: L1Term, feasible: FeasibleSet, *, eps: float = 1e-3,
                   Delta: float = 0.0, noise_kind: str = "zero", r: float | None = None,
                   psi0_reference: float | None = None, sphere_rng=None,
                   noise_rng=None) -> tuple:
    """The CompositeProblem of an l1 instance (with g_value, g_grad, L) on a
    Euclidean set: f through a noisy zero-order oracle, g exactly.

    r comes from the accuracy heuristics unless pinned; the oracle's validity
    radius is s = 2r. Returns (problem, suggestion dict with r as used).
    """
    n = instance.n
    norms = NormPair.euclidean()
    setup = make_setup(norms, feasible, "half_sq_euclid")
    M = instance.M_bound()
    sugg = suggest_r_delta(eps, M, n, setup.D_X, 1.0)
    if r is not None:
        sugg["r"] = r
    noise = NoiseModel(noise_kind, Delta, np.arange(1, n + 1, dtype=float), noise_rng)
    oracle = NoisyZeroOrderOracle(instance.f_values, M=M, s=2.0 * sugg["r"], noise=noise)
    estimator = SmoothingEstimator(oracle, r=sugg["r"], n=n, norms=norms, rng=sphere_rng)
    problem = CompositeProblem(setup, instance.g_value, instance.g_grad, estimator,
                               psi0_reference=psi0_reference,
                               f_subgrad=instance.f_subgrad, L=instance.L)
    return problem, sugg


# ---------------------------------------------------------------------------
# long-run proximal-gradient reference

def prox_grad_reference(g_value, g_grad, l1: float, L: float, x0, *,
                        max_iter: int = 10 ** 6, tol: float = 1e-15) -> dict:
    """Accelerated proximal gradient with monotone restart, run to numerical rest.

    Returns {'x', 'value', 'iterations', 'tol'}; used as the psi0 reference
    oracle for objectives without a closed-form optimum.
    """
    if L <= 0:
        raise ValueError("L: must be > 0")
    x = np.asarray(x0, dtype=float).copy()
    y = x.copy()
    step = 1.0 / L
    t_mom = 1.0

    def psi(u):
        return g_value(u) + l1 * float(np.sum(np.abs(u)))

    val = psi(x)
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        x_new = _soft_threshold(y - step * g_grad(y), step * l1)
        val_new = psi(x_new)
        if val_new > val:
            # momentum overshoot: restart from the current point
            y = x.copy()
            t_mom = 1.0
            x_new = _soft_threshold(y - step * g_grad(y), step * l1)
            val_new = psi(x_new)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = x_new + (t_mom - 1.0) / t_next * (x_new - x)
        t_mom = t_next
        stall = stall + 1 if abs(val - val_new) <= tol * max(1.0, abs(val)) else 0
        x, val = x_new, val_new
        if stall >= 20:
            break
    return {"x": x, "value": val, "iterations": it, "tol": tol}
