"""Norm pairs, feasible sets, proximal setups and the composite prox step."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

# Floor for logs of prox-center coordinates; keeps boundary simplex points usable.
_LOG_FLOOR = 1e-300


def _as_vector(x, name="x"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name}: expected a 1-d vector, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class NormPair:
    """A primal norm, its dual, and the comparison constants against the Euclidean norm.

    The constants satisfy, for every v:
        ||v||_dual <= C1 * ||v||_2,   ||v||_2 <= C2 * ||v||_dual,   ||v||_primal <= C3 * ||v||_2.
    """

    primal_id: str
    dual_id: str
    C1: float
    C2: float
    C3: float

    @staticmethod
    def euclidean() -> "NormPair":
        return NormPair("euclidean", "euclidean", 1.0, 1.0, 1.0)

    @staticmethod
    def l1(n: int) -> "NormPair":
        if n < 1:
            raise ValueError("n: must be >= 1")
        rn = float(np.sqrt(n))
        return NormPair("l1", "linf", 1.0, rn, rn)


@dataclass(frozen=True)
class FeasibleSet:
    """Closed convex feasible set; one of ball2 | box | simplex | whole_space."""

    kind: str
    n: int
    center: np.ndarray | None = None
    radius: float = 0.0
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    bound_hint: float = float("inf")

    @staticmethod
    def ball2(center, radius: float) -> "FeasibleSet":
        center = _as_vector(center, "center")
        if radius <= 0:
            raise ValueError("radius: must be > 0")
        return FeasibleSet("ball2", center.size, center=center, radius=float(radius))

    @staticmethod
    def box(lo, hi) -> "FeasibleSet":
        lo = _as_vector(lo, "lo")
        hi = _as_vector(hi, "hi")
        if lo.shape != hi.shape:
            raise ValueError("box: lo and hi must share a shape")
        if np.any(lo > hi):
            raise ValueError("box: lo > hi on some coordinate")
        return FeasibleSet("box", lo.size, lo=lo, hi=hi)

    @staticmethod
    def simplex(n: int) -> "FeasibleSet":
        if n < 1:
            raise ValueError("n: must be >= 1")
        return FeasibleSet("simplex", n)

    @staticmethod
    def whole_space(n: int, bound_hint: float = float("inf")) -> "FeasibleSet":
        if n < 1:
            raise ValueError("n: must be >= 1")
        return FeasibleSet("whole_space", n, bound_hint=float(bound_hint))

    def contains(self, x, tol: float = 1e-12) -> bool:
        x = _as_vector(x, "x")
        if x.size != self.n:
            return False
        if self.kind == "ball2":
            return float(np.linalg.norm(x - self.center)) <= self.radius + tol
        if self.kind == "box":
            return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))
        if self.kind == "simplex":
            return bool(np.all(x >= -tol) and abs(float(np.sum(x)) - 1.0) <= tol)
        return bool(np.all(np.isfinite(x)))


def _whole_space(feasible: FeasibleSet, z: np.ndarray) -> np.ndarray:
    return z.copy()


def _box(feasible: FeasibleSet, z: np.ndarray) -> np.ndarray:
    # np.clip's value on finite input, without its per-call dispatch
    return np.minimum(np.maximum(z, feasible.lo), feasible.hi)


def _ball2(feasible: FeasibleSet, z: np.ndarray) -> np.ndarray:
    d = z - feasible.center
    nd = float(np.linalg.norm(d))
    if nd <= feasible.radius:
        return z.copy()
    return feasible.center + d * (feasible.radius / nd)


def _simplex(feasible: FeasibleSet, z: np.ndarray) -> np.ndarray:
    u = np.sort(z)[::-1]
    cssv = np.cumsum(u)
    rho = int(np.nonzero(u * np.arange(1, z.size + 1) > (cssv - 1.0))[0][-1])
    theta = (cssv[rho] - 1.0) / (rho + 1.0)
    return np.maximum(z - theta, 0.0)


_PROJECTORS = {"whole_space": _whole_space, "box": _box, "ball2": _ball2, "simplex": _simplex}


def projector(feasible: FeasibleSet):
    """The projection of `project` for one set, without its checks: a
    function of z that the caller guarantees is a finite 1-d float vector of
    the set's dimension. Returns a new array."""
    return partial(_PROJECTORS[feasible.kind], feasible)


def project(feasible: FeasibleSet, z) -> np.ndarray:
    """Euclidean projection of z onto the set.

    The simplex case uses the sort-and-threshold rule: with u the coordinates
    sorted in decreasing order, the active threshold is the largest rho with
    u_rho * rho > (cumsum(u)_rho - 1), and the projection clips z - theta at 0.
    """
    z = _as_vector(z, "z")
    if not np.all(np.isfinite(z)):
        raise ValueError("z: must be finite")
    if z.size != feasible.n:
        raise ValueError(f"z: expected dimension {feasible.n}, got {z.size}")
    return _PROJECTORS[feasible.kind](feasible, z)


@dataclass(frozen=True)
class ProximalSetup:
    """Norms + feasible set + distance-generating function, with diameters.

    D_X is the primal-norm diameter of the set (bound_hint for whole_space);
    D_XV bounds sqrt(2 * sup V) and feeds the convergence bounds.
    """

    norms: NormPair
    feasible: FeasibleSet
    dgf_id: str
    D_X: float
    D_XV: float


def make_setup(norms: NormPair, feasible: FeasibleSet, dgf_id: str,
               D_X: float | None = None, D_XV: float | None = None) -> ProximalSetup:
    """Assemble a ProximalSetup, deriving the diameters when not given.

    Supported pairings: half_sq_euclid with euclidean norms on any set kind;
    entropy with l1 norms on the simplex.
    """
    if dgf_id not in ("half_sq_euclid", "entropy"):
        raise ValueError(f"dgf_id: unknown '{dgf_id}'")
    if dgf_id == "entropy":
        if feasible.kind != "simplex":
            raise ValueError("dgf_id: entropy requires the simplex feasible set")
        if norms.primal_id != "l1":
            raise ValueError("dgf_id: entropy pairs with the l1/linf norm pair")
    else:
        if norms.primal_id != "euclidean":
            raise ValueError("dgf_id: half_sq_euclid pairs with the Euclidean norm pair")

    if D_X is None:
        if feasible.kind == "ball2":
            D_X = 2.0 * feasible.radius
        elif feasible.kind == "box":
            D_X = float(np.linalg.norm(feasible.hi - feasible.lo))
        elif feasible.kind == "simplex":
            D_X = 2.0 if norms.primal_id == "l1" else float(np.sqrt(2.0))
        else:
            D_X = feasible.bound_hint
            if not np.isfinite(D_X) or D_X <= 0:
                raise ValueError("D_X: whole_space needs a finite positive bound_hint")
    if D_XV is None:
        if dgf_id == "entropy":
            D_XV = float(np.sqrt(2.0 * np.log(feasible.n)))
        else:
            D_XV = D_X
    return ProximalSetup(norms, feasible, dgf_id, float(D_X), float(D_XV))


def prox_step(setup: ProximalSetup, a, x_anchor, u_prev, beta: float, p: float) -> np.ndarray:
    """Argmin over the feasible set of <a, u> + beta*V(x_anchor, u) + beta*p*V(u_prev, u).

    Both cases are closed-form. Euclidean: project the weighted average
    (beta*x_anchor + beta*p*u_prev - a) / (beta*(1+p)). Entropy/simplex:
    u_i proportional to x_anchor_i^(1/(1+p)) * u_prev_i^(p/(1+p)) * exp(-a_i/(beta*(1+p))),
    evaluated in log space with a max shift before normalizing.
    """
    if beta <= 0:
        raise ValueError("beta: must be > 0")
    if p <= 0:
        raise ValueError("p: must be > 0")
    a = _as_vector(a, "a")
    x_anchor = _as_vector(x_anchor, "x_anchor")
    u_prev = _as_vector(u_prev, "u_prev")
    if not (a.shape == x_anchor.shape == u_prev.shape):
        raise ValueError("prox_step: dimension mismatch among a, x_anchor, u_prev")
    if setup.dgf_id == "half_sq_euclid":
        target = (beta * x_anchor + beta * p * u_prev - a) / (beta * (1.0 + p))
        return project(setup.feasible, target)
    expo = (np.log(np.maximum(x_anchor, _LOG_FLOOR))
            + p * np.log(np.maximum(u_prev, _LOG_FLOOR))
            - a / beta) / (1.0 + p)
    expo -= np.max(expo)
    w = np.exp(expo)
    return w / float(np.sum(w))
