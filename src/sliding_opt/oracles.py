"""Noisy zeroth-order oracles and the two-point sphere gradient estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import NormPair, _as_vector


class EstimatorError(RuntimeError):
    """Raised when an estimate cannot be formed; carries the query point and direction."""

    def __init__(self, message, x=None, e=None):
        super().__init__(message)
        self.x = x
        self.e = e


def default_p_star(norms: NormPair, n: int) -> float:
    """Fourth-moment bound on the dual norm of a uniform sphere direction.

    Euclidean dual: exactly 1. l-infinity dual: min(1, sqrt(4*ln(2n)/n)),
    the standard max-of-coordinates bound.
    """
    if n < 1:
        raise ValueError("n: must be >= 1")
    if norms.dual_id == "euclidean":
        return 1.0
    return min(1.0, float(np.sqrt(4.0 * np.log(2.0 * n) / n)))


def sample_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the Euclidean unit sphere in R^n (normalized Gaussian)."""
    if n < 1:
        raise ValueError("n: must be >= 1")
    while True:
        g = rng.standard_normal(n)
        nrm = math.sqrt(g @ g)
        if nrm > 1e-12:
            return g / nrm


@dataclass
class Counters:
    """The cost ledger of a run, named as the trace columns.

    Each zero-order oracle and each network owns one; a problem reads the
    one its f oracle counts into (a lifted oracle shares its network's).
    """

    fo_calls: int = 0
    zo_calls: int = 0
    comm_rounds: int = 0


NOISE_KINDS = ("zero", "uniform", "adversarial_sine")
# Uniform noise values a model draws at once (4 KiB).
_NOISE_BLOCK = 512


@dataclass
class NoiseModel:
    """Bounded additive observation noise: zero, i.i.d. uniform, or a sine in x.

    The model is zero whenever kind is 'zero' or Delta is 0; its Delta is
    then 0. omega is read (and kept) only by the sine model, rng only by the
    uniform one.

    The sine variant Delta*sin(<omega, x>/Delta) is deterministic in x, so it
    can carry a genuine bias through the estimator; its magnitude never
    exceeds Delta either way.

    Uniform values are drawn from rng in blocks of _NOISE_BLOCK and handed
    out in order. They are, in order, exactly the values one
    rng.uniform(-Delta, Delta) call per value would return. The generator is
    read ahead by up to one block, so a caller who also draws from rng sees
    its state move in blocks and gets different numbers than with per-value
    draws.
    """

    kind: str
    Delta: float = 0.0
    omega: np.ndarray | None = None
    rng: np.random.Generator | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind: unknown '{self.kind}'")
        if not self.Delta >= 0:
            raise ValueError("Delta: must be >= 0")
        if self.Delta == 0.0:
            self.kind = "zero"
        if self.kind == "uniform" and self.rng is None:
            raise ValueError("rng: uniform noise needs a generator")
        self.Delta = 0.0 if self.kind == "zero" else float(self.Delta)
        self.omega = _as_vector(self.omega, "omega") if self.kind == "adversarial_sine" else None
        self.rng = self.rng if self.kind == "uniform" else None
        # samples() reads the kind from the uniform model's current block
        # (None for the other kinds) and the zero flag
        self._zero = self.kind == "zero"
        self._block = np.empty(0) if self.kind == "uniform" else None
        self._pos = 0

    def samples(self, X):
        """The noise of each row of the (k, dim) stack X, drawn in row order.

        Zero noise is the scalar 0.0: adding it still turns -0.0 into 0.0.
        Uniform noise is a read-only slice of the current block.
        """
        block = self._block
        if block is not None:
            pos = self._pos
            end = pos + len(X)
            if end <= len(block):
                self._pos = end
                return block[pos:end]
            return self._refill(end - len(block))
        if self._zero:
            return 0.0
        # vecdot runs the dot kernel of omega @ x on each row
        t = np.vecdot(X, self.omega) / max(self.Delta, 1e-30)
        return self.Delta * np.sin(t)

    def _refill(self, need: int) -> np.ndarray:
        """The rest of the block followed by the first `need` values of fresh
        whole blocks, which become the current block."""
        tail = self._block[self._pos:]
        # low + (high - low) * next_double per value: the values of successive
        # -Delta + 2 Delta * random() calls, whatever the block size
        fresh = self.rng.uniform(-self.Delta, self.Delta,
                                 -(-need // _NOISE_BLOCK) * _NOISE_BLOCK)
        # fresh arrays per refill: values handed out earlier never change
        fresh.flags.writeable = False
        self._block, self._pos = fresh, need
        return np.concatenate((tail, fresh[:need]))


def _stack(X) -> np.ndarray:
    """X as a (k, dim) stack of points; a 1-d point is a stack of one."""
    X = np.asarray(X, dtype=float)
    return X[None] if X.ndim == 1 else X


class NoisyZeroOrderOracle:
    """Value access to f through f(x) + bounded noise. f maps a (k, dim)
    stack of points to their k values; evaluate(X) adds one noise draw per
    row and counts k calls in counters.zo_calls.

    M bounds the Lipschitz constant (sup ||grad f(x)||_2), s is the radius
    of the neighborhood of the feasible set on which queries stay valid.
    clean_values bypasses both noise and the counter and exists for
    diagnostics and trace checkpoints only.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], *, M: float, s: float,
                 noise: NoiseModel | None = None):
        if M < 0:
            raise ValueError("M: must be >= 0")
        if s <= 0:
            raise ValueError("s: must be > 0")
        self.f = f
        self.M = float(M)
        self.s = float(s)
        self.noise = noise if noise is not None else NoiseModel("zero")
        self.Delta = self.noise.Delta
        self.counters = Counters()

    def evaluate(self, X) -> np.ndarray:
        X = _stack(X)
        self.counters.zo_calls += len(X)
        return self.f(X) + self.noise.samples(X)

    def clean_values(self, X) -> np.ndarray:
        return self.f(_stack(X))


# Bytes an estimator holds per block: the directions and their offsets +-r*e.
_BLOCK_BYTES = 1 << 16


class SmoothingEstimator:
    """Two-point sphere-smoothing gradient estimator at radius r.

    One estimate draws a fresh uniform sphere direction e and returns
    (n / (2r)) * (f~(x + r e) - f~(x - r e)) * e, consuming exactly two
    oracle calls. Requires r < s * C3 so both query points stay inside the
    oracle's validity neighborhood of the feasible set.

    Both values come from one oracle call on the (2, n) stack x + (r e, -r e).
    Directions are drawn from rng in blocks of 2730 // n rows (with their
    offsets +-r*e, about 64 KiB) and handed out row by row, by index. They are, in
    order, exactly the values successive sample_sphere(n, rng) calls would
    return. The generator is read ahead by up to one block, so a caller who
    also draws from rng sees its state move in blocks and gets different
    numbers than with per-call draws.
    """

    def __init__(self, oracle, r: float, n: int, norms: NormPair,
                 rng: np.random.Generator | None = None):
        if n < 1:
            raise ValueError("n: must be >= 1")
        if r <= 0:
            raise ValueError("r: must be > 0")
        if not r < oracle.s * norms.C3:
            raise ValueError(f"r: must satisfy r < s*C3 (r={r}, s*C3={oracle.s * norms.C3})")
        self.oracle = oracle
        self.r = float(r)
        self.n = int(n)
        self.norms = norms
        self.p_star = default_p_star(norms, n)
        self.rng = rng if rng is not None else np.random.default_rng()
        self._scale = self.n / (2.0 * self.r)
        self._rows = max(1, _BLOCK_BYTES // (24 * self.n))
        self._e = self._offsets = []
        self._next = 0

    def _refill(self):
        """Draw the next block of directions e, each the value that
        sample_sphere(n, rng) would return, and their (2, n) offsets (r e, -r e), as row lists."""
        g = self.rng.standard_normal((self._rows, self.n))
        # vecdot runs the dot kernel of g @ g in sample_sphere on each row;
        # einsum and (g * g).sum(1) round differently
        nrm = np.sqrt(np.vecdot(g, g))
        keep = nrm > 1e-12
        if not keep.all():
            g, nrm = g[keep], nrm[keep]
        # fresh arrays per refill: rows handed out earlier never change
        g /= nrm[:, None]
        offsets = np.empty((len(g), 2, self.n))
        np.multiply(self.r, g, out=offsets[:, 0])
        # x + (-r e) is x - r e bit for bit
        np.negative(offsets[:, 0], out=offsets[:, 1])
        self._e, self._offsets = list(g), list(offsets)

    def estimate_gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        j = self._next
        # a block whose every row was rejected is empty: draw again
        while j == len(self._e):
            self._refill()
            j = 0
        self._next = j + 1
        e = self._e[j]
        fp, fm = self.oracle.evaluate(x + self._offsets[j]).tolist()
        val = self._scale * (fp - fm)
        if not math.isfinite(val):
            raise EstimatorError(f"non-finite estimate ({fp} vs {fm})", x=x, e=e)
        return val * e
