import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sliding_opt.geometry import NormPair
from sliding_opt.oracles import (_NOISE_BLOCK, NoiseModel, NoisyZeroOrderOracle,
                                 SmoothingEstimator, default_p_star, sample_sphere)
from sliding_opt.problems import _row_norms, make_strongly_convex_instance, wire_composite


def make_oracle(f, M=1.0, s=1.0, **kw):
    return NoisyZeroOrderOracle(f, M=M, s=s, **kw)


# -- sphere sampling ---------------------------------------------------------

def test_sample_sphere_unit_norm():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 40):
        for _ in range(50):
            e = sample_sphere(n, rng)
            assert abs(np.linalg.norm(e) - 1.0) <= 1e-12


def test_sample_sphere_n1_sign_balance():
    rng = np.random.default_rng(11)
    draws = np.array([sample_sphere(1, rng)[0] for _ in range(2000)])
    assert set(np.unique(draws)) <= {-1.0, 1.0}
    pos = int(np.sum(draws > 0))
    chi2 = (pos - 1000.0) ** 2 / 1000.0 + (2000 - pos - 1000.0) ** 2 / 1000.0
    p_value = math.erfc(math.sqrt(chi2 / 2.0))
    assert p_value > 0.01


def test_sample_sphere_second_moment_identity_over_n():
    # E[e e^T] = I/n, entrywise within 3e-3 at 1e6 draws
    n = 5
    rng = np.random.default_rng(7)
    acc = np.zeros((n, n))
    draws = 10 ** 6
    for _ in range(draws):
        e = sample_sphere(n, rng)
        acc += np.outer(e, e)
    acc /= draws
    assert np.abs(acc - np.eye(n) / n).max() < 3e-3


def test_sample_sphere_rejects_bad_dimension():
    with pytest.raises(ValueError):
        sample_sphere(0, np.random.default_rng(0))


# -- noise models ------------------------------------------------------------

def test_noise_magnitudes_respect_delta():
    rng = np.random.default_rng(5)
    uni = NoiseModel("uniform", 0.25, rng=rng)
    X = np.zeros((500, 3))
    assert (np.abs(uni.samples(X)) <= 0.25).all()
    sine = NoiseModel("adversarial_sine", 0.1, omega=np.array([1.0, 2.0, 3.0]))
    assert (np.abs(sine.samples(rng.standard_normal((100, 3)))) <= 0.1 + 1e-15).all()
    assert NoiseModel("zero").samples(X) == 0.0


def test_uniform_noise_equals_numpy_uniform_draws():
    for Delta in (1e-3, 0.7):
        noise = NoiseModel("uniform", Delta, rng=np.random.default_rng(31))
        ref = np.random.default_rng(31)
        for k in range(1, 5):
            for _ in range(10 ** 4):
                drawn = noise.samples(np.zeros((k, 2))).tolist()
                assert drawn == [float(ref.uniform(-Delta, Delta)) for _ in range(k)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), Delta=st.floats(1e-12, 1e3),
       ks=st.lists(st.integers(1, 5), min_size=1, max_size=30), big=st.booleans())
def test_uniform_noise_blocks_hand_out_one_draw_per_value_in_order(seed, Delta, ks, big):
    noise = NoiseModel("uniform", Delta, rng=np.random.default_rng(seed))
    ref = np.random.default_rng(seed)
    first = noise.samples(np.zeros((ks[0], 2)))
    kept = first.tolist()
    assert kept == [float(ref.uniform(-Delta, Delta)) for _ in range(ks[0])]
    drawn, calls = ks[0], 1
    # past two block boundaries, with one call of more than two blocks if big
    while drawn <= 2 * _NOISE_BLOCK:
        k = 2 * _NOISE_BLOCK + 3 if big and calls == 3 else ks[calls % len(ks)]
        got = noise.samples(np.zeros((k, 2))).tolist()
        assert got == [float(ref.uniform(-Delta, Delta)) for _ in range(k)]
        drawn, calls = drawn + k, calls + 1
    # values handed out before a refill do not change
    assert first.tolist() == kept


def test_sine_noise_is_deterministic_in_x():
    sine = NoiseModel("adversarial_sine", 0.3, omega=np.array([2.0, -1.0]))
    X = np.array([[0.4, 1.1], [0.4, 1.1]])
    first, again = sine.samples(X)
    assert first == again and first.tobytes() == sine.samples(X[:1]).tobytes()


def test_noise_build_is_zero_for_zero_kind_or_zero_delta():
    omega, rng = np.array([1.0, 2.0]), np.random.default_rng(0)
    assert NoiseModel("zero", 0.5, omega, rng).kind == "zero"
    for kind in ("uniform", "adversarial_sine"):
        assert NoiseModel(kind, 0.0, omega, rng).kind == "zero"
        built = NoiseModel(kind, 0.5, omega, rng)
        assert (built.kind, built.Delta) == (kind, 0.5)
    assert NoiseModel("uniform", 0.5, omega, rng).rng is rng
    assert NoiseModel("adversarial_sine", 0.5, omega, rng).omega.tolist() == [1.0, 2.0]


def test_noise_build_rejects_an_unknown_kind():
    omega, rng = np.array([1.0, 2.0]), np.random.default_rng(0)
    for Delta in (0.0, 0.5):
        with pytest.raises(ValueError, match="'unifrom'"):
            NoiseModel("unifrom", Delta, omega, rng)
    inst, feasible = make_strongly_convex_instance(2, 0)
    with pytest.raises(ValueError, match="'gaussian'"):
        wire_composite(inst, feasible, Delta=1e-3, noise_kind="gaussian")


@pytest.mark.parametrize("args, kwargs, message", [
    (("uniform", 0.1), {}, "rng: uniform noise needs a generator"),
    (("unifrom", 0.1), {}, "noise kind: unknown 'unifrom'"),
    (("adversarial_sine", 0.1), {}, "omega: expected a 1-d vector, got shape ()"),
    (("uniform", -1.0), {"rng": np.random.default_rng(0)}, "Delta: must be >= 0"),
])
def test_noise_constructor_rejects_an_invalid_model(args, kwargs, message):
    with pytest.raises(ValueError) as err:
        NoiseModel(*args, **kwargs)
    assert str(err.value) == message


def test_noise_constructor_keeps_only_the_fields_its_kind_reads():
    omega, rng = np.array([1.0, 2.0]), np.random.default_rng(0)
    for kind, Delta in (("zero", 0.5), ("uniform", 0.0), ("adversarial_sine", 0)):
        zero = NoiseModel(kind, Delta, omega, rng)
        assert (zero.kind, zero.Delta, zero.omega, zero.rng) == ("zero", 0.0, None, None)
    uniform = NoiseModel("uniform", 1, omega, rng)
    assert (uniform.Delta, uniform.omega, uniform.rng) == (1.0, None, rng)
    sine = NoiseModel("adversarial_sine", 0.5, [1, 2], rng)
    assert (sine.omega.tolist(), sine.rng) == ([1.0, 2.0], None)


# -- oracle ------------------------------------------------------------------

def test_oracle_counts_every_evaluation_and_clean_value_skips():
    oracle = make_oracle(lambda X: np.sum(X, axis=1))
    calls = 0
    for k in range(1, 6):
        assert oracle.evaluate(np.ones((k, 3))).tolist() == [3.0] * k
        calls += k
        assert oracle.counters.zo_calls == calls
    assert oracle.evaluate(np.ones(3)).tolist() == [3.0]   # a point is a stack of one
    assert oracle.clean_values(np.ones((4, 3))).tolist() == [3.0] * 4
    assert oracle.counters.zo_calls == calls + 1


def test_oracle_without_noise_adds_zero():
    # f + 0.0 turns a -0.0 value into 0.0, as adding a zero noise sample does
    value, = make_oracle(lambda X: np.full(len(X), -0.0)).evaluate(np.zeros(2))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_oracle_noise_stays_within_delta():
    rng = np.random.default_rng(17)
    oracle = make_oracle(lambda X: X[:, 0] ** 2, noise=NoiseModel("uniform", 1e-2, rng=rng))
    X = rng.standard_normal((300, 1))
    assert (np.abs(oracle.evaluate(X) - X[:, 0] ** 2) <= 1e-2).all()


def _serial_value(f_row, noise, ref_rng, x):
    """One point's value as a per-point oracle computes it: f + 0.0 for zero
    noise, one random() draw for uniform noise, the sine of omega @ x."""
    val = float(f_row(x))
    if noise.kind == "zero":
        return val + 0.0
    if noise.kind == "uniform":
        return val + (-noise.Delta + 2.0 * noise.Delta * ref_rng.random())
    t = float(noise.omega @ x) / max(noise.Delta, 1e-30)
    return val + noise.Delta * float(np.sin(t))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("zero", "uniform", "adversarial_sine")),
       n=st.integers(1, 30), k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       Delta=st.sampled_from((1e-8, 1e-3, 0.7)), calls=st.integers(1, 4))
def test_stacked_evaluate_equals_the_serial_per_point_values(kind, n, k, seed, Delta, calls):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n)
    omega = np.arange(1, n + 1, dtype=float)
    noise = NoiseModel(kind, Delta, omega, np.random.default_rng([seed, 1]))
    ref_rng = np.random.default_rng([seed, 1])
    oracle = make_oracle(lambda X: np.add.reduce(np.abs(X - c), axis=-1), noise=noise)
    for _ in range(calls):
        X = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-3, 4)
        got = oracle.evaluate(X)
        want = [_serial_value(lambda x: np.add.reduce(np.abs(x - c)), noise, ref_rng, x)
                for x in X]
        assert got.tobytes() == np.array(want).tobytes()
    assert oracle.counters.zo_calls == calls * k
    if kind == "uniform":
        # the model's next values continue the per-point stream
        assert noise.samples(np.zeros((3, n))).tolist() == [
            -Delta + 2.0 * Delta * ref_rng.random() for _ in range(3)]


def test_oracle_validates_M_and_s():
    with pytest.raises(ValueError):
        make_oracle(lambda x: 0.0, M=-1.0)
    with pytest.raises(ValueError):
        make_oracle(lambda x: 0.0, s=0.0)


# -- p_star defaults ---------------------------------------------------------

def test_default_p_star_euclidean_is_one():
    assert default_p_star(NormPair.euclidean(), 50) == 1.0


def test_default_p_star_linf_formula_and_cap():
    n = 1000
    expected = math.sqrt(4.0 * math.log(2 * n) / n)
    assert default_p_star(NormPair.l1(n), n) == pytest.approx(expected)
    assert default_p_star(NormPair.l1(2), 2) == 1.0  # capped at 1


# -- estimator ---------------------------------------------------------------

def test_estimator_requires_radius_inside_neighborhood():
    oracle = make_oracle(lambda x: 0.0, s=0.05)
    with pytest.raises(ValueError):
        SmoothingEstimator(oracle, r=0.1, n=3, norms=NormPair.euclidean())
    SmoothingEstimator(oracle, r=0.04, n=3, norms=NormPair.euclidean())


def test_estimate_consumes_two_calls():
    oracle = make_oracle(lambda X: np.sum(X, axis=1))
    est = SmoothingEstimator(oracle, r=0.1, n=4, norms=NormPair.euclidean(),
                             rng=np.random.default_rng(0))
    for k in range(1, 6):
        est.estimate_gradient(np.zeros(4))
        assert oracle.counters.zo_calls == 2 * k


def test_estimator_is_deterministic_given_seed():
    def build():
        oracle = make_oracle(lambda X: np.sum(X ** 2, axis=1))
        return SmoothingEstimator(oracle, r=0.05, n=6, norms=NormPair.euclidean(),
                                  rng=np.random.default_rng(314))
    a = build()
    b = build()
    x = np.full(6, 0.3)
    for _ in range(10):
        ga = a.estimate_gradient(x)
        gb = b.estimate_gradient(x)
        assert np.array_equal(ga, gb)


class _RecordingOracle:
    """Value oracle f(x) = x[0] that keeps a copy of every query point."""

    s = 10.0
    M = 1.0

    def __init__(self):
        self.queries = []

    def evaluate(self, X):
        self.queries.extend(np.array(X))
        return X[:, 0]


class _ZeroFirstRow:
    """Generator stand-in whose first n normal draws are exactly zero."""

    def __init__(self, seed, n):
        self.rng = np.random.default_rng(seed)
        self.zeros = n

    def standard_normal(self, size):
        g = self.rng.standard_normal(size)
        flat = g.reshape(-1)
        k = min(self.zeros, flat.size)
        flat[:k] = 0.0
        self.zeros -= k
        return g


def _directions_seen(est, x, draws):
    # at x = 0 and r = 1 the first query of an estimate is exactly its direction
    for _ in range(draws):
        est.estimate_gradient(x)
    return est.oracle.queries[0::2]


@pytest.mark.parametrize("n", [1, 8, 200])
def test_estimator_directions_equal_successive_sample_sphere_draws(n):
    est = SmoothingEstimator(_RecordingOracle(), r=1.0, n=n, norms=NormPair.euclidean(),
                             rng=np.random.default_rng(77))
    ref = np.random.default_rng(77)
    draws = 2 * est._rows + 3           # crosses at least two block boundaries
    seen = _directions_seen(est, np.zeros(n), draws)
    assert len(seen) == draws
    for e in seen:
        assert np.array_equal(e, sample_sphere(n, ref))


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-100, 100))
@example(n=10, seed=0, exponent=0)
@example(n=50, seed=1, exponent=3)
@example(n=200, seed=2, exponent=-3)
def test_vecdot_sites_equal_the_one_row_kernels(n, seed, exponent):
    # n = 10, 50 and 200 are the workloads' dimensions (200: the lifted m = 20, n = 10)
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((3, 4, n)) * 10.0 ** exponent
    # a geometric-median node value: np.linalg.norm of each row of a (k, m, n) stack
    norms = _row_norms(D)
    assert norms.shape == (3, 4)
    assert all(_bits(norms[i]) == _bits(np.linalg.norm(D[i])) for i in np.ndindex(3, 4))
    # sine noise: Delta sin(<omega, x> / Delta) with <omega, x> the 1-d omega @ x
    omega, X = rng.standard_normal(n), D[0]
    want = [0.5 * float(np.sin(float(omega @ x) / 0.5)) for x in X]
    assert _bits(NoiseModel("adversarial_sine", 0.5, omega).samples(X)) == _bits(want)
    # estimator: each direction is sample_sphere's g / sqrt(g @ g), queried at x +- r e
    est = SmoothingEstimator(_RecordingOracle(), r=0.3, n=n, norms=NormPair.euclidean(),
                             rng=np.random.default_rng(seed))
    ref = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    for _ in range(min(est._rows + 2, 60)):   # past a block boundary where n >= 47
        est.estimate_gradient(x)
        e = sample_sphere(n, ref)
        plus, minus = est.oracle.queries[-2:]
        assert _bits(plus) == _bits(x + 0.3 * e) and _bits(minus) == _bits(x - 0.3 * e)


def test_estimator_skips_a_zero_row_as_sample_sphere_rejects_it():
    n = 8
    est = SmoothingEstimator(_RecordingOracle(), r=1.0, n=n, norms=NormPair.euclidean(),
                             rng=_ZeroFirstRow(5, n))
    ref = _ZeroFirstRow(5, n)
    seen = _directions_seen(est, np.zeros(n), 2 * est._rows + 3)
    for e in seen:
        assert np.array_equal(e, sample_sphere(n, ref))
    second_row = np.random.default_rng(5).standard_normal((2, n))[1]
    assert np.array_equal(seen[0], second_row / math.sqrt(second_row @ second_row))


def test_estimator_methods_share_one_direction_sequence():
    n, r = 8, 1.0
    oracle = _RecordingOracle()
    est = SmoothingEstimator(oracle, r=r, n=n, norms=NormPair.euclidean(),
                             rng=np.random.default_rng(19))
    ref = np.random.default_rng(19)
    x = np.zeros(n)
    for _ in range(3):
        g = est.estimate_gradient(x)
        e = sample_sphere(n, ref)
        assert np.array_equal(g, (n / (2.0 * r)) * (float(r * e[0]) - float(-r * e[0])) * e)


def test_estimator_mean_recovers_linear_gradient():
    # E[(n/2r)(f(x+re) - f(x-re)) e] = c for linear f, any r
    n = 8
    c = np.array([0.9, -1.4, 0.3, 0.0, 2.0, -0.7, 1.1, 0.5])
    oracle = make_oracle(lambda X: X @ c, M=float(np.linalg.norm(c)))
    est = SmoothingEstimator(oracle, r=0.1, n=n, norms=NormPair.euclidean(),
                             rng=np.random.default_rng(42))
    samples = 10 ** 5
    acc = np.zeros(n)
    acc_sq = np.zeros(n)
    x = np.zeros(n)
    for _ in range(samples):
        g = est.estimate_gradient(x)
        acc += g
        acc_sq += g * g
    mean = acc / samples
    var = acc_sq / samples - mean ** 2
    stderr = np.sqrt(var / samples)
    assert np.linalg.norm(mean - c) <= 3.0 * np.linalg.norm(stderr)


def test_estimator_second_moment_bound_linear_objective():
    n = 6
    rng = np.random.default_rng(8)
    c = rng.standard_normal(n)
    M = float(np.linalg.norm(c))
    Delta, r = 1e-3, 0.05
    oracle = make_oracle(lambda X: X @ c, M=M,
                         noise=NoiseModel("uniform", Delta, rng=np.random.default_rng(9)))
    est = SmoothingEstimator(oracle, r=r, n=n, norms=NormPair.euclidean(),
                             rng=np.random.default_rng(10))
    samples = 2 * 10 ** 4
    acc = 0.0
    x = np.zeros(n)
    for _ in range(samples):
        g = est.estimate_gradient(x)
        acc += float(g @ g)
    emp = acc / samples
    bound = 2.0 * est.p_star ** 2 * (10.0 * n * M ** 2 + n ** 2 * Delta ** 2 / r ** 2)
    assert emp <= bound


def test_smoothed_value_tracks_lipschitz_function_within_r():
    n = 5
    oracle = make_oracle(lambda X: np.linalg.norm(X, axis=1), M=1.0)
    est = SmoothingEstimator(oracle, r=0.1, n=n, norms=NormPair.euclidean(),
                             rng=np.random.default_rng(12))
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = rng.standard_normal(n)
        samples = 2000
        E = np.array([sample_sphere(n, est.rng) for _ in range(samples)])
        vals = oracle.clean_values(x + est.r * E)
        stderr = vals.std(ddof=1) / math.sqrt(samples)
        assert abs(vals.mean() - np.linalg.norm(x)) <= est.r * 1.0 + 3 * stderr


def test_estimator_raises_on_non_finite_values():
    oracle = make_oracle(lambda X: np.full(len(X), np.nan))
    est = SmoothingEstimator(oracle, r=0.1, n=2, norms=NormPair.euclidean(),
                             rng=np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        est.estimate_gradient(np.zeros(2))
