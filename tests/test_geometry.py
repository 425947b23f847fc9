import numpy as np
import pytest

from sliding_opt.geometry import FeasibleSet, NormPair, make_setup, project, prox_step

rng = np.random.default_rng(20260822)


# -- norm pairs --------------------------------------------------------------

def test_norm_pair_euclidean_self_dual():
    np_e = NormPair.euclidean()
    assert (np_e.primal_id, np_e.dual_id) == ("euclidean", "euclidean")
    assert (np_e.C1, np_e.C2, np_e.C3) == (1.0, 1.0, 1.0)


def test_norm_pair_l1_constants_hold_on_random_vectors():
    n = 9
    np_l1 = NormPair.l1(n)
    assert np_l1.C1 == 1.0
    assert np_l1.C2 == pytest.approx(np.sqrt(n))
    assert np_l1.C3 == pytest.approx(np.sqrt(n))
    assert (np_l1.primal_id, np_l1.dual_id) == ("l1", "linf")
    for _ in range(200):
        v = rng.standard_normal(n)
        l2 = np.linalg.norm(v)
        linf, l1 = np.linalg.norm(v, np.inf), np.linalg.norm(v, 1)
        assert linf <= np_l1.C1 * l2 + 1e-12
        assert l2 <= np_l1.C2 * linf + 1e-12
        assert l1 <= np_l1.C3 * l2 + 1e-12


# -- projections -------------------------------------------------------------

def test_project_ball2_radial_case():
    ball = FeasibleSet.ball2(np.zeros(2), 1.0)
    out = project(ball, np.array([3.0, 4.0]))
    assert out == pytest.approx(np.array([0.6, 0.8]))


def test_project_inside_point_is_fixed():
    ball = FeasibleSet.ball2(np.zeros(3), 2.0)
    z = np.array([0.5, -0.3, 0.1])
    assert project(ball, z) == pytest.approx(z)


def _variational_inequality_holds(feasible, z, trials=60):
    pz = project(feasible, z)
    assert feasible.contains(pz, tol=1e-9)
    for _ in range(trials):
        w = _random_feasible(feasible)
        if float((z - pz) @ (w - pz)) > 1e-8:
            return False
    return True


def _random_feasible(feasible):
    if feasible.kind == "ball2":
        d = rng.standard_normal(feasible.n)
        d /= np.linalg.norm(d)
        return feasible.center + d * feasible.radius * rng.uniform(0, 1)
    if feasible.kind == "box":
        return rng.uniform(feasible.lo, feasible.hi)
    if feasible.kind == "simplex":
        return rng.dirichlet(np.ones(feasible.n))
    return rng.standard_normal(feasible.n)


@pytest.mark.parametrize("feasible", [
    FeasibleSet.ball2(np.ones(4), 1.5),
    FeasibleSet.box(-np.ones(4), 2 * np.ones(4)),
    FeasibleSet.simplex(4),
])
def test_project_satisfies_variational_inequality(feasible):
    for _ in range(25):
        z = 3.0 * rng.standard_normal(4)
        assert _variational_inequality_holds(feasible, z)


def test_project_is_nonexpansive():
    simplex = FeasibleSet.simplex(5)
    for _ in range(100):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        pa, pb = project(simplex, a), project(simplex, b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_project_simplex_feasibility_tolerance():
    for n in (1, 2, 17):
        z = 10.0 * rng.standard_normal(n)
        p = project(FeasibleSet.simplex(n), z)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0.0)


def test_box_with_inverted_bounds_errors():
    with pytest.raises(ValueError):
        FeasibleSet.box(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_project_rejects_non_finite():
    with pytest.raises(ValueError):
        project(FeasibleSet.simplex(2), np.array([np.nan, 0.0]))


# -- prox step ---------------------------------------------------------------

def _bregman(setup, x, y):
    """V(x, y) of the setup's distance-generating function: 0.5 * ||x - y||^2,
    or for entropy the simplex KL divergence sum_i y_i ln(y_i / x_i)."""
    if setup.dgf_id == "half_sq_euclid":
        return 0.5 * float((x - y) @ (x - y))
    return float(np.sum(y * np.log(y / x)))


def _prox_objective(setup, a, x_anchor, u_prev, beta, p, u):
    return (float(a @ u) + beta * _bregman(setup, x_anchor, u)
            + beta * p * _bregman(setup, u_prev, u))


def test_prox_step_identity_when_linear_term_vanishes():
    setup = make_setup(NormPair.euclidean(), FeasibleSet.box(-np.ones(3), np.ones(3)),
                       "half_sq_euclid")
    x = np.array([0.2, -0.5, 0.9])
    out = prox_step(setup, np.zeros(3), x, x, beta=2.0, p=1.0)
    assert out == pytest.approx(x)


def test_prox_step_euclid_against_grid_search():
    # independent oracle: exhaustive 2-d grid at resolution 1e-3
    setup = make_setup(NormPair.euclidean(), FeasibleSet.box(np.zeros(2), np.ones(2)),
                       "half_sq_euclid")
    a = np.array([0.7, -1.3])
    x_anchor = np.array([0.4, 0.6])
    u_prev = np.array([0.8, 0.1])
    beta, p = 1.5, 0.5
    got = prox_step(setup, a, x_anchor, u_prev, beta, p)
    grid = np.linspace(0.0, 1.0, 1001)
    best, best_val = None, np.inf
    for u0 in grid:
        # inner minimization over the second coordinate is quadratic: solve exactly
        u1 = (beta * x_anchor[1] + beta * p * u_prev[1] - a[1]) / (beta * (1 + p))
        u1 = min(max(u1, 0.0), 1.0)
        val = _prox_objective(setup, a, x_anchor, u_prev, beta, p, np.array([u0, u1]))
        if val < best_val:
            best, best_val = np.array([u0, u1]), val
    assert np.abs(got - best).max() <= 2e-3
    assert _prox_objective(setup, a, x_anchor, u_prev, beta, p, got) <= best_val + 1e-9


def test_prox_step_entropy_against_grid_search():
    setup = make_setup(NormPair.l1(2), FeasibleSet.simplex(2), "entropy")
    a = np.array([0.3, -0.9])
    x_anchor = np.array([0.6, 0.4])
    u_prev = np.array([0.2, 0.8])
    beta, p = 0.7, 1.5
    got = prox_step(setup, a, x_anchor, u_prev, beta, p)
    assert abs(got.sum() - 1.0) <= 1e-12 and np.all(got >= 0)
    ts = np.linspace(1e-6, 1 - 1e-6, 100001)
    vals = (a[0] * ts + a[1] * (1 - ts)
            + beta * (ts * np.log(ts / x_anchor[0]) + (1 - ts) * np.log((1 - ts) / x_anchor[1]))
            + beta * p * (ts * np.log(ts / u_prev[0]) + (1 - ts) * np.log((1 - ts) / u_prev[1])))
    t_best = ts[np.argmin(vals)]
    assert got[0] == pytest.approx(t_best, abs=2e-5)


@pytest.mark.parametrize("make", [
    lambda: (make_setup(NormPair.euclidean(), FeasibleSet.ball2(np.zeros(3), 1.0),
                        "half_sq_euclid"), "ball"),
    lambda: (make_setup(NormPair.l1(3), FeasibleSet.simplex(3), "entropy"), "simplex"),
])
def test_prox_step_beats_random_feasible_points(make):
    setup, _ = make()
    for _ in range(30):
        if setup.dgf_id == "entropy":
            x_anchor = rng.dirichlet(np.ones(3))
            u_prev = rng.dirichlet(np.ones(3))
        else:
            x_anchor = _random_feasible(setup.feasible)
            u_prev = _random_feasible(setup.feasible)
        a = rng.standard_normal(3)
        beta = rng.uniform(0.5, 3.0)
        p = rng.uniform(0.3, 2.0)
        u = prox_step(setup, a, x_anchor, u_prev, beta, p)
        base = _prox_objective(setup, a, x_anchor, u_prev, beta, p, u)
        for _ in range(20):
            w = rng.dirichlet(np.ones(3)) if setup.dgf_id == "entropy" \
                else _random_feasible(setup.feasible)
            assert base <= _prox_objective(setup, a, x_anchor, u_prev, beta, p, w) + 1e-9


def test_prox_step_parameter_validation():
    setup = make_setup(NormPair.euclidean(), FeasibleSet.box(-np.ones(2), np.ones(2)),
                       "half_sq_euclid")
    with pytest.raises(ValueError):
        prox_step(setup, np.zeros(2), np.zeros(2), np.zeros(2), beta=0.0, p=1.0)
    with pytest.raises(ValueError):
        prox_step(setup, np.zeros(2), np.zeros(2), np.zeros(2), beta=1.0, p=0.0)
    with pytest.raises(ValueError):
        prox_step(setup, np.zeros(3), np.zeros(2), np.zeros(2), beta=1.0, p=1.0)


# -- setup assembly ----------------------------------------------------------

def test_make_setup_diameters():
    ball = make_setup(NormPair.euclidean(), FeasibleSet.ball2(np.zeros(3), 2.0),
                      "half_sq_euclid")
    assert ball.D_X == pytest.approx(4.0)
    assert ball.D_XV == pytest.approx(4.0)

    box = make_setup(NormPair.euclidean(),
                     FeasibleSet.box(np.zeros(4), np.ones(4)), "half_sq_euclid")
    assert box.D_X == pytest.approx(2.0)

    ent = make_setup(NormPair.l1(8), FeasibleSet.simplex(8), "entropy")
    assert ent.D_X == pytest.approx(2.0)
    assert ent.D_XV == pytest.approx(np.sqrt(2.0 * np.log(8)))


def test_make_setup_whole_space_needs_bound_hint():
    with pytest.raises(ValueError):
        make_setup(NormPair.euclidean(), FeasibleSet.whole_space(3), "half_sq_euclid")
    ok = make_setup(NormPair.euclidean(), FeasibleSet.whole_space(3, bound_hint=5.0),
                    "half_sq_euclid")
    assert ok.D_X == 5.0


def test_make_setup_rejects_mismatched_pairings():
    with pytest.raises(ValueError):
        make_setup(NormPair.euclidean(), FeasibleSet.simplex(3), "entropy")
    with pytest.raises(ValueError):
        make_setup(NormPair.l1(3), FeasibleSet.box(-np.ones(3), np.ones(3)), "entropy")
    with pytest.raises(ValueError):
        make_setup(NormPair.l1(3), FeasibleSet.simplex(3), "half_sq_euclid")
