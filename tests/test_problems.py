import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sliding_opt
from sliding_opt.cli import main
from sliding_opt.oracles import NoiseModel
from sliding_opt.problems import (GeometricMedianInstance, LogRegLassoInstance,
                                  NesterovLassoInstance, SeparableLassoInstance,
                                  dataset_path, make_strongly_convex_instance,
                                  prox_grad_reference, read_libsvm, weiszfeld, wire_composite)


# -- geometric median --------------------------------------------------------

def test_anchor_law_moments():
    rng = np.random.default_rng(0)
    inst = GeometricMedianInstance.sample(20000, 5, rng)
    flat = inst.anchors.ravel()
    stderr = np.sqrt(2.0 / flat.size)
    assert abs(flat.mean() - 1.0) <= 3 * stderr
    assert abs(flat.var() - 2.0) <= 0.05


def test_node_values_and_subgradients():
    inst = GeometricMedianInstance(2, 1, np.array([[0.0], [2.0]]))
    assert inst.objective(np.array([1.0])) == pytest.approx(1.0)
    assert inst.node_values(np.array([[0.0], [5.0]])) == pytest.approx([0.0, 3.0])
    g = inst.node_subgrad(0, np.array([3.0]))
    assert g == pytest.approx([1.0])
    assert inst.node_subgrad(0, np.array([0.0])) == pytest.approx([0.0])
    rng = np.random.default_rng(1)
    inst2 = GeometricMedianInstance.sample(4, 3, rng)
    for i in range(4):
        x = rng.standard_normal(3)
        sg = inst2.node_subgrad(i, x)
        assert np.linalg.norm(sg) == pytest.approx(1.0)  # unit Lipschitz


def test_weiszfeld_beats_centroid_and_is_stationary():
    rng = np.random.default_rng(7)
    inst = GeometricMedianInstance.sample(9, 3, rng)
    x_star, val = weiszfeld(inst)
    assert val == pytest.approx(inst.objective(x_star))
    assert val <= inst.objective(inst.anchors.mean(axis=0)) + 1e-12
    assert val <= inst.objective(np.median(inst.anchors, axis=0)) + 1e-12
    # first-order optimality of the summed unit directions
    d = x_star - inst.anchors
    grad = (d / np.linalg.norm(d, axis=1, keepdims=True)).mean(axis=0)
    assert np.linalg.norm(grad) <= 1e-8


def test_node_oracles_share_lipschitz_and_noise():
    inst = GeometricMedianInstance(2, 1, np.array([[0.0], [2.0]]))
    noise = [NoiseModel("zero"), NoiseModel("uniform", 0.5, rng=np.random.default_rng(0))]
    oracles = inst.make_node_oracles(s=0.1, noise_models=noise)
    assert [o.M for o in oracles] == [1.0, 1.0]
    assert oracles[0].evaluate(np.array([[1.0], [3.0]])) == pytest.approx([1.0, 3.0])
    noisy = oracles[1].evaluate(np.array([[1.0], [1.0]]))
    assert (np.abs(noisy - 1.0) <= 0.5).all() and (noisy != 1.0).all()
    assert noisy[0] != noisy[1]   # one draw per row


# -- logistic regression -----------------------------------------------------

def dense_logreg(seed=0, m=40, n=6, l1=1e-3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    y = np.where(rng.uniform(size=m) < 0.5, -1.0, 1.0)
    import scipy.sparse as sp
    return LogRegLassoInstance(A=sp.csr_matrix(A), y=y, l1=l1), A


def test_logreg_value_and_gradient_at_origin():
    inst, A = dense_logreg()
    x0 = np.zeros(inst.n)
    assert inst.g_value(x0) == pytest.approx(np.log(2.0))
    expected = -(A.T @ inst.y) / (2.0 * inst.m)
    assert inst.g_grad(x0) == pytest.approx(expected)


def test_logreg_gradient_matches_finite_differences():
    inst, _ = dense_logreg(seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(inst.n) * 0.5
    g = inst.g_grad(x)
    h = 1e-6
    for j in range(inst.n):
        e = np.zeros(inst.n)
        e[j] = h
        fd = (inst.g_value(x + e) - inst.g_value(x - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, abs=1e-6)


def test_logreg_is_stable_in_the_tails():
    inst, _ = dense_logreg()
    big = 1e4 * np.ones(inst.n)
    for x in (big, -big):
        assert np.isfinite(inst.g_value(x))
        assert np.all(np.isfinite(inst.g_grad(x)))


def test_logreg_smoothness_matches_dense_spectral_norm():
    inst, A = dense_logreg(seed=9, m=30, n=5)
    exact = np.linalg.norm(A, ord=2) ** 2 / (4.0 * inst.m)
    assert inst.smoothness() == pytest.approx(exact, rel=1e-8)


def test_logreg_products_reuse_one_transpose(monkeypatch):
    inst, _ = dense_logreg(seed=5)
    x = np.random.default_rng(6).standard_normal(inst.n)
    t = inst.y * (inst.A @ x)
    # the expression g_grad computed when it transposed A on every call
    sig = 1.0 / (1.0 + np.exp(np.minimum(t, 50.0)))
    want = np.asarray(inst.A.T @ (-inst.y * sig / inst.m))
    built = []
    transpose = type(inst.A).transpose
    monkeypatch.setattr(type(inst.A), "transpose",
                        lambda self, *a, **kw: built.append(1) or transpose(self, *a, **kw))
    assert inst.g_grad(x).tobytes() == want.ravel().tobytes()
    inst.smoothness()
    assert built == []


def test_read_libsvm_round_trip(tmp_path):
    path = tmp_path / "toy.libsvm"
    path.write_text("+1 1:0.5 3:-1.25\n-1 2:2\n\n+1 1:1\n")
    inst = read_libsvm(path, l1=0.01)
    assert (inst.m, inst.n) == (3, 3)
    assert inst.y.tolist() == [1.0, -1.0, 1.0]
    dense = inst.A.toarray()
    assert dense[0].tolist() == [0.5, 0.0, -1.25]
    assert dense[1].tolist() == [0.0, 2.0, 0.0]
    assert inst.l1 == 0.01


def test_read_libsvm_label_conventions(tmp_path):
    zero_one = tmp_path / "zo.libsvm"
    zero_one.write_text("0 1:1\n1 1:2\n")
    assert read_libsvm(zero_one).y.tolist() == [-1.0, 1.0]
    one_two = tmp_path / "ot.libsvm"
    one_two.write_text("1 1:1\n2 1:2\n")
    assert read_libsvm(one_two).y.tolist() == [-1.0, 1.0]
    mixed = tmp_path / "bad.libsvm"
    mixed.write_text("1 1:1\n3 1:2\n")
    with pytest.raises(ValueError, match="label set"):
        read_libsvm(mixed)


def _logreg_exit_code(tmp_path, dataset) -> int:
    config = tmp_path / "logreg.conf"
    config.write_text(f"experiment = logreg\nmethod = zosa\nN = 2\ndataset = {dataset}\n")
    return main(["run", "--config", str(config)])


def test_read_libsvm_rejects_a_repeated_feature_index(tmp_path, capsys):
    path = tmp_path / "dup.libsvm"
    path.write_text("-1 1:2.0\n1 3:1.0 3:2.0\n")
    with pytest.raises(ValueError, match=r"dup\.libsvm:2: feature index 3 repeated"):
        read_libsvm(path)
    assert _logreg_exit_code(tmp_path, path) == 2
    assert "dup.libsvm:2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_read_libsvm_rejects_a_non_finite_value(value, tmp_path, capsys):
    path = tmp_path / "bad.libsvm"
    path.write_text(f"-1 1:2.0\n1 1:1.0\n1 2:{value}\n")
    with pytest.raises(ValueError, match=rf"bad\.libsvm:3: non-finite value in '2:{value}'"):
        read_libsvm(path)
    assert _logreg_exit_code(tmp_path, path) == 2
    assert "bad.libsvm:3" in capsys.readouterr().err


def test_read_libsvm_errors_carry_line_numbers(tmp_path):
    bad_label = tmp_path / "a.libsvm"
    bad_label.write_text("+1 1:1\nxyz 1:2\n")
    with pytest.raises(ValueError, match=r"a\.libsvm:2"):
        read_libsvm(bad_label)
    bad_feature = tmp_path / "b.libsvm"
    bad_feature.write_text("+1 1:one\n")
    with pytest.raises(ValueError, match=r"b\.libsvm:1"):
        read_libsvm(bad_feature)
    bad_index = tmp_path / "c.libsvm"
    bad_index.write_text("+1 0:2\n")
    with pytest.raises(ValueError, match="index 0 < 1"):
        read_libsvm(bad_index)
    empty = tmp_path / "d.libsvm"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="empty dataset"):
        read_libsvm(empty)


def test_package_import_leaves_scipy_unloaded():
    # scipy is read only with a LIBSVM file; a fresh interpreter shows what
    # importing the package alone loads
    src = os.path.dirname(os.path.dirname(os.path.abspath(sliding_opt.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, sliding_opt; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_dataset_path_resolution(tmp_path, monkeypatch):
    target = tmp_path / "data" / "german.numer"
    target.parent.mkdir()
    target.write_text("+1 1:1\n")
    monkeypatch.setenv("SLIDING_OPT_DATA", str(tmp_path / "data"))
    assert dataset_path("german.numer") == str(target)
    assert dataset_path(str(target)) == str(target)
    monkeypatch.delenv("SLIDING_OPT_DATA")
    assert dataset_path("german.numer") == "german.numer"  # caller sees ENOENT


# -- worst-case smooth objective ---------------------------------------------

def test_worstcase_gradient_matches_finite_differences():
    inst = NesterovLassoInstance(n=7)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(7)
    g = inst.g_grad(x)
    h = 1e-6
    for j in range(7):
        e = np.zeros(7)
        e[j] = h
        fd = (inst.g_value(x + e) - inst.g_value(x - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, abs=1e-5)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 80), seed=st.integers(0, 2 ** 32 - 1),
       L=st.sampled_from((4.0, 0.3, 1e3)))
def test_worstcase_value_matches_the_diff_formula_bit_for_bit(n, seed, L):
    rng = np.random.default_rng(seed)
    # entries of either sign with magnitudes from 1e-8 to 1e8, mixed within x
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    inst = NesterovLassoInstance(n=n, L=L)
    quad = x[0] ** 2 + float(np.sum(np.diff(x) ** 2)) + x[-1] ** 2
    old = inst.L / 8.0 * quad - inst.L / 4.0 * x[0]
    assert np.float64(inst.g_value(x)).tobytes() == np.float64(old).tobytes()


def test_worstcase_hessian_spectrum_stays_below_L():
    inst = NesterovLassoInstance(n=20)
    H = np.zeros((20, 20))
    origin = inst.g_grad(np.zeros(20))
    for j in range(20):
        e = np.zeros(20)
        e[j] = 1.0
        H[:, j] = inst.g_grad(e) - origin  # gradient is affine
    lam_max = np.linalg.eigvalsh(0.5 * (H + H.T))[-1]
    assert lam_max <= inst.L + 1e-9
    # exact tridiagonal spectrum: (L/4) * (2 - 2 cos(pi k/(n+1)))
    expected = inst.L / 4.0 * (2.0 - 2.0 * np.cos(np.pi * 20.0 / 21.0))
    assert lam_max == pytest.approx(expected, abs=1e-9)


def smooth_minimizer(inst: NesterovLassoInstance) -> np.ndarray:
    """The minimizer of the worst-case g alone: x_i = 1 - i / (n + 1)."""
    i = np.arange(1, inst.n + 1, dtype=float)
    return 1.0 - i / (inst.n + 1.0)


def test_worstcase_smooth_minimizer():
    inst = NesterovLassoInstance(n=13)
    x_star = smooth_minimizer(inst)
    assert x_star[0] == pytest.approx(1.0 - 1.0 / 14.0)
    assert np.linalg.norm(inst.g_grad(x_star)) <= 1e-12
    assert inst.g_value(x_star) == pytest.approx(-inst.L / 8.0 * 13.0 / 14.0)


# -- separable verification instances ----------------------------------------

def test_separable_closed_form_optimum():
    inst = SeparableLassoInstance(z=np.array([1.0]), h=np.array([1.0]), l1=0.3)
    assert inst.minimizer() == pytest.approx([0.7])
    assert inst.optimal_value() == pytest.approx(0.255)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=1)
        assert inst.psi0(x) >= inst.optimal_value() - 1e-12


def test_verification_instance_shape():
    inst, feasible = make_strongly_convex_instance(10, seed=1, mu=1.0, L=1.0, l1=0.1)
    assert inst.L == 1.0 and float(np.min(inst.h)) == 1.0
    assert inst.M_bound() == pytest.approx(0.1 * np.sqrt(10.0))
    x_star = inst.minimizer()
    assert feasible.contains(x_star)
    assert np.all(np.abs(x_star) < 2.0)


def test_strongly_convex_instance_shape():
    inst, feasible = make_strongly_convex_instance(10, seed=2)
    assert float(np.min(inst.h)) == pytest.approx(0.1)
    assert inst.L == pytest.approx(1.0)
    assert feasible.contains(inst.minimizer())


def test_wire_composite_exposes_exact_reference():
    inst, feasible = make_strongly_convex_instance(6, seed=3, mu=1.0, L=1.0, l1=0.1)
    problem, sugg = wire_composite(inst, feasible, eps=1e-3,
                                   psi0_reference=inst.optimal_value(),
                                   sphere_rng=np.random.default_rng(0))
    assert problem.psi0_reference == inst.optimal_value()
    assert wire_composite(inst, feasible)[0].psi0_reference is None
    assert problem.estimator.r == pytest.approx(sugg["r"])
    assert problem.L == inst.L
    assert problem.psi0(inst.minimizer()) == pytest.approx(inst.optimal_value())


def test_wire_composite_noise_kinds():
    inst, feasible = make_strongly_convex_instance(4, seed=4, mu=1.0, L=1.0, l1=0.1)
    noisy, _ = wire_composite(inst, feasible, Delta=1e-4, noise_kind="uniform",
                              sphere_rng=np.random.default_rng(0),
                              noise_rng=np.random.default_rng(1))
    assert noisy.f_oracle.Delta == pytest.approx(1e-4)
    adv, _ = wire_composite(inst, feasible, Delta=1e-4, noise_kind="adversarial_sine",
                            sphere_rng=np.random.default_rng(0))
    assert adv.f_oracle.noise.kind == "adversarial_sine"
    clean, _ = wire_composite(inst, feasible, sphere_rng=np.random.default_rng(0))
    assert clean.f_oracle.Delta == 0.0
    with pytest.raises(ValueError, match="rng"):
        wire_composite(inst, feasible, Delta=1e-4, noise_kind="uniform")


# -- proximal-gradient reference ---------------------------------------------

def test_prox_grad_reference_recovers_separable_optimum():
    inst, _ = make_strongly_convex_instance(8, seed=6, mu=1.0, L=1.0, l1=0.1)
    out = prox_grad_reference(inst.g_value, inst.g_grad, inst.l1, inst.L,
                              np.zeros(8), max_iter=20000)
    assert np.abs(out["x"] - inst.minimizer()).max() <= 1e-10
    assert out["value"] == pytest.approx(inst.optimal_value(), abs=1e-12)
    assert out["iterations"] > 0


def test_prox_grad_reference_reaches_fixpoint_on_worstcase():
    inst = NesterovLassoInstance(n=12)
    out = prox_grad_reference(inst.g_value, inst.g_grad, inst.l1, inst.L,
                              np.zeros(12), max_iter=50000)
    x = out["x"]
    step = 1.0 / inst.L
    pulled = x - step * inst.g_grad(x)
    fix = np.sign(pulled) * np.maximum(np.abs(pulled) - step * inst.l1, 0.0)
    assert np.abs(fix - x).max() <= 1e-9
    assert out["value"] <= inst.g_value(smooth_minimizer(inst)) \
        + inst.f_values(smooth_minimizer(inst)) + 1e-12


def test_prox_grad_reference_validates_L():
    with pytest.raises(ValueError):
        prox_grad_reference(lambda x: 0.0, lambda x: np.zeros(2), 0.0, 0.0, np.zeros(2))
