"""Golden trace bodies: fixed configs whose SHA-256 body hashes must not move.

The first four hashes and final counters were recorded with per-call sphere
and noise draws, before the estimator drew its directions in blocks; the two
mzosa-synthetic-* entries were recorded while the restarted solver still ran
one solver call per phase; the last three were recorded while the sliding and
baseline loops each kept their own checkpoint and budget bookkeeping. The two
logreg entries were recorded while logreg and nesterov still had their own
wiring apart from `wire_composite`. A change made for speed or design must
leave every one of them as it is. Each config
runs in well under a second and crosses several direction-block boundaries.
"""

import hashlib

import numpy as np
import pytest

from sliding_opt.harness import RunConfig, run
from sliding_opt.sliding import SolverAbort

GOLDEN = {
    "zosa-synthetic-uniform": (
        RunConfig(experiment="synthetic", method="zosa", seed=5, n=6, N=30,
                  noise_kind="uniform", Delta=1e-4, checkpoints=6),
        "db6a63916b540e7219ebdd7ac3d273d7d50f40a7424bac7c3298c3abf78b41df", (30, 25102, 0)),
    "mzosa-synthetic": (
        RunConfig(experiment="synthetic", method="mzosa", seed=3, n=6, mu=0.1, rho0=2.0,
                  phases=4, N0=10, noise_kind="uniform", Delta=1e-5, checkpoints=3),
        "6640d5cf340824285a887e4d7e36611f83e3be1a188bb6473fe606843e360f36", (40, 20996, 0)),
    "zosa-geom-chain": (
        RunConfig(experiment="geom_median", method="zosa", seed=2, n=3, m=6,
                  topology="chain", R=100.0, max_comm_rounds=600, checkpoints=5),
        "e4e86dd76348d2ddef82371b660add58a17d2b4967cd7b344c3ba8a9d0a0b6d6", (600, 3394, 600)),
    "zogd-synthetic": (
        RunConfig(experiment="synthetic", method="zogd", seed=4, n=6, N=3000, checkpoints=5),
        "fc4a55e77a381b6b5966316469bcad4103a26d50caa575edfd425f9c36fa77b6", (0, 6000, 0)),
    # cross-phase state of the restarted solver: a budget that halts inside
    # phase 3 with the bound column on, and a T_cap that binds from phase 2 only
    "mzosa-synthetic-halt-phase3": (
        RunConfig(experiment="synthetic", method="mzosa", seed=7, n=6, mu=0.1, rho0=2.0,
                  phases=4, N0=10, noise_kind="uniform", Delta=1e-5, with_bound=True,
                  max_zo_calls=8000, checkpoints=3),
        "e8f24cfd62cac4c0c7853e6c867b785e9de11890a56efbfe7bb32f918b422b00", (29, 8358, 0)),
    "mzosa-synthetic-cap-phase2": (
        RunConfig(experiment="synthetic", method="mzosa", seed=7, n=6, mu=0.1, rho0=2.0,
                  phases=4, N0=10, T_cap=200, checkpoints=3),
        "76ea8191868b0f31fe2124e5ebfeca65d01a850759c87da7e167cda2c6b919d4", (40, 9610, 0)),
    # the shared run recorder: the zosa bound column, and gd/zogd budget halts
    # (zogd with the running mean as its reported point)
    "zosa-nesterov-bound": (
        RunConfig(experiment="nesterov", method="zosa", seed=1, n=8, max_zo_calls=4000,
                  checkpoints=4, with_bound=True),
        "508afe2f7c2ba326b9ae9abf5a47eb679dbaeb0ac06e455d291eca0c76f2a57d", (285, 4000, 0)),
    "gd-geom-star-comm-halt": (
        RunConfig(experiment="geom_median", method="gd", seed=2, n=3, m=6, topology="star",
                  N=400, max_comm_rounds=150, checkpoints=5),
        "79772a1786538a360a5653b128dde5dd31e924bd37447a5c6614c5b9998c3952", (150, 0, 150)),
    "zogd-synthetic-avg-halt": (
        RunConfig(experiment="synthetic", method="zogd", seed=4, n=6, N=3000, max_zo_calls=1500,
                  averaging="uniform_avg", checkpoints=5),
        "6a4e3b5113722298c574c6d3c16f9d09571ed4b6ee85e4de399c3812da2068bc", (0, 1500, 0)),
    # one setting per run quantity: recorded with the constant step spelled
    # eta = 0.05, and with the wall-budget horizon spelled N_horizon = 12
    "gd-synthetic-constant": (
        RunConfig(experiment="synthetic", method="gd", seed=6, n=6, N=400,
                  step_rule="constant", eta0=0.05, checkpoints=5),
        "1aa45a3bdd6fda5607763a1a04410677670cd3135eaa98fdecf5284e70a6b328", (400, 0, 0)),
    "zosa-synthetic-wall": (
        RunConfig(experiment="synthetic", method="zosa", seed=8, n=6, N=12, max_wall_ms=1e9,
                  checkpoints=4),
        "59f1ac2d6cf023af02738e741a251718ef150f3c495a2bcce8c57268e6623807", (12, 402, 0)),
    # recorded while the baseline step called the checked projection and the
    # lifted subgradient looped over the nodes: zogd's full-value oracle on
    # the lifted problem
    "zogd-geom-star": (
        RunConfig(experiment="geom_median", method="zogd", seed=3, n=3, m=6, topology="star",
                  R=100.0, N=2000, checkpoints=5),
        "9571c196bca349320133e164a00ca5429145c111e554ecaea93f8438dd98e010", (0, 4000, 4000)),
    # recorded while every oracle answered one point per call: sine noise,
    # one uniform noise stream per node under zosa and under zogd's
    # full-value oracle, and the running-best reported point
    "zosa-synthetic-sine": (
        RunConfig(experiment="synthetic", method="zosa", seed=5, n=6, N=30,
                  noise_kind="adversarial_sine", Delta=1e-4, checkpoints=6),
        "67566e16b401f67294e1e3e3912f15b193ed0e448351346e833cd6599b3f81df", (30, 25102, 0)),
    "zosa-geom-chain-uniform": (
        RunConfig(experiment="geom_median", method="zosa", seed=2, n=3, m=6,
                  topology="chain", R=100.0, noise_kind="uniform", Delta=1e-5,
                  max_comm_rounds=600, checkpoints=5),
        "3ba8b64b08400d36f42b0b75240476b2465f7830890dcc39ece310548a012f1f", (600, 3450, 600)),
    "zogd-geom-star-uniform": (
        RunConfig(experiment="geom_median", method="zogd", seed=3, n=3, m=6, topology="star",
                  R=100.0, N=2000, noise_kind="uniform", Delta=1e-5, checkpoints=5),
        "f1498eed2b464c59c5947b1edbb775d3e67300f0a74ee434b692f5404cf46160", (0, 4000, 4000)),
    "zogd-synthetic-best": (
        RunConfig(experiment="synthetic", method="zogd", seed=4, n=6, N=3000,
                  averaging="running_best", checkpoints=5),
        "b327ca340c6bd7acde103ec9970c1d5514aa594f0090f1fa0142033c0ed3c33c", (0, 6000, 0)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_body_matches_golden_hash(name):
    cfg, digest, counters = GOLDEN[name]
    trace = run(cfg)
    final = trace.final()
    assert (final.fo_calls, final.zo_calls, final.comm_rounds) == counters
    assert hashlib.sha256(trace.body_text().encode()).hexdigest() == digest


# recorded with the same per-node loop: a gd run on the lifted problem whose
# step diverges, pinned by the step it aborts at and the iterate it reports
ABORT_GOLDEN = (
    RunConfig(experiment="geom_median", method="gd", seed=2, n=3, m=6, topology="star",
              R=100.0, N=400, eta0=5.0, checkpoints=2),
    "non-finite iterate at step 104 (outer k=104, inner t=0, phase=0)",
    "220059335b9c28ddd6740520e1e8b9fbdac2073ef451614ae769ea15c0949f69")


def test_aborting_run_matches_golden_state():
    cfg, message, digest = ABORT_GOLDEN
    with pytest.raises(SolverAbort) as info:
        run(cfg)
    assert str(info.value) == message
    assert hashlib.sha256(info.value.state.x.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("name, key, value", [
    ("mzosa-synthetic-halt-phase3", "budget.halted", "zo_calls"),
    ("mzosa-synthetic-cap-phase2", "derived.T_cap_hit", "true"),
    ("zosa-nesterov-bound", "budget.halted", "zo_calls"),
    ("gd-geom-star-comm-halt", "budget.halted", "comm_rounds"),
    ("zogd-synthetic-avg-halt", "budget.halted", "zo_calls"),
])
def test_restart_state_reaches_metadata(name, key, value):
    assert run(GOLDEN[name][0]).metadata[key] == value


def test_mzosa_wall_clock_runs_across_phases():
    walls = [row.wall_ms for row in run(GOLDEN["mzosa-synthetic"][0]).rows]
    assert walls == sorted(walls)


def _write_libsvm(path, rows=60, n=8, seed=11):
    """A fixed-seed LIBSVM file: labels +-1, each feature present with
    probability 0.6, values printed to six decimals."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(rows):
        label = 1 if rng.random() < 0.5 else -1
        cols = np.flatnonzero(rng.random(n) < 0.6) + 1
        lines.append(f"{label} " + " ".join(f"{j}:{rng.standard_normal():.6f}" for j in cols))
    path.write_text("\n".join(lines) + "\n")


# logreg on a generated dataset, so the builder is pinned without german.numer
LOGREG_GOLDEN = {
    "zosa-logreg-bound": (
        dict(method="zosa", with_bound=True, max_zo_calls=4000, checkpoints=4),
        "3d5c8d1f05b86f1b678661d81f77a59da6128424b65e0f17ff777d5f7f7583b6", (246, 3968, 0)),
    "zogd-logreg-uniform": (
        dict(method="zogd", noise_kind="uniform", Delta=1e-5, N=800, checkpoints=5),
        "36819516bd0262e4dae59807ef37514a2ed919e906c97f1b03da4a8f5ff9260c", (0, 1600, 0)),
}


@pytest.mark.parametrize("name", sorted(LOGREG_GOLDEN))
def test_logreg_trace_body_matches_golden_hash(name, tmp_path, monkeypatch):
    _write_libsvm(tmp_path / "golden.libsvm")
    monkeypatch.setenv("SLIDING_OPT_DATA", str(tmp_path))
    overrides, digest, counters = LOGREG_GOLDEN[name]
    trace = run(RunConfig(experiment="logreg", seed=3, dataset="golden.libsvm", **overrides))
    final = trace.final()
    assert (final.fo_calls, final.zo_calls, final.comm_rounds) == counters
    assert hashlib.sha256(trace.body_text().encode()).hexdigest() == digest
