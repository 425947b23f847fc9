"""Config parsing, seed streams, run metadata, replay, comparisons, CLI."""

import gc
import math
import os
import re
import warnings
import weakref
from dataclasses import fields, replace
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sliding_opt
from sliding_opt import harness
from sliding_opt.cli import main
from sliding_opt.geometry import FeasibleSet, NormPair, make_setup
from sliding_opt.harness import (EXPERIMENTS, METHODS, SEED_FREE, ConfigError, RunConfig,
                                 _finalize_metadata, _largest_N_for_zo, _zosa_zo_cost,
                                 apply_overrides, compare, config_from_metadata, from_mapping,
                                 load_config, parse_config_file, parse_metric, parse_seed_spec,
                                 read_fields, replay, run, seed_stream, validate)
from sliding_opt.oracles import NOISE_KINDS
from sliding_opt.sliding import SolverAbort, build_schedule, theoretical_bound
from sliding_opt.trace import RunTrace
from test_golden_bodies import _write_libsvm


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """
# demo config
experiment = synthetic
method = zosa
seed = 7
n = 6
N = 8
checkpoints = 4
"""


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_config_file_skips_comments_and_blanks(tmp_path):
    path = write_config(tmp_path, BASE)
    mapping = parse_config_file(path)
    assert mapping["experiment"] == "synthetic"
    assert mapping["N"] == "8"
    assert "#" not in mapping


def test_parse_config_file_reports_line_number(tmp_path):
    path = write_config(tmp_path, "experiment = synthetic\nnot a pair\n")
    with pytest.raises(ConfigError, match=r":2"):
        parse_config_file(path)


def test_overrides_win_over_file_values(tmp_path):
    path = write_config(tmp_path, BASE)
    cfg = load_config(path, ["N=20", "seed=3"])
    assert cfg.N == 20 and cfg.seed == 3
    assert cfg.n == 6


def test_override_without_equals_rejected():
    with pytest.raises(ConfigError, match="override"):
        apply_overrides({}, ["N20"])


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="budgetN"):
        from_mapping({"budgetN": "5"})


def test_coercions_int_float_bool_none():
    cfg = from_mapping({"max_zo_calls": "1e6", "with_bound": "true",
                        "rho0": "2.5", "N": "none", "eta0": ""})
    assert cfg.max_zo_calls == 10 ** 6
    assert cfg.with_bound is True
    assert cfg.rho0 == 2.5
    assert cfg.N is None and cfg.eta0 is None


def test_bad_int_and_required_value_rejected():
    with pytest.raises(ConfigError, match="N: expected an integer"):
        from_mapping({"N": "2.5"})
    with pytest.raises(ConfigError, match="seed: a value is required"):
        from_mapping({"seed": ""})


def base_cfg(**kw):
    cfg = RunConfig(experiment="synthetic", method="zosa", seed=1, n=6, N=5)
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


@pytest.mark.parametrize("kw,field", [
    (dict(method="bogus"), "method"),
    (dict(experiment="bogus"), "experiment"),
    (dict(N=None), "N"),
    (dict(experiment="geom_median", N=None, max_zo_calls=100, max_comm_rounds=10), "N"),
    (dict(method="gd", max_zo_calls=100), "max_zo_calls"),
    (dict(max_comm_rounds=10), "max_comm_rounds"),
    (dict(R=5.0), "R"),
    (dict(method="mzosa", N=None, mu=0.1), "rho0"),
    (dict(method="mzosa", N=None, rho0=1.0), "mu"),
    (dict(method="mzosa", rho0=1.0, mu=0.1), "N"),
    (dict(eps=0.0), "eps"),
    (dict(noise_kind="gaussian"), "noise_kind"),
    (dict(method="zogd", with_bound=True), "with_bound"),
    (dict(N=None, max_wall_ms=10.0), "max_wall_ms"),
    (dict(N=None, max_zo_calls=100, max_wall_ms=10.0), "max_wall_ms"),
    (dict(experiment="geom_median", L=2.0), "L"),
    (dict(experiment="geom_median", l1=0.1), "l1"),
    (dict(bound_hint=3.0), "bound_hint"),
    (dict(method="gd", T_cap=5), "T_cap"),
    (dict(experiment="geom_median", edge_file="g.edges"), "edge_file"),
    # rho0 / (mu * 2^phases) underflows to 0
    (dict(method="mzosa", N=None, rho0=10.0, mu=0.5, phases=1100), "phases"),
])
def test_validation_errors_name_the_field(kw, field):
    with pytest.raises(ConfigError, match=f"^{field}"):
        validate(base_cfg(**kw))


FLOAT_FIELDS = [name for name, hint in get_type_hints(RunConfig).items()
                if float in (hint, *get_args(hint))]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_settings_rejected(name, value):
    with pytest.raises(ConfigError, match=f"^{name}: must be finite"):
        validate(base_cfg(**{name: value}))


@pytest.mark.parametrize("name, value, message", [
    ("N", 2.5, "expected int"),                  # int fields reject floats ...
    ("N", True, "expected int"),                 # ... and bools
    ("seed", None, "expected int"),
    ("eps", "0.1", "expected float"),            # float fields take numbers only
    ("eps", True, "expected float"),
    ("with_bound", "no", "expected bool"),       # bool fields take bools only
    ("with_bound", 1, "expected bool"),
    ("out_path", 3, "expected str"),             # str fields take str only
])
def test_field_types_checked_for_configs_built_in_python(name, value, message):
    with pytest.raises(ConfigError, match=f"^{name}: {message}"):
        validate(base_cfg(**{name: value}))


def test_custom_topology_needs_edge_file():
    cfg = RunConfig(experiment="geom_median", method="zosa", N=3, topology="custom")
    with pytest.raises(ConfigError, match="^edge_file"):
        validate(cfg)


# ---------------------------------------------------------------------------
# seed streams


def test_seed_streams_are_independent_and_reproducible():
    a1 = seed_stream(42, "data").standard_normal(4)
    a2 = seed_stream(42, "data").standard_normal(4)
    b = seed_stream(42, "noise").standard_normal(4)
    c = seed_stream(43, "data").standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_seed_streams_per_node_index():
    x0 = seed_stream(5, "noise", 0).uniform(size=3)
    x1 = seed_stream(5, "noise", 1).uniform(size=3)
    base = seed_stream(5, "noise").uniform(size=3)
    assert not np.array_equal(x0, x1)
    assert not np.array_equal(x0, base)


def test_unknown_stream_rejected():
    with pytest.raises(ConfigError, match="stream"):
        seed_stream(1, "weights")


# ---------------------------------------------------------------------------
# the settings each run reads

PAIRS = [(experiment, method) for experiment in EXPERIMENTS for method in METHODS]
# a short run of every pair whose inner loops take more than one step; a
# pair's base is this without the settings the pair does not read
PAIR_BASE = dict(seed=1, n=3, N=3, checkpoints=2, noise_kind="uniform", Delta=1e-3, r=1e-3,
                 m=4, R=0.2, phases=1, N0=2, rho0=2.0, mu=0.1, dataset="a.libsvm")
# values off each setting's default (experiment and method pick the pair);
# CONTEXT is what a setting needs around it to be read at all
MOVES = {
    "seed": [2], "n": [4], "N": [4], "phases": [2], "N0": [3], "max_zo_calls": [2],
    "max_comm_rounds": [1], "max_wall_ms": [1e9], "checkpoints": [1, 3],
    "out_path": ["moved.csv"], "eps": [0.1], "r": [1e-2],
    "noise_kind": ["adversarial_sine"], "Delta": [1e-4], "topology": ["chain"],
    "m": [5], "edge_file": ["star4.edges"], "R": [1.0], "L": [2.0], "mu": [0.5],
    "c_const": [2.0], "C_const": [2.0], "T_cap": [1], "rho0": [4.0], "dataset": ["b.libsvm"],
    "l1": [0.5], "bound_hint": [10.0], "box_half": [1.0], "step_rule": ["constant"],
    "eta0": [1e-2], "eta_scale": [0.5], "averaging": ["uniform_avg"], "with_bound": [True],
    "reference": ["none"],
}
CONTEXT = {"edge_file": dict(topology="custom", edge_file="chain4.edges")}
DEFAULTS = RunConfig()


def pair_config(experiment, method) -> RunConfig:
    reads = read_fields(experiment, method)
    return RunConfig(experiment=experiment, method=method,
                     **{key: value for key, value in PAIR_BASE.items() if key in reads})


def write_pair_data(path):
    """The two datasets and two edge files the moves name, under path."""
    _write_libsvm(path / "a.libsvm")
    _write_libsvm(path / "b.libsvm", seed=12)
    (path / "chain4.edges").write_text("0 1\n1 2\n2 3\n")
    (path / "star4.edges").write_text("0 1\n0 2\n0 3\n")


def test_moves_cover_every_setting_and_stay_off_the_default():
    assert set(MOVES) == {f.name for f in fields(RunConfig)} - {"experiment", "method"}
    assert all(value != getattr(DEFAULTS, name)
               for name, values in MOVES.items() for value in values)


def _config_line(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


@pytest.mark.parametrize("experiment, method", PAIRS)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_unread_settings_are_rejected(experiment, method, data, tmp_path_factory, capsys):
    base = pair_config(experiment, method)
    validate(base)
    unread = sorted({f.name for f in fields(RunConfig)} - read_fields(experiment, method))
    name = data.draw(st.sampled_from(unread))
    value = data.draw(st.sampled_from(MOVES[name]))
    message = f"{name}: not read by experiment = {experiment} with method = {method}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        validate(replace(base, **{name: value}))

    path = tmp_path_factory.getbasetemp() / f"{experiment}-{method}.conf"
    path.write_text("".join(f"{f.name} = {_config_line(getattr(base, f.name))}\n"
                            for f in fields(RunConfig) if getattr(base, f.name) is not None))
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--set", f"{name}={_config_line(value)}"]) == 2
    assert message in capsys.readouterr().err


def _outcome(cfg) -> tuple:
    trace = run(cfg)
    return trace.body_text(), {key: value for key, value in trace.metadata.items()
                               if key.startswith("derived.")}


@pytest.mark.parametrize("experiment, method", PAIRS)
def test_every_read_setting_changes_the_body_or_a_derived_value(experiment, method, tmp_path,
                                                                monkeypatch):
    write_pair_data(tmp_path)
    monkeypatch.chdir(tmp_path)
    base = pair_config(experiment, method)
    # out_path and max_wall_ms are read but change neither
    skip = {"experiment", "method", "out_path", "max_wall_ms"}
    if (experiment, method) in SEED_FREE:
        skip.add("seed")
    base_outcome = _outcome(base)
    ignored = []
    for name in sorted(read_fields(experiment, method) - skip):
        before = replace(base, **CONTEXT.get(name, {}))
        outcome = _outcome(before) if name in CONTEXT else base_outcome
        if all(_outcome(replace(before, **{name: value})) == outcome for value in MOVES[name]):
            ignored.append(name)
    assert ignored == []


# ---------------------------------------------------------------------------
# runs and metadata


def test_run_echoes_every_config_field_into_metadata():
    trace = run(base_cfg())
    for f in fields(RunConfig):
        assert f"config.{f.name}" in trace.metadata
    assert trace.metadata["version"]
    assert "derived.r" in trace.metadata
    assert trace.metadata["reference.kind"] == "closed_form"


def test_config_from_metadata_round_trips():
    cfg = base_cfg(Delta=1e-4, noise_kind="uniform", r=0.02)
    trace = run(cfg)
    back = config_from_metadata(trace.metadata)
    assert back == cfg


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_config_field_round_trips_through_metadata(data):
    experiment, method = data.draw(st.sampled_from(PAIRS))
    cfg = pair_config(experiment, method)
    for name in (f.name for f in fields(RunConfig)):
        if name in read_fields(experiment, method) and name in MOVES and data.draw(st.booleans()):
            cfg = replace(cfg, **{**CONTEXT.get(name, {}),
                                  name: data.draw(st.sampled_from(MOVES[name]))})
    validate(cfg)
    trace = RunTrace()
    _finalize_metadata(trace, cfg, {}, {})
    back = config_from_metadata(trace.metadata)
    assert back == cfg
    assert all(type(getattr(back, f.name)) is type(getattr(cfg, f.name))
               for f in fields(RunConfig))


def test_replay_reproduces_trace_body_exactly():
    trace = run(base_cfg(seed=11))
    again = replay(trace)
    assert again.body_text() == trace.body_text()


def test_replay_from_saved_file(tmp_path):
    out = str(tmp_path / "t.csv")
    trace = run(base_cfg(out_path=out))
    assert os.path.exists(out)
    again = replay(out)
    assert again.body_text() == RunTrace.from_csv(out).body_text()


@pytest.mark.parametrize("experiment, method", PAIRS)
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_replay_of_a_saved_run_is_byte_identical(experiment, method, data, tmp_path_factory,
                                                  monkeypatch):
    """run, then replay its file: over each pair with drawn moves and, where
    the pair reads it, each noise kind."""
    root = tmp_path_factory.mktemp("replay")
    write_pair_data(root)
    monkeypatch.chdir(root)
    reads = read_fields(experiment, method)
    cfg = pair_config(experiment, method)
    moved = {name for name in sorted(reads & MOVES.keys() - {"out_path"})
             if data.draw(st.booleans(), label=f"move {name}")}
    # an edge file sets the topology and the node count
    if "edge_file" in moved:
        moved -= {"topology", "m"}
    for name in sorted(moved):
        cfg = replace(cfg, **{**CONTEXT.get(name, {}),
                              name: data.draw(st.sampled_from(MOVES[name]), label=name)})
    if "noise_kind" in reads:
        cfg = replace(cfg, noise_kind=data.draw(st.sampled_from(NOISE_KINDS), label="noise"))
    out = str(root / "trace.csv")
    trace = run(replace(cfg, out_path=out))
    again = replay(out)
    assert again.body_text() == trace.body_text() == RunTrace.from_csv(out).body_text()
    counters = ("fo_calls", "zo_calls", "comm_rounds")
    assert ([getattr(again.final(), c) for c in counters]
            == [getattr(trace.final(), c) for c in counters])


def test_replay_warns_on_a_version_mismatch():
    trace = run(base_cfg(seed=11))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        replay(trace)  # same version: no warning
    trace.metadata["version"] = "0.0.1"
    with pytest.warns(UserWarning, match=r"0\.0\.1.*" + re.escape(sliding_opt.__version__)):
        again = replay(trace)
    assert again.body_text() == trace.body_text()


def test_zosa_counters_fo_equals_N():
    trace = run(base_cfg(N=7))
    final = trace.final()
    assert final.fo_calls == 7
    assert final.step == 7
    assert final.zo_calls % 2 == 0


def test_geom_median_comm_equals_N_for_sliding():
    cfg = RunConfig(experiment="geom_median", method="zosa", seed=2, n=3, m=4,
                    topology="chain", N=6, checkpoints=3, T_cap=10)
    trace = run(cfg)
    assert trace.final().comm_rounds == 6
    assert trace.metadata["derived.nonconforming_compactness"] == "true"
    assert float(trace.metadata["derived.chi"]) > 1.0
    assert trace.rows[0].consensus_sq_norm is not None


def test_geom_median_replay_identical():
    cfg = RunConfig(experiment="geom_median", method="zogd", seed=4, n=3, m=4,
                    topology="star", N=5, checkpoints=3)
    trace = run(cfg)
    assert replay(trace).body_text() == trace.body_text()


def test_custom_topology_takes_node_count_from_edge_file(tmp_path):
    edges = tmp_path / "chain5.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n")
    cfg = RunConfig(experiment="geom_median", method="zosa", seed=2, n=3, topology="custom",
                    edge_file=str(edges), N=3, checkpoints=1)
    assert run(cfg).metadata["derived.m"] == "5"
    assert run(replace(cfg, topology="star", edge_file=None)).metadata["derived.m"] == "20"


def test_synthetic_convex_run_reads_L():
    trace = run(base_cfg(L=5.0))
    assert trace.metadata["derived.L"] == "5.0"
    assert trace.metadata["config.mu"] == "0.0"


def test_mzosa_counts_phases():
    cfg = RunConfig(experiment="synthetic", method="mzosa", seed=3, n=6,
                    mu=0.1, rho0=2.0, phases=2, N0=4, checkpoints=2)
    trace = run(cfg)
    assert trace.final().fo_calls == 8
    assert trace.final().phase == 2
    assert trace.metadata["derived.N0"] == "4"


def test_reference_none_blanks_gap_column():
    trace = run(base_cfg(reference="none"))
    assert all(row.gap_vs_reference is None for row in trace.rows)
    assert trace.metadata.get("reference.kind") is None


def test_noise_kinds_run_through_harness():
    for kind in ("uniform", "adversarial_sine"):
        trace = run(base_cfg(noise_kind=kind, Delta=1e-5, N=3, seed=2))
        assert trace.final().step == 3


# ---------------------------------------------------------------------------
# horizon resolution


def zero_moment_kwargs():
    # M_est = 0 and Delta = 0 force T_k = 1, so the scheduled cost is 2N
    return dict(L=1.0, M_est=0.0, n=4, C1=1.0, p_star=1.0, Delta=0.0,
                r=0.1, D_tilde=1.0, mu=0.0, T_cap=100)


def test_largest_N_for_zo_budget_boundaries():
    kw = zero_moment_kwargs()
    assert _zosa_zo_cost(kw, 5) == 10
    assert _largest_N_for_zo(kw, 100) == 50
    assert _largest_N_for_zo(kw, 101) == 50
    assert _largest_N_for_zo(kw, 1) == 1
    assert _largest_N_for_zo(kw, 2) == 1


def test_zo_budget_derives_largest_fitting_N():
    cfg = base_cfg(N=None, max_zo_calls=500)
    trace = run(cfg)
    assert trace.metadata["derived.budget_primary"] == "max_zo_calls"
    assert trace.final().zo_calls <= 500
    assert trace.metadata.get("budget.halted") is None
    N = int(trace.metadata["derived.N"])
    sched_kw = dict(L=float(trace.metadata["derived.L"]),
                    M_est=float(trace.metadata["derived.M_est"]),
                    n=int(trace.metadata["derived.dim"]), C1=1.0,
                    p_star=float(trace.metadata["derived.p_star"]),
                    Delta=0.0, r=float(trace.metadata["derived.r"]),
                    D_tilde=float(trace.metadata["derived.D_tilde"]),
                    mu=0.0, T_cap=10 ** 6)
    assert _zosa_zo_cost(sched_kw, N) <= 500
    assert _zosa_zo_cost(sched_kw, N + 1) > 500


def test_wall_budget_runs_to_horizon_or_halts():
    trace = run(base_cfg(N=4, max_wall_ms=60000.0))
    assert trace.final().step == 4
    assert trace.metadata["derived.budget_primary"] == "N"
    halted = run(base_cfg(N=50, max_wall_ms=1e-6))
    assert halted.metadata["budget.halted"] == "wall_ms"
    assert halted.final().step < 50


def test_comm_budget_converts_per_method():
    for method, steps in (("zosa", 12), ("gd", 12), ("zogd", 6)):
        cfg = RunConfig(experiment="geom_median", method=method, seed=1, n=3, m=4,
                        topology="star", max_comm_rounds=12, checkpoints=3,
                        **({"T_cap": 5} if method == "zosa" else {}))
        trace = run(cfg)
        assert int(trace.metadata["derived.N"]) == steps
        assert trace.final().comm_rounds <= 12 + 2


# ---------------------------------------------------------------------------
# bound reporting


def test_bound_column_nonincreasing_and_exact_at_final():
    cfg = base_cfg(N=10, with_bound=True, checkpoints=10)
    trace = run(cfg)
    assert trace.rows[0].bound is None
    bounds = [row.bound for row in trace.rows if row.step > 0]
    assert all(b is not None for b in bounds)
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    meta = trace.metadata
    sched = build_schedule(L=float(meta["derived.L"]), M_est=float(meta["derived.M_est"]),
                           n=int(meta["derived.dim"]), C1=1.0,
                           p_star=float(meta["derived.p_star"]), Delta=0.0,
                           r=float(meta["derived.r"]),
                           D_tilde=float(meta["derived.D_tilde"]), N=10)
    problem_setup = make_setup(NormPair.euclidean(),
                               FeasibleSet.box(-2.0 * np.ones(6), 2.0 * np.ones(6)),
                               "half_sq_euclid")
    # same estimator constants: radius r, M from the instance, no noise
    class Est:
        pass
    est = Est()
    est.oracle = Est()
    est.oracle.M = float(meta["derived.M_est"])
    est.oracle.Delta = 0.0
    est.r = float(meta["derived.r"])
    est.n = 6
    est.p_star = 1.0
    expected = theoretical_bound(sched, problem_setup, est, 10)
    assert trace.final().bound == expected


def test_gap_stays_under_reported_bound():
    trace = run(base_cfg(N=20, with_bound=True, seed=9))
    final = trace.final()
    assert final.gap_vs_reference <= final.bound


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from([("synthetic", "zosa"), ("nesterov", "zosa"),
                             ("geom_median", "zosa"), ("synthetic", "mzosa")]),
       noise_kind=st.sampled_from(NOISE_KINDS), Delta=st.sampled_from((1e-6, 1e-4, 1e-3)),
       n=st.integers(1, 5), N=st.integers(1, 14), phases=st.integers(1, 2),
       m=st.integers(2, 5))
def test_seed_mean_gap_stays_under_theoretical_bound(pair, noise_kind, Delta, n, N, phases, m):
    """The bound limits the expected gap, so every checkpoint row's gap,
    averaged over 3 seeds, is at most the row's bound (no slack). A run whose
    inner loop hit T_cap is outside the theorem and skipped."""
    experiment, method = pair
    cfg = RunConfig(experiment=experiment, method=method, n=n, with_bound=True, checkpoints=N,
                    noise_kind=noise_kind, Delta=0.0 if noise_kind == "zero" else Delta,
                    T_cap=2000)
    if method == "zosa":
        cfg = replace(cfg, N=N)
    else:
        cfg = replace(cfg, mu=0.1, rho0=2.0, phases=phases, N0=N)
    if experiment == "geom_median":
        cfg = replace(cfg, m=m, R=1.0)
    traces = [run(replace(cfg, seed=seed)) for seed in range(3)]
    if any(t.metadata["derived.T_cap_hit"] == "true" for t in traces):
        return
    for rows in zip(*(t.rows for t in traces)):
        assert len({(row.step, row.phase, row.bound) for row in rows}) == 1
        if rows[0].bound is not None:
            assert sum(row.gap_vs_reference for row in rows) / 3 <= rows[0].bound


# ---------------------------------------------------------------------------
# comparisons


def test_parse_seed_spec_forms():
    assert parse_seed_spec("1..4") == [1, 2, 3, 4]
    assert parse_seed_spec("3,5,9") == [3, 5, 9]
    assert parse_seed_spec("7") == [7]
    with pytest.raises(ConfigError):
        parse_seed_spec("4..1")
    with pytest.raises(ConfigError):
        parse_seed_spec("a..b")


def test_parse_metric_forms():
    assert parse_metric("gap_at_budget") == ("gap_at_budget", None)
    assert parse_metric("budget_to_gap:0.01") == ("budget_to_gap", 0.01)
    with pytest.raises(ConfigError):
        parse_metric("speed")
    with pytest.raises(ConfigError):
        parse_metric("budget_to_gap:zero")
    for tail in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="finite"):
            parse_metric(f"budget_to_gap:{tail}")


def test_compare_table_shape_and_tuning():
    cfg = base_cfg(N=12, checkpoints=6)
    rows, text = compare(cfg, ["zosa", "gd"], [1, 2, 3])
    assert [row["method"] for row in rows] == ["zosa", "gd"]
    assert rows[0]["eta_scale"] == 1.0
    assert rows[1]["eta_scale"] in (0.1, 1.0, 10.0)
    assert all(row["seeds"] == 3 for row in rows)
    assert all(row["q25"] <= row["median"] <= row["q75"] for row in rows)
    lines = text.strip().split("\n")
    assert lines[0] == "method,topology,metric,median,q25,q75,seeds,eta_scale"
    assert len(lines) == 3
    assert lines[1].startswith("zosa,-,gap_at_budget,")


def test_compare_budget_to_gap_censors_with_inf():
    cfg = base_cfg(N=3, checkpoints=3)
    rows, _ = compare(cfg, ["zosa"], [1, 2], metric="budget_to_gap:1e-9")
    assert math.isinf(rows[0]["median"])


def test_compare_budget_to_gap_reports_cost():
    cfg = base_cfg(N=15, checkpoints=15)
    rows, _ = compare(cfg, ["zosa"], [1, 2, 3], metric="budget_to_gap:0.5")
    assert 0 < rows[0]["median"] < float("inf")


def test_compare_explicit_eta0_skips_tuning():
    cfg = base_cfg(N=6, eta0=0.5)
    rows, _ = compare(cfg, ["gd"], [1, 2])
    assert rows[0]["eta_scale"] == 1.0


def test_compare_drops_the_problem_of_a_censored_candidate(monkeypatch):
    """A caller that keeps a censored run's SolverAbort keeps its state, not
    the run's problem, direction block and partial trace."""
    run_gd, run_one = harness.gd_run, harness.run
    problems, kept = [], []

    def gd(problem, *args, **kwargs):
        problems.append(weakref.ref(problem))
        return run_gd(problem, *args, **kwargs)

    def keep_abort(cfg):
        try:
            return run_one(cfg)
        except SolverAbort as abort:
            kept.append((abort, problems[-1]))
            raise

    monkeypatch.setattr(harness, "gd_run", gd)
    monkeypatch.setattr(harness, "run", keep_abort)
    # the 10x tuning candidate diverges on this instance
    cfg = RunConfig(experiment="geom_median", method="gd", m=5, n=3, N=200, R=100.0,
                    checkpoints=2)
    rows, _ = compare(cfg, ["gd"], [1])
    assert rows[0]["eta_scale"] != 10.0 and len(kept) == 1
    abort, problem = kept[0]
    gc.collect()
    assert problem() is None
    state = abort.state
    assert (state.k, state.t, state.phase) == (200, 0, 0)
    assert state.x.shape == (15,)


@pytest.mark.parametrize("experiment, method", sorted(SEED_FREE))
def test_seed_free_pairs_draw_nothing_from_the_seed(experiment, method, tmp_path, monkeypatch):
    write_pair_data(tmp_path)
    monkeypatch.chdir(tmp_path)
    base = pair_config(experiment, method)
    assert all(_outcome(replace(base, seed=seed)) == _outcome(base) for seed in (0, 2, 7))


@pytest.mark.parametrize("experiment", ["nesterov", "logreg"])
@pytest.mark.parametrize("eta0", [None, 0.5])
def test_compare_runs_a_seed_free_pair_once_per_candidate(experiment, eta0, tmp_path,
                                                          monkeypatch):
    write_pair_data(tmp_path)
    monkeypatch.chdir(tmp_path)
    cfg = replace(pair_config(experiment, "gd"), N=20, checkpoints=4, eta0=eta0)
    seeds = [1, 2, 3, 4, 5]
    run_one, seen = harness.run, []
    monkeypatch.setattr(harness, "run", lambda c: seen.append((c.method, c.seed)) or run_one(c))
    _, text = compare(cfg, ["gd", "zogd"], seeds)
    # gd: one run per tuning candidate (or one untuned run), on the first
    # seed; zogd reads its seed and is tuned and run as before
    candidates = 3 if eta0 is None else 1
    per_seed = [1] * candidates + seeds[1:]
    assert seen == [("gd", 1)] * candidates + [("zogd", seed) for seed in per_seed]
    # the table is the one a run per seed gives
    monkeypatch.setattr(harness, "SEED_FREE", frozenset())
    seen.clear()
    assert compare(cfg, ["gd", "zogd"], seeds)[1] == text
    assert seen == [(method, seed) for method in ("gd", "zogd") for seed in per_seed]


def test_compare_requires_reference():
    cfg = base_cfg(reference="none", N=4)
    with pytest.raises(ConfigError, match="reference"):
        compare(cfg, ["zosa"], [1])


def test_compare_writes_csv(tmp_path):
    out = str(tmp_path / "bench.csv")
    cfg = base_cfg(N=5, checkpoints=3)
    _, text = compare(cfg, ["zosa"], [1], out_path=out)
    assert open(out).read() == text


# ---------------------------------------------------------------------------
# command line


def test_cli_run_writes_trace(tmp_path, capsys):
    out = str(tmp_path / "out.csv")
    path = write_config(tmp_path, BASE + f"out_path = {out}\n")
    assert main(["run", "--config", path]) == 0
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.out
    assert os.path.exists(out)


def test_cli_run_prints_trace_without_out_path(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["run", "--config", path, "--set", "N=3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# sliding-opt trace v1\n")
    assert "step,fo_calls,zo_calls" in out


def test_cli_set_overrides_and_with_bound(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["run", "--config", path, "--set", "N=4", "--set", "with_bound=true"]) == 0
    out = capsys.readouterr().out
    assert "# config.with_bound = true" in out
    header = [l for l in out.split("\n") if l.startswith("step,")][0]
    assert header.endswith(",bound")
    with pytest.raises(SystemExit):
        main(["run", "--config", path, "--with-bound"])


def test_cli_validation_failures_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["run", "--config", path, "--set", "method=bogus"]) == 2
    assert main(["run", "--config", str(tmp_path / "nope.conf")]) == 2
    assert main(["run", "--config", path, "--set", "frobnicate=1"]) == 2
    err = capsys.readouterr().err
    assert "method" in err and "frobnicate" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_runtime_abort_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    code = main(["run", "--config", path, "--set", "experiment=nesterov",
                 "--set", "method=gd", "--set", "step_rule=constant",
                 "--set", "eta0=1e200", "--set", "N=5"])
    assert code == 3
    assert "runtime abort" in capsys.readouterr().err


def test_cli_bench_prints_table(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    code = main(["bench", "--config", path, "--set", "N=6",
                 "--methods", "zosa", "--seeds", "1..2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("method,topology,metric,")
    assert "\nzosa,-," in out


def test_cli_bench_runs_each_method_with_the_settings_it_reads(tmp_path, capsys):
    path = write_config(tmp_path, BASE + "T_cap = 5\nstep_rule = constant\n")
    # the config's own method is a placeholder: bench runs each listed method
    code = main(["bench", "--config", path, "--set", "N=6", "--set", "method=mzosa",
                 "--methods", "zosa,gd", "--seeds", "1..2"])
    assert code == 0
    cfg = load_config(path, ["N=6"])
    _, zosa = compare(replace(cfg, step_rule="inv_sqrt"), ["zosa"], [1, 2])
    _, gd = compare(replace(cfg, T_cap=10 ** 6), ["gd"], [1, 2])
    assert capsys.readouterr().out.splitlines() == zosa.splitlines() + gd.splitlines()[1:]


def test_cli_bench_rejects_a_setting_no_method_reads(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    code = main(["bench", "--config", path, "--set", "topology=chain",
                 "--methods", "zosa,gd", "--seeds", "1"])
    assert code == 2
    assert ("topology: not read by experiment = synthetic with methods = zosa,gd"
            in capsys.readouterr().err)


def test_cli_phases_that_underflow_the_restart_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    code = main(["run", "--config", path, "--set", "method=mzosa", "--set", "N=none",
                 "--set", "mu=0.1", "--set", "rho0=2.0", "--set", "phases=1100"])
    assert code == 2
    assert "phases: rho0 / (mu * 2^phases)" in capsys.readouterr().err


def test_cli_bench_rejects_a_non_finite_target(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    code = main(["bench", "--config", path, "--methods", "zosa", "--seeds", "1..2",
                 "--metric", "budget_to_gap:nan"])
    assert code == 2
    assert "metric" in capsys.readouterr().err


def test_cli_inspect_graph(capsys):
    assert main(["inspect-graph", "--topology", "star", "--m", "5"]) == 0
    out = capsys.readouterr().out
    assert "chi = 5" in out
    assert "eigenvalues = 0 1 1 1 5" in out
    assert main(["inspect-graph", "--topology", "pentagon"]) == 2


@pytest.mark.parametrize("name", ["topology_tag", "_validate", "ring"])
def test_cli_inspect_graph_rejects_unknown_topology(name, capsys):
    assert main(["inspect-graph", "--topology", name, "--m", "5"]) == 2
    assert "topology:" in capsys.readouterr().err


def test_cli_inspect_graph_custom_edge_file(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n")
    assert main(["inspect-graph", "--topology", "custom",
                 "--edge-file", str(edges)]) == 0
    out = capsys.readouterr().out
    assert "m = 3" in out
    assert main(["inspect-graph", "--topology", "custom"]) == 2
    assert main(["inspect-graph", "--topology", "chain"]) == 0
    assert "m = 20" in capsys.readouterr().out
