"""Every use the benchmark makes of the package still resolves.

An ast scan of perfbench/*.py, which tier-1 never imports on the paths that
touch most of the API (the `--trace 1` micro layers), and one run of the
micro numbers, whose attribute uses on runtime objects the scan cannot see.
The scan flags:

- a name imported from `sliding_opt` that the package no longer has;
- an attribute read on such a name that is gone, e.g. `NormPair.l1`;
- a keyword of a call to such a name that its signature does not take,
  e.g. a `RunConfig(...)` field that was removed;
- a `"config.<field>"` metadata key whose field is not a RunConfig field.

A second scan collects the `config.*` and `derived.*` keys that
perfbench/checks.py reads from each sliding run's trace, and tiny `zosa` and
`mzosa` runs must carry them: a trimmed echo or a removed setting would
otherwise surface only as a KeyError inside the benchmark.

The benchmark sees the runs inside a `compare` call only by wrapping the
function its workloads name as RUN_ENTRY, so `compare` must make every run
through it; a `compare` routed around it would leave every run unobserved.
"""

import ast
import importlib
import inspect
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from sliding_opt import RunConfig, compare, run

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_FILES = sorted(BENCH_DIR.glob("*.py"))
CONFIG_KEY = re.compile(r"config\.(\w+)")
METADATA_KEY = re.compile(r"(config|derived)\.\w+")


def _package_names(tree) -> tuple:
    """(local name -> package object, (line, problem) list) for the imports from
    sliding_opt."""
    names, problems = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sliding_opt":
                    module = alias.name if alias.asname else "sliding_opt"
                    names[alias.asname or "sliding_opt"] = importlib.import_module(module)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sliding_opt"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    names[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    problems.append((node.lineno, f"{node.module} has no {alias.name}"))
    return names, problems


def _resolve(node, names):
    """The package object an expression like `Name` or `Name.attr` names, else None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names)
        return getattr(owner, node.attr, None) if owner is not None else None
    return None


def unresolved(source: str) -> list:
    tree = ast.parse(source)
    names, problems = _package_names(tree)
    field_names = {f.name for f in fields(RunConfig)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = _resolve(node.value, names)
            if owner is not None and not hasattr(owner, node.attr):
                problems.append((node.lineno, f"{ast.unparse(node)} does not exist"))
        elif isinstance(node, ast.Call):
            target = _resolve(node.func, names)
            if not callable(target):
                continue
            params = inspect.signature(target).parameters
            if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
                continue
            problems.extend((node.lineno, f"{ast.unparse(node.func)}() takes no {kw.arg}=")
                            for kw in node.keywords if kw.arg and kw.arg not in params)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = CONFIG_KEY.fullmatch(node.value)
            if match and match.group(1) not in field_names:
                problems.append((node.lineno, f"{node.value!r} is not a RunConfig field"))
    return [f"{line}: {text}" for line, text in sorted(problems)]


def test_scan_flags_each_kind_of_stale_use():
    source = ("import sliding_opt\n"
              "from sliding_opt import NormPair, RunConfig, retired_solver\n"
              "NormPair.euclidean()\n"
              "NormPair.l9()\n"
              "RunConfig(experiment='synthetic', eta=0.1)\n"
              "sliding_opt.run(RunConfig())\n"
              "sliding_opt.gone\n"
              "meta['config.mu'], meta['config.N_horizon']\n")
    assert unresolved(source) == [
        "2: sliding_opt has no retired_solver",
        "4: NormPair.l9 does not exist",
        "5: RunConfig() takes no eta=",
        "7: sliding_opt.gone does not exist",
        "8: 'config.N_horizon' is not a RunConfig field",
    ]


def test_benchmark_files_are_found():
    assert {"checks.py", "micro.py", "workloads.py"} <= {p.name for p in BENCH_FILES}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_benchmark_use_of_the_package_resolves(path):
    assert unresolved(path.read_text()) == []


def test_micro_numbers_run_on_the_package(monkeypatch):
    # e.g. problem.f_oracle.evaluate(x): f_oracle exists only at run time
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    micro = importlib.import_module("micro")
    names = ("network.lifted_evaluate_us.m20n10", "network.apply_W_us",
             "baselines.step_us.gd", "baselines.step_us.zogd")
    us = micro.measure(names)
    assert sorted(us) == sorted(names)
    assert all(math.isfinite(v) and v > 0 for v in us.values()), us


def metadata_keys(source: str) -> tuple:
    """(every config./derived. key written out in source, those inside _schedule)."""
    tree = ast.parse(source)

    def keys(root) -> set:
        return {node.value for node in ast.walk(root) if isinstance(node, ast.Constant)
                and isinstance(node.value, str) and METADATA_KEY.fullmatch(node.value)}

    schedule = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "_schedule")
    return keys(tree), keys(schedule)


@pytest.mark.parametrize("experiment", ["synthetic", "nesterov", "geom_median"])
def test_sliding_traces_carry_the_metadata_perfbench_checks_read(experiment):
    every, schedule = metadata_keys((BENCH_DIR / "checks.py").read_text())
    assert {"config.mu", "derived.N", "derived.N0"} <= every and "config.T_cap" in schedule
    shape = dict(experiment=experiment, seed=1, n=3, checkpoints=1)
    if experiment == "geom_median":
        shape.update(m=3, R=0.2)
    zosa = run(RunConfig(method="zosa", N=2, **shape)).metadata
    mzosa = run(RunConfig(method="mzosa", mu=0.1, rho0=2.0, phases=1, N0=2, **shape)).metadata
    assert schedule - (zosa.keys() & mzosa.keys()) == set()
    assert every - (zosa.keys() | mzosa.keys()) == set()


def test_compare_makes_every_run_through_the_benchmark_run_entry(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    module, name = importlib.import_module("workloads").RUN_ENTRY
    module = importlib.import_module(module)
    entry, seen = getattr(module, name), []

    def observed(cfg):
        seen.append((cfg.seed, cfg.eta_scale))
        return entry(cfg)

    monkeypatch.setattr(module, name, observed)
    seeds = [1, 2, 3]
    rows, _ = compare(RunConfig(experiment="synthetic", n=3, N=2, checkpoints=1), ["gd"], seeds)
    # three tuning candidates on the first seed, then one run per further seed
    assert len(seen) == 3 + (len(seeds) - 1)
    assert sorted(seen[:3]) == [(1, 0.1), (1, 1.0), (1, 10.0)]
    assert seen[3:] == [(seed, rows[0]["eta_scale"]) for seed in seeds[1:]]
