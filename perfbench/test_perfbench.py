"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from sliding_opt import SolverAbort  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(capsys, name, trace):
    result = _result(capsys, "--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def star_rep():
    jobs = workloads.WORKLOADS["geom-star-bench"](0, True)
    return workloads.run_jobs(jobs)


def _tampered(rep, index, **changes):
    rep = replace(rep, runs=list(rep.runs))
    rep.runs[index] = replace(rep.runs[index], **changes)
    return rep


def test_flipped_body_byte_is_a_failure(star_rep):
    golden = checks.summary(star_rep)
    assert checks.check_reps([star_rep], golden).failed == 0
    body = star_rep.runs[0].body
    flipped = body[:-2] + chr(ord(body[-2]) ^ 1) + body[-1]
    outcome = checks.check_reps([_tampered(star_rep, 0, body=flipped)], golden)
    assert outcome.failed == 1 and "golden mismatch" in outcome.problems[0]


def test_changed_counter_is_a_failure(star_rep):
    record = star_rep.runs[0]
    trace = replace(record.trace, rows=list(record.trace.rows))
    trace.rows[-1] = replace(trace.rows[-1], zo_calls=trace.rows[-1].zo_calls + 1)
    outcome = checks.check_reps([star_rep, _tampered(star_rep, 0, trace=trace)])
    assert outcome.failed == 1
    assert any("zo = " in p for p in outcome.problems)
    assert any("differs from the first repetition" in p for p in outcome.problems)


def test_aborted_baseline_is_censored_but_aborted_zosa_fails(star_rep):
    assert 0.0 < checks.censored_frac(star_rep) < 1.0
    abort = SolverAbort("diverged", SimpleNamespace(k=1, t=0, phase=0))
    methods = [r.cfg.method for r in star_rep.runs]
    baseline = methods.index("gd")
    rep = _tampered(star_rep, baseline, trace=None, error=abort, body="")
    assert checks.check_reps([rep]).failed == 0
    rep = _tampered(star_rep, methods.index("zosa"), trace=None, error=abort, body="")
    assert checks.check_reps([rep]).failed == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nesterov-zosa",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
