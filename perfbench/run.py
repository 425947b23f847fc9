"""Benchmark of sliding-opt through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. One
process and one thread run the workload's jobs closed-loop (see
workloads.py), every run is checked (see checks.py), and the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones; with --trace 1
the per-layer ones from a traced repetition (see tracing.py), whose spans are
written to .perfbench/ in the checkout. `--record-golden` re-records
golden.json at the default seed. README.md describes the workloads and every
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 11
MIN_REPS = 2

END_TO_END_UNITS = {"run_s": "s", "zo_per_s": "1/s", "fo_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    stem = name.split(".")[1]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_pct", "%"),
                         ("_frac", "frac")):
        if stem.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sliding-opt benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (the benchmark's own tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record golden.json at the default seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed: must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds: must be >= 1")
    return args


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _setup_probe(args) -> list:
    """Set-up seconds measured in SETUP_PROBES fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _golden(args):
    import workloads
    if args.tiny or args.seed != workloads.DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text())[args.workload]


def _count_totals(rep) -> tuple:
    fo = zo = 0
    for record in rep.runs:
        if record.trace is not None:
            f, z, _ = record.counters()
            fo, zo = fo + f, zo + z
    return fo, zo


def _end_to_end(args, jobs) -> tuple:
    import checks
    import workloads
    setups = _setup_probe(args)
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(workloads.run_jobs(jobs))
        elapsed = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and elapsed + reps[-1].wall_s > args.seconds:
            break
    outcome = checks.check_reps(reps, _golden(args))
    walls = [rep.wall_s for rep in reps]
    totals = [_count_totals(rep) for rep in reps]
    metrics = {
        "run_s": statistics.median(walls),
        "zo_per_s": statistics.median(z / rep.solver_s for (_, z), rep in zip(totals, reps)),
        "fo_per_s": statistics.median(f / rep.solver_s for (f, _), rep in zip(totals, reps)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = checks.summary(reps[0])
    lo, hi = _quartiles(walls)
    lines = [f"  run_s        {metrics['run_s']:.4f} s      lower   median of {len(walls)} "
             f"repetitions (q25 {lo:.4f}, q75 {hi:.4f})",
             f"  zo_per_s     {metrics['zo_per_s']:.1f} 1/s   higher  {totals[0][1]} zo calls "
             f"per repetition",
             f"  fo_per_s     {metrics['fo_per_s']:.2f} 1/s   higher  {totals[0][0]} fo calls "
             f"per repetition",
             f"  setup_s      {metrics['setup_s']:.4f} s      lower   median of {len(setups)} "
             f"fresh processes",
             f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB    lower",
             f"  failed_frac  {outcome.failed / outcome.attempted:g} 1      lower   "
             f"{outcome.failed} of {outcome.attempted} checked runs and tables",
             f"  gap_final    {summary['gap_final']} 1 lower   median final gap/gap0 of the "
             f"sliding runs"]
    if summary["comm_to_gap"]:
        lines.append(f"  comm_to_gap  {summary['comm_to_gap']} rounds lower   zosa median "
                     f"rounds to gap/gap0 <= 1e-2")
    return outcome, metrics, lines


def _traced(args, jobs, import_s) -> tuple:
    import checks
    import micro
    import tracing
    import workloads
    untraced = workloads.run_jobs(jobs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workloads.run_jobs(jobs, on_run=tracer.next_run)
    finally:
        tracer.restore()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    spans = tracing.Spans(tracer)
    outcome = checks.check_reps([untraced, traced], _golden(args))
    counted = tracing.count_problems(spans, traced)
    outcome.add("traced counts", counted)
    metrics = tracing.layer_metrics(spans, len(traced.runs))
    bodies = sum(record.trace is not None for record in traced.runs)
    metrics.update({
        "sliding.cap_hits": outcome.cap_hits,
        "baselines.censored_frac": checks.censored_frac(traced),
        "trace.serialize_ms": 1e3 * traced.serialize_s / max(bodies, 1),
        "cli.import_s": import_s,
        "tracer.run_s": traced.wall_s,
        "tracer.untraced_run_s": untraced.wall_s,
        "tracer.overhead_pct": 100.0 * (traced.wall_s / untraced.wall_s - 1.0),
    })
    stand_ins = [name for name in micro.STAND_INS if metrics.get(name) is None]
    metrics.update(micro.measure(list(micro.ALWAYS) + stand_ins))
    unreached = [name for name, value in metrics.items() if value is None]
    metrics.update(dict.fromkeys(unreached, 0.0))
    lines = []
    for name in sorted(metrics):
        note = ""
        if name in unreached:
            note = "  (not reached, and no fixed-input number)"
        elif name in stand_ins:
            note = "  (not reached by this workload: fixed-input number)"
        elif name in micro.ALWAYS:
            note = "  (fixed input)"
        lines.append(f"  {name:40s} {metrics[name]:.6g} {layer_unit(name)}{note}")
    if tracer.patches.missing:
        lines.append("  not wrapped (absent from the program): "
                     + ", ".join(sorted(set(tracer.patches.missing))))
    return outcome, metrics, lines


def _record_golden() -> int:
    import checks
    import workloads
    golden = {}
    for name, jobs in workloads.WORKLOADS.items():
        rep = workloads.run_jobs(jobs(workloads.DEFAULT_SEED, False))
        outcome = checks.check_reps([rep])
        if outcome.failed:
            print("\n".join(outcome.problems), file=sys.stderr)
            return 1
        golden[name] = checks.summary(rep)
        print(f"{name}: {len(rep.runs)} runs recorded")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sliding_opt" / "__init__.py").is_file():
        print(f"error: no sliding_opt package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sliding_opt  # noqa: F401
    import_s = time.perf_counter() - t_import
    # zogd's oversized tuning candidates overflow on purpose; the checks
    # count them as censored, so their warnings are noise here
    warnings.simplefilter("ignore", RuntimeWarning)
    sys.path.insert(0, str(HERE))
    import workloads

    if args.record_golden:
        return _record_golden()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    jobs = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    if args.setup_probe:
        print(repr(workloads.setup_seconds(jobs, t_import)))
        return 0

    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace})")
    if args.trace:
        outcome, metrics, lines = _traced(args, jobs, import_s)
        units = {name: layer_unit(name) for name in metrics}
    else:
        outcome, metrics, lines = _end_to_end(args, jobs)
        units = END_TO_END_UNITS
    print("\n".join(lines))
    for problem in outcome.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
