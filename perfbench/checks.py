"""Correctness checks on every run a repetition made.

At any seed each run must satisfy the paper's oracle accounting, recomputed
from the trace's own metadata with the public `build_schedule`:

- zosa: fo == N (the outer steps taken), zo == 2 * sum_k T_k
- mzosa: fo == N0 * phases, zo == 2 * sum over phases of sum_k T_k
- lifted (geom_median) zosa and gd: comm == fo; zogd: comm == zo
- gd: zo == 0; zogd: fo == 0 and zo == 2 * steps

Every repetition must repeat the first one byte for byte. At the default seed
the runs, counters and compare tables must also equal golden.json, recorded
when the benchmark was written. A baseline run that raises SolverAbort is an
expected, censored outcome (compare() scores it inf); any other exception, or
an abort of a sliding run, is a failure.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

from sliding_opt import SolverAbort, build_schedule

BASELINES = ("gd", "zogd")
SUMMARY_KEYS = ("gap_final", "comm_to_gap", "censored_frac")


@dataclass
class Outcome:
    """Checked items of a workload's repetitions."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    cap_hits: int = 0

    def add(self, label: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def _meta(trace, key: str) -> str:
    return trace.metadata.get(key, "")


def _schedule(trace, N: int, D_tilde: float):
    meta = trace.metadata
    mu = float(meta["config.mu"])
    return build_schedule(L=float(meta["derived.L"]), M_est=float(meta["derived.M_est"]),
                          n=int(meta["derived.dim"]), C1=1.0,
                          p_star=float(meta["derived.p_star"]),
                          Delta=float(meta["config.Delta"]), r=float(meta["derived.r"]),
                          D_tilde=D_tilde, N=N, mu=mu if mu > 0 else 0.0,
                          T_cap=int(meta["config.T_cap"]),
                          c_const=float(meta["config.c_const"]),
                          C_const=float(meta["config.C_const"]))


def identities(record) -> tuple:
    """(problems, capped outer steps) for one run that returned a trace."""
    trace = record.trace
    method = record.cfg.method
    fo, zo, comm = record.counters()
    steps = trace.final().step
    lifted = record.cfg.experiment == "geom_median"
    problems = []
    capped = 0

    def expect(name, got, want):
        if got != want:
            problems.append(f"{name} = {got}, expected {want}")

    if method in ("zosa", "mzosa"):
        if method == "zosa":
            N = int(_meta(trace, "derived.N"))
            if steps != N and not _meta(trace, "budget.halted"):
                problems.append(f"stopped at step {steps} of N = {N} without a budget halt")
            phases = [_schedule(trace, N, float(_meta(trace, "derived.D_tilde")))]
            ks = [range(1, steps + 1)]
        else:
            N0 = int(_meta(trace, "derived.N0"))
            rho0, mu = float(_meta(trace, "derived.rho0")), float(_meta(trace, "config.mu"))
            count = int(_meta(trace, "derived.phases"))
            phases = [_schedule(trace, N0, rho0 / (mu * 2.0 ** i)) for i in range(1, count + 1)]
            ks = [range(1, N0 + 1)] * count
            expect("fo", fo, N0 * count)
        scheduled = 0
        for sched, k_range in zip(phases, ks):
            for k in k_range:
                T, _, cap = sched.inner_steps(k)
                scheduled += T
                capped += cap
        if method == "zosa":
            expect("fo", fo, steps)
        expect("zo", zo, 2 * scheduled)
        for name in ("M_tilde", "sigma_sq"):
            recorded = _meta(trace, f"derived.{name}")
            if repr(float(getattr(phases[0], name))) != recorded:
                problems.append(f"derived.{name} = {recorded} does not match the schedule")
        cap_meta = "true" if capped else "false"
        if _meta(trace, "derived.T_cap_hit") not in ("", cap_meta):
            problems.append(f"derived.T_cap_hit disagrees with the schedule ({cap_meta})")
        expect("comm", comm, fo if lifted else 0)
    elif method == "gd":
        expect("fo", fo, steps)
        expect("zo", zo, 0)
        expect("comm", comm, fo if lifted else 0)
    else:
        expect("fo", fo, 0)
        expect("zo", zo, 2 * steps)
        expect("comm", comm, zo if lifted else 0)
    return problems, capped


def relative_gap(record) -> float:
    rows = record.trace.rows
    return float(rows[-1].gap_vs_reference / rows[0].gap_vs_reference)


def diverged(record) -> bool:
    """A censored baseline: aborted, or ended worse than it started."""
    if record.trace is None:
        return True
    gap = relative_gap(record)
    return not math.isfinite(gap) or gap > 1.0


def check_reps(reps, golden=None) -> Outcome:
    """Check every run and compare table of every repetition.

    golden, when given, is the workload's entry of golden.json (checked at the
    default seed only). Each repetition's runs must also match the first
    repetition's.
    """
    out = Outcome()
    first = None
    for rep in reps:
        signatures = [record.signature() for record in rep.runs]
        if first is None:
            first = (signatures, rep.tables)
        for i, record in enumerate(rep.runs):
            problems = []
            if record.trace is None:
                expected = (isinstance(record.error, SolverAbort)
                            and record.cfg.method in BASELINES)
                if not expected:
                    problems.append(f"raised {type(record.error).__name__}: {record.error}")
            else:
                problems, capped = identities(record)
                if rep is reps[0]:
                    out.cap_hits += capped
            if i >= len(first[0]) or signatures[i] != first[0][i]:
                problems.append("differs from the first repetition")
            if golden is not None:
                want = golden["runs"][i] if i < len(golden["runs"]) else None
                if signatures[i] != want:
                    problems.append(f"golden mismatch: got {signatures[i]}, recorded {want}")
            out.add(record.label, problems)
        recorded_runs = len(golden["runs"]) if golden is not None else len(first[0])
        for _ in range(recorded_runs - len(rep.runs)):
            out.add("missing run", ["a recorded run did not happen"])
        for i, table in enumerate(rep.tables):
            problems = []
            if table != first[1][i]:
                problems.append("table differs from the first repetition")
            if golden is not None and table != golden["tables"][i]:
                problems.append("table differs from golden.json")
            out.add("compare table", problems)
        observed = {id(record.error) for record in rep.runs}
        for exc in rep.errors:
            if id(exc) not in observed:
                out.add("job", [f"raised {type(exc).__name__}: {exc}"])
    if golden is not None:
        got = summary(reps[0])
        out.add("golden summary", [f"{key} = {got[key]}, recorded {golden[key]}"
                                   for key in SUMMARY_KEYS if got[key] != golden[key]])
    return out


def summary(rep) -> dict:
    """The deterministic results golden.json records for a workload."""
    sliding = [relative_gap(r) for r in rep.runs
               if r.trace is not None and r.cfg.method in ("zosa", "mzosa")]
    return {"runs": [record.signature() for record in rep.runs],
            "tables": list(rep.tables),
            "gap_final": repr(statistics.median(sliding)) if sliding else "",
            "comm_to_gap": _zosa_median(rep.tables),
            "censored_frac": repr(censored_frac(rep))}


def censored_frac(rep) -> float:
    """Diverged baseline tuning candidates over candidates tried.

    The candidates are the baseline runs at a compare call's first seed; 0.0
    when the workload tunes no baseline."""
    first_seeds = {}
    for record in rep.runs:
        first_seeds.setdefault(record.cfg.method, record.cfg.seed)
    candidates = [r for r in rep.runs
                  if r.cfg.method in BASELINES and r.cfg.seed == first_seeds[r.cfg.method]]
    if not candidates:
        return 0.0
    return sum(diverged(r) for r in candidates) / len(candidates)


def _zosa_median(tables) -> str:
    for table in tables:
        for line in table.splitlines()[1:]:
            cells = line.split(",")
            if cells[0] == "zosa":
                return cells[3]
    return ""
