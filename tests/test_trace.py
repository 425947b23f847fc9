import numpy as np
import pytest

from sliding_opt.trace import RunTrace, TraceRow, format_float


def sample_trace(with_bound=False):
    trace = RunTrace(with_bound=with_bound)
    trace.metadata["config.experiment"] = "synthetic"
    trace.metadata["config.seed"] = "7"
    trace.add_row(TraceRow(step=0, fo_calls=0, zo_calls=0, comm_rounds=0,
                           psi0=1.25, gap_vs_reference=0.25, phase=0, wall_ms=0.1))
    trace.add_row(TraceRow(step=3, fo_calls=3, zo_calls=10, comm_rounds=0,
                           psi0=1.0 / 3.0, gap_vs_reference=1e-17, phase=0,
                           bound=0.5 if with_bound else None, wall_ms=4.5))
    return trace


def test_float_format_round_trips_doubles():
    for v in (1.0 / 3.0, 1e-300, -2.5e17, np.pi, 6.25e-5):
        assert float(format_float(v)) == v


def test_body_excludes_timing_and_is_stable():
    trace = sample_trace()
    body = trace.body_text()
    assert "wall_ms" not in body
    assert body.splitlines()[0] == ("step,fo_calls,zo_calls,comm_rounds,psi0,"
                                    "gap_vs_reference,consensus_sq_norm,phase")
    assert body == trace.body_text()


def test_csv_round_trip_preserves_rows_and_metadata(tmp_path):
    trace = sample_trace(with_bound=True)
    path = tmp_path / "run.csv"
    trace.to_csv(path)
    back = RunTrace.from_csv(path)
    assert back.metadata["config.experiment"] == "synthetic"
    assert back.metadata["config.seed"] == "7"
    assert "wall_ms.rows" in back.metadata
    assert back.with_bound
    assert len(back.rows) == 2
    assert back.rows[1].psi0 == trace.rows[1].psi0
    assert back.rows[1].gap_vs_reference == trace.rows[1].gap_vs_reference
    assert back.rows[1].bound == trace.rows[1].bound
    assert back.rows[0].consensus_sq_norm is None
    assert back.body_text() == trace.body_text()
    assert back.to_text() == path.read_text()


def test_serialized_file_layout(tmp_path):
    trace = sample_trace()
    path = tmp_path / "run.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# sliding-opt trace v1"
    meta_lines = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# config.experiment = ") for ln in meta_lines)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx].startswith("step,")
    assert len(lines) - header_idx - 1 == 2  # data rows


def test_counter_monotonicity_enforced():
    trace = sample_trace()
    with pytest.raises(ValueError, match="nondecreasing"):
        trace.add_row(TraceRow(step=4, fo_calls=2, zo_calls=10, comm_rounds=0, psi0=0.1))


def test_final_row_and_empty_trace():
    trace = sample_trace()
    assert trace.final().step == 3
    with pytest.raises(ValueError):
        RunTrace().final()
