import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliding_opt.trace import RunTrace, TraceRow, TraceRows, format_float


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


# -- packed rows ---------------------------------------------------------------

_ints = st.integers(-2 ** 53, 2 ** 53)
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan))
_rows = st.builds(TraceRow, step=_ints, fo_calls=_ints, zo_calls=_ints, comm_rounds=_ints,
                  psi0=_floats, gap_vs_reference=st.none() | _floats,
                  consensus_sq_norm=st.none() | _floats, phase=_ints,
                  bound=st.none() | _floats, wall_ms=_floats)


def same_cell(a, b):
    if a is None or b is None:
        return a is b
    if isinstance(a, int):
        return type(b) is int and a == b
    return struct.pack("<d", a) == struct.pack("<d", b)


def same_row(a, b):
    return all(same_cell(getattr(a, f.name), getattr(b, f.name)) for f in fields(TraceRow))


def list_body(rows, with_bound):
    """The CSV body as it was written from a list of TraceRow."""
    cols = ["step", "fo_calls", "zo_calls", "comm_rounds", "psi0", "gap_vs_reference",
            "consensus_sq_norm", "phase"] + (["bound"] if with_bound else [])
    opt = lambda v: "" if v is None else format_float(v)
    lines = [",".join(cols)]
    for r in rows:
        cells = [str(r.step), str(r.fo_calls), str(r.zo_calls), str(r.comm_rounds),
                 format_float(r.psi0), opt(r.gap_vs_reference), opt(r.consensus_sq_norm),
                 str(r.phase)] + ([opt(r.bound)] if with_bound else [])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_rows, min_size=1, max_size=8), with_bound=st.booleans(), data=st.data())
def test_packed_rows_round_trip_exactly(tmp_path_factory, rows, with_bound, data):
    trace = RunTrace(metadata={"config.seed": "1"}, rows=rows, with_bound=with_bound)
    assert len(trace.rows) == len(rows)
    assert all(same_row(a, b) for a, b in zip(trace.rows, rows))
    assert same_row(trace.final(), rows[-1])
    assert all(same_row(trace.rows[i], rows[i]) for i in range(-len(rows), len(rows)))
    cut = slice(*data.draw(st.tuples(*[st.none() | st.integers(-9, 9)] * 2,
                                     st.none() | st.integers(-3, 3).filter(bool))))
    assert len(trace.rows[cut]) == len(rows[cut])
    assert all(same_row(a, b) for a, b in zip(trace.rows[cut], rows[cut]))
    assert trace.body_text() == list_body(rows, with_bound)

    path = tmp_path_factory.mktemp("trace") / "run.csv"
    trace.to_csv(path)
    back = RunTrace.from_csv(path)
    assert back.body_text() == trace.body_text()
    assert back.to_text() == trace.to_text()

    copy = replace(trace, rows=list(trace.rows))
    i = data.draw(st.integers(-len(rows), len(rows) - 1))
    new = data.draw(_rows)
    copy.rows[i] = new
    assert same_row(copy.rows[i], new)
    assert all(same_row(a, b) for a, b in zip(trace.rows, rows))


_edits = st.one_of(st.tuples(st.just("append"), _rows),
                   st.tuples(st.just("assign"), st.integers(-12, 12), _rows))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_rows, max_size=6), edits=st.lists(_edits, max_size=8))
def test_packed_rows_edit_like_a_list(rows, edits):
    packed, plain = TraceRows(rows), list(rows)
    for op, *args in edits:
        if op == "append":
            packed.append(*args)
            plain.append(*args)
        elif -len(plain) <= args[0] < len(plain):
            packed[args[0]] = plain[args[0]] = args[1]
        else:
            with pytest.raises(IndexError):
                packed[args[0]] = args[1]
        assert len(packed) == len(plain)
        assert all(same_row(a, b) for a, b in zip(packed, plain))


def test_a_row_read_from_the_trace_is_a_copy():
    trace = sample_trace()
    trace.final().psi0 = 99.0
    assert trace.final().psi0 == 1.0 / 3.0
    assert trace.rows == list(trace.rows)
    assert trace.rows[:1] == [trace.rows[0]]


def test_rows_are_held_packed():
    trace = sample_trace()
    assert not any(isinstance(v, TraceRow) for v in vars(trace.rows).values())
    assert trace.rows == RunTrace(rows=list(trace.rows)).rows


def test_packed_rows_widen_to_64_bit_integers_and_keep_earlier_rows():
    small = TraceRow(step=1, fo_calls=1, zo_calls=2, comm_rounds=0, psi0=1.0, phase=-3)
    big = TraceRow(step=2, fo_calls=2, zo_calls=2 ** 40, comm_rounds=2 ** 31, psi0=0.5)
    rows = TraceRows([small])
    rows.append(big)
    assert list(rows) == [small, big]
    rows.append(replace(big, step=-2 ** 53))
    assert rows[2].step == -2 ** 53 and rows[:2] == [small, big]
    with pytest.raises(OverflowError):
        rows.append(replace(big, zo_calls=2 ** 63))
    assert len(rows) == 3
