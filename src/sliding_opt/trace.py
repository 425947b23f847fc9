"""Run traces: checkpoint rows plus a key-value metadata block, serialized as CSV."""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

# 17 significant digits round-trips IEEE doubles exactly.
_FMT = ".17g"


def format_float(v) -> str:
    return format(float(v), _FMT)


@dataclass
class TraceRow:
    step: int
    fo_calls: int
    zo_calls: int
    comm_rounds: int
    psi0: float
    gap_vs_reference: float | None = None
    consensus_sq_norm: float | None = None
    phase: int = 0
    bound: float | None = None
    wall_ms: float = 0.0


_COLUMNS = ("step", "fo_calls", "zo_calls", "comm_rounds", "psi0",
            "gap_vs_reference", "consensus_sq_norm", "phase")

# Integer cells and float cells per packed row.
_WIDTH = 5


class TraceRows(Sequence):
    """A trace's rows, packed: the five integer fields of a row (step, the
    three counters, phase) in one array('i'), which becomes an array('q')
    once a value needs more than 32 bits; its five float fields (psi0,
    gap_vs_reference, consensus_sq_norm, bound, wall_ms) in one array('d');
    and one byte per row whose bits 1, 2, 4 mark gap_vs_reference,
    consensus_sq_norm and bound as None.

    It reads as a list of TraceRow, slices and list equality included, and
    takes `append` and item assignment. Reading a row builds a new TraceRow:
    changing it leaves the trace as it was; assign it back (rows[i] = row)
    to store the change.
    """

    def __init__(self, rows=()):
        self._ints = array("i")
        self._floats = array("d")
        self._none = bytearray()
        for row in rows:
            self.append(row)

    def _put(self, i: int, j: int, row: TraceRow):
        """Store row in place of rows i..j-1 (before row i when j == i)."""
        gap, cons, bound = row.gap_vs_reference, row.consensus_sq_norm, row.bound
        ints = [row.step, row.fo_calls, row.zo_calls, row.comm_rounds, row.phase]
        if self._ints.typecode == "i" and not -2 ** 31 <= min(ints) <= max(ints) < 2 ** 31:
            self._ints = array("q", self._ints)
        self._ints[_WIDTH * i:_WIDTH * j] = array(self._ints.typecode, ints)
        self._floats[_WIDTH * i:_WIDTH * j] = array("d", [
            row.psi0, 0.0 if gap is None else gap, 0.0 if cons is None else cons,
            0.0 if bound is None else bound, row.wall_ms])
        self._none[i:j] = bytes([(gap is None) | (cons is None) << 1 | (bound is None) << 2])

    def append(self, row: TraceRow):
        self._put(len(self), len(self), row)

    def __len__(self) -> int:
        return len(self._none)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        i = range(len(self))[i]
        step, fo, zo, comm, phase = self._ints[_WIDTH * i:_WIDTH * (i + 1)]
        psi0, gap, cons, bound, wall = self._floats[_WIDTH * i:_WIDTH * (i + 1)]
        none = self._none[i]
        return TraceRow(step, fo, zo, comm, psi0, None if none & 1 else gap,
                        None if none & 2 else cons, phase, None if none & 4 else bound, wall)

    def __setitem__(self, i: int, row: TraceRow):
        i = range(len(self))[i]
        self._put(i, i + 1, row)

    def last_counters(self) -> tuple:
        """(fo_calls, zo_calls, comm_rounds) of the last row, without building it."""
        c = self._ints
        return c[1 - _WIDTH], c[2 - _WIDTH], c[3 - _WIDTH]

    def __eq__(self, other):
        if isinstance(other, TraceRows):
            return (self._ints == other._ints and self._floats == other._floats
                    and self._none == other._none)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"TraceRows({list(self)!r})"


@dataclass
class RunTrace:
    """Ordered metadata plus checkpoint rows.

    The CSV body (header row + data rows) contains only deterministic
    columns, so replaying a config+seed reproduces it byte for byte; wall
    times and other volatile diagnostics live in the '#' metadata block.
    rows may be given as any iterable of TraceRow; it is kept as TraceRows.
    """

    metadata: dict = field(default_factory=dict)
    rows: TraceRows = field(default_factory=TraceRows)
    with_bound: bool = False

    def __post_init__(self):
        if not isinstance(self.rows, TraceRows):
            self.rows = TraceRows(self.rows)

    def add_row(self, row: TraceRow):
        if self.rows:
            fo, zo, comm = self.rows.last_counters()
            if row.fo_calls < fo or row.zo_calls < zo or row.comm_rounds < comm:
                raise ValueError("trace rows must have nondecreasing counters")
        self.rows.append(row)

    def columns(self):
        return _COLUMNS + ("bound",) if self.with_bound else _COLUMNS

    def body_lines(self):
        lines = [",".join(self.columns())]
        for row in self.rows:
            cells = [str(row.step), str(row.fo_calls), str(row.zo_calls),
                     str(row.comm_rounds), format_float(row.psi0),
                     "" if row.gap_vs_reference is None else format_float(row.gap_vs_reference),
                     "" if row.consensus_sq_norm is None else format_float(row.consensus_sq_norm),
                     str(row.phase)]
            if self.with_bound:
                cells.append("" if row.bound is None else format_float(row.bound))
            lines.append(",".join(cells))
        return lines

    def body_text(self) -> str:
        return "\n".join(self.body_lines()) + "\n"

    def to_text(self) -> str:
        meta = dict(self.metadata)
        meta["wall_ms.rows"] = " ".join(format(r.wall_ms, ".3f") for r in self.rows)
        head = ["# sliding-opt trace v1"]
        head.extend(f"# {key} = {value}" for key, value in meta.items())
        return "\n".join(head) + "\n" + self.body_text()

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @staticmethod
    def from_csv(path) -> "RunTrace":
        metadata = {}
        header = None
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        key, _, value = body.partition("=")
                        metadata[key.strip()] = value.strip()
                    continue
                cells = line.split(",")
                if header is None:
                    header = cells
                    continue
                named = dict(zip(header, cells))
                rows.append(TraceRow(
                    step=int(named["step"]),
                    fo_calls=int(named["fo_calls"]),
                    zo_calls=int(named["zo_calls"]),
                    comm_rounds=int(named["comm_rounds"]),
                    psi0=float(named["psi0"]),
                    gap_vs_reference=(None if named.get("gap_vs_reference", "") == ""
                                      else float(named["gap_vs_reference"])),
                    consensus_sq_norm=(None if named.get("consensus_sq_norm", "") == ""
                                       else float(named["consensus_sq_norm"])),
                    phase=int(named.get("phase", 0)),
                    bound=(None if named.get("bound", "") in ("", None)
                           else float(named["bound"])),
                ))
        walls = metadata.get("wall_ms.rows", "").split()
        if walls:
            if len(walls) != len(rows):
                raise ValueError(f"{path}: wall_ms.rows has {len(walls)} values "
                                 f"for {len(rows)} rows")
            for row, ms in zip(rows, walls):
                row.wall_ms = float(ms)
        return RunTrace(metadata=metadata, rows=rows,
                        with_bound=bool(header and "bound" in header))

    def final(self) -> TraceRow:
        if not self.rows:
            raise ValueError("trace has no rows")
        return self.rows[-1]
