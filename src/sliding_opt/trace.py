"""Run traces: checkpoint rows plus a key-value metadata block, serialized as CSV."""

from __future__ import annotations

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


@dataclass
class RunTrace:
    """Ordered metadata plus checkpoint rows.

    The CSV body (header row + data rows) contains only deterministic
    columns, so replaying a config+seed reproduces it byte for byte; wall
    times and other volatile diagnostics live in the '#' metadata block.
    """

    metadata: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    with_bound: bool = False

    def add_row(self, row: TraceRow):
        if self.rows:
            last = self.rows[-1]
            if (row.fo_calls < last.fo_calls or row.zo_calls < last.zo_calls
                    or row.comm_rounds < last.comm_rounds):
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
