"""Check reports: per-check rows, tables, and deterministic text/CSV emission."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

PASS = "PASS"
FAIL = "FAIL"


def _worst(values, floor: float = 0.0) -> float:
    """The largest of `floor` and `values`, or NaN when any value is NaN.

    Python's `max` keeps a NaN only in first place, since every comparison with NaN is
    false, so a NaN residual met mid-stream would vanish and its check read PASS.
    """
    return float(np.max(np.fromiter(values, dtype=float), initial=floor))


def fmt(value) -> str:
    """Deterministic scalar formatting for report bodies and CSV cells."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return str(value)


@dataclass(frozen=True)
class CheckRow:
    name: str
    inputs: str
    residual: float
    threshold: float
    status: str

    @classmethod
    def from_residual(cls, name: str, inputs: str, residual: float, threshold: float) -> "CheckRow":
        status = PASS if residual <= threshold else FAIL
        return cls(name, inputs, float(residual), float(threshold), status)

    @classmethod
    def from_flag(cls, name: str, inputs: str, ok: bool) -> "CheckRow":
        return cls(name, inputs, 0.0 if ok else 1.0, 0.5, PASS if ok else FAIL)


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple
    rows: tuple

    @classmethod
    def build(cls, name: str, columns, rows) -> "Table":
        return cls(name, tuple(columns), tuple(tuple(r) for r in rows))

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(fmt(v) for v in row))
        return "\n".join(lines) + "\n"


@dataclass
class Report:
    title: str
    meta: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    tables: list = field(default_factory=list)

    def add_check(self, name: str, inputs: str, residual: float, threshold: float):
        self.rows.append(CheckRow.from_residual(name, inputs, residual, threshold))

    def add_flag(self, name: str, inputs: str, ok: bool):
        self.rows.append(CheckRow.from_flag(name, inputs, ok))

    def add_failure(self, name: str, diagnostic: str):
        self.rows.append(CheckRow(name, diagnostic, float("inf"), 0.0, FAIL))

    def add_table(self, table: Table):
        self.tables.append(table)

    def extend(self, other: "Report"):
        self.rows.extend(other.rows)
        self.tables.extend(other.tables)

    @property
    def overall(self) -> str:
        """PASS only when at least one check ran and every check passed."""
        return PASS if self.rows and all(r.status == PASS for r in self.rows) else FAIL

    def to_text(self) -> str:
        lines = [f"# {self.title}"]
        for key in sorted(self.meta):
            lines.append(f"{key} = {fmt(self.meta[key])}")
        lines.append("")
        for row in self.rows:
            lines.append(
                f"[{row.status}] {row.name} | {row.inputs} | "
                f"residual={fmt(row.residual)} threshold={fmt(row.threshold)}"
            )
        for table in self.tables:
            lines.append(f"(table {table.name}: {len(table.rows)} rows)")
        lines.append("")
        lines.append(self.overall)
        return "\n".join(lines) + "\n"

    def rows_csv(self) -> str:
        lines = ["check-name,inputs,residual,threshold,status"]
        for row in self.rows:
            inputs = row.inputs.replace(",", ";")
            lines.append(
                f"{row.name},{inputs},{fmt(row.residual)},{fmt(row.threshold)},{row.status}"
            )
        return "\n".join(lines) + "\n"


def emit(report: Report, fmt_kind: str, out_dir) -> list:
    """Write report.txt (always) plus report.csv and tables/*.csv for fmt_kind='csv'.

    Returns the list of paths written. Output bytes depend only on the report
    contents, so identical (config, seed) runs emit identical files.
    """
    if fmt_kind not in ("text", "csv"):
        raise ValueError(f"unknown format {fmt_kind!r}")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    report_path = os.path.join(out_dir, "report.txt")
    with open(report_path, "w", newline="\n") as fh:
        fh.write(report.to_text())
    written.append(report_path)
    if fmt_kind == "csv":
        rows_path = os.path.join(out_dir, "report.csv")
        with open(rows_path, "w", newline="\n") as fh:
            fh.write(report.rows_csv())
        written.append(rows_path)
        if report.tables:
            tables_dir = os.path.join(out_dir, "tables")
            os.makedirs(tables_dir, exist_ok=True)
            for table in report.tables:
                path = os.path.join(tables_dir, f"{table.name}.csv")
                with open(path, "w", newline="\n") as fh:
                    fh.write(table.to_csv())
                written.append(path)
    return written
