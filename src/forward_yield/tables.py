"""Tabular output (CSV / JSON) and run manifests."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from .config import config_hash


def round12(value: float) -> float:
    """Canonical 12-significant-digit rounding applied to every numeric cell,
    so CSV and JSON outputs parse back to identical values."""
    return float(f"{value:.12g}")


def _render(value: Any) -> Any:
    if isinstance(value, bool) or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return round12(value)
    if hasattr(value, "item"):
        return _render(value.item())
    if isinstance(value, list):
        return [_render(v) for v in value]
    return value


def emit_table(rows: Sequence[Mapping[str, Any]], fmt: str, path: str | Path, columns: Sequence[str] | None = None) -> Path:
    """Write homogeneous rows as RFC-4180 CSV or a JSON array of objects.

    An empty row set yields a header-only file (columns must then be given
    explicitly if a header is wanted).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if rows:
        cols = list(columns) if columns else list(rows[0].keys())
        for i, row in enumerate(rows):
            if list(row.keys()) != cols:
                raise ValueError(f"row {i} columns {list(row.keys())} differ from {cols}")
    else:
        cols = list(columns or [])

    if fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)  # csv defaults already satisfy RFC 4180
            writer.writerow(cols)
            for row in rows:
                writer.writerow([_csv_cell(row[c]) for c in cols])
    elif fmt == "json":
        payload = [{c: _render(row[c]) for c in cols} for row in rows]
        with path.open("w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    return path


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) or (hasattr(value, "item") and isinstance(value.item(), float)):
        return f"{float(value):.12g}"
    return str(value)


@dataclass
class RunManifest:
    """One run's output directory and reproducibility record: table() writes
    and records each table, write() adds the manifest, and wall_clock_s is
    the time from construction to write()."""

    subcommand: str
    config: Mapping[str, Any]
    seed: int
    version: str
    out_dir: str | Path
    fmt: str
    outputs: list[str] = field(default_factory=list)
    summary: list[Mapping[str, Any]] = field(default_factory=list)
    _start: float = field(default_factory=time.perf_counter, repr=False)

    def table(self, name: str, rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None) -> Path:
        """Write rows to <out_dir>/<name>.<fmt> and record the path."""
        path = emit_table(rows, self.fmt, Path(self.out_dir) / f"{name}.{self.fmt}", columns=columns)
        self.outputs.append(str(path))
        return path

    def add_summary(self, **row: Any) -> None:
        self.summary.append({k: _render(v) for k, v in row.items()})

    def write(self) -> Path:
        out_dir = Path(self.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "subcommand": self.subcommand,
            "config_sha256": config_hash(self.config),
            "seed": self.seed,
            "artifact_version": self.version,
            "wall_clock_s": round(time.perf_counter() - self._start, 3),
            "outputs": self.outputs,
            "summary": self.summary,
        }
        path = out_dir / f"manifest_{self.subcommand.replace('-', '_')}.json"
        with path.open("w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        return path
