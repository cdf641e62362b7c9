"""Deterministic CSV/JSON report writers.

Machine-readable outputs never contain timestamps; reruns with the same
resolved config are byte-identical.  CSV floats carry 17 significant
digits.  The resolved config is recorded in the output header (a leading
comment line for CSV, a top-level key for JSON); wall-clock information
goes to the sidecar ``run.log`` only.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence


def canonical_config(config: Mapping) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: Path, columns: Sequence[str], rows: Sequence[Mapping], config: Mapping) -> None:
    lines = ["# config=" + canonical_config(config)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c, "")) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, columns: Sequence[str], rows: Sequence[Mapping], config: Mapping) -> None:
    doc = {
        "config": dict(config),
        "columns": list(columns),
        "rows": [{c: row.get(c) for c in columns} for row in rows],
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_report(
    out_dir: Path,
    fmt: str,
    columns: Sequence[str],
    rows: Sequence[Mapping],
    config: Mapping,
) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        target = out_dir / "report.csv"
        write_csv(target, columns, rows, config)
    elif fmt == "json":
        target = out_dir / "report.json"
        write_json(target, columns, rows, config)
    else:
        raise ValueError("format must be csv or json")
    return target


class RunLog:
    """Sidecar log with timestamps, kept out of the machine output.

    The file is opened when the log is made, so a path that cannot be
    written fails before any work; the lines go out when the log closes
    (``with RunLog(path) as log: ...``).
    """

    def __init__(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self.lines: list[str] = []
        self._file = open(path, "w", encoding="utf-8")

    def add(self, message: str) -> None:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        self.lines.append(f"{stamp} {message}")

    def __enter__(self) -> RunLog:
        return self

    def __exit__(self, *exc) -> None:
        with self._file:
            self._file.write("\n".join(self.lines) + "\n")
