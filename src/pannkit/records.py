"""Experiment persistence: canonical config hashing plus append-only CSV.

Every experiment cell is identified by the hash of its full configuration.
Stores skip configs they already contain, so sweeps are resumable and
re-running an identical config adds zero rows. Timestamps honor
SOURCE_DATE_EPOCH so a pinned environment reproduces files byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

RECORD_COLUMNS = ("config_hash", "timestamp", "arch", "dataset", "method",
                  "wd", "precision", "seed", "metric", "value")

SWEEP_COLUMNS = ("config_hash", "timestamp", "arch", "dataset", "method",
                 "wd", "epochs", "t_prime", "beta", "seed", "metric", "value")


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON; the hashing preimage."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


# Bump when a change alters the numbers a cell records: every stored hash
# then misses, and cached cells are recomputed instead of silently reused.
NUMERICS_VERSION = 1


def config_hash(config: dict) -> str:
    preimage = {"numerics_version": NUMERICS_VERSION, "config": config}
    return hashlib.sha256(canonical_json(preimage).encode()).hexdigest()[:16]


def timestamp() -> str:
    """ISO-8601 UTC; pinned by SOURCE_DATE_EPOCH when set."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else datetime.now(timezone.utc).timestamp()
    return datetime.fromtimestamp(int(t), tz=timezone.utc).isoformat()


class RecordStore:
    """Append-only CSV with a fixed column set.

    Writes happen through a single store instance per file; concurrent sweep
    cells must funnel their rows through one store (single-writer rule).
    Being the only writer, the store reads the stored hashes once and keeps
    them up to date as it appends.
    """

    def __init__(self, path, columns=RECORD_COLUMNS):
        self.path = Path(path)
        self.columns = tuple(columns)
        if "config_hash" not in self.columns:
            raise ValueError("store schema must include config_hash")
        if self.path.exists() and self.path.stat().st_size > 0:
            with self.path.open(newline="") as fh:
                header = next(csv.reader(fh), None)
            if header != list(self.columns):
                raise ValueError(
                    f"{self.path}: existing header {header} does not match "
                    f"schema {list(self.columns)}")
            self._hashes = {r["config_hash"] for r in self.read_rows()}
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("w", newline="") as fh:
                csv.writer(fh).writerow(self.columns)
            self._hashes = set()

    def read_rows(self) -> list[dict]:
        """Every stored row, with wd and value as floats and seed as an int
        unless it is an aggregate ('mean'). Raises ValueError naming the
        file and line of a row that is short, long or not a number there."""
        rows = []
        with self.path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                try:
                    if None in row or None in row.values():
                        raise ValueError(f"expected {len(self.columns)} "
                                         "comma-separated fields")
                    row.update(wd=float(row["wd"]), value=float(row["value"]))
                    if row["seed"] != "mean":
                        row["seed"] = int(row["seed"])
                except ValueError as exc:
                    raise ValueError(f"{self.path}: line {reader.line_num}: "
                                     f"{exc}") from None
                rows.append(row)
        return rows

    def has(self, chash: str) -> bool:
        return chash in self._hashes

    def append_rows(self, rows, force: bool = False) -> int:
        """Write rows whose config_hash is new; returns the count written.

        With force=True, rows are written even when their hash exists
        (used to redo a cell after a code or environment change).
        """
        rows = [dict(r) for r in rows]
        for r in rows:
            missing = set(self.columns) - set(r)
            extra = set(r) - set(self.columns)
            if missing or extra:
                raise ValueError(
                    f"row keys do not match schema (missing {sorted(missing)},"
                    f" unexpected {sorted(extra)})")
        if not force:
            rows = [r for r in rows if r["config_hash"] not in self._hashes]
        if not rows:
            return 0
        with self.path.open("a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.columns)
            for r in rows:
                writer.writerow({k: str(r[k]) for k in self.columns})
        self._hashes.update(r["config_hash"] for r in rows)
        return len(rows)
