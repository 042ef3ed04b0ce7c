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

INT_COLUMNS = ("epochs", "t_prime", "beta")  # ints where not empty


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
    """ISO-8601 UTC; pinned by SOURCE_DATE_EPOCH when set and not empty.
    A value that is not a representable integer count of seconds raises
    ValueError naming the variable."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        t = int(datetime.now(timezone.utc).timestamp())
        return datetime.fromtimestamp(t, tz=timezone.utc).isoformat()
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError) as exc:
        raise ValueError(f"SOURCE_DATE_EPOCH: expected an integer count of "
                         f"seconds, got {epoch!r}") from exc


class RecordStore:
    """Append-only CSV with a fixed column set; the one source of its rows.

    Writes happen through a single store instance per file; concurrent sweep
    cells must funnel their rows through one store (single-writer rule).
    Being the only writer, the store reads its file once, when it opens, and
    keeps ``rows``: each config hash's newest generation of rows, typed as a
    fresh cell makes them. A forced append starts a hash's next generation,
    as does, on read, a row whose identity (every column but timestamp and
    value) its hash's rows already hold; the file keeps every generation.
    A new file is made with its first row, so a run that writes no row
    leaves none.
    """

    def __init__(self, path, columns=RECORD_COLUMNS):
        self.path = Path(path)
        self.columns = tuple(columns)
        if "config_hash" not in self.columns:
            raise ValueError("store schema must include config_hash")
        self.rows = {}
        if self.path.exists() and self.path.stat().st_size > 0:
            seen = {}  # config hash -> identities in its newest generation
            for r in self.read_rows():
                h = r["config_hash"]
                ident = tuple(r[c] for c in self.columns
                              if c not in ("timestamp", "value"))
                if ident in seen.get(h, ()):
                    del self.rows[h], seen[h]
                self.rows.setdefault(h, []).append(r)
                seen.setdefault(h, set()).add(ident)

    def read_rows(self) -> list[dict]:
        """Every stored row, typed as a fresh cell makes it: wd and value as
        floats, seed as an int unless it is an aggregate ('mean'), and the
        INT_COLUMNS as ints unless empty. Raises ValueError on a header that
        is not the schema, or naming the file and line of a row that is
        short, long or not a number there."""
        rows = []
        with self.path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(self.columns):
                raise ValueError(
                    f"{self.path}: existing header {reader.fieldnames} does "
                    f"not match schema {list(self.columns)}")
            for row in reader:
                try:
                    if None in row or None in row.values():
                        raise ValueError(f"expected {len(self.columns)} "
                                         "comma-separated fields")
                    row.update(wd=float(row["wd"]), value=float(row["value"]))
                    if row["seed"] != "mean":
                        row["seed"] = int(row["seed"])
                    row.update({c: int(row[c]) for c in INT_COLUMNS
                                if row.get(c)})
                except ValueError as exc:
                    raise ValueError(f"{self.path}: line {reader.line_num}: "
                                     f"{exc}") from None
                rows.append(row)
        return rows

    def append_rows(self, rows, force: bool = False) -> int:
        """Write rows whose config_hash is new; returns the count written.

        With force=True, rows of a stored hash are written as its next
        generation (to redo a cell after a code or environment change).
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
            rows = [r for r in rows if r["config_hash"] not in self.rows]
        if not rows:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.columns)
            if fh.tell() == 0:  # a new or empty file
                writer.writeheader()
            for r in rows:
                writer.writerow({k: str(r[k]) for k in self.columns})
        for h in dict.fromkeys(r["config_hash"] for r in rows):
            self.rows[h] = [r for r in rows if r["config_hash"] == h]
        return len(rows)
