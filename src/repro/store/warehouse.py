"""The campaign warehouse: stores of keyed campaign snapshots.

:class:`CampaignStore` manages a warehouse root directory holding one
snapshot per campaign key; :class:`Snapshot` wraps a single snapshot
directory and owns its manifest, phase record files, and summary
documents, a monitor epoch's ``monitor.json`` sidecar included; the
store root owns a fleet run's ``fleet.json``.  Every warehouse file is
named here once.  Both are deliberately dumb about campaign semantics
— the checkpoint protocol lives in :mod:`repro.store.checkpoint` and
the analytics in :mod:`repro.store.diff`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.store.layout import (
    PHASES,
    STORE_SCHEMA,
    append_record,
    read_json,
    read_phase_records,
    rewrite_records,
    snapshot_dirname,
    write_json,
)

__all__ = ["Snapshot", "CampaignStore"]


class Snapshot:
    """One snapshot directory in the warehouse.

    Handles are opened lazily and append-only; every record write is
    flushed (see :func:`repro.store.layout.append_record`).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handles: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Paths

    @property
    def manifest_path(self) -> Path:
        """``MANIFEST.json``: schema, key, and fingerprint."""
        return self.path / "MANIFEST.json"

    @property
    def phases_dir(self) -> Path:
        """Directory holding the per-phase record files."""
        return self.path / "phases"

    def phase_path(self, phase: str) -> Path:
        """``phases/<phase>.jsonl`` for a known phase name."""
        if phase not in PHASES:
            raise ValueError(f"unknown store phase {phase!r}")
        return self.phases_dir / f"{phase}.jsonl"

    @property
    def run_path(self) -> Path:
        """``run.json``: the latest run's status document."""
        return self.path / "run.json"

    @property
    def result_path(self) -> Path:
        """``result.json``: the diffable result summary."""
        return self.path / "result.json"

    @property
    def sidecar_path(self) -> Path:
        """``monitor.json``: a monitor epoch's sidecar document."""
        return self.path / "monitor.json"

    # ------------------------------------------------------------------
    # Manifest

    def exists(self) -> bool:
        """True when the directory holds a snapshot manifest."""
        return self.manifest_path.is_file()

    def manifest(self) -> Optional[dict]:
        """The manifest document (None when absent/corrupt)."""
        return read_json(self.manifest_path)

    def initialise(self, key: str, fingerprint: dict) -> None:
        """Create the snapshot skeleton and write its manifest."""
        self.phases_dir.mkdir(parents=True, exist_ok=True)
        write_json(
            self.manifest_path,
            {
                "schema": STORE_SCHEMA,
                "key": key,
                "fingerprint": fingerprint,
                "created": time.time(),
            },
        )

    def has_records(self) -> bool:
        """True when any phase file holds at least one record."""
        return any(
            bool(self.records(phase)) for phase in PHASES
        )

    # ------------------------------------------------------------------
    # Records

    def records(self, phase: str) -> List[dict]:
        """The phase's valid record prefix (hardened loader)."""
        return read_phase_records(self.phase_path(phase))

    def phase_stats(self, phase: str) -> Tuple[int, int]:
        """``(bytes, non-blank lines)`` of a phase file; ``(0, 0)``
        when absent.  More lines than :meth:`records` returns means
        a damaged tail that a resume drops."""
        path = self.phase_path(phase)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return 0, 0
        lines = sum(1 for line in text.split("\n") if line.strip())
        return path.stat().st_size, lines

    def append(self, phase: str, record: dict) -> int:
        """Append one record to a phase file; returns bytes written."""
        handle = self._handles.get(phase)
        if handle is None:
            self.phases_dir.mkdir(parents=True, exist_ok=True)
            handle = open(
                self.phase_path(phase), "a", encoding="utf-8"
            )
            self._handles[phase] = handle
        return append_record(handle, record)

    def truncate_to(self, phase: str, records: List[dict]) -> None:
        """Rewrite a phase file to exactly ``records`` (drops any
        corrupt tail so future appends keep indexes contiguous)."""
        self.phases_dir.mkdir(parents=True, exist_ok=True)
        rewrite_records(self.phase_path(phase), records)

    def close(self) -> None:
        """Close any open append handles."""
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    # ------------------------------------------------------------------
    # Summary documents

    def write_run_status(self, status: dict) -> None:
        """Record the latest run's outcome (complete or partial)."""
        write_json(self.run_path, dict(status, schema=STORE_SCHEMA))

    def run_status(self) -> Optional[dict]:
        """The latest run's status; None when never written."""
        return read_json(self.run_path)

    def write_result(self, document: dict) -> None:
        """Write the final result summary (diffing's preferred
        source; see :func:`repro.store.checkpoint.result_document`)."""
        write_json(
            self.result_path, dict(document, schema=STORE_SCHEMA)
        )

    def result(self) -> Optional[dict]:
        """The result summary (flagged ``partial`` for a run its
        budget stopped); None when the run crashed before writing
        one."""
        return read_json(self.result_path)

    def completed(self) -> bool:
        """Did the run finish: a completed ``run.json`` *and* a
        written ``result.json``?  A crash between the two (or
        mid-run) leaves a resumable, not-yet-complete snapshot whose
        records must not be read as results."""
        status = self.run_status() or {}
        return bool(status.get("completed")) and self.result() is not None

    def sidecar(self) -> Optional[dict]:
        """The monitor sidecar; None outside a monitor chain."""
        return read_json(self.sidecar_path)


class CampaignStore:
    """A warehouse root directory: one snapshot per campaign key."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @property
    def fleet_path(self) -> Path:
        """``fleet.json``: a fleet run's ``repro.fleet/1`` aggregate."""
        return self.root / "fleet.json"

    def fleet(self) -> Optional[dict]:
        """The fleet aggregate; None outside a fleet warehouse."""
        return read_json(self.fleet_path)

    def snapshot_for_key(self, key: str) -> Snapshot:
        """The snapshot directory this key maps to (may not exist)."""
        return Snapshot(self.root / snapshot_dirname(key))

    def snapshots(self) -> List[Snapshot]:
        """Every snapshot under the root, sorted by directory name."""
        if not self.root.is_dir():
            return []
        found = []
        for child in sorted(self.root.iterdir()):
            snapshot = Snapshot(child)
            if child.is_dir() and snapshot.exists():
                found.append(snapshot)
        return found
