"""Resumable on-disk checkpointing for sharded campaigns.

A checkpoint directory holds:

* ``manifest.json`` — the full :class:`~repro.par.plan.ShardPlan`, its
  fingerprint, and the per-shard status table
  (``pending`` → ``running`` → ``done`` | ``failed`` |
  ``quarantined``);
* ``shard-<id>.json`` — one result document per completed shard,
  carrying a CRC32 of its payload so corruption demotes the shard to
  pending instead of merging silently;
* ``quarantine-<id>.json`` — the dead-letter record of a poison shard
  that exhausted its retry budget under a quarantining pool;
* ``events.jsonl`` — the pool's shard/steal event stream (written by
  the engine when events are enabled; consumed by
  ``python -m repro.obs report --par-events``).

Every JSON file is written through
:func:`repro.hostio.atomic_write_json` (temp file + ``os.replace``),
so a campaign killed at any instant resumes from the last completed
shard; opening a checkpoint first sweeps the ``.tmp`` debris such a
kill can leave behind.  A resume validates the plan fingerprint:
shards from two different campaigns can never be mixed, and a plan
whose parameters changed (different seed, configs, budgets, …) is a
*different campaign* by construction.

Integrity: shard result documents are schema
``repro.par.shard_result/v2`` — their ``crc32`` field covers the
canonical JSON of the payload, and both :meth:`Checkpoint.open` and
:meth:`Checkpoint.load_result` verify it.  A bit-flipped result file
(the ``corrupt_result`` chaos fault, a dying disk) therefore re-runs
its shard rather than poisoning the merge.  A document in any other
schema is not intact either.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Set

from repro.errors import ReproError
from repro.hostio import atomic_write_json, crc32_of_json, sweep_stale_tmp
from repro.par.plan import ShardPlan

MANIFEST_SCHEMA = "repro.par.checkpoint/v1"
MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"

RESULT_SCHEMA = "repro.par.shard_result/v2"
QUARANTINE_SCHEMA = "repro.par.quarantine/v1"


class CheckpointMismatch(ReproError, ValueError):
    """The manifest on disk belongs to a different campaign plan.

    Derives from :class:`ReproError` so it picks up ``to_dict`` /
    ``from_dict`` and crosses the campaign-service API boundary typed;
    it stays a :class:`ValueError` for existing callers.
    """


def _result_problem(document: Any, shard_id: int) -> Optional[str]:
    """Why ``document`` is not an intact result for ``shard_id`` (a
    current-schema document naming the shard whose payload passes its
    checksum), or None when it is."""
    if not isinstance(document, dict) or "result" not in document:
        return "not a shard result document"
    if document.get("shard_id") != shard_id:
        return f"shard_id {document.get('shard_id')!r} != {shard_id}"
    if document.get("schema") != RESULT_SCHEMA:
        return (f"schema {document.get('schema')!r} != "
                f"{RESULT_SCHEMA!r}")
    if document.get("crc32") != crc32_of_json(document["result"]):
        return "payload checksum mismatch (corrupt shard result)"
    return None


class Checkpoint:
    """Manifest + per-shard result files under one directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.manifest_path = os.path.join(directory, MANIFEST_NAME)
        self.events_path = os.path.join(directory, EVENTS_NAME)
        self._manifest: Optional[Dict[str, Any]] = None

    # -- lifecycle ----------------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(self.manifest_path)

    def open(self, plan: ShardPlan) -> Set[int]:
        """Bind this checkpoint to ``plan``; returns the set of shard
        ids already completed (to be restored instead of re-run).

        A fresh directory gets a new manifest; an existing manifest is
        validated against the plan fingerprint and its ``done`` shards
        are returned.  ``running``/``failed`` shards from an interrupted
        or partially-failed run are demoted to ``pending`` so the pool
        re-executes them; ``quarantined`` shards stay quarantined — a
        dead-lettered poison shard is a recorded verdict, not pending
        work.  Stale ``.tmp`` files from interrupted atomic writes are
        swept first, so crash debris can never be mistaken for live
        state.
        """
        sweep_stale_tmp(self.directory)
        os.makedirs(self.directory, exist_ok=True)
        fingerprint = plan.fingerprint()
        if self.exists():
            manifest = self._load()
            if manifest.get("fingerprint") != fingerprint:
                raise CheckpointMismatch(
                    f"{self.manifest_path}: manifest fingerprint "
                    f"{manifest.get('fingerprint')!r} does not match "
                    f"this campaign ({fingerprint}); refusing to mix "
                    f"shards from different campaigns")
            completed: Set[int] = set()
            for key, row in manifest["shards"].items():
                # A 'done' row only counts if its result file survived
                # intact: a kill can land between the manifest flush
                # and the (atomic) result write, or leave a stale
                # ``.tmp`` behind, or the file can rot on disk — a
                # partially written, missing, or checksum-failing
                # result demotes the shard to pending and it re-runs.
                if row["status"] == "done" \
                        and self._result_intact(int(key)):
                    completed.add(int(key))
                elif row["status"] == "quarantined":
                    continue
                else:
                    row["status"] = "pending"
                    row["result"] = None
                    row["error"] = None
            self._manifest = manifest
            self._flush()
            return completed
        self._manifest = {
            "schema": MANIFEST_SCHEMA,
            "fingerprint": fingerprint,
            "plan": plan.to_dict(),
            "shards": {
                str(shard.shard_id): {
                    "status": "pending", "attempts": 0,
                    "result": None, "error": None,
                }
                for shard in plan.shards
            },
        }
        self._flush()
        return set()

    def load_plan(self) -> ShardPlan:
        """Reconstruct the campaign plan from the manifest (used by
        ``python -m repro.par resume``)."""
        return ShardPlan.from_dict(self._load()["plan"])

    # -- state transitions --------------------------------------------------

    def mark_running(self, shard_id: int, attempt: int) -> None:
        row = self._row(shard_id)
        row["status"] = "running"
        row["attempts"] = attempt + 1
        self._flush()

    def record_result(self, shard_id: int, attempts: int,
                      result: Dict[str, Any]) -> str:
        """Persist one shard result and mark the shard done."""
        path = self.result_path(shard_id)
        atomic_write_json(path, {
            "schema": RESULT_SCHEMA,
            "shard_id": shard_id, "attempts": attempts,
            "crc32": crc32_of_json(result),
            "result": result,
        }, op="shard_result")
        row = self._row(shard_id)
        row["status"] = "done"
        row["attempts"] = attempts
        row["result"] = os.path.basename(path)
        row["error"] = None
        self._flush()
        return path

    def record_failure(self, shard_id: int, attempts: int,
                       reason: str, detail: str) -> None:
        row = self._row(shard_id)
        row["status"] = "failed"
        row["attempts"] = attempts
        row["error"] = {"reason": reason, "detail": detail}
        self._flush()

    def record_quarantine(self, shard_id: int, attempts: int,
                          reason: str, detail: str) -> str:
        """Dead-letter one poison shard: persist the quarantine record
        and mark the manifest row ``quarantined`` (terminal — a resume
        does not re-run it)."""
        path = self.quarantine_path(shard_id)
        atomic_write_json(path, {
            "schema": QUARANTINE_SCHEMA,
            "shard_id": shard_id, "attempts": attempts,
            "reason": reason, "detail": detail,
        }, op="quarantine")
        row = self._row(shard_id)
        row["status"] = "quarantined"
        row["attempts"] = attempts
        row["error"] = {"reason": reason, "detail": detail}
        self._flush()
        return path

    # -- reads --------------------------------------------------------------

    def _result_intact(self, shard_id: int) -> bool:
        """True when the shard's result document exists, parses, and
        passes :func:`_result_problem`."""
        try:
            with open(self.result_path(shard_id)) as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return False
        return _result_problem(document, shard_id) is None

    def result_path(self, shard_id: int) -> str:
        return os.path.join(self.directory, f"shard-{shard_id:04d}.json")

    def quarantine_path(self, shard_id: int) -> str:
        return os.path.join(self.directory,
                            f"quarantine-{shard_id:04d}.json")

    def load_result(self, shard_id: int) -> Dict[str, Any]:
        with open(self.result_path(shard_id)) as handle:
            document = json.load(handle)
        problem = _result_problem(document, shard_id)
        if problem is not None:
            raise ValueError(f"{self.result_path(shard_id)}: {problem}")
        return document["result"]

    def statuses(self) -> Dict[int, str]:
        return {int(key): row["status"]
                for key, row in self._load()["shards"].items()}

    def failures(self) -> List[Dict[str, Any]]:
        return [
            {"shard_id": int(key), "attempts": row["attempts"],
             **row["error"]}
            for key, row in self._load()["shards"].items()
            if row["status"] == "failed" and row["error"]]

    def quarantined(self) -> List[Dict[str, Any]]:
        """Dead-lettered shards, from the manifest rows (the
        ``quarantine-<id>.json`` files carry the same content)."""
        return [
            {"shard_id": int(key), "attempts": row["attempts"],
             **(row["error"] or {})}
            for key, row in self._load()["shards"].items()
            if row["status"] == "quarantined"]

    # -- plumbing -----------------------------------------------------------

    def _row(self, shard_id: int) -> Dict[str, Any]:
        manifest = self._load()
        try:
            return manifest["shards"][str(shard_id)]
        except KeyError:
            raise KeyError(f"shard {shard_id} not in manifest "
                           f"{self.manifest_path}") from None

    def _load(self) -> Dict[str, Any]:
        if self._manifest is None:
            with open(self.manifest_path) as handle:
                manifest = json.load(handle)
            if manifest.get("schema") != MANIFEST_SCHEMA:
                raise ValueError(
                    f"{self.manifest_path}: unknown schema "
                    f"{manifest.get('schema')!r}")
            self._manifest = manifest
        return self._manifest

    def _flush(self) -> None:
        assert self._manifest is not None
        atomic_write_json(self.manifest_path, self._manifest,
                          op="manifest")
