"""Append-safe on-disk checkpoints for Algorithm 1 runs.

A checkpoint file is a journal of self-contained snapshot records, each
framed as ``magic | version | payload-length | crc32 | pickle``.  The
writer only ever appends and fsyncs, so a crash mid-write can at worst
leave a truncated *last* record; the reader scans forward and keeps the
newest record whose length and checksum verify, silently discarding a
torn tail.  Resuming therefore always sees a consistent snapshot -- the
state as of some completed segment/wave boundary -- never a partially
written one.

The payload schema is owned by this module too:
:func:`encode_run_payload` / :func:`decode_run_payload` define the one
versioned run-payload codec used by the
:class:`~repro.coanalysis.kernel.ExplorationKernel` for every backend.
``decode_run_payload`` transparently upgrades the serial engine's legacy
``stack`` payload, so serial journals written before the codec was
unified still resume.  The payload's ``"journal"`` slot is a retired
per-run event list, now written empty: the run's trace is its log.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Optional

from ..coanalysis.results import CheckpointError

#: bump when the record framing (not the payload schema) changes
CHECKPOINT_FORMAT_VERSION = 1

_MAGIC = b"RCKP"
_HEADER = struct.Struct("<BQI")      # version, payload length, crc32


class Checkpointer:
    """Paces and persists checkpoint records for one run.

    Args:
        path: checkpoint file (created on first write; parent directory
            must exist or be creatable).
        every_segments: write at most once per this many completed
            frontier batches (one segment each on the serial and event
            engines, one lockstep wave on the batch engine).
    """

    def __init__(self, path, every_segments: int = 16):
        if every_segments < 1:
            raise ValueError("every_segments must be >= 1")
        self.path = Path(path)
        self.every_segments = every_segments
        self.records_written = 0
        #: progress mark of the newest record: the last one written, or
        #: the one a resumed run loaded (the kernel sets it then)
        self.last_mark: Optional[int] = None

    # -- cadence -----------------------------------------------------------
    def due(self, progress: int) -> bool:
        """Should a checkpoint be written at this progress mark
        (segments or waves completed)?"""
        if self.last_mark is not None and \
                progress - self.last_mark < self.every_segments:
            return False
        return True

    def ahead(self, progress: int) -> bool:
        """Has ``progress`` passed the newest record's mark?  A record
        written at the same mark would repeat that record."""
        return self.last_mark is None or progress > self.last_mark

    # -- writing -----------------------------------------------------------
    def write(self, payload: dict, progress: int = 0) -> None:
        """Append one snapshot record and fsync it to disk.

        The first write of a journal also fsyncs the containing
        directory: fsyncing the file alone makes its *content* durable,
        but a freshly created *name* lives in the directory, and a crash
        in that window can leave a fully-synced file that simply is not
        there after reboot."""
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        record = (_MAGIC
                  + _HEADER.pack(CHECKPOINT_FORMAT_VERSION, len(blob),
                                 zlib.crc32(blob))
                  + blob)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existed = self.path.exists()
        try:
            with open(self.path, "ab") as fh:
                fh.write(record)
                fh.flush()
                os.fsync(fh.fileno())
            if not existed:
                from .artifacts import fsync_dir
                fsync_dir(self.path.parent)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {self.path}: {exc}") from exc
        self.records_written += 1
        self.last_mark = progress

    # -- reading -----------------------------------------------------------
    def load_latest(self) -> Optional[dict]:
        return load_checkpoint(self.path)


def load_checkpoint(path) -> Optional[dict]:
    """Newest intact snapshot in ``path``, or ``None`` when the file is
    missing or holds no complete record.

    Raises :class:`CheckpointError` only for records that are structurally
    intact but written by an unsupported format version -- torn or
    corrupted trailing records are expected after a crash and skipped.
    """
    path = Path(path)
    if not path.exists():
        return None
    data = path.read_bytes()
    newest: Optional[dict] = None
    view = io.BytesIO(data)
    while True:
        magic = view.read(len(_MAGIC))
        if len(magic) < len(_MAGIC):
            break
        if magic != _MAGIC:
            break                     # torn write: nothing after it is framed
        header = view.read(_HEADER.size)
        if len(header) < _HEADER.size:
            break
        version, length, crc = _HEADER.unpack(header)
        blob = view.read(length)
        if len(blob) < length:
            break                     # truncated tail record
        if zlib.crc32(blob) != crc:
            break                     # corrupted record; stop at last good one
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint record v{version} in {path} is not supported "
                f"(this build reads v{CHECKPOINT_FORMAT_VERSION})")
        try:
            newest = pickle.loads(blob)
        except Exception as exc:
            raise CheckpointError(
                f"undecodable checkpoint record in {path}: {exc}") from exc
    return newest


#: version of the *run payload* schema (inside a record); independent of
#: the record framing version above
RUN_PAYLOAD_CODEC = 2
#: the result counters a run payload carries, beside the kernel's
#: ``batches_done``.  Decoding keeps only these, so the counters of
#: removed mechanisms that older payloads carry (the poison-segment
#: quarantine's, the segment cache's hits and misses) are dropped
RESULT_COUNTERS = ("paths_created", "paths_skipped", "splits",
                   "simulated_cycles", "truncated_paths")


def encode_run_payload(engine: str, design: str, application: str,
                       frontier: list, strategy: str, csm: dict,
                       activity: dict, counters: dict,
                       path_records: list,
                       per_path_exercised: list) -> dict:
    """Build the one v2 run payload every backend checkpoints through.

    ``frontier`` is a list of ``(state_bytes, forced_decision, None,
    parent, None)`` tuples in re-push order: slots 2 and 4 once held a
    fork depth and origin PC for a retired frontier order, and stay in
    the entry so the v2 shape does not change.  ``activity`` carries a
    ``"repr"`` key (``"sim"`` for live simulator planes, ``"profile"``
    for an accumulated toggle profile) beside the four boolean planes.
    The ``"journal"`` slot once held the retired run journal and is
    written as ``[]``; the run's trace records its checkpoints,
    resumes, interrupts and stops.
    """
    return {
        "codec": RUN_PAYLOAD_CODEC,
        "engine": engine,
        "design": design,
        "application": application,
        "frontier": list(frontier),
        "strategy": strategy,
        "csm": csm,
        "activity": activity,
        "counters": dict(counters),
        "path_records": list(path_records),
        "per_path_exercised": list(per_path_exercised),
        "journal": [],
    }


def decode_run_payload(payload: dict) -> dict:
    """Normalise any supported payload shape to the v2 schema.

    Legacy (pre-codec) serial payloads carried no ``"codec"`` key and
    stored the frontier as 4-tuples under ``"stack"`` with live sim
    planes; they upgrade losslessly.  Older v2 payloads may still carry
    the retired poison-segment ``quarantine`` snapshot and counters not
    in :data:`RESULT_COUNTERS`; both are dropped.  Their
    ``strategy_meta`` (the retired novelty order's halt counts), the
    depth/origin-PC slots of their frontier entries and their
    ``journal`` (pickled ``RunEvent`` entries of the retired run
    journal) are never read.
    """
    codec = payload.get("codec")
    counters = {k: v for k, v in payload.get("counters", {}).items()
                if k in RESULT_COUNTERS or k == "batches_done"}
    if codec == RUN_PAYLOAD_CODEC:
        out = dict(payload, counters=counters)
        out.pop("quarantine", None)
        out.setdefault("per_path_exercised", [])
        return out
    if codec is not None:
        raise CheckpointError(
            f"run payload codec v{codec} is not supported "
            f"(this build reads v{RUN_PAYLOAD_CODEC} and the legacy "
            f"pre-codec shapes)")
    engine = payload.get("engine")
    if engine == "serial":
        counters.setdefault("batches_done", len(payload["path_records"]))
        activity = dict(payload["activity"])
        activity.setdefault("repr", "sim")
        return {
            "codec": RUN_PAYLOAD_CODEC,
            "engine": "serial",
            "design": payload["design"],
            "application": payload["application"],
            "frontier": [(blob, forced, depth, parent, None)
                         for blob, forced, depth, parent
                         in payload["stack"]],
            "strategy": "dfs",
            "csm": payload["csm"],
            "activity": activity,
            "counters": counters,
            "path_records": list(payload["path_records"]),
            "per_path_exercised": list(payload["per_path_exercised"]),
        }
    # any other engine tag (the removed worker pool's "parallel" among
    # them): hand back just enough for the kernel to raise its
    # engine-mismatch ResumeMismatch with the original tag
    return {"codec": RUN_PAYLOAD_CODEC, "engine": engine,
            "design": payload.get("design"),
            "application": payload.get("application")}


def as_checkpointer(checkpoint) -> Optional[Checkpointer]:
    """Coerce an engine's ``checkpoint=`` argument: a path becomes a
    default-cadence :class:`Checkpointer`, an existing instance passes
    through, ``None`` stays ``None``."""
    if checkpoint is None or isinstance(checkpoint, Checkpointer):
        return checkpoint
    return Checkpointer(checkpoint)
