"""Fault tolerance for long co-analysis runs.

Algorithm 1 runs are open-ended (path explosion can push a run to the
full 2M-cycle budget across 100k paths), so this package makes the
exploration layer survive the failures that long runs actually hit:

* :mod:`~repro.resilience.checkpoint` -- an append-safe on-disk journal
  of the full Algorithm 1 state (pending-path stack, CSM repository,
  accumulated toggle activity) so interrupted runs resume instead of
  restarting;
* :mod:`~repro.resilience.governor` -- the run governor: wall-clock
  deadlines, the RSS memory watchdog, frontier/segment caps, and
  SIGINT/SIGTERM turned into cooperative checkpoint-and-stop;
* :mod:`~repro.resilience.artifacts` -- crash-consistent artifact
  writes (temp file + fsync + ``os.replace``) for reports, benches,
  traces, and waveforms;
* :mod:`~repro.resilience.faults` -- :func:`torn_write`, the
  partial-write crash the checkpoint and artifact tests replay.

A co-analysis always runs in one process; the job service
(:mod:`repro.service`) supervises its own worker processes and retries
a job whose worker died.
"""

from .artifacts import (atomic_open, atomic_write_bytes, atomic_write_json,
                        atomic_write_text, fsync_dir)
from .checkpoint import (CHECKPOINT_FORMAT_VERSION, Checkpointer,
                         load_checkpoint)
from .faults import torn_write
from .governor import (RunBudget, RunGovernor, StopRequest, as_governor,
                       current_rss_mb)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION", "Checkpointer", "load_checkpoint",
    "torn_write",
    "RunBudget", "RunGovernor", "StopRequest", "as_governor",
    "current_rss_mb",
    "atomic_open", "atomic_write_bytes", "atomic_write_json",
    "atomic_write_text", "fsync_dir",
]
