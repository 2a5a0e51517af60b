"""Content-addressed artifact store: one fingerprint layer under
checkpoints, traces, job results and dedup.

* :mod:`~repro.store.fingerprint` -- canonical stable digests for the
  domain objects (netlist structure, CSM config, application binary,
  run configuration);
* :mod:`~repro.store.content` -- :class:`ContentStore`, sha256-addressed
  blobs plus JSON manifests, written crash-consistently.
"""

from .content import ContentStore, StoreCorrupt, StoreError
from .fingerprint import (ENGINE_SEMANTICS_VERSION, RunFingerprint,
                          digest_parts, fingerprint_csm,
                          fingerprint_netlist, fingerprint_workload,
                          run_fingerprint)

__all__ = [
    "ContentStore", "StoreError", "StoreCorrupt",
    "RunFingerprint",
    "ENGINE_SEMANTICS_VERSION", "digest_parts",
    "fingerprint_netlist", "fingerprint_csm", "fingerprint_workload",
    "run_fingerprint",
]
