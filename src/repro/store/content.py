"""Content-addressed artifact store (blobs + JSON manifests).

One on-disk layout underneath the job service and its artifacts::

    <root>/objects/ab/abcdef...       sha256-addressed immutable blobs
    <root>/manifests/<name>.json      JSON documents naming blobs

Blobs are written once under their own digest -- identical content
dedupes for free, and a reader can always detect corruption by
re-hashing.  Manifests are small JSON files (job records and their
verdicts; stores written by earlier versions also hold run records,
grid entries and segment indexes) whose values reference blobs by
digest; anything a manifest references is live, everything else is
garbage (:meth:`ContentStore.gc`).

All writes go through the crash-consistency helpers in
:mod:`repro.resilience.artifacts`: a store is never left with a torn
object or a half-written manifest, only with (collectable) orphans.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..resilience.artifacts import (atomic_publish_bytes,
                                    atomic_write_bytes, atomic_write_json)

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


class StoreError(Exception):
    """A store operation failed (missing blob, bad digest, ...)."""


class StoreCorrupt(StoreError):
    """Stored content does not match its digest / does not parse."""


def _is_digest(value) -> bool:
    return isinstance(value, str) and bool(_DIGEST_RE.match(value))


#: manifest keys that hold *fingerprint* cross-references -- digest-shaped
#: strings that identify configurations, not stored blobs.  The liveness
#: walk skips them; everything else digest-shaped is a blob reference.
FINGERPRINT_KEYS = frozenset({"fingerprint", "components", "run"})


def _walk_digests(node, out: Set[str]) -> None:
    """Collect every digest-shaped blob reference in a JSON tree.

    Liveness is near schema-free on purpose: a manifest references a
    blob by simply containing its digest anywhere outside the reserved
    :data:`FINGERPRINT_KEYS`, so new manifest kinds never need to teach
    gc about their layout -- they only need to keep fingerprints under
    the reserved keys.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            if key in FINGERPRINT_KEYS:
                continue
            _walk_digests(value, out)
    elif isinstance(node, (list, tuple)):
        for value in node:
            _walk_digests(value, out)
    elif _is_digest(node):
        out.add(node)


class ContentStore:
    """A directory of sha256-addressed blobs and JSON manifests."""

    def __init__(self, root):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.manifests_dir = self.root / "manifests"

    # -- blobs --------------------------------------------------------------
    def object_path(self, digest: str) -> Path:
        if not _is_digest(digest):
            raise StoreError(f"not a sha256 digest: {digest!r}")
        return self.objects_dir / digest[:2] / digest

    def put_bytes(self, blob: bytes) -> str:
        """Store ``blob``; return its digest.  Idempotent and safe
        under concurrent writers.

        A missing object is *published* (O_EXCL-style ``os.link``
        create, :func:`~repro.resilience.artifacts.atomic_publish_bytes`):
        two processes putting the same content race harmlessly -- the
        loser observes the winner's identical file instead of replacing
        it, so a concurrent reader never sees the blob's inode change
        underneath it.  An existing object is only trusted if its
        content still hashes to its name -- re-putting over a bit-rotted
        blob repairs it (rename, last-writer-wins), so evict-and-rerun
        cache healing actually converges.
        """
        digest = hashlib.sha256(blob).hexdigest()
        path = self.object_path(digest)
        try:
            if hashlib.sha256(path.read_bytes()).hexdigest() == digest:
                return digest
            corrupt = True
        except OSError:
            corrupt = False
        if corrupt:
            atomic_write_bytes(path, blob)
        else:
            atomic_publish_bytes(path, blob)
        return digest

    def has(self, digest: str) -> bool:
        return self.object_path(digest).exists()

    def get_bytes(self, digest: str) -> bytes:
        """Read a blob back, verifying its content hash on the way."""
        path = self.object_path(digest)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise StoreError(f"missing blob {digest[:12]}: {exc}") from exc
        if hashlib.sha256(blob).hexdigest() != digest:
            raise StoreCorrupt(
                f"blob {digest[:12]} does not match its digest "
                f"(on-disk corruption)")
        return blob

    # -- manifests ----------------------------------------------------------
    def manifest_path(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise StoreError(f"bad manifest name {name!r}")
        return self.manifests_dir / f"{name}.json"

    def put_manifest(self, name: str, manifest: Dict) -> None:
        atomic_write_json(self.manifest_path(name), manifest)

    def get_manifest(self, name: str) -> Optional[Dict]:
        """Load a manifest, ``None`` when absent.

        Raises :class:`StoreCorrupt` on unparseable content -- callers
        that can regenerate the entry should treat that as a miss.
        """
        path = self.manifest_path(name)
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text())
        except (ValueError, OSError) as exc:
            raise StoreCorrupt(
                f"manifest {name!r} does not parse: {exc}") from exc
        if not isinstance(manifest, dict):
            raise StoreCorrupt(f"manifest {name!r} is not a JSON object")
        return manifest

    def manifest_names(self) -> List[str]:
        if not self.manifests_dir.is_dir():
            return []
        return sorted(p.stem for p in self.manifests_dir.glob("*.json"))

    def manifests(self) -> Iterator[Tuple[str, Optional[Dict]]]:
        """Yield ``(name, manifest)``; unparseable ones yield ``None``."""
        for name in self.manifest_names():
            try:
                yield name, self.get_manifest(name)
            except StoreCorrupt:
                yield name, None

    # -- maintenance --------------------------------------------------------
    def _object_digests(self) -> List[str]:
        if not self.objects_dir.is_dir():
            return []
        return sorted(p.name for p in self.objects_dir.glob("??/*")
                      if _is_digest(p.name))

    def referenced_digests(self) -> Set[str]:
        live: Set[str] = set()
        for _, manifest in self.manifests():
            if manifest is not None:
                _walk_digests(manifest, live)
        return live

    def gc(self) -> Dict[str, int]:
        """Delete blobs no manifest references; return what happened."""
        live = self.referenced_digests()
        kept = removed = freed = 0
        for digest in self._object_digests():
            path = self.object_path(digest)
            if digest in live:
                kept += 1
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        return {"kept": kept, "removed": removed, "freed_bytes": freed}

    def _fingerprint_digests(self) -> Set[str]:
        """Digest-shaped strings embedded in manifest *names*.

        ``run-<fp>`` / ``segments-<fp>`` / ``grid-<fp>`` manifests, which
        earlier versions wrote, carry their run fingerprint in the
        name; that fingerprint then appears
        in manifest bodies as a cross-reference, not as a blob address,
        so gc keeps it out of harm's way and verify must not demand a
        blob for it.
        """
        out: Set[str] = set()
        for name in self.manifest_names():
            for match in re.finditer(r"[0-9a-f]{64}", name):
                out.add(match.group(0))
        return out

    def verify(self) -> Dict[str, object]:
        """Re-hash every blob and re-parse every manifest."""
        corrupt: List[str] = []
        objects = 0
        for digest in self._object_digests():
            objects += 1
            try:
                self.get_bytes(digest)
            except StoreError:
                corrupt.append(digest)
        unreadable: List[str] = []
        missing: List[str] = []
        manifests = 0
        fingerprints = self._fingerprint_digests()
        for name, manifest in self.manifests():
            manifests += 1
            if manifest is None:
                unreadable.append(name)
                continue
            refs: Set[str] = set()
            _walk_digests(manifest, refs)
            for digest in sorted(refs - fingerprints):
                if not self.has(digest):
                    missing.append(f"{name}:{digest[:12]}")
        return {"objects": objects, "corrupt_objects": corrupt,
                "manifests": manifests, "unreadable_manifests": unreadable,
                "missing_blobs": missing,
                "ok": not (corrupt or unreadable or missing)}

    def stats(self) -> Dict[str, object]:
        digests = self._object_digests()
        total = 0
        for digest in digests:
            try:
                total += self.object_path(digest).stat().st_size
            except OSError:
                pass
        kinds: Dict[str, int] = {}
        for _, manifest in self.manifests():
            kind = (manifest or {}).get("kind", "unreadable")
            kinds[str(kind)] = kinds.get(str(kind), 0) + 1
        return {"root": str(self.root), "objects": len(digests),
                "object_bytes": total,
                "manifests": sum(kinds.values()),
                "manifest_kinds": kinds}
