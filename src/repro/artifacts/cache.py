"""Content-addressed cache of built table artifacts.

Build-once / sample-many only pays off if callers can *find* the build:
:class:`ArtifactCache` maps ``(graph fingerprint, table-determining
build parameters)`` to a cache slot, so any process pointed at the same
cache root reuses the same artifact instead of rebuilding.

The key hashes exactly the inputs that determine the table's bytes —
graph fingerprint, ``k``, master seed, zero-rooting, biased-coloring λ —
plus the storage codec.  Parameters that *don't* change the table
(in-memory table layout, batch size, descent cache budget) are
deliberately excluded: the dense/succinct layouts hold the same counts,
so a table built under one configuration serves requests for any
other.  Builds with ``seed=None`` are not content-addressable (two such
builds differ) and are never cached.

Writes are crash-safe: a new artifact is saved into a ``.tmp`` sibling
and renamed into its slot, so a concurrent reader either sees a
complete artifact or none.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import List, Optional

from repro.artifacts.table_artifact import TableArtifact, load_manifest
from repro.errors import ArtifactError
from repro.graph.graph import Graph

__all__ = ["ArtifactCache", "CacheEntry"]


@dataclass(frozen=True)
class CacheEntry:
    """One cached artifact: its key, location, and manifest summary."""

    key: str
    path: str
    k: int
    codec: str
    total_pairs: int
    payload_bytes: int
    created_at: float


class ArtifactCache:
    """Directory of table artifacts addressed by build-content key.

    Pass a :class:`~repro.telemetry.MetricsRegistry` to have cache
    traffic land in the telemetry plane: ``artifact_cache_lookup_hits``
    / ``artifact_cache_lookup_misses`` / ``artifact_cache_evictions`` /
    ``artifact_cache_verifies`` counters and the
    ``artifact_cache_bytes`` bytes-on-disk gauge (refreshed by
    :meth:`bytes_on_disk`).  The names deliberately differ from
    ``MotivoCounter``'s ``artifact_cache_hits``/``_misses`` build
    counters so sharing one registry never double-counts.
    """

    def __init__(self, root: str, registry=None):
        self.root = root
        self.registry = registry
        os.makedirs(root, exist_ok=True)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.registry is not None:
            self.registry.inc(name, amount)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    @staticmethod
    def key(graph: Graph, config, codec: str = "dense") -> str:
        """Content key of one build: hex sha256 of the determining inputs.

        ``config`` is anything exposing the ``MotivoConfig`` build
        fields (``k``, ``seed``, ``zero_rooting``, ``biased_lambda``).
        Raises :class:`~repro.errors.ArtifactError` for ``seed=None``
        builds, which are not reproducible and therefore not addressable.
        """
        if config.seed is None:
            raise ArtifactError(
                "builds without a seed are not content-addressable"
            )
        payload = json.dumps(
            {
                "fingerprint": graph.fingerprint(),
                "k": int(config.k),
                "seed": int(config.seed),
                "zero_rooting": bool(config.zero_rooting),
                "biased_lambda": config.biased_lambda,
                "codec": codec,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path(self, key: str) -> str:
        """The cache slot for a key (may not exist yet)."""
        return os.path.join(self.root, key)

    def tmp_path(self, key: str) -> str:
        """Where an in-flight write for ``key`` belongs.

        The naming convention (``<key>.tmp-<pid>``) is owned here: the
        entry listing skips it, :meth:`evict`/:meth:`clear` reap it, and
        writers (``MotivoCounter._build_cached``) save into it before
        :meth:`admit`.
        """
        return f"{self.path(key)}.tmp-{os.getpid()}"

    # ------------------------------------------------------------------
    # Lookup / admit
    # ------------------------------------------------------------------

    def lookup(self, graph: Graph, config, codec: str = "dense") -> Optional[str]:
        """Path of a complete cached artifact for this build, or ``None``."""
        slot = self.path(self.key(graph, config, codec))
        try:
            load_manifest(slot)
        except ArtifactError:
            self._count("artifact_cache_lookup_misses")
            return None
        self._count("artifact_cache_lookup_hits")
        return slot

    def admit(self, tmp_directory: str, key: str) -> str:
        """Move a fully-written artifact directory into its cache slot.

        The rename is atomic on one filesystem; if another process
        admitted the same key first, the newcomer is discarded (the
        artifacts are bit-identical by construction of the key).
        """
        slot = self.path(key)
        if os.path.isdir(slot):
            shutil.rmtree(tmp_directory, ignore_errors=True)
            return slot
        try:
            os.rename(tmp_directory, slot)
        except OSError:
            # Lost the race: a concurrent builder renamed first.
            shutil.rmtree(tmp_directory, ignore_errors=True)
            if not os.path.isdir(slot):
                raise
        return slot

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------

    @staticmethod
    def _tmp_owner_alive(name: str) -> bool:
        """Whether the writer of a ``<key>.tmp-<pid>`` dir still runs.

        Delegates to the shared :func:`repro.table.flush.tmp_owner_alive`
        pid-liveness check, so the cache and the sharded build stores
        agree on exactly when an in-flight write counts as abandoned.
        """
        from repro.table.flush import tmp_owner_alive

        return tmp_owner_alive(name)

    def reap_stale_tmp(self) -> int:
        """Remove crash-leftover write dirs whose owning pid is dead.

        ``<key>.tmp-<pid>`` directories belong to in-flight writers;
        once the writer pid is gone they can only be leftovers of a
        crashed build (a successful :meth:`admit` renames them away).
        Same-pid and live-writer dirs are never touched.  Returns how
        many directories were removed; called automatically by
        :meth:`entries`, so any listing keeps the cache tidy across
        pids — not just the pid that crashed.
        """
        reaped = 0
        for name in os.listdir(self.root):
            if ".tmp-" not in name:
                continue
            if self._tmp_owner_alive(name):
                continue
            path = os.path.join(self.root, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                try:
                    os.remove(path)
                except OSError:
                    pass
            # Count only what is actually gone, so a path rmtree could
            # not remove is not re-reported as reaped on every listing.
            if not os.path.exists(path):
                reaped += 1
        return reaped

    def entries(self) -> List[CacheEntry]:
        """Every complete artifact in the cache, newest first.

        Listing doubles as maintenance: stale cross-pid ``.tmp``
        write directories (crashed builders) are reaped first.
        """
        self.reap_stale_tmp()
        found: List[CacheEntry] = []
        for name in sorted(os.listdir(self.root)):
            slot = os.path.join(self.root, name)
            # In-flight (or crash-leftover) writes live in "<key>.tmp-<pid>"
            # siblings; they hold complete manifests but are not entries.
            if not os.path.isdir(slot) or ".tmp" in name:
                continue
            try:
                manifest = load_manifest(slot)
            except ArtifactError:
                continue
            found.append(
                CacheEntry(
                    key=name,
                    path=slot,
                    k=int(manifest.get("k", 0)),
                    codec=str(manifest.get("codec", "?")),
                    total_pairs=int(manifest.get("total_pairs", 0)),
                    payload_bytes=int(manifest.get("payload_bytes", 0)),
                    created_at=float(manifest.get("created_at", 0.0)),
                )
            )
        found.sort(key=lambda entry: -entry.created_at)
        return found

    def evict(self, key: str) -> bool:
        """Remove one cached artifact; returns whether it existed.

        Also reaps crash-leftover ``<key>.tmp-<pid>`` write directories
        for the same key.
        """
        for name in os.listdir(self.root):
            if name.startswith(f"{key}.tmp"):
                shutil.rmtree(os.path.join(self.root, name), ignore_errors=True)
        slot = self.path(key)
        try:
            shutil.rmtree(slot)
        except (FileNotFoundError, NotADirectoryError):
            # Concurrent evictors race benignly: losing means it's gone.
            return False
        self._count("artifact_cache_evictions")
        return True

    def clear(self) -> int:
        """Evict everything, stale ``.tmp`` write directories included;
        returns the number of complete artifacts removed."""
        removed = 0
        for entry in self.entries():
            removed += self.evict(entry.key)
        for name in os.listdir(self.root):
            if ".tmp" in name:
                shutil.rmtree(os.path.join(self.root, name), ignore_errors=True)
        return removed

    def verify(self, key: str) -> None:
        """Recompute the digests of one cached artifact.

        Raises :class:`~repro.errors.ArtifactError` if the slot is
        missing or any blob fails its digest — the cache-management
        counterpart of ``open_table(..., verify=True)``.
        """
        slot = self.path(key)
        TableArtifact(slot, load_manifest(slot)).verify()
        self._count("artifact_cache_verifies")

    def bytes_on_disk(self) -> int:
        """Actual bytes the cache occupies on disk.

        Walks the cache root and sums every file — payload blobs,
        manifests, and any in-flight (or not-yet-reaped) ``.tmp`` write
        directories — so the number answers "how much disk is this cache
        really using", not the manifest-declared payload subtotal
        (which is still available per entry as ``payload_bytes``).
        """
        total = 0
        for directory, _subdirs, files in os.walk(self.root):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(directory, name))
                except OSError:
                    # A concurrent evict can race the walk; a vanished
                    # file simply no longer occupies disk.
                    continue
        if self.registry is not None:
            self.registry.set_gauge("artifact_cache_bytes", float(total))
        return total
