"""High-level facade: the ``motivo`` pipeline in one object.

:class:`MotivoCounter` wires the full paper pipeline together — color the
graph, run the build-up phase (one SpMM per layer), wrap the table in an
urn, sample (naive or AGS, both drawn in vectorized batches of
``batch_size``), convert to count estimates — behind a configuration
dataclass.  Layer storage follows the config: in-memory by default,
greedily flushed to ``spill_dir`` and memory-mapped back when set
(§3.1/§3.3).  The whole pipeline is walked module by module in
``docs/architecture.md``.

Multi-coloring averaging — how the paper both reduces variance and
produces its non-exact ground truths ("we averaged the counts given by
motivo over 20 runs") — is delegated to
:class:`~repro.engine.pipeline.PipelineEngine`, which runs the ensemble
serially or across a process pool with deterministic per-coloring seeds.

Persistence (build once, sample many): :meth:`MotivoCounter.save_artifact`
writes the finished table as a versioned on-disk artifact and
:meth:`MotivoCounter.from_artifact` reopens it — dense layers
memory-mapped, master RNG resumed from the recorded post-build state —
so warm counters sample bit-identically to freshly built ones.  Setting
:attr:`MotivoConfig.artifact_dir` routes :meth:`MotivoCounter.build`
through the content-addressed artifact cache automatically.

Quickstart::

    from repro import MotivoConfig, MotivoCounter
    from repro.graph import load_dataset

    counter = MotivoCounter(load_dataset("facebook"), MotivoConfig(k=5, seed=7))
    counter.build()
    estimates = counter.sample_naive(20_000)
    for bits, count in estimates.top(5):
        print(f"graphlet {bits:#x}: ~{count:.0f} induced copies")
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.errors import ArtifactError, BuildError, SamplingError
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import DEFAULT_DESCENT_CACHE_BYTES, TreeletUrn
from repro.graph.graph import Graph
from repro.graphlets.spanning import SigmaCache
from repro.sampling.ags import AGSResult, ags_estimate
from repro.sampling.estimates import GraphletEstimates
from repro.sampling.naive import DEFAULT_BATCH_SIZE, naive_estimate
from repro.sampling.occurrences import GraphletClassifier
from repro.table.flush import SpillStore
from repro.table.layer_store import InMemoryStore, LayerStore, SpillLayerStore
from repro.telemetry import TelemetryConfig, build_tracer
from repro.telemetry.tracing import activate
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation
from repro.util.rng import ensure_rng, spawn_rng

if TYPE_CHECKING:
    from repro.artifacts.table_artifact import TableArtifact
    from repro.table.count_table import CountTable

__all__ = ["MotivoConfig", "MotivoCounter"]

#: Everything :func:`repro.graph.graph.normalize_updates` accepts:
#: a normalized ``(N, 3)`` int array or ``(op, u, v)`` triples.
UpdateBatch = Union[np.ndarray, Iterable[Tuple[object, int, int]]]

#: MotivoConfig fields recorded in (and restored from) artifact manifests.
_BUILD_FIELDS = (
    "k", "seed", "zero_rooting", "biased_lambda", "batch_size",
    "table_layout", "descent_cache_bytes",
)


# repro: pool-transport
@dataclass
class MotivoConfig:
    """Configuration for one motivo pipeline.

    Attributes
    ----------
    k:
        Motif size (paper: 5–9; practical here: 4–7).
    seed:
        Master seed; coloring and sampling derive child streams from it.
    zero_rooting:
        §3.2 optimization on the size-k layer (default on, as in motivo).
    biased_lambda:
        When set, use the §3.4 biased coloring with this λ instead of the
        uniform coloring.
    spill_dir:
        When set, layers are greedily flushed there and memory-mapped back
        (§3.1/§3.3).
    sigma_cache_dir:
        When set, σ_ij tables are cached on disk (§3.3).
    batch_size:
        Samples per vectorized sampling chunk (naive chunks, AGS adaptive
        chunk cap), at least 1.  The chunking decides how the generator
        is consumed, so estimates are reproducible per ``(seed,
        batch_size)``.
    table_layout:
        In-memory count-table layout: ``"dense"`` (the build kernel's
        matrix form, the default) or ``"succinct"`` (the paper's CSR
        records — layers seal as they retire from the build frontier,
        shrinking resident memory to O(stored pairs)).  Both layouts
        produce bit-identical estimates for a fixed seed, so the choice
        is purely a memory/speed trade.
    descent_cache_bytes:
        Budget (in bytes) for the urn's cached gathered-cumulative rows
        — the per-key neighborhood prefix sums the fused descent kernel
        gathers once and reuses across batches.  Rows past the budget
        are rebuilt transiently per batch (correct, slower); the
        fallback is counted in the instrumentation.
    artifact_dir:
        When set (and ``seed`` is fixed), :meth:`MotivoCounter.build`
        goes through a content-addressed
        :class:`~repro.artifacts.cache.ArtifactCache` rooted there: a
        build matching the graph fingerprint and build parameters is
        reopened from disk (dense layers memory-mapped) instead of
        rebuilt, and fresh builds are saved for the next caller.
    artifact_codec:
        Count-blob codec for artifacts written through the cache:
        ``"dense"`` (memmap reopen, the default) or ``"succinct"``
        (delta/varint, smallest on disk).
    memory_budget:
        Hard byte budget for the build-up working set.  Setting it (or
        ``num_shards``) routes the build through the out-of-core sharded
        kernel (:func:`repro.colorcoding.sharded.build_table_sharded`):
        each level runs vertex-shard by vertex-shard, finished blocks go
        straight to disk, and any allocation that would overshoot the
        budget raises :class:`~repro.errors.MemoryBudgetError` instead
        of silently growing.  The table is bit-identical to the
        in-memory build.  Incompatible with ``spill_dir`` (the sharded store subsumes spilling).
    num_shards:
        Explicit shard count for the sharded build.  Defaults to the
        smallest count whose modeled working set fits ``memory_budget``
        (:func:`repro.colorcoding.sharded.plan_shards`); with no budget,
        the count is taken as-is and only peak tracking applies.
    shard_dir:
        Directory for the sharded build's on-disk blocks.  Defaults to a
        fresh temporary directory owned (and removed) by the counter;
        point it somewhere durable to keep the blocks around.  The
        finished dense layers are memory-mapped from here, so the
        counter must stay open while sampling.
    shard_jobs:
        Worker processes for the sharded build's per-level shard fan-out
        (results fold in shard order, so parallel builds stay
        byte-identical).
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryConfig`.  When its
        ``trace_out`` is set, build/sample stages emit nested spans to
        that JSON-lines sink (``buildup``, ``artifact.open``,
        ``artifact.seal``, ``sample.naive``, ``sample.ags``, plus the
        inner ``descent.wave`` / ``sample.gather`` / ``sample.classify``
        / ``sharded.*`` spans).  Telemetry never touches the RNG
        streams — estimates are bit-identical with it on or off — and
        it is deliberately **not** a build field, so it never changes an
        artifact-cache key.
    incremental_updates:
        How :meth:`MotivoCounter.update` maintains the table under edge
        updates: ``True`` (the default) propagates deltas over the
        touched-column frontier
        (:func:`repro.colorcoding.incremental.apply_edge_updates`);
        ``False`` falls back to a full in-memory rebuild under the same
        coloring — the incremental path's bit-identity oracle.  Both
        produce byte-identical tables, so like telemetry this is not a
        build field and never changes an artifact-cache key.
    delta_log_dir:
        When set, every :meth:`MotivoCounter.update` batch is also
        persisted there as a numbered delta artifact
        (``delta-000000``, …) carrying the parent/child graph
        fingerprints, so the update history can later be folded into a
        fresh base via :func:`repro.artifacts.compact_table`.
    """

    k: int = 5
    seed: Optional[int] = None
    zero_rooting: bool = True
    biased_lambda: Optional[float] = None
    spill_dir: Optional[str] = None
    sigma_cache_dir: Optional[str] = None
    batch_size: int = DEFAULT_BATCH_SIZE
    table_layout: str = "dense"
    descent_cache_bytes: int = DEFAULT_DESCENT_CACHE_BYTES
    artifact_dir: Optional[str] = None
    artifact_codec: str = "dense"
    memory_budget: Optional[int] = None
    num_shards: Optional[int] = None
    shard_dir: Optional[str] = None
    shard_jobs: int = 1
    telemetry: Optional[TelemetryConfig] = None
    incremental_updates: bool = True
    delta_log_dir: Optional[str] = None

    def build_params(self) -> dict:
        """The table-relevant fields, as recorded in artifact manifests."""
        return {name: getattr(self, name) for name in _BUILD_FIELDS}


class MotivoCounter:
    """The end-to-end pipeline: build once, sample many times."""

    def __init__(self, graph: Graph, config: Optional[MotivoConfig] = None):
        self.graph = graph
        self.config = config or MotivoConfig()
        if self.config.k < 2:
            raise BuildError("motif size k must be at least 2")
        if self.config.batch_size < 1:
            raise SamplingError(
                f"batch_size must be at least 1, got {self.config.batch_size}"
            )
        self.registry = TreeletRegistry(self.config.k)
        self.instrumentation = Instrumentation()
        self.sigma_cache = SigmaCache(self.config.sigma_cache_dir)
        self._rng = ensure_rng(self.config.seed)
        self.coloring: Optional[ColoringScheme] = None
        self.urn: Optional[TreeletUrn] = None
        self.classifier: Optional[GraphletClassifier] = None
        self.store: Optional[LayerStore] = None
        #: MemoryBudget tracker of the last sharded build (peak bytes).
        self.build_budget = None
        #: True once build() finished with an urn that holds no colorful
        #: k-treelets (unlucky coloring, or no connected k-subgraph at
        #: all).  Sampling then returns zero estimates flagged
        #: ``empty_urn`` instead of raising — the single-run counterpart
        #: of the ensemble engine's null members.
        self.empty_urn: bool = False
        self._built: bool = False
        self._table = None
        #: Provenance of a delta-maintained table (recorded into saved
        #: artifacts as the manifest's ``lineage`` section); ``None``
        #: until the first :meth:`update`.
        self._lineage: Optional[dict] = None
        self._tracer = build_tracer(self.config.telemetry)

    @contextmanager
    def _stage(self, name: str, **attrs):
        """A traced pipeline stage (no-op unless tracing is configured).

        Activates this counter's tracer for the dynamic extent of the
        stage so the module-level spans in the kernels (``descent.wave``,
        ``sample.gather``, …) nest under it.
        """
        if self._tracer is None:
            yield
            return
        with activate(self._tracer), self._tracer.span(name, **attrs):
            yield

    # ------------------------------------------------------------------
    # Build-up phase
    # ------------------------------------------------------------------

    def build(self) -> Optional[TreeletUrn]:
        """Color the graph and run the build-up phase; returns the urn.

        A build whose table holds no colorful k-treelets (unlucky
        coloring, or no connected k-subgraph) returns ``None`` and sets
        :attr:`empty_urn` — sampling then yields zero estimates flagged
        ``empty_urn`` rather than raising, matching the ensemble
        engine's null-member semantics.

        With :attr:`MotivoConfig.artifact_dir` set (and a fixed seed),
        the build goes through the artifact cache: a matching persisted
        table is reopened — memory-mapped, no rebuild — and a fresh
        build is saved back for later callers.  Either way the counter
        ends up in the same state, master RNG stream included, so
        estimates are bit-identical whether the table came warm from
        disk or was just built.
        """
        config = self.config
        if config.artifact_dir is not None and config.seed is not None:
            return self._build_cached()
        return self._build_fresh()

    def _build_fresh(self) -> Optional[TreeletUrn]:
        with self._stage("buildup", k=self.config.k):
            return self._build_fresh_inner()

    def _build_fresh_inner(self) -> Optional[TreeletUrn]:
        config = self.config
        n = self.graph.num_vertices
        if config.biased_lambda is None:
            self.coloring = ColoringScheme.uniform(n, config.k, self._rng)
        else:
            self.coloring = ColoringScheme.biased(
                n, config.k, config.biased_lambda, self._rng
            )
        if config.memory_budget is not None or config.num_shards is not None:
            table = self._build_sharded()
        else:
            if config.spill_dir:
                self.store = SpillLayerStore(SpillStore(config.spill_dir))
            else:
                self.store = InMemoryStore()
            table = build_table(
                self.graph,
                self.coloring,
                registry=self.registry,
                zero_rooting=config.zero_rooting,
                store=self.store,
                instrumentation=self.instrumentation,
                layout=config.table_layout,
            )
        self._finish_build(table)
        return self.urn

    def _build_sharded(self):
        """Run the out-of-core sharded build (see ``memory_budget``)."""
        import tempfile

        from repro.colorcoding.sharded import (
            MemoryBudget,
            build_table_sharded,
            plan_shards,
        )
        from repro.table.layer_store import ShardedStore

        config = self.config
        if config.spill_dir:
            raise BuildError(
                "memory_budget/num_shards and spill_dir are mutually "
                "exclusive — the sharded store already keeps the build "
                "on disk"
            )
        if config.num_shards is not None:
            if config.num_shards < 1:
                raise BuildError("num_shards must be at least 1")
            num_shards = config.num_shards
        else:
            num_shards = plan_shards(
                self.graph, self.registry, config.memory_budget
            )
        if config.shard_dir is None:
            # mkdtemp pre-creates the directory, so auto-detection would
            # treat it as borrowed; the counter owns it.
            directory = tempfile.mkdtemp(prefix="motivo-shards-")
            store = ShardedStore(num_shards, directory, owns_directory=True)
        else:
            store = ShardedStore(num_shards, config.shard_dir)
        self.store = store
        self.build_budget = MemoryBudget(config.memory_budget)
        return build_table_sharded(
            self.graph,
            self.coloring,
            registry=self.registry,
            zero_rooting=config.zero_rooting,
            store=store,
            instrumentation=self.instrumentation,
            layout=config.table_layout,
            memory_budget=self.build_budget,
            jobs=config.shard_jobs,
            seed=config.seed,
        )

    def _build_cached(self) -> Optional[TreeletUrn]:
        """Build through the content-addressed artifact cache."""
        from repro.artifacts import ArtifactCache, open_table

        config = self.config
        cache = ArtifactCache(
            config.artifact_dir, registry=self.instrumentation.registry
        )
        key = cache.key(self.graph, config, config.artifact_codec)
        slot = cache.lookup(self.graph, config, config.artifact_codec)
        if slot is not None:
            try:
                artifact = open_table(
                    slot, self.graph, layout=config.table_layout
                )
            except ArtifactError:
                # A stale slot (version skew after an upgrade, truncated
                # blobs) is a miss, not a failure: evict and rebuild.
                cache.evict(key)
            else:
                self.instrumentation.count("artifact_cache_hits")
                self._adopt_artifact(artifact)
                return self.urn
        self.instrumentation.count("artifact_cache_misses")
        self._build_fresh()
        if self.urn is None:
            # Empty-urn builds are not persistable (and not worth
            # caching); the counter still answers with zero estimates.
            return None
        tmp = cache.tmp_path(key)
        self.save_artifact(tmp, codec=config.artifact_codec)
        try:
            cache.admit(tmp, key)
        except OSError:
            # A concurrent evict/clear can sweep our in-flight tmp dir;
            # losing the cache write must not fail a successful build.
            self.instrumentation.count("artifact_cache_admit_lost")
        return self.urn

    def _finish_build(self, table, program=None) -> None:
        """Wrap a finished table in the sampling-phase machinery.

        ``program`` is an optional precompiled
        :class:`~repro.colorcoding.descent.DescentProgram` (from a
        plan-carrying artifact) adopted by the urn so warm opens skip
        plan compilation entirely.

        An urn with no colorful k-treelets is *not* an error at this
        level: the counter records ``empty_urn`` and later sampling
        calls return zero estimates (a served request degrades to
        "0 occurrences" instead of a 500) — the same semantics the
        ensemble engine has always given empty-urn members.
        """
        config = self.config
        self._table = table
        try:
            self.urn = TreeletUrn(
                self.graph,
                table,
                self.coloring,
                registry=self.registry,
                instrumentation=self.instrumentation,
                program=program,
                descent_cache_bytes=config.descent_cache_bytes,
            )
        except SamplingError:
            self.urn = None
            self.empty_urn = True
            self.instrumentation.count("empty_urn_builds")
        self.classifier = GraphletClassifier(self.graph, config.k)
        self._built = True

    def _require_built(self) -> Optional[TreeletUrn]:
        if not self._built or self.classifier is None:
            raise SamplingError("call build() before sampling")
        return self.urn

    def _empty_estimates(
        self, num_samples: int, method: str
    ) -> GraphletEstimates:
        """The degenerate zero-estimate answer of an empty-urn build."""
        return GraphletEstimates.empty(self.config.k, num_samples, method)

    # ------------------------------------------------------------------
    # Incremental maintenance: evolving graphs without rebuilds
    # ------------------------------------------------------------------

    @property
    def table(self) -> "Optional[CountTable]":
        """The current count table (``None`` before :meth:`build`).

        Kept even for empty-urn builds, so :meth:`update` can revive a
        counter whose graph lost its last colorful k-treelet.
        """
        return self._table

    def update(self, updates: UpdateBatch) -> Dict[str, object]:
        """Apply a batch of edge insertions/deletions to the built table.

        The graph and table advance together: the count table is
        maintained as a materialized view of the build-up DP — deltas
        propagate over the touched-column frontier
        (:func:`repro.colorcoding.incremental.apply_edge_updates`)
        instead of rebuilding, and the result is **bit-identical** to a
        fresh build on the updated graph under the same coloring.  The
        coloring itself never changes (pure edge updates, fixed vertex
        count), and the master RNG stream is untouched, so post-update
        estimates equal those of a counter freshly built on the updated
        graph with this seed, bit for bit.

        ``updates`` is a batch of ``(op, u, v)`` triples (``op`` one of
        ``+1``/``-1`` or the string spellings accepted by
        :func:`repro.graph.graph.normalize_updates`); within a batch the
        last operation on an edge wins, and no-op entries (inserting a
        present edge, deleting an absent one) are skipped.  A batch that
        deletes the graph's last colorful k-treelets degrades to the
        usual ``empty_urn`` state — sampling then returns flagged zero
        estimates, and a later insertion batch revives the urn.

        With :attr:`MotivoConfig.incremental_updates` off, the table is
        fully rebuilt (in memory, same coloring) instead — the oracle
        the incremental path is tested against.  With
        :attr:`MotivoConfig.delta_log_dir` set, the batch is also
        persisted as a delta artifact for later compaction.

        Returns a stats dict: ``mode``, ``updates_applied``,
        ``edges_added``, ``edges_removed``, ``rows_touched``,
        ``touched_vertices``, ``propagate_seconds``.
        """
        if not self._built or self.coloring is None or self._table is None:
            raise BuildError("call build() before update()")
        config = self.config
        started_at = time.perf_counter()
        with self._stage("update", k=config.k):
            if config.incremental_updates:
                from repro.colorcoding.incremental import apply_edge_updates

                result = apply_edge_updates(
                    self._table,
                    self.graph,
                    updates,
                    self.coloring,
                    registry=self.registry,
                    instrumentation=self.instrumentation,
                    in_place=True,
                )
                new_graph, table = result.graph, result.table
                dirty_columns = result.dirty_columns
                stats = {
                    "mode": "incremental",
                    "updates_applied": result.updates_applied,
                    "edges_added": result.edges_added,
                    "edges_removed": result.edges_removed,
                    "rows_touched": result.rows_touched,
                    "touched_vertices": int(result.touched.size),
                }
            else:
                added, removed, touched = self.graph.resolve_updates(updates)
                new_graph, _ = self.graph.apply_updates(updates)
                dirty_columns = None
                stats = {
                    "mode": "rebuild",
                    "updates_applied": int(added.size + removed.size),
                    "edges_added": int(added.size),
                    "edges_removed": int(removed.size),
                    "rows_touched": 0,
                    "touched_vertices": int(touched.size),
                }
                if touched.size:
                    # Full rebuild under the SAME coloring (always in
                    # memory: the fallback is the correctness oracle,
                    # not the scale path).
                    table = build_table(
                        new_graph,
                        self.coloring,
                        registry=self.registry,
                        zero_rooting=config.zero_rooting,
                        instrumentation=self.instrumentation,
                        layout=config.table_layout,
                    )
                else:
                    table = self._table
            stats["propagate_seconds"] = time.perf_counter() - started_at
            if stats["updates_applied"] == 0:
                return stats
            parent_fingerprint = self.graph.fingerprint()
            if config.delta_log_dir:
                self._log_delta(
                    updates, parent_fingerprint, new_graph.fingerprint(),
                    stats,
                )
            if self._lineage is None:
                self._lineage = {
                    "parent_fingerprint": parent_fingerprint,
                    "update_batches": 0,
                    "updates_applied": 0,
                }
            self._lineage["update_batches"] += 1
            self._lineage["updates_applied"] += stats["updates_applied"]
            self.graph = new_graph
            self._refresh_after_update(table, dirty_columns)
        return stats

    def _refresh_after_update(self, table, dirty_columns=None) -> None:
        """Rebind the warm sampling machinery to the updated graph/table.

        The steady-state counterpart of :meth:`_finish_build`: instead
        of constructing a fresh urn and classifier (recompiling the
        descent plan, re-deriving the canonicalization caches), the
        existing ones are pointed at the new graph and table.
        :meth:`TreeletUrn.rebind` rebuilds exactly the state a fresh
        constructor would (root alias, totals), keeps the compiled
        descent program and — given the delta's ``dirty_columns`` hint —
        the gathered-cumulative store, and recomputes exactly the reads
        the update invalidated, so post-update samples stay
        bit-identical to a fresh build without paying the cold-start
        costs on every update.  Empty-urn transitions in
        either direction fall back to the full :meth:`_finish_build`
        path.
        """
        self._table = table
        if self.urn is None or self.classifier is None:
            # Empty-urn revival (or never fully built): construct fresh.
            self.empty_urn = False
            self._finish_build(table)
            return
        try:
            self.urn.rebind(self.graph, table, dirty_columns=dirty_columns)
        except SamplingError:
            self.urn = None
            self.empty_urn = True
            self.instrumentation.count("empty_urn_builds")
        else:
            self.empty_urn = False
        self.classifier.rebind(self.graph)
        self._built = True

    def _log_delta(
        self,
        updates,
        parent_fingerprint: str,
        child_fingerprint: str,
        stats: dict,
    ) -> None:
        """Persist one update batch to the configured delta log."""
        from repro.artifacts import save_table_delta

        root = self.config.delta_log_dir
        os.makedirs(root, exist_ok=True)
        sequence = len(
            [name for name in os.listdir(root) if name.startswith("delta-")]
        )
        save_table_delta(
            os.path.join(root, f"delta-{sequence:06d}"),
            updates,
            parent_fingerprint,
            child_fingerprint,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Persistence: build once, sample many
    # ------------------------------------------------------------------

    def save_artifact(
        self,
        directory: str,
        codec: str = "dense",
        source: Optional[str] = None,
    ) -> "TableArtifact":
        """Persist the built table as a reusable on-disk artifact.

        Records the build parameters, the coloring, per-layer blobs in
        the chosen codec, the build instrumentation, the compiled
        descent program (so reopened counters sample without ever
        recompiling the plan), and — crucially — the *post-build state
        of the master RNG stream*, so a counter restored with
        :meth:`from_artifact` samples bit-identically to this one.
        Returns the
        :class:`~repro.artifacts.table_artifact.TableArtifact`.  An
        empty-urn build has nothing worth persisting and raises
        :class:`~repro.errors.SamplingError` (the ensemble engine
        records such members as null instead).
        """
        urn = self._require_built()
        if urn is None:
            raise SamplingError(
                "cannot persist an empty-urn build as a table artifact"
            )
        from repro.artifacts import save_table

        with self._stage("artifact.seal", codec=codec):
            return save_table(
                directory,
                urn.table,
                self.coloring,
                self.graph,
                codec=codec,
                build=self.config.build_params(),
                rng_state=self._rng.bit_generator.state,
                instrumentation=self.instrumentation,
                source=source,
                descent_program=urn.descent_program(),
                lineage=self._lineage,
            )

    @classmethod
    def from_artifact(
        cls,
        graph: Graph,
        directory: str,
        config: Optional[MotivoConfig] = None,
        mmap: bool = True,
        verify: bool = False,
        reseed: "Optional[int]" = None,
        table_layout: "Optional[str]" = None,
    ) -> "MotivoCounter":
        """Reopen a saved table artifact as a ready-to-sample counter.

        The expensive build-up phase is skipped entirely: dense count
        blobs are memory-mapped (``mmap=True``), succinct blobs open
        straight into CSR records, the stored coloring and build
        parameters are adopted, and the master RNG resumes from the
        recorded post-build state — so for a fixed seed the returned
        counter's estimates are bit-identical to a one-shot
        build-and-sample run (whatever the layout: the layouts answer
        every table operation identically).  ``config`` overrides the
        sampling-side parameters (its ``k``/``seed`` must agree with the
        artifact); ``reseed`` discards the stored stream and starts a
        fresh one; ``table_layout`` forces the in-memory layout, beating
        both ``config`` and the layout recorded at build time (which
        otherwise win, in that order — ``open_table`` falls back to the
        codec's native layout for artifacts predating the field).
        """
        from repro.artifacts import open_table

        if table_layout is None and config is not None:
            table_layout = config.table_layout
        artifact = open_table(
            directory, graph, mmap=mmap, verify=verify, layout=table_layout
        )
        stored = artifact.build
        if config is None:
            known = {
                name: stored[name] for name in _BUILD_FIELDS if name in stored
            }
            # The manifest's top-level k is authoritative: artifacts saved
            # without build params (e.g. via LayerStore.export_artifact)
            # must not fall back to the MotivoConfig default.
            known["k"] = artifact.k
            config = MotivoConfig(**known)
        else:
            if config.k != artifact.k:
                raise ArtifactError(
                    f"artifact holds a k={artifact.k} table, config wants "
                    f"k={config.k}"
                )
            stored_seed = stored.get("seed")
            if (
                config.seed is not None
                and stored_seed is not None
                and config.seed != stored_seed
            ):
                raise ArtifactError(
                    f"artifact was built under seed {stored_seed}, config "
                    f"wants {config.seed}"
                )
        counter = cls(graph, config)
        return counter._adopt_artifact(artifact, reseed=reseed)

    def _adopt_artifact(
        self, artifact, reseed: "Optional[int]" = None
    ) -> "MotivoCounter":
        """Take over a loaded artifact's table, coloring, and RNG stream."""
        with self._stage("artifact.open", k=self.config.k):
            return self._adopt_artifact_inner(artifact, reseed=reseed)

    def _adopt_artifact_inner(
        self, artifact, reseed: "Optional[int]" = None
    ) -> "MotivoCounter":
        self.coloring = artifact.coloring
        if reseed is not None:
            self._rng = ensure_rng(reseed)
        elif artifact.rng_state is not None:
            state = artifact.rng_state
            generator_cls = getattr(
                np.random, str(state.get("bit_generator", "")), None
            )
            if not (
                isinstance(generator_cls, type)
                and issubclass(generator_cls, np.random.BitGenerator)
            ):
                raise ArtifactError(
                    "artifact records an unknown bit generator "
                    f"{state.get('bit_generator')!r}"
                )
            try:
                generator = np.random.Generator(generator_cls())
                generator.bit_generator.state = state
            except (TypeError, ValueError, KeyError) as error:
                raise ArtifactError(
                    f"artifact records an unusable RNG state: {error}"
                ) from None
            self._rng = generator
        self.instrumentation.merge(
            Instrumentation.from_snapshot(
                artifact.manifest.get("instrumentation", {})
            )
        )
        self._finish_build(
            artifact.table, program=getattr(artifact, "descent_program", None)
        )
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def configure_telemetry(
        self, telemetry: Optional[TelemetryConfig]
    ) -> None:
        """Adopt a telemetry config after construction.

        Counters reopened via :meth:`from_artifact` derive their config
        from the artifact manifest, which never records telemetry (it is
        not a build field); this re-points the tracer without touching
        anything that affects estimates.
        """
        self.config.telemetry = telemetry
        if self._tracer is not None:
            self._tracer.close()
        self._tracer = build_tracer(telemetry)

    def close(self) -> None:
        """Release the build's on-disk scratch state (spill files).

        After closing, memory-mapped layers served by a spilling store
        are gone — sampling must not continue.  In-memory builds are
        unaffected.  Idempotent.
        """
        if self.store is not None:
            self.store.close()
        if self._tracer is not None:
            self._tracer.close()

    def __enter__(self) -> "MotivoCounter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Sampling phase
    # ------------------------------------------------------------------

    def sample_naive(self, num_samples: int) -> GraphletEstimates:
        """CC-style naive sampling estimates (§2.2), drawn in batches.

        On an empty-urn build this returns zero estimates flagged
        ``empty_urn`` instead of raising (see :meth:`build`).
        """
        urn = self._require_built()
        if urn is None:
            return self._empty_estimates(num_samples, "naive")
        with self._stage("sample.naive", samples=num_samples):
            return naive_estimate(
                urn, self.classifier, num_samples, self._rng,
                batch_size=self.config.batch_size,
            )

    def sample_ags(
        self, budget: int, cover_threshold: int = 300
    ) -> AGSResult:
        """Adaptive graphlet sampling estimates (§4), chunked draws.

        On an empty-urn build this returns zero estimates flagged
        ``empty_urn`` instead of raising (see :meth:`build`).
        """
        urn = self._require_built()
        if urn is None:
            return AGSResult(estimates=self._empty_estimates(budget, "ags"))
        with self._stage("sample.ags", budget=budget):
            return ags_estimate(
                urn,
                self.classifier,
                budget,
                cover_threshold=cover_threshold,
                rng=self._rng,
                sigma_cache=self.sigma_cache,
                batch_size=self.config.batch_size,
            )

    # ------------------------------------------------------------------
    # Multi-run averaging (paper §5 "Ground truth" and error bounds)
    # ------------------------------------------------------------------

    def averaged_naive(
        self, runs: int, samples_per_run: int, jobs: int = 1
    ) -> GraphletEstimates:
        """Average naive estimates over ``runs`` independent colorings.

        Theorems 2–3: averaging over γ colorings shrinks the deviation
        probabilities exponentially in γ.  This is also how the paper
        builds reference counts where exact counting is infeasible.

        Runs through :class:`~repro.engine.pipeline.PipelineEngine`;
        ``jobs > 1`` fans the colorings out over a process pool without
        changing the result (a run whose coloring leaves the urn empty
        contributes 0 to every graphlet, keeping the estimator unbiased).
        """
        if runs < 1:
            raise SamplingError("need at least one run")
        from repro.engine import PipelineEngine

        # Seeds derive from this counter's stream (not the master seed
        # directly) so repeated calls see fresh independent colorings.
        seeds = [
            int(stream.integers(2**63 - 1))
            for stream in spawn_rng(self._rng, runs)
        ]
        engine = PipelineEngine(
            self.graph, self.config, colorings=runs, jobs=jobs
        )
        result = engine.run_naive(samples_per_run, seeds=seeds)
        self.instrumentation.merge(result.instrumentation)
        return result.estimates
