"""The long-lived sampling service: warm tables, many concurrent queries.

Motivo's whole design splits one expensive build from cheap repeated
sampling; the artifact layer (PR 3/4) made the split durable.  This
module adds the missing serving half: a process that keeps tables warm
and answers any number of concurrent count queries without ever paying
the open cost twice.

Three pieces:

:class:`TableHandle`
    One opened artifact: the memory-mapped (or succinct) table wrapped
    in a :class:`~repro.colorcoding.urn.TreeletUrn`, a
    :class:`~repro.sampling.occurrences.GraphletClassifier`, and the
    build-time sampling parameters.  Handles are **refcounted**: every
    in-flight request holds a reference, so :meth:`SamplingService.evict`
    can drop a table from the service (and disk) while requests are
    running — they finish on the open handle, which closes when the last
    reference drains (*evict-while-served*).

:class:`SamplingService`
    The registry: opens each requested artifact key once (through the
    content-addressed :class:`~repro.artifacts.cache.ArtifactCache`),
    resolves host graphs from manifest source hints (with id-compacted
    edge-list loading), and keeps **per-session RNG streams** so
    repeated queries from one client are deterministic while concurrent
    clients never contend on shared generator state.

**Request coalescing.**  All urn draws go through a per-handle
queue-and-drain: a request thread enqueues a draw job (its uniform
block, pre-drawn from its own session stream), then whichever thread
first takes the handle's draw lock drains the whole queue — concurrent
naive requests merge into a single
:meth:`~repro.colorcoding.urn.TreeletUrn.sample_batch` call and
concurrent AGS chunks for the same shape into one
:meth:`~repro.colorcoding.urn.TreeletUrn.sample_shape_batch` call (the
batched engine from PR 2 as the multiplexing unit).  The batched
descent decides every sample from its own uniform row alone, so the
merged call is **bit-identical** to separate calls: per-request hit
attribution is a row split, and each response equals the one a
single-threaded run under the same session seed would produce.
Classification and estimator bookkeeping stay outside the draw lock, so
requests overlap where they can.

Determinism contract (per session):

* A session is scoped to one ``(artifact key, session id)`` and owns a
  private ``numpy`` Generator seeded by the client (``seed=``) or
  derived stably from the session id.
* Requests within a session are serialized in arrival order; the n-th
  request's estimates are bit-identical to the n-th call of a
  single-threaded ``MotivoCounter.from_artifact(..., reseed=seed)``
  loop issuing the same (estimator, samples) sequence.
* Concurrency never changes results — only which draws share a batch.

**Telemetry.**  The service owns one
:class:`~repro.telemetry.MetricsRegistry`; every handle's
instrumentation, every urn's counters, and the artifact cache's
hit/miss/evict counters share it, so all mutation runs under the
registry lock (no ad-hoc stats locks) and ``/healthz`` /
``GET /metrics`` read one consistent registry instead of merging
per-handle bags.  Request latency lands in the
``serve_request_seconds`` histogram (fixed exponential buckets, so
p50/p99 come out of ``histogram_quantile``).  With a
:class:`~repro.telemetry.TelemetryConfig` whose ``trace_out`` is set,
each request runs under a ``serve.count`` span carrying the request's
trace id (inbound ``X-Trace-Id`` or a fresh ``os.urandom`` id — never
an RNG draw), with the urn's descent/gather/classify spans nested
inside.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.artifacts import ArtifactCache, load_manifest, open_table
from repro.errors import ArtifactError, ReproError, SamplingError, ServeError
from repro.graph.graph import Graph
from repro.graphlets.spanning import SigmaCache
from repro.sampling.ags import ags_estimate
from repro.sampling.estimates import GraphletEstimates
from repro.sampling.naive import naive_estimate
from repro.sampling.occurrences import GraphletClassifier
from repro.colorcoding.urn import DEFAULT_DESCENT_CACHE_BYTES, TreeletUrn
from repro.telemetry import (
    MetricsRegistry,
    TelemetryConfig,
    build_tracer,
    render_prometheus,
)
from repro.telemetry.tracing import activate
from repro.util.instrument import Instrumentation
from repro.util.rng import ensure_rng

__all__ = ["SamplingService", "TableHandle", "CountResult", "session_seed"]

#: Estimators a request may name.
ESTIMATORS = ("naive", "ags")

#: Seconds a /healthz disk-usage figure may be served from cache (the
#: underlying measurement walks the whole cache root).
_DISK_USAGE_TTL = 5.0


def session_seed(session: str) -> int:
    """Stable default seed of a session id (sha256-derived 63-bit int).

    Used when a client opens a session without an explicit ``seed`` so
    that "same session id" still means "same stream" across service
    restarts — the contract the CI smoke test leans on.
    """
    digest = hashlib.sha256(session.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class CountResult:
    """One answered ``/count`` request."""

    key: str
    session: str
    #: 0-based position of this request in its session's stream.
    sequence: int
    estimator: str
    samples: int
    estimates: GraphletEstimates
    elapsed_seconds: float
    #: AGS diagnostics (``covered``/``switches``) when applicable.
    extras: Dict[str, object] = field(default_factory=dict)

    def to_payload(self) -> dict:
        """JSON-ready response body (counts/hits in the estimates'
        canonical hex-key encoding, so responses compare directly
        against ``motivo-py sample --output`` documents)."""
        import json

        payload = json.loads(self.estimates.to_json())
        payload.update(
            {
                "key": self.key,
                "session": self.session,
                "sequence": self.sequence,
                "estimator": self.estimator,
                "elapsed_ms": round(self.elapsed_seconds * 1000.0, 3),
                **self.extras,
            }
        )
        return payload


class _DrawJob:
    """One request's pending draw: its uniforms, and later its rows."""

    __slots__ = ("shape", "uniforms", "ready", "result", "error")

    def __init__(self, shape: Optional[int], uniforms: np.ndarray):
        self.shape = shape
        self.uniforms = uniforms
        self.ready = threading.Event()
        self.result: Optional[tuple] = None
        self.error: Optional[BaseException] = None


class _Session:
    """Per-(key, session-id) RNG stream plus its serialization lock.

    ``broken`` poisons the session after a request failed mid-estimate:
    the stream may be partially consumed, so continuing it would
    silently break the determinism contract — later requests are
    refused until the client opens a fresh session.
    """

    __slots__ = ("seed", "rng", "lock", "sequence", "broken", "pins")

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = ensure_rng(seed)
        self.lock = threading.Lock()
        self.sequence = 0
        self.broken = False
        #: Requests that fetched this session but may not hold its lock
        #: yet (guarded by the service lock); pruning skips pinned
        #: sessions so one id never gets two live streams.
        self.pins = 0


class TableHandle:
    """One warm artifact shared read-only by every request thread.

    The urn's lazy caches (gathered-cumulative rows, split candidates,
    shape aliases) are only ever filled under the handle's draw lock,
    so the shared table needs no further synchronization; classifier
    caches are deterministic same-value inserts and tolerate races.
    """

    #: Lock contract, statically checked by repro-lint (REPRO-L001).
    #: ``_queue`` hand-off and the refcount/close state machine each
    #: live under their own lock; ``_draw_lock`` (leader drains) has no
    #: guarded attributes — it serializes urn access, not state.
    _GUARDED_BY = {
        "_refs": "_state_lock",
        "_closing": "_state_lock",
        "_closed": "_state_lock",
        "_queue": "_queue_lock",
    }

    def __init__(
        self,
        key: str,
        directory: str,
        graph: Graph,
        urn: Optional[TreeletUrn],
        classifier: GraphletClassifier,
        k: int,
        batch_size: int,
        manifest: dict,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.key = key
        self.directory = directory
        self.graph = graph
        self.urn = urn
        self.classifier = classifier
        self.k = k
        self.batch_size = batch_size
        self.manifest = manifest
        # All counter mutation goes through the registry's lock (the
        # service shares its registry with every handle), so concurrent
        # request threads and snapshot readers never race — the ad-hoc
        # per-handle stats lock this replaced could not cover the
        # urn's counters at all.
        self.instrumentation = Instrumentation(registry=registry)
        self.sigma_cache = SigmaCache(None)
        self._state_lock = threading.Lock()
        self._draw_lock = threading.Lock()
        self._queue: List[_DrawJob] = []
        self._queue_lock = threading.Lock()
        self._refs = 0
        self._closing = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    @property
    def refs(self) -> int:
        """In-flight requests currently holding this handle."""
        with self._state_lock:
            return self._refs

    @property
    def closing(self) -> bool:
        """Whether the handle was evicted and drains to close."""
        with self._state_lock:
            return self._closing

    def acquire(self) -> bool:
        """Take a reference; refuses once the handle is closing."""
        with self._state_lock:
            if self._closing:
                return False
            self._refs += 1
            return True

    def release(self) -> None:
        """Drop a reference; the last one out closes an evicted handle."""
        with self._state_lock:
            self._refs -= 1
            should_close = self._closing and self._refs <= 0
        if should_close:
            self._close()

    def mark_closing(self) -> None:
        """Begin evict-while-served: no new references, drain then close."""
        with self._state_lock:
            self._closing = True
            should_close = self._refs <= 0
        if should_close:
            self._close()

    def _close(self) -> None:
        """Drop the table references (idempotent).

        Dense layers are ``np.load(mmap_mode="r")`` views; dropping the
        urn releases the mappings once the interpreter collects them.
        An on-disk evict that already unlinked the blobs is safe
        either way — the inode lives until the mappings go.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self.urn = None

    # -- coalesced draws ----------------------------------------------

    def draw(self, n: int, rng) -> tuple:
        """Chunk-draw hook for :func:`naive_estimate` (coalesced)."""
        return self._submit(None, n, rng)

    def draw_shape(self, shape: int, n: int, rng) -> tuple:
        """Chunk-draw hook for :func:`ags_estimate` (coalesced)."""
        return self._submit(shape, n, rng)

    def _submit(self, shape: Optional[int], n: int, rng) -> tuple:
        """Enqueue one draw and wait for its rows (leader drains).

        The uniform block is drawn here, from the *caller's* session
        stream — exactly the ``rng.random((n, draw_width))`` the direct
        ``sample_batch`` call would consume — so coalescing never
        changes any session's stream.
        """
        urn = self.urn
        if urn is None:
            raise SamplingError("handle is closed")
        job = _DrawJob(shape, rng.random((n, urn.draw_width)))
        with self._queue_lock:
            self._queue.append(job)
        while not job.ready.is_set():
            with self._draw_lock:
                if job.ready.is_set():
                    break
                self._drain(urn)
        if job.error is not None:
            raise job.error
        return job.result

    def _drain(self, urn: TreeletUrn) -> None:
        """Serve every queued job in one urn call per distinct shape.

        Runs under the draw lock.  Jobs are grouped by shape (``None``
        = full-urn draw) preserving arrival order; each group becomes a
        single ``sample_batch``/``sample_shape_batch`` over the
        concatenated uniform blocks, and the returned rows are split
        back per job — bit-identical to separate calls because the
        batched descent is row-independent.
        """
        with self._queue_lock:
            jobs, self._queue = self._queue, []
        if not jobs:
            return
        pending = list(jobs)
        try:
            groups: Dict[Optional[int], List[_DrawJob]] = {}
            for job in jobs:
                groups.setdefault(job.shape, []).append(job)
            for shape, group in groups.items():
                try:
                    uniforms = (
                        group[0].uniforms
                        if len(group) == 1
                        else np.concatenate(
                            [job.uniforms for job in group]
                        )
                    )
                    total = uniforms.shape[0]
                    if shape is None:
                        batch = urn.sample_batch(total, uniforms=uniforms)
                    else:
                        batch = urn.sample_shape_batch(
                            shape, total, uniforms=uniforms
                        )
                except BaseException as error:  # noqa: BLE001 - fan out
                    for job in group:
                        job.error = error
                        job.ready.set()
                        pending.remove(job)
                    continue
                vertices, treelets, masks = batch
                if len(group) > 1:
                    self.instrumentation.count("serve_coalesced_batches")
                    self.instrumentation.count(
                        "serve_coalesced_draws", total
                    )
                offset = 0
                for job in group:
                    rows = job.uniforms.shape[0]
                    job.result = (
                        vertices[offset:offset + rows],
                        treelets[offset:offset + rows],
                        masks[offset:offset + rows],
                    )
                    offset += rows
                    job.ready.set()
                    pending.remove(job)
        finally:
            # A leader must never strand the queue: whatever slipped
            # past the per-group handling above still fans out, so no
            # request thread waits forever on an unset event.
            for job in pending:
                if not job.ready.is_set():
                    job.error = job.error or SamplingError(
                        "draw leader failed before serving this job"
                    )
                    job.ready.set()

    # -- per-request sampling ------------------------------------------

    def run(
        self,
        estimator: str,
        samples: int,
        rng,
        cover_threshold: int,
    ) -> Tuple[GraphletEstimates, Dict[str, object]]:
        """One request's estimate against this handle; draws route
        through the coalescer."""
        if estimator == "naive":
            if self.urn is None:
                return self._empty(samples, "naive"), {}
            estimates = naive_estimate(
                self.urn, self.classifier, samples, rng,
                batch_size=self.batch_size, draw=self.draw,
            )
            return estimates, {}
        if estimator == "ags":
            if self.urn is None:
                return self._empty(samples, "ags"), {}
            result = ags_estimate(
                self.urn, self.classifier, samples,
                cover_threshold=cover_threshold, rng=rng,
                sigma_cache=self.sigma_cache,
                batch_size=self.batch_size,
                draw_shape=self.draw_shape,
            )
            extras = {
                "covered": len(result.covered),
                "switches": result.switches,
            }
            return result.estimates, extras
        raise ServeError(
            f"unknown estimator {estimator!r}; choose from {ESTIMATORS}"
        )

    def stats_snapshot(self) -> "dict[str, float]":
        """A consistent copy of this handle's counters/timings.

        With the registry shared across the service, this is the whole
        registry's snapshot (taken under its lock) — callers filter by
        name rather than by owner.
        """
        return self.instrumentation.snapshot()

    def sampling_stats(self) -> "dict[str, float]":
        """Per-stage sampling-plane counters/timings of this handle.

        Urn counters live in the shared metrics registry (snapshots are
        consistent under its lock — no draw-lock dance needed anymore);
        the classifier's deliberately lock-free plain scalars are folded
        in on top.
        """
        stats: "dict[str, float]" = {}
        urn = self.urn
        if urn is not None:
            stats.update(urn.instrumentation.snapshot())
        for name, value in self.classifier.stats_snapshot().items():
            stats[name] = stats.get(name, 0.0) + value
        return stats

    def _empty(self, samples: int, method: str) -> GraphletEstimates:
        """The degenerate zero answer of an empty-urn table (no 500s)."""
        return GraphletEstimates.empty(self.k, samples, method)


class SamplingService:
    """Concurrent sampling over a directory of warm table artifacts.

    Parameters
    ----------
    artifact_root:
        The :class:`~repro.artifacts.cache.ArtifactCache` root holding
        the servable table artifacts.
    graph_loader:
        Optional ``source -> Graph`` resolver for manifest source hints
        (defaults to the CLI's loader: dataset names, ``.npz`` binaries,
        and id-compacted edge lists).  Graphs are cached per source and
        shared across every artifact built on them.
    max_sessions:
        Bound on retained session states; the oldest idle sessions are
        dropped past it (a dropped session id simply reopens from its
        seed on next use, which restarts — not continues — its stream).
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryConfig`; its
        ``trace_out`` turns on per-request ``serve.count`` spans (and
        the nested sampling-stage spans) to that JSON-lines sink.
        Metrics need no opt-in — the registry always runs.
    """

    #: Lock contract, statically checked by repro-lint (REPRO-L001):
    #: every registry map lives under the one service lock.  Expensive
    #: work (artifact opens, graph loads, disk walks) runs *outside*
    #: it; only the map operations themselves are critical sections.
    _GUARDED_BY = {
        "_graphs": "_lock",
        "_handles": "_lock",
        "_sessions": "_lock",
        "_opening": "_lock",
        "_evict_gen": "_lock",
        "_update_locks": "_lock",
        "_disk_usage": "_lock",
    }

    def __init__(
        self,
        artifact_root: str,
        graph_loader: Optional[Callable[[str], Graph]] = None,
        max_sessions: int = 10_000,
        telemetry: Optional[TelemetryConfig] = None,
    ):
        #: The one metrics registry every component of this service
        #: shares: service counters, handle/urn instrumentation, the
        #: artifact cache, and the request-latency histogram.
        self.registry = MetricsRegistry()
        self.tracer = build_tracer(telemetry)
        self.cache = ArtifactCache(artifact_root, registry=self.registry)
        self._graph_loader = graph_loader or _default_graph_loader
        self._graphs: Dict[str, Graph] = {}
        self._handles: Dict[str, TableHandle] = {}
        # Insertion-ordered (plain dict), so pruning drops oldest first.
        self._sessions: Dict[Tuple[str, str], _Session] = {}
        self._max_sessions = max_sessions
        self._opening: Dict[str, threading.Event] = {}
        #: Per-key eviction generation: open() snapshots it before the
        #: (unlocked) expensive open and refuses to register a handle
        #: whose key was evicted meanwhile — otherwise a racing evict
        #: would leave a zombie handle serving an unlinked artifact.
        self._evict_gen: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.instrumentation = Instrumentation(registry=self.registry)
        #: Serializes table updates per artifact key: concurrent
        #: updates would race on the artifact directory rewrite.
        self._update_locks: Dict[str, threading.Lock] = {}
        self.started_at = time.time()
        #: (monotonic stamp, value) cache of the cache-root tree walk,
        #: so /healthz polling does not become disk-bound.
        self._disk_usage: Tuple[float, int] = (-_DISK_USAGE_TTL, 0)

    # -- graph resolution ----------------------------------------------

    def add_graph(self, graph: Graph, source: Optional[str] = None) -> None:
        """Register an in-memory host graph (keyed by fingerprint and,
        optionally, a source hint) so artifacts built on it resolve
        without touching disk."""
        with self._lock:
            self._graphs[graph.fingerprint()] = graph
            if source is not None:
                self._graphs[source] = graph

    def _resolve_graph(self, manifest: dict) -> Graph:
        recorded = manifest.get("graph", {})
        fingerprint = recorded.get("fingerprint")
        with self._lock:
            graph = self._graphs.get(fingerprint)
        if graph is not None:
            return graph
        source = recorded.get("source")
        if source is None:
            raise ServeError(
                "artifact records no graph source hint and its graph was "
                "not registered via add_graph()"
            )
        with self._lock:
            graph = self._graphs.get(source)
        if graph is None:
            loaded = self._graph_loader(source)  # expensive: not locked
            with self._lock:
                graph = self._graphs.setdefault(source, loaded)
                self._graphs.setdefault(graph.fingerprint(), graph)
        return graph

    # -- handle management ---------------------------------------------

    def open(self, key: str) -> TableHandle:
        """The warm handle for one artifact key (opened on first use).

        The expensive open (graph load, table reopen) runs *outside*
        the registry lock: the first caller for a key becomes its
        opener, concurrent callers for the same key wait on its result,
        and traffic for other keys is never blocked.

        The returned handle is *not* reference-counted for the caller;
        request paths go through :meth:`_checkout`.
        """
        while True:
            with self._lock:
                handle = self._handles.get(key)
                if handle is not None and not handle.closing:
                    return handle
                gate = self._opening.get(key)
                if gate is None:
                    gate = threading.Event()
                    self._opening[key] = gate
                    opener = True
                    generation = self._evict_gen.get(key, 0)
                else:
                    opener = False
            if not opener:
                gate.wait()
                continue  # the opener finished (or failed): re-check
            stale = False
            try:
                handle = self._open_handle(key)
                with self._lock:
                    if self._evict_gen.get(key, 0) != generation:
                        # evict(key) ran while we were opening; do not
                        # register a handle for an evicted slot.
                        stale = True
                    else:
                        self._handles[key] = handle
            finally:
                with self._lock:
                    self._opening.pop(key, None)
                gate.set()
            if stale:
                handle.mark_closing()
                continue  # retry (fails loud if the slot left disk)
            return handle

    def _open_handle(self, key: str) -> TableHandle:
        directory = self.cache.path(key)
        try:
            manifest = load_manifest(directory)
        except ArtifactError as error:
            raise ServeError(
                f"no servable artifact under key {key!r}: {error}"
            ) from None
        graph = self._resolve_graph(manifest)
        artifact = open_table(directory, graph)
        build = artifact.build
        k = artifact.k
        batch_size = int(build.get("batch_size", 0) or 0)
        if batch_size == 0:
            from repro.sampling.naive import DEFAULT_BATCH_SIZE

            batch_size = DEFAULT_BATCH_SIZE
        try:
            # A plan-carrying artifact hands its compiled descent
            # program straight to the urn — a warm open never pays the
            # plan compile again (the zero-recompilation contract).
            urn: Optional[TreeletUrn] = TreeletUrn(
                graph,
                artifact.table,
                artifact.coloring,
                program=artifact.descent_program,
                descent_cache_bytes=int(
                    build.get("descent_cache_bytes", 0)
                    or DEFAULT_DESCENT_CACHE_BYTES
                ),
                instrumentation=Instrumentation(registry=self.registry),
            )
        except SamplingError:
            # An artifact holding an empty table (e.g. exported through
            # LayerStore.export_artifact) serves zero estimates.
            urn = None
        handle = TableHandle(
            key=key,
            directory=directory,
            graph=graph,
            urn=urn,
            classifier=GraphletClassifier(graph, k),
            k=k,
            batch_size=batch_size,
            manifest=manifest,
            registry=self.registry,
        )
        self.instrumentation.count("serve_tables_opened")
        return handle

    def _checkout(self, key: str) -> TableHandle:
        """Open-or-get the handle *and* take an in-flight reference."""
        while True:
            handle = self.open(key)
            if handle.acquire():
                return handle
            # Lost a race with evict: the registry entry is gone or
            # closing; loop to open a fresh handle (or fail on a
            # missing slot).

    def evict(self, key: str, from_disk: bool = True) -> bool:
        """Drop a table from the service; optionally from disk too.

        In-flight requests finish on the old handle (evict-while-
        served); the handle closes when the last of them drains.  New
        requests for the key re-open from disk — or fail with
        :class:`~repro.errors.ServeError` if ``from_disk`` removed the
        slot.  The key's session states go with it (a reopened key
        starts fresh streams), so long-lived processes do not
        accumulate state for tables they no longer serve.  Returns
        whether a warm handle existed.
        """
        with self._lock:
            handle = self._handles.pop(key, None)
            self._evict_gen[key] = self._evict_gen.get(key, 0) + 1
            for session_key in [
                sk for sk in self._sessions if sk[0] == key
            ]:
                del self._sessions[session_key]
        if handle is not None:
            handle.mark_closing()
            self.instrumentation.count("serve_tables_evicted")
        if from_disk:
            self.cache.evict(key)
        return handle is not None

    def close(self) -> None:
        """Evict every warm handle (disk untouched)."""
        with self._lock:
            handles, self._handles = list(self._handles.values()), {}
            self._sessions.clear()
        for handle in handles:
            handle.mark_closing()
        if self.tracer is not None:
            self.tracer.close()

    def __enter__(self) -> "SamplingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sessions --------------------------------------------------------

    def _session(
        self, key: str, session: str, seed: Optional[int]
    ) -> _Session:
        resolved = session_seed(session) if seed is None else int(seed)
        with self._lock:
            state = self._sessions.get((key, session))
            created = state is None
            if created:
                state = _Session(resolved)
                self._sessions[(key, session)] = state
            elif seed is not None and state.seed != resolved:
                raise ServeError(
                    f"session {session!r} on {key!r} is already open under "
                    f"seed {state.seed}; pass a new session id to reseed"
                )
            # Pin before pruning: with every older session busy, the
            # prune must not delete the entry we are about to use.
            state.pins += 1
            if created:
                self._prune_sessions_locked()
        return state

    def _unpin(self, state: _Session) -> None:
        with self._lock:
            state.pins -= 1

    def _prune_sessions_locked(self) -> None:  # repro: holds-lock
        """Drop the oldest idle sessions past ``max_sessions``.

        Sessions whose lock is currently held (an in-flight request)
        are skipped; plain dicts iterate in insertion order, so the
        retained set is the newest ones.
        """
        if len(self._sessions) <= self._max_sessions:
            return
        excess = len(self._sessions) - self._max_sessions
        for session_key in list(self._sessions):
            if excess <= 0:
                break
            state = self._sessions[session_key]
            if state.pins > 0 or state.lock.locked():
                continue
            del self._sessions[session_key]
            excess -= 1

    # -- the request path ------------------------------------------------

    def _resolve_key(self, artifact: Optional[str]) -> str:
        if artifact:
            return str(artifact)
        # Cheap per-request scan: one listdir, no manifest parsing or
        # tmp reaping on the hot path (that stays in entries(), i.e.
        # /artifacts).  Whether the sole candidate actually holds a
        # servable artifact is the opener's job.
        candidates = [
            name
            for name in os.listdir(self.cache.root)
            if ".tmp" not in name
            and os.path.isdir(os.path.join(self.cache.root, name))
        ]
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise ServeError("the artifact cache is empty; build first")
        raise ServeError(
            f"{len(candidates)} artifacts are cached; name one via "
            "'artifact'"
        )

    def count(
        self,
        artifact: Optional[str] = None,
        estimator: str = "naive",
        samples: int = 1000,
        session: str = "default",
        seed: Optional[int] = None,
        cover_threshold: int = 300,
        trace_id: Optional[str] = None,
    ) -> CountResult:
        """Answer one count query (the ``/count`` endpoint's engine).

        Parameters
        ----------
        artifact:
            Cache key to serve from; may be omitted when exactly one
            artifact is cached.
        estimator, samples, cover_threshold:
            ``"naive"`` or ``"ags"``, the sampling budget, and the AGS
            covering threshold.
        session, seed:
            The client's session id, and optionally its stream seed
            (default: derived stably from the id).  Queries of one
            session are serialized in arrival order and reproduce a
            single-threaded ``from_artifact(reseed=seed)`` loop bit for
            bit; distinct sessions run concurrently.
        trace_id:
            Trace id to run the request's ``serve.count`` span under
            (the HTTP front-end passes an inbound ``X-Trace-Id``
            through); ignored unless the service has a tracer.
        """
        if self.tracer is None:
            return self._count_inner(
                artifact, estimator, samples, session, seed,
                cover_threshold,
            )
        with activate(self.tracer), self.tracer.span(
            "serve.count", trace_id=trace_id,
            estimator=estimator, samples=samples, session=session,
        ):
            return self._count_inner(
                artifact, estimator, samples, session, seed,
                cover_threshold,
            )

    def _count_inner(
        self,
        artifact: Optional[str],
        estimator: str,
        samples: int,
        session: str,
        seed: Optional[int],
        cover_threshold: int,
    ) -> CountResult:
        if estimator not in ESTIMATORS:
            raise ServeError(
                f"unknown estimator {estimator!r}; choose from {ESTIMATORS}"
            )
        if samples < 1:
            raise ServeError("samples must be positive")
        started = time.perf_counter()
        key = self._resolve_key(artifact)
        handle = self._checkout(key)
        try:
            state = self._session(key, session, seed)
            try:
                with state.lock:
                    if state.broken:
                        raise ServeError(
                            f"session {session!r} on {key!r} is poisoned "
                            "(an earlier request failed mid-stream); open "
                            "a new session id"
                        )
                    sequence = state.sequence
                    try:
                        estimates, extras = handle.run(
                            estimator, samples, state.rng, cover_threshold
                        )
                    except BaseException:
                        # The stream may be partially consumed —
                        # continuing it would silently break per-session
                        # determinism.
                        state.broken = True
                        raise
                    state.sequence += 1
            finally:
                self._unpin(state)
        finally:
            handle.release()
        elapsed = time.perf_counter() - started
        self.instrumentation.count("serve_requests")
        self.instrumentation.count("serve_samples", samples)
        self.registry.observe("serve_request_seconds", elapsed)
        return CountResult(
            key=key,
            session=session,
            sequence=sequence,
            estimator=estimator,
            samples=samples,
            estimates=estimates,
            elapsed_seconds=elapsed,
            extras=extras,
        )

    # -- live updates ----------------------------------------------------

    def update(
        self,
        updates,
        artifact: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> dict:
        """Apply an edge-update batch to a served artifact in place.

        The engine behind ``POST /update``: the artifact's table is
        delta-maintained over the touched-column frontier
        (:func:`repro.colorcoding.incremental.apply_edge_updates` — bit
        identical to a rebuild on the updated graph), the artifact
        directory is rewritten, the updated graph is registered, and the
        warm handle is swapped using the existing evict-while-served
        semantics: in-flight draws finish on the old table (whose
        memory-mapped blobs keep their unlinked inodes), and the next
        request opens the updated artifact.  Evicting the key also drops
        its session states — deliberate, since continuing a stream
        across a table change would make "same session" mean two
        different count distributions.

        Updates for one key are serialized (concurrent batches would
        race on the directory rewrite); updates for different keys run
        concurrently.  Returns the update stats
        (:meth:`repro.motivo.MotivoCounter.update`) plus the key and
        the new graph fingerprint.
        """
        if self.tracer is None:
            return self._update_inner(updates, artifact)
        with activate(self.tracer), self.tracer.span(
            "serve.update", trace_id=trace_id
        ):
            return self._update_inner(updates, artifact)

    def _update_inner(self, updates, artifact: Optional[str]) -> dict:
        from repro.artifacts import save_table
        from repro.graph.io import save_binary
        from repro.motivo import MotivoCounter

        started = time.perf_counter()
        key = self._resolve_key(artifact)
        with self._lock:
            lock = self._update_locks.setdefault(key, threading.Lock())
        with lock:
            handle = self._checkout(key)
            try:
                directory = handle.directory
                graph = handle.graph
                manifest = handle.manifest
            finally:
                handle.release()
            counter = MotivoCounter.from_artifact(graph, directory)
            try:
                stats = counter.update(updates)
                if stats["updates_applied"] == 0:
                    stats.update(
                        key=key, fingerprint=graph.fingerprint(), swapped=False
                    )
                    return stats
                # Rewrite the artifact in place.  save_artifact would
                # refuse an empty-urn table, but a batch that deletes
                # the last colorful k-treelet is a legitimate served
                # state (zero estimates), so go through save_table
                # directly.  The old source hint now loads a
                # pre-update graph whose fingerprint no longer
                # matches, so the updated graph is embedded next to
                # the blobs and the hint repointed — the artifact
                # stays self-resolving across service restarts.
                program = (
                    counter.urn.descent_program()
                    if counter.urn is not None else None
                )
                graph_blob = os.path.join(
                    os.path.abspath(directory), "graph.npz"
                )
                save_binary(counter.graph, graph_blob)
                save_table(
                    directory,
                    counter.table,
                    counter.coloring,
                    counter.graph,
                    codec=str(manifest.get("codec", "dense")),
                    build=counter.config.build_params(),
                    rng_state=counter._rng.bit_generator.state,
                    instrumentation=counter.instrumentation,
                    source=graph_blob,
                    descent_program=program,
                    lineage=counter._lineage,
                )
                self.add_graph(counter.graph, source=graph_blob)
                self.evict(key, from_disk=False)
            finally:
                counter.close()
        elapsed = time.perf_counter() - started
        self.instrumentation.count("serve_updates")
        self.instrumentation.count(
            "delta_updates_total", stats["updates_applied"]
        )
        self.instrumentation.count(
            "delta_rows_touched", stats["rows_touched"]
        )
        self.registry.add_time(
            "delta_propagate", stats["propagate_seconds"]
        )
        stats.update(
            key=key,
            fingerprint=counter.graph.fingerprint(),
            swapped=True,
            elapsed_seconds=elapsed,
        )
        return stats

    # -- introspection ---------------------------------------------------

    def artifacts(self) -> List[dict]:
        """The ``/artifacts`` listing: every servable cache entry, with
        warm-handle state for the ones this service has opened."""
        out = []
        with self._lock:
            warm = dict(self._handles)
        for entry in self.cache.entries():
            handle = warm.get(entry.key)
            out.append(
                {
                    "key": entry.key,
                    "k": entry.k,
                    "codec": entry.codec,
                    "total_pairs": entry.total_pairs,
                    "payload_bytes": entry.payload_bytes,
                    "created_at": entry.created_at,
                    "warm": handle is not None,
                    "refs": handle.refs if handle is not None else 0,
                }
            )
        return out

    def _merged_snapshot(self) -> "tuple[dict, int, int]":
        """One consistent stats view: the shared registry's snapshot
        with every warm handle's classifier scalars folded in, plus the
        (open_tables, sessions) liveness pair.

        Handles, urns, and the artifact cache all write into the shared
        registry, so a single snapshot (taken under the registry lock)
        replaces the old merge-per-handle dance — the classifier is the
        one deliberately lock-free component left outside it.
        """
        with self._lock:
            open_tables = len(self._handles)
            sessions = len(self._sessions)
            handles = list(self._handles.values())
        snapshot = self.registry.snapshot()
        for handle in handles:
            for name, value in handle.classifier.stats_snapshot().items():
                snapshot[name] = snapshot.get(name, 0.0) + value
        return snapshot, open_tables, sessions

    def healthz(self) -> dict:
        """The ``/healthz`` body: liveness plus serving totals."""
        snapshot, open_tables, sessions = self._merged_snapshot()
        counters = {
            name[len("count."):]: value
            for name, value in snapshot.items()
            if name.startswith("count.")
        }
        timings = {
            name[len("time."):]: value
            for name, value in snapshot.items()
            if name.startswith("time.")
        }
        sampling = {
            "plan_compiles": int(counters.get("descent_plan_compiles", 0)),
            "gather_builds": int(
                counters.get("gathered_cumulative_builds", 0)
            ),
            "transient_builds": int(
                counters.get("gathered_transient_builds", 0)
            ),
            "budget_fallbacks": int(
                counters.get("gathered_budget_fallbacks", 0)
            ),
            "classified": int(counters.get("classified", 0)),
            "classify_cache_hits": int(
                counters.get("classify_cache_hits", 0)
            ),
            "plan_compile_seconds": round(
                timings.get("descent_plan_compile", 0.0), 6
            ),
            "gather_seconds": round(timings.get("sample_gather", 0.0), 6),
            "descent_seconds": round(timings.get("sample_descent", 0.0), 6),
            "classify_seconds": round(
                timings.get("sample_classify", 0.0), 6
            ),
        }
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "open_tables": open_tables,
            "sessions": sessions,
            "requests": int(counters.get("serve_requests", 0)),
            "samples": int(counters.get("serve_samples", 0)),
            "coalesced_batches": int(
                counters.get("serve_coalesced_batches", 0)
            ),
            "coalesced_draws": int(counters.get("serve_coalesced_draws", 0)),
            "sampling": sampling,
            "updates": {
                "batches": int(counters.get("serve_updates", 0)),
                "applied": int(counters.get("delta_updates_total", 0)),
                "rows_touched": int(counters.get("delta_rows_touched", 0)),
                "propagate_seconds": round(
                    timings.get("delta_propagate", 0.0), 6
                ),
            },
            "bytes_on_disk": self._bytes_on_disk_cached(),
        }

    def _bytes_on_disk_cached(self) -> int:
        """Disk usage with a short TTL — the walk is not poll-priced."""
        now = time.monotonic()
        with self._lock:
            stamp, value = self._disk_usage
            if now - stamp < _DISK_USAGE_TTL:
                return value
        value = self.cache.bytes_on_disk()
        with self._lock:
            self._disk_usage = (now, value)
        return value

    def metrics_snapshot(self) -> "dict[str, float]":
        """The ``GET /metrics`` source: one merged telemetry snapshot.

        The shared registry plus classifier scalars (via
        :meth:`_merged_snapshot`), topped up with liveness gauges
        (``serve_open_tables``, ``serve_sessions``,
        ``serve_uptime_seconds``) and the TTL-cached
        ``artifact_cache_bytes`` disk gauge.
        """
        snapshot, open_tables, sessions = self._merged_snapshot()
        snapshot["gauge.serve_open_tables"] = float(open_tables)
        snapshot["gauge.serve_sessions"] = float(sessions)
        snapshot["gauge.serve_uptime_seconds"] = round(
            time.time() - self.started_at, 3
        )
        snapshot["gauge.artifact_cache_bytes"] = float(
            self._bytes_on_disk_cached()
        )
        return snapshot

    def metrics_text(self) -> str:
        """Prometheus text-format exposition of :meth:`metrics_snapshot`."""
        return render_prometheus(self.metrics_snapshot())


def _default_graph_loader(source: str) -> Graph:
    """Resolve a manifest source hint.

    Exactly the CLI's rule (the shared
    :func:`repro.graph.io.load_graph`): dataset names from the
    registry, ``.npz`` binaries, anything else as an edge list — with
    the sparse-id auto-compaction, so a SNAP-style source serves
    without a million-vertex CSR detour (the artifact fingerprint check
    still guarantees the loaded graph is the built one).
    """
    from repro.graph.io import load_graph

    return load_graph(source)
