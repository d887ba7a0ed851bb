"""The multi-coloring ensemble orchestrator.

One color-coding run is an unbiased but noisy estimator; the paper runs
the pipeline under several independent colorings and averages (§5:
"we averaged the counts given by motivo over 20 runs", Theorems 2–3 for
the exponential deviation shrinkage).  :class:`PipelineEngine` owns that
outer loop:

* **Deterministic fan-out.**  Child seeds derive from the master seed
  alone (:func:`derive_child_seeds`), and per-run results are merged in
  coloring order — so a fixed seed gives bit-identical estimates whether
  the ensemble runs serially or on a process pool, and whatever ``jobs``
  is.
* **Executor choice.**  ``jobs=1`` runs in-process; ``jobs>1`` uses a
  ``ProcessPoolExecutor`` (each coloring is an independent build + sample,
  the ideal process-parallel unit).  If the platform cannot spawn workers
  the engine degrades to serial execution rather than failing.  Sampling
  parallelizes across colorings exactly like build-up: each worker runs
  its whole pipeline — including the vectorized ``batch_size`` sampling
  chunks and the ``table_layout`` (dense matrices or the succinct CSR
  records, which cut each member's resident table memory) configured on
  :class:`~repro.motivo.MotivoConfig` — so batching, layout, and process
  fan-out compose.
* **Merged instrumentation.**  Every run's counters and timers fold into
  one :class:`~repro.util.instrument.Instrumentation` via its snapshot
  transport, so ``merge_ops``/``spmm_ops``/``buildup`` totals cover the
  whole ensemble.

* **Persistence.**  :meth:`PipelineEngine.build_artifact` runs the
  build half only and bundles every member table as an ensemble
  artifact (:mod:`repro.artifacts.ensemble`); ``run_naive``/``run_ags``
  with ``artifact=`` sample such a bundle without rebuilding — the
  recorded child seeds and per-member RNG states make the result
  bit-identical to the live ensemble.  Members close their layer
  stores when done (``cleanup_spill``) so long ensemble builds do not
  leak per-coloring spill files.

Consumed by :meth:`repro.motivo.MotivoCounter.averaged_naive`, the CLI
(``motivo-py count --colorings N --jobs J``, ``build``/``sample``), and
the benchmarks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SamplingError
from repro.graph.graph import Graph
from repro.sampling.estimates import GraphletEstimates
from repro.util.instrument import Instrumentation
from repro.util.rng import spawn_rng

__all__ = [
    "PipelineEngine",
    "EnsembleResult",
    "derive_child_seeds",
    "execute_tasks",
]


def execute_tasks(
    tasks,
    pooled_fn,
    serial_fn,
    jobs: int,
    initializer=None,
    initargs: tuple = (),
) -> list:
    """Run ``tasks`` on a process pool, degrading to serial execution.

    The engine's executor policy, factored out so other fan-out points
    (the sharded build-up) inherit identical semantics: ``jobs=1`` or a
    single task runs ``serial_fn`` in-process; otherwise a
    ``ProcessPoolExecutor`` (shipping shared state once via
    ``initializer``/``initargs``) maps ``pooled_fn`` over the tasks, and
    any platform that cannot spawn workers — pool construction or lazy
    spawn failing with ``OSError``/``PermissionError``/
    ``BrokenProcessPool`` — falls back to the serial path rather than
    crashing.  Results are returned in task order either way, so callers'
    determinism never depends on worker scheduling.
    """

    def serially():
        return [serial_fn(task) for task in tasks]

    if not tasks:
        return []
    if jobs == 1 or len(tasks) == 1:
        return serially()
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:  # pragma: no cover - stdlib always has it
        return serially()
    workers = min(jobs, len(tasks))
    try:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=initializer,
            initargs=initargs,
        )
    except (OSError, PermissionError):
        # The platform refuses to create worker processes at all.
        return serially()
    try:
        with pool:
            return list(pool.map(pooled_fn, tasks))
    except (BrokenProcessPool, OSError, PermissionError):
        # Worker processes spawn lazily inside map, so spawn failure
        # on a restricted platform surfaces here — as
        # BrokenProcessPool or as the raw OSError from fork/spawn.
        # Those types can also be a *worker's* genuine error
        # re-raised (e.g. an unwritable spill dir); the serial rerun
        # then reproduces it with a clean traceback, trading
        # duplicated work for never crashing on a platform that
        # simply cannot fork.  Other exception types propagate.
        return serially()


def derive_child_seeds(seed: Optional[int], colorings: int) -> List[int]:
    """Deterministic per-coloring seeds from one master seed.

    Built on :func:`repro.util.rng.spawn_rng` — the same derivation
    ``averaged_naive`` has always used on a fresh counter — so ensemble
    results are stable across the refactor by construction.
    ``seed=None`` draws fresh entropy.
    """
    if colorings < 1:
        raise SamplingError("an ensemble needs at least one coloring")
    return [
        int(stream.integers(2**63 - 1))
        for stream in spawn_rng(seed, colorings)
    ]


@dataclass
class EnsembleResult:
    """Merged output of one ensemble run.

    Attributes
    ----------
    estimates:
        Counts averaged over every requested coloring (a run whose urn
        came up empty contributes zero — the estimator stays unbiased).
    instrumentation:
        Counters/timers summed over all runs.
    seeds:
        The child seed each coloring ran under, in merge order.
    empty_runs:
        How many colorings produced an empty urn.
    """

    estimates: GraphletEstimates
    instrumentation: Instrumentation
    seeds: List[int] = field(default_factory=list)
    empty_runs: int = 0

    @property
    def colorings(self) -> int:
        """Number of colorings the ensemble averaged over."""
        return len(self.seeds)


# repro: pool-transport
@dataclass(frozen=True)
class _RunSpec:
    """One ensemble member's marching orders (picklable task unit).

    ``mode`` is ``"naive"`` / ``"ags"`` (build + sample, or reload +
    sample when ``load_dir`` points at a member table artifact) or
    ``"build"`` (build and persist to ``save_dir``, no sampling).
    ``cleanup`` closes the member's layer store afterwards so
    per-coloring spill files do not accumulate across a long ensemble.
    """

    seed: int
    mode: str
    samples: int = 0
    cover_threshold: int = 0
    load_dir: Optional[str] = None
    save_dir: Optional[str] = None
    codec: str = "dense"
    cleanup: bool = True
    batch_size: Optional[int] = None
    table_layout: Optional[str] = None


def _execute_run(
    graph: Graph,
    config,
    spec: _RunSpec,
) -> Tuple[Optional[dict], "dict[str, float]"]:
    """One ensemble member: build (or reload) under a child seed, report.

    Returns the estimates as a plain dict plus an instrumentation
    snapshot (both cheap to ship between processes); ``None`` estimates
    flag an empty urn.  A configured ``spill_dir`` is namespaced per
    coloring (by child seed, so it stays deterministic) — concurrent
    workers must not flush layers into the same files.
    """
    from repro.motivo import MotivoCounter

    if spec.load_dir is not None:
        # The member artifact's manifest is authoritative: it records the
        # full build config (child seed, batch size) alongside
        # the post-build RNG state, which is what makes artifact-backed
        # sampling bit-identical to the live ensemble.  An explicit
        # table_layout overrides only the in-memory representation —
        # both layouts answer identically, so the guarantee holds.
        counter = MotivoCounter.from_artifact(
            graph, spec.load_dir, table_layout=spec.table_layout
        )
    else:
        config = replace(config, seed=spec.seed)
        if config.spill_dir is not None:
            config = replace(
                config,
                spill_dir=os.path.join(
                    config.spill_dir, f"coloring-{spec.seed}"
                ),
            )
        counter = MotivoCounter(graph, config)
        counter.build()
        if counter.empty_urn:
            # An empty-urn coloring is a recorded null member: it
            # contributes zero to every graphlet and (in build mode)
            # persists nothing.
            if spec.cleanup:
                counter.close()
            return None, counter.instrumentation.snapshot()
    if spec.batch_size is not None:
        counter.config.batch_size = spec.batch_size
    try:
        if spec.mode == "build":
            counter.save_artifact(spec.save_dir, codec=spec.codec)
            payload_out: Optional[dict] = {"built": True}
        else:
            if spec.mode == "ags":
                estimates = counter.sample_ags(
                    spec.samples, spec.cover_threshold
                ).estimates
            else:
                estimates = counter.sample_naive(spec.samples)
            payload_out = {
                "counts": estimates.counts,
                "hits": estimates.hits,
            }
    finally:
        if spec.cleanup:
            counter.close()
    return payload_out, counter.instrumentation.snapshot()


#: Per-worker shared state: the graph and base config are shipped once
#: via the pool initializer instead of once per coloring (a large graph
#: would otherwise be pickled into every task).
_WORKER_STATE: "dict[str, object]" = {}


def _init_worker(graph: Graph, config) -> None:
    _WORKER_STATE["graph"] = graph
    _WORKER_STATE["config"] = config


def _run_task(spec: _RunSpec):
    return _execute_run(
        _WORKER_STATE["graph"], _WORKER_STATE["config"], spec
    )


class PipelineEngine:
    """Orchestrates ``colorings`` independent pipeline runs.

    Parameters
    ----------
    graph:
        Host graph, shared by every run.
    config:
        Base :class:`~repro.motivo.MotivoConfig`; each run gets a copy
        with its own child seed.
    colorings:
        Ensemble size (the paper's 20).
    jobs:
        Worker processes; 1 means in-process serial execution.
    cleanup_spill:
        Close each member's layer store once its run finishes (default),
        so the per-coloring namespaced spill directories of a long
        ensemble build do not accumulate.  Set ``False`` to keep every
        member's spill files on disk after the run.
    """

    def __init__(
        self,
        graph: Graph,
        config=None,
        colorings: int = 1,
        jobs: int = 1,
        cleanup_spill: bool = True,
    ):
        from repro.motivo import MotivoConfig

        if colorings < 1:
            raise SamplingError("an ensemble needs at least one coloring")
        if jobs < 1:
            raise SamplingError("jobs must be at least 1")
        self.graph = graph
        self.config = config or MotivoConfig()
        self.colorings = colorings
        self.jobs = jobs
        self.cleanup_spill = cleanup_spill

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def run_naive(
        self,
        samples_per_run: int,
        seeds: Optional[Sequence[int]] = None,
        artifact=None,
        batch_size: Optional[int] = None,
        table_layout: Optional[str] = None,
    ) -> EnsembleResult:
        """Ensemble of naive-sampling runs, averaged.

        ``artifact`` (an ensemble-artifact path or
        :class:`~repro.artifacts.ensemble.EnsembleArtifact`) samples from
        persisted member tables instead of rebuilding; seeds and every
        member's build/sampling parameters then come from the bundle's
        manifests, making the result bit-identical to the live ensemble
        that built it.  ``batch_size`` explicitly overrides the sampling
        chunk size per member (chunking changes the draw stream, so the
        bit-identity guarantee only holds without an override);
        ``table_layout`` overrides each reopened member's in-memory
        layout (representation only — estimates are identical, so this
        never threatens the guarantee).
        """
        return self._run(
            "naive", samples_per_run, 0, seeds, artifact, batch_size,
            table_layout,
        )

    def run_ags(
        self,
        budget_per_run: int,
        cover_threshold: int = 300,
        seeds: Optional[Sequence[int]] = None,
        artifact=None,
        batch_size: Optional[int] = None,
        table_layout: Optional[str] = None,
    ) -> EnsembleResult:
        """Ensemble of AGS runs, averaged (``artifact`` as in naive)."""
        return self._run(
            "ags", budget_per_run, cover_threshold, seeds, artifact,
            batch_size, table_layout,
        )

    def build_artifact(
        self,
        directory: str,
        seeds: Optional[Sequence[int]] = None,
        codec: str = "dense",
        source: Optional[str] = None,
    ):
        """Build every coloring and persist the ensemble as one bundle.

        Each member runs exactly like a live ensemble member (same child
        seeds, serial or process-pool) but stops after the build-up
        phase, saving its table — post-build RNG state included — as a
        member artifact under ``directory``.  Colorings whose urn came
        up empty are recorded as ``null`` members, so later sampling
        reproduces the live ensemble bit for bit.  Returns the opened
        :class:`~repro.artifacts.ensemble.EnsembleArtifact`.
        """
        from repro.artifacts import open_ensemble, save_ensemble

        seeds = self._resolve_seeds(seeds)
        os.makedirs(directory, exist_ok=True)
        members = [f"coloring-{index:03d}" for index in range(len(seeds))]
        tasks = [
            _RunSpec(
                seed=seed,
                mode="build",
                save_dir=os.path.join(directory, member),
                codec=codec,
                cleanup=self.cleanup_spill,
            )
            for seed, member in zip(seeds, members)
        ]
        instrumentation = Instrumentation()
        with instrumentation.timer("ensemble_build"):
            outcomes = self._execute(tasks)
        recorded: List[Optional[str]] = []
        for member, (payload, snapshot) in zip(members, outcomes):
            instrumentation.merge(Instrumentation.from_snapshot(snapshot))
            recorded.append(member if payload is not None else None)
        save_ensemble(
            directory,
            self.graph,
            self.config.k,
            list(seeds),
            recorded,
            build=self.config.build_params(),
            codec=codec,
            instrumentation=instrumentation,
            source=source,
        )
        return open_ensemble(directory, self.graph)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _resolve_bundle(self, artifact):
        from repro.artifacts import EnsembleArtifact, open_ensemble

        if isinstance(artifact, EnsembleArtifact):
            return artifact
        return open_ensemble(str(artifact), self.graph)

    def _resolve_seeds(self, seeds: Optional[Sequence[int]]) -> "list[int]":
        """Derive child seeds, or validate an explicit list's length."""
        if seeds is None:
            return derive_child_seeds(self.config.seed, self.colorings)
        seeds = [int(seed) for seed in seeds]
        if len(seeds) != self.colorings:
            raise SamplingError(
                f"got {len(seeds)} seeds for {self.colorings} colorings"
            )
        return seeds

    def _run(
        self,
        mode: str,
        samples: int,
        cover_threshold: int,
        seeds: Optional[Sequence[int]],
        artifact=None,
        batch_size: Optional[int] = None,
        table_layout: Optional[str] = None,
    ) -> EnsembleResult:
        if batch_size is not None and batch_size < 1:
            raise SamplingError(
                f"batch_size must be at least 1, got {batch_size}"
            )
        members: Optional[List[Optional[str]]] = None
        if artifact is not None:
            if seeds is not None:
                raise SamplingError(
                    "pass either seeds= or artifact=, not both"
                )
            bundle = self._resolve_bundle(artifact)
            if bundle.k != self.config.k:
                raise SamplingError(
                    f"artifact bundles k={bundle.k} tables, engine is "
                    f"configured for k={self.config.k}"
                )
            if bundle.colorings != self.colorings:
                raise SamplingError(
                    f"artifact bundles {bundle.colorings} colorings, engine "
                    f"is configured for {self.colorings}"
                )
            seeds = bundle.seeds
            members = bundle.member_paths()
        else:
            seeds = self._resolve_seeds(seeds)
        if members is None:
            members = [None] * len(seeds)
        tasks = []
        for seed, member in zip(seeds, members):
            if artifact is not None and member is None:
                continue  # recorded empty-urn coloring: nothing to sample
            tasks.append(
                _RunSpec(
                    seed=seed,
                    mode=mode,
                    samples=samples,
                    cover_threshold=cover_threshold,
                    load_dir=member,
                    cleanup=self.cleanup_spill,
                    batch_size=batch_size,
                    table_layout=table_layout,
                )
            )
        instrumentation = Instrumentation()
        with instrumentation.timer("ensemble"):
            outcomes = self._execute(tasks)
        # Merge strictly in coloring order: determinism does not depend on
        # worker scheduling.
        runs = len(seeds)
        merged: Dict[int, float] = {}
        merged_hits: Dict[int, int] = {}
        empty_runs = runs - len(tasks)
        for estimates, snapshot in outcomes:
            instrumentation.merge(Instrumentation.from_snapshot(snapshot))
            if estimates is None:
                empty_runs += 1
                continue
            for bits, value in estimates["counts"].items():
                merged[bits] = merged.get(bits, 0.0) + value / runs
            for bits, hit_count in estimates["hits"].items():
                merged_hits[bits] = merged_hits.get(bits, 0) + hit_count
        instrumentation.count("ensemble_runs", runs)
        instrumentation.count("ensemble_empty_runs", empty_runs)
        result = GraphletEstimates(
            k=self.config.k,
            counts=merged,
            samples=runs * samples,
            hits=merged_hits,
            method=f"{mode}-averaged",
        )
        return EnsembleResult(
            estimates=result,
            instrumentation=instrumentation,
            seeds=list(seeds),
            empty_runs=empty_runs,
        )

    def _execute(self, tasks: "list[_RunSpec]") -> "list":
        return execute_tasks(
            tasks,
            _run_task,
            lambda task: _execute_run(self.graph, self.config, task),
            self.jobs,
            initializer=_init_worker,
            initargs=(self.graph, self.config),
        )
