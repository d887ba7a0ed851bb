"""Color coding: the build-up phase and the treelet urn (paper §2, §3).

``coloring``
    Uniform random coloring (§2.1) and the biased coloring of §3.4 that
    trades urn accuracy for table size on very large graphs.
``buildup``
    Motivo's build-up phase: the Equation (1) dynamic program over
    succinct treelets.  One sparse matrix–matrix product per (level,
    source layer) realizes the recurrence through precompiled
    combination plans, bit-identical to the per-key loop kept in
    ``tests/support/reference.py``.
``level``
    One level of the recurrence over a column set — the kernel the
    in-memory, sharded and incremental build drivers share, each with
    its own source reader.
``plans``
    The build-up kernel's compiler: per-level combination plans (row
    index matrices, selection LUTs) from the treelet registry.
``buildup_baseline``
    CC's build-up phase: per-vertex hash tables over pointer treelets with
    recursive check-and-merge — the baseline of Figures 2–4, and (being
    exact-integer) the reference implementation for tests.
``urn``
    The sampling-phase interface over the finished table: batches of
    uniform colorful treelet samples (``sample_batch(n)``) and of
    per-shape samples (``sample_shape_batch``, the AGS primitive), with
    alias-method root selection and a vectorized plan-replay descent.
    The paper's one-sample recursion, neighbor buffering included, is
    kept in ``tests/support/reference.py`` as its oracle.
``descent``
    The sampling engine's compiler: decomposition trees flattened into
    descent plans that the urn replays over whole sample batches.
"""

from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.buildup import build_table
from repro.colorcoding.buildup_baseline import build_hash_table
from repro.colorcoding.urn import TreeletUrn

__all__ = ["ColoringScheme", "build_table", "build_hash_table", "TreeletUrn"]
