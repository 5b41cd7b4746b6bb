"""Vectorized boolean-matrix graph kernels.

For the parameter sweeps (hundreds of simulated runs, graphs re-analyzed
every round) the pure-Python set-based algorithms dominate profile output.
Following the repository's HPC guide — *measure, then vectorize the
bottleneck* — this module provides NumPy boolean-matrix equivalents for the
hot kernels:

* per-round skeleton intersection (``&`` over a stack of adjacency matrices),
* transitive closure via repeated boolean matrix squaring
  (O(n^3 log n) bit-parallel, beats Python BFS for dense graphs),
* batched transitive closure over a ``(b, n, n)`` stack — the pruning and
  strong-connectivity kernel of the vectorized simulation fast path
  (:mod:`repro.rounds.fastpath`),
* strong-connectivity and SCC extraction from the closure.

All kernels operate on ``(n, n)`` boolean adjacency matrices with processes
``0..n-1``; conversion helpers live in :mod:`repro.graphs.generators`.
The test suite cross-validates every kernel against the set-based
implementations.
"""

from __future__ import annotations

import numpy as np


def intersect_all(matrices: np.ndarray) -> np.ndarray:
    """Intersection of a stack of adjacency matrices.

    Parameters
    ----------
    matrices:
        Array of shape ``(r, n, n)`` — one adjacency matrix per round.

    Returns
    -------
    The ``(n, n)`` matrix of the round-``r`` skeleton
    ``G^∩r = ∩_{r'<=r} G^{r'}``.
    """
    arr = np.asarray(matrices, dtype=bool)
    if arr.ndim != 3:
        raise ValueError(f"expected stack of matrices (r, n, n), got {arr.shape}")
    return np.logical_and.reduce(arr, axis=0)


def prefix_intersections(matrices: np.ndarray) -> np.ndarray:
    """All prefix intersections: output ``[i]`` is ``G^∩(i+1)``.

    Equivalent to ``np.logical_and.accumulate`` along the round axis; this is
    how the analysis pipeline materializes the entire skeleton sequence of a
    run in one vectorized pass.
    """
    arr = np.asarray(matrices, dtype=bool)
    if arr.ndim != 3:
        raise ValueError(f"expected stack of matrices (r, n, n), got {arr.shape}")
    return np.logical_and.accumulate(arr, axis=0)


def transitive_closure(adjacency: np.ndarray, reflexive: bool = True) -> np.ndarray:
    """Reachability matrix via repeated boolean squaring.

    ``closure[u, v]`` is True iff there is a directed path from ``u`` to
    ``v``.  With ``reflexive=True`` (default) every node reaches itself via
    the empty path, which is the convention used by the paper's
    reachability-based pruning (Alg. 1 line 25 never removes ``p`` itself).
    """
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got {adj.shape}")
    # Squaring doubles the path length covered each iteration: after i
    # iterations, paths of length <= 2^i are included.  The squaring runs
    # in float32 — NumPy routes float matmul through BLAS GEMM, several
    # times faster than the naive boolean matmul loop — with entries
    # re-clamped to {0, 1} after every product so sums stay exactly
    # representable.  The product buffer is preallocated once and reused;
    # since the closure only ever grows, convergence is detected by the
    # (cheap) count of reachable pairs instead of a full comparison.
    closure = adj.astype(np.float32)
    if reflexive:
        np.fill_diagonal(closure, 1.0)
    buf = np.empty_like(closure)
    count = int(np.count_nonzero(closure))
    while True:
        np.matmul(closure, closure, out=buf)
        np.minimum(buf, 1.0, out=buf)
        np.maximum(buf, closure, out=closure)
        grown = int(np.count_nonzero(closure))
        if grown == count:
            return closure.astype(bool)
        count = grown


def batched_transitive_closure(
    stack: np.ndarray, reflexive: bool = True, fixed_iterations: bool = False
) -> np.ndarray:
    """Transitive closure of a whole batch of graphs at once.

    Parameters
    ----------
    stack:
        Array of shape ``(b, n, n)`` — ``b`` independent adjacency
        matrices (e.g. the ``n`` per-process approximation graphs of one
        simulated round, or the prefix skeletons of a run).
    reflexive:
        Include the empty path (diagonal), as in
        :func:`transitive_closure`.
    fixed_iterations:
        Only meaningful with ``reflexive=True``: run the exact number of
        squarings that guarantees convergence (``ceil(log2(n - 1))``,
        since with the diagonal set each squaring doubles the covered
        path length) instead of testing for a fixpoint after every
        squaring.  Saves the per-iteration convergence scans — the right
        trade in the simulation hot loop, where the batch is small and
        call overhead dominates.

    Returns
    -------
    The ``(b, n, n)`` stack of reachability matrices, computed with
    ``O(log n)`` batched boolean matrix squarings — the kernel behind the
    batched fast path's pruning and strong-connectivity tests.
    """
    arr = np.asarray(stack, dtype=bool)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected stack of square matrices, got {arr.shape}")
    # Same float32/BLAS batched-GEMM squaring as transitive_closure.
    closure = arr.astype(np.float32)
    n = arr.shape[1]
    if reflexive and n:
        idx = np.arange(n)
        closure[:, idx, idx] = 1.0
    buf = np.empty_like(closure)
    if reflexive and fixed_iterations:
        # With the diagonal set, i squarings cover all paths of length
        # <= 2^i; simple paths are <= n - 1 long, so ceil(log2(n - 1))
        # squarings always reach the fixpoint.  (With the diagonal in
        # place, closure @ closure contains closure, so no OR with the
        # previous iterate is needed.)
        length = 1
        while length < n - 1:
            np.matmul(closure, closure, out=buf)
            np.minimum(buf, 1.0, out=closure)
            length *= 2
        return closure.astype(bool)
    count = int(np.count_nonzero(closure))
    while True:
        np.matmul(closure, closure, out=buf)
        np.minimum(buf, 1.0, out=buf)
        np.maximum(buf, closure, out=closure)
        grown = int(np.count_nonzero(closure))
        if grown == count:
            return closure.astype(bool)
        count = grown


def is_strongly_connected_matrix(adjacency: np.ndarray) -> bool:
    """Strong connectivity from the transitive closure (all pairs reach)."""
    closure = transitive_closure(adjacency, reflexive=True)
    return bool(closure.all())


def scc_labels(adjacency: np.ndarray) -> np.ndarray:
    """Component labels from mutual reachability.

    ``labels[u] == labels[v]`` iff ``u`` and ``v`` are strongly connected.
    Labels are the smallest member index of each component, so they are
    deterministic and directly comparable across kernels.
    """
    closure = transitive_closure(adjacency, reflexive=True)
    mutual = closure & closure.T
    # Row u of `mutual` is the membership vector of u's SCC; the label is
    # the first True column.
    return np.argmax(mutual, axis=1)


def root_component_count_matrix(adjacency: np.ndarray) -> int:
    """Number of root components, computed fully vectorized.

    A component ``C`` is a root component iff no edge enters it from
    outside, i.e. no *cross-component* edge ends in ``C``.  Instead of
    slicing the matrix once per label, every cross edge is scattered onto
    its target's label in one ``bincount`` pass; a label is a root exactly
    when it received no scatter hit.
    """
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    if n == 0:
        return 0
    labels = scc_labels(adj)
    cross = adj & (labels[:, None] != labels[None, :])
    targets = labels[np.nonzero(cross)[1]]
    entered = np.bincount(targets, minlength=n) > 0
    return int(np.count_nonzero(~entered[np.unique(labels)]))


def timely_neighborhoods(skeleton: np.ndarray) -> list[frozenset[int]]:
    """Per-process timely neighborhoods from a skeleton adjacency matrix.

    ``PT(p) = {q | skeleton[q, p]}`` — column ``p`` of the matrix.
    """
    arr = np.asarray(skeleton, dtype=bool)
    return [frozenset(np.nonzero(arr[:, p])[0].tolist()) for p in range(arr.shape[0])]


def conflict_matrix(skeleton: np.ndarray) -> np.ndarray:
    """The ``Psrcs`` conflict graph as a boolean matrix.

    ``conflict[q, q']`` is True iff ``q != q'`` and ``PT(q) ∩ PT(q') != ∅``,
    i.e. some process is a common 2-source of ``q`` and ``q'``.  Computed as
    one boolean matrix product: ``PT`` membership is ``skeleton.T`` (row q =
    in-neighbors of q), so shared sources are ``skeleton.T @ skeleton``.

    The ``Psrcs(k)`` predicate holds iff this graph has no independent set of
    size ``k + 1`` (see :mod:`repro.predicates.psrcs`).
    """
    arr = np.asarray(skeleton, dtype=bool)
    shared = arr.T @ arr  # shared[q, q'] = |PT(q) ∩ PT(q')| > 0 (boolean @)
    conflict = shared.astype(bool)
    np.fill_diagonal(conflict, False)
    return conflict
