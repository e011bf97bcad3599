"""Zero-copy shared-memory parallel mining (``engine="parallel"``).

Algorithm 1's divide-and-conquer segmentation makes the mining
embarrassingly parallel: each influence component is mined
independently and only the results are merged.  Earlier revisions
pickled one frozen kernel *per subTPIIN* to a process pool; this module
replaces that fan-out end to end:

* the whole TPIIN is frozen **once** into a
  :class:`~repro.graph.csr.CSRGraph` and exported into a single POSIX
  shared-memory segment (:meth:`~repro.graph.csr.CSRGraph.to_shared`);
  workers attach the same physical pages zero-copy instead of
  unpickling per-component adjacency;
* components are grouped into one bucket per worker by **estimated
  mining work** (the :class:`~repro.mining.compact.MiningPlan` path-
  count estimate, assigned largest-first / LPT), not by node count —
  tree size, not graph size, is what a component costs;
* each bucket runs the compact kernels (:func:`mine_components`:
  batched frontier expansion for large acyclic components, the guarded
  stack walk for the rest) and returns flat count + tree arrays, never
  group objects;
* group objects materialize **lazily**
  (:class:`~repro.mining.compact.LazyGroups`) in the parent, only if a
  caller actually reads them.

Small jobs skip the pool entirely and mine in-process on the very same
kernels — on a single-CPU host the parallel engine is therefore the
fastest *serial* engine, not a degraded one.  Segment lifecycle is
crash-safe: the owner unlinks in a ``finally``, an ``atexit`` hook and
the stdlib resource tracker cover abnormal exits (see
:mod:`repro.graph.shm`).
"""

from __future__ import annotations

import heapq
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.fusion.tpiin import TPIIN
from repro.graph.csr import CSRGraph
from repro.graph.shm import SharedSegment
from repro.mining.compact import (
    CompactCounts,
    CompactMine,
    LazyGroups,
    MiningPlan,
    as_int64,
    build_plan,
    count_mine,
    make_group_store,
    merge_counts,
    unpack_arcs,
)
from repro.mining.detector import DetectionResult, SubTPIINResult
from repro.mining.groups import GroupKind
from repro.mining.scs_groups import scs_suspicious_groups
from repro.model.colors import EColor
from repro.obs.tracing import NULL_TRACER, TracerLike

__all__ = [
    "DEFAULT_MIN_POOL_WORK",
    "mine_components",
    "mine_frontier_compact",
    "mine_stack_compact",
    "parallel_detect",
]

#: Minimum total estimated mining work (tree nodes + emissions) before
#: a worker pool is spawned.  Below it, process start-up and result
#: pickling dominate any speedup, so the job mines in-process on the
#: same compact kernels.  Calibrated against the benchmark sweep: the
#: densest-720 setting (~0.5 M estimated work) mines in well under the
#: ~100 ms a pool costs to spin up.
DEFAULT_MIN_POOL_WORK = 5_000_000

#: One worker outcome: (mine, counts, attach/mine/detach wall seconds).
_Outcome = tuple[CompactMine, CompactCounts, float, float, float]

#: Acyclic components whose predicted DFS tree is at least this large
#: take the vectorized frontier kernel; smaller (or cyclic) ones stay
#: on the guarded python stack kernel, whose per-node constant is lower.
_FRONTIER_MIN_TREE = 256.0


def _selected_roots(
    csr: CSRGraph, plan: MiningPlan, comps: np.ndarray
) -> np.ndarray:
    """Influence roots (in-degree zero) of the selected components."""
    in_offs = as_int64(csr.in_adjacency(EColor.INFLUENCE)[0])
    selected = np.zeros(plan.n_components, dtype=bool)
    selected[comps] = True
    return np.flatnonzero((in_offs[1:] == in_offs[:-1]) & selected[plan.comp_id])


def _grown(buffer: np.ndarray, used: int, needed: int) -> np.ndarray:
    """A doubled copy of ``buffer`` with at least ``needed`` capacity."""
    capacity = max(len(buffer), 1)
    while capacity < needed:
        capacity *= 2
    fresh = np.empty(capacity, dtype=np.int64)
    fresh[:used] = buffer[:used]
    return fresh


def mine_frontier_compact(
    csr: CSRGraph, plan: MiningPlan, comps: np.ndarray
) -> CompactMine:
    """Batched frontier expansion of the patterns tree (acyclic comps).

    One level-synchronous sweep grows the DFS prefix forest of *every*
    selected component at once: each step gathers the influence
    successors of the whole frontier with a handful of vectorized
    ``repeat``/``cumsum`` operations, so the per-tree-node cost is a few
    array slots instead of a python stack frame.  Trading emissions are
    collected the same way as each level enters the tree.

    Only valid on acyclic components (no ``on_path`` guard is applied;
    influence DAGs cannot revisit a node).  The tree arrays are
    preallocated from the plan's path-count estimate — exact below the
    clip — with doubling as the fallback.
    """
    infl_offs = as_int64(csr.out_adjacency(EColor.INFLUENCE)[0])
    infl_tgts = as_int64(csr.out_adjacency(EColor.INFLUENCE)[1])
    intra_offs = plan.intra_offsets
    intra_tgts = plan.intra_targets
    roots = _selected_roots(csr, plan, comps)

    estimate = float(plan.est_tree[comps].sum())
    capacity = int(min(max(estimate, float(roots.size), 1.0), 2.0e8))
    node = np.empty(capacity, dtype=np.int64)
    parent = np.empty(capacity, dtype=np.int64)
    root = np.empty(capacity, dtype=np.int64)
    count = int(roots.size)
    node[:count] = roots
    parent[:count] = -1
    root[:count] = roots

    emit_tree_parts: list[np.ndarray] = []
    emit_target_parts: list[np.ndarray] = []
    append_emit_tree = emit_tree_parts.append
    append_emit_target = emit_target_parts.append
    np_repeat = np.repeat
    np_arange = np.arange
    np_cumsum = np.cumsum
    lo, hi = 0, count
    while lo < hi:
        level = node[lo:hi]
        tdeg = intra_offs[level + 1] - intra_offs[level]
        t_total = int(tdeg.sum())
        if t_total:
            within = np_arange(t_total) - np_repeat(np_cumsum(tdeg) - tdeg, tdeg)
            append_emit_tree(np_repeat(np_arange(lo, hi), tdeg))
            append_emit_target(intra_tgts[np_repeat(intra_offs[level], tdeg) + within])
        ideg = infl_offs[level + 1] - infl_offs[level]
        i_total = int(ideg.sum())
        if not i_total:
            lo = hi
            continue
        if count + i_total > capacity:
            node = _grown(node, count, count + i_total)
            parent = _grown(parent, count, count + i_total)
            root = _grown(root, count, count + i_total)
            capacity = len(node)
        rep = np_repeat(np_arange(lo, hi), ideg)
        within = np_arange(i_total) - np_repeat(np_cumsum(ideg) - ideg, ideg)
        node[count : count + i_total] = infl_tgts[np_repeat(infl_offs[level], ideg) + within]
        parent[count : count + i_total] = rep
        root[count : count + i_total] = root[rep]
        lo, hi = count, count + i_total
        count = hi

    # Rule 1 fires exactly at tree nodes with no influence successor and
    # no intra trading successor (acyclic walks never skip an arc).
    labels = node[:count]
    leaf = (infl_offs[labels + 1] == infl_offs[labels]) & (
        intra_offs[labels + 1] == intra_offs[labels]
    )
    rule1 = np.bincount(plan.comp_id[labels[leaf]], minlength=plan.n_components)
    if emit_tree_parts:
        emit_tree = np.concatenate(emit_tree_parts)
        emit_target = np.concatenate(emit_target_parts)
    else:
        emit_tree = np.zeros(0, dtype=np.int64)
        emit_target = np.zeros(0, dtype=np.int64)
    return CompactMine(
        parent=parent[:count].copy(),
        node=labels.copy(),
        root=root[:count].copy(),
        emit_tree=emit_tree,
        emit_target=emit_target,
        rule1_by_comp=rule1,
    )


def mine_stack_compact(
    csr: CSRGraph, plan: MiningPlan, comps: np.ndarray
) -> CompactMine:
    """Guarded stack DFS recording the compact tree (any components).

    The cyclic-safe twin of :func:`mine_frontier_compact`: Algorithm 2's
    patterns-tree DFS (``on_path`` guard included), recording
    ``parent``/``node``/``root`` rows and raw emissions instead of
    building groups.  Trading arcs are emitted when a frame
    is *pushed* rather than interleaved with its influence arcs — the
    path is identical at both moments, so the emission set (and the
    Rule-1 condition: no trading arc, no pushed child) is unchanged.
    """
    infl_offs = as_int64(csr.out_adjacency(EColor.INFLUENCE)[0]).tolist()
    infl_tgts = as_int64(csr.out_adjacency(EColor.INFLUENCE)[1]).tolist()
    intra_offs = plan.intra_offsets.tolist()
    intra_tgts = plan.intra_targets.tolist()
    comp_of = plan.comp_id.tolist()
    roots = _selected_roots(csr, plan, comps)

    node_rec: list[int] = []
    parent_rec: list[int] = []
    root_rec: list[int] = []
    emit_tree: list[int] = []
    emit_target: list[int] = []
    append_node = node_rec.append
    append_parent = parent_rec.append
    append_root = root_rec.append
    append_emit_tree = emit_tree.append
    append_emit_target = emit_target.append
    rule1 = np.zeros(plan.n_components, dtype=np.int64)

    for start in roots.tolist():
        fires = 0
        tree_idx = len(node_rec)
        append_node(start)
        append_parent(-1)
        append_root(start)
        e_lo = intra_offs[start]
        e_hi = intra_offs[start + 1]
        emitted = e_hi > e_lo
        while e_lo < e_hi:
            append_emit_tree(tree_idx)
            append_emit_target(intra_tgts[e_lo])
            e_lo += 1
        stack_node = [start]
        stack_tree = [tree_idx]
        stack_cursor = [infl_offs[start]]
        stack_end = [infl_offs[start + 1]]
        stack_emitted = [emitted]
        on_path = {start}
        while stack_node:
            i = stack_cursor[-1]
            if i == stack_end[-1]:
                if not stack_emitted[-1]:
                    fires += 1
                on_path.discard(stack_node.pop())
                stack_tree.pop()
                stack_cursor.pop()
                stack_end.pop()
                stack_emitted.pop()
                continue
            stack_cursor[-1] = i + 1
            succ = infl_tgts[i]
            if succ in on_path:
                # Malformed (cyclic) input guard, as in the faithful DFS.
                continue
            stack_emitted[-1] = True
            tree_idx = len(node_rec)
            append_node(succ)
            append_parent(stack_tree[-1])
            append_root(start)
            e_lo = intra_offs[succ]
            e_hi = intra_offs[succ + 1]
            emitted = e_hi > e_lo
            while e_lo < e_hi:
                append_emit_tree(tree_idx)
                append_emit_target(intra_tgts[e_lo])
                e_lo += 1
            stack_node.append(succ)
            stack_tree.append(tree_idx)
            stack_cursor.append(infl_offs[succ])
            stack_end.append(infl_offs[succ + 1])
            stack_emitted.append(emitted)
            on_path.add(succ)
        rule1[comp_of[start]] += fires

    return CompactMine(
        parent=np.asarray(parent_rec, dtype=np.int64),
        node=np.asarray(node_rec, dtype=np.int64),
        root=np.asarray(root_rec, dtype=np.int64),
        emit_tree=np.asarray(emit_tree, dtype=np.int64),
        emit_target=np.asarray(emit_target, dtype=np.int64),
        rule1_by_comp=rule1,
    )


def mine_components(
    csr: CSRGraph, plan: MiningPlan, comps: np.ndarray
) -> CompactMine:
    """Mine a set of components with the best kernel for each.

    Acyclic components with a large predicted tree take one shared
    frontier batch; everything else (cyclic, or too small to amortize
    the vectorization overhead) runs the stack kernel.
    """
    comps = np.asarray(comps, dtype=np.int64)
    if not comps.size:
        return CompactMine.empty(plan.n_components)
    frontier_ok = ~plan.cyclic[comps] & (plan.est_tree[comps] >= _FRONTIER_MIN_TREE)
    parts: list[CompactMine] = []
    if bool(frontier_ok.any()):
        parts.append(mine_frontier_compact(csr, plan, comps[frontier_ok]))
    if not bool(frontier_ok.all()):
        parts.append(mine_stack_compact(csr, plan, comps[~frontier_ok]))
    return CompactMine.merge(parts, plan.n_components)


def _lpt_buckets(
    comps: np.ndarray, weights: np.ndarray, buckets: int
) -> list[list[int]]:
    """Longest-processing-time assignment of components to buckets.

    Components are placed heaviest-first onto the least-loaded bucket,
    so one giant component starts immediately instead of tail-blocking
    the pool.  Empty buckets are dropped.
    """
    order = np.argsort(weights, kind="stable")[::-1]
    heap: list[tuple[float, int]] = [(0.0, index) for index in range(buckets)]
    heapq.heapify(heap)
    assigned: list[list[int]] = [[] for _ in range(buckets)]
    for comp, weight in zip(comps[order].tolist(), weights[order].tolist()):
        load, index = heapq.heappop(heap)
        assigned[index].append(comp)
        heapq.heappush(heap, (load + weight, index))
    return [bucket for bucket in assigned if bucket]


def _mine_bucket(
    payload: tuple[str, MiningPlan, list[int]],
) -> _Outcome:
    """Worker: attach the shared adjacency, mine one bucket, detach.

    The attach is zero-copy — the worker maps the owner's pages and the
    CSR buffers are ``memoryview`` slices into them.  Only the compact
    result arrays travel back through the result pickle.  Wall times
    for attach/mine/detach ride along so the parent can stamp spans at
    the join (workers cannot share the parent's tracer).
    """
    segment_name, plan, comp_ids = payload
    started = time.perf_counter()
    segment = SharedSegment.attach(segment_name)
    csr = CSRGraph.from_shared(segment)
    attach_seconds = time.perf_counter() - started
    try:
        started = time.perf_counter()
        mine = mine_components(csr, plan, np.asarray(comp_ids, dtype=np.int64))
        counts = count_mine(mine, plan)
        mine_seconds = time.perf_counter() - started
    finally:
        started = time.perf_counter()
        del csr
        try:
            segment.close()
        except BufferError:  # pragma: no cover - view pinned by a traceback
            pass  # the mapping is released when the worker exits
        detach_seconds = time.perf_counter() - started
    return mine, counts, attach_seconds, mine_seconds, detach_seconds


def _pooled_mine(
    csr: CSRGraph,
    plan: MiningPlan,
    buckets: list[list[int]],
    tracer: TracerLike,
) -> tuple[CompactMine, CompactCounts]:
    """Fan buckets out over a pool attached to one shared segment."""
    segment = csr.to_shared()
    try:
        with ProcessPoolExecutor(max_workers=len(buckets)) as pool:
            payloads = [(segment.name, plan, bucket) for bucket in buckets]
            outcomes: list[_Outcome] = list(pool.map(_mine_bucket, payloads))
    finally:
        segment.close()
        segment.unlink()
    if tracer.enabled:
        for index, outcome in enumerate(outcomes):
            _, _, attach_seconds, mine_seconds, detach_seconds = outcome
            tracer.record("worker_attach", attach_seconds, bucket=index)
            tracer.record(
                "mine_bucket",
                mine_seconds,
                bucket=index,
                components=len(buckets[index]),
            )
            tracer.record("worker_detach", detach_seconds, bucket=index)
    mine = CompactMine.merge([o[0] for o in outcomes], plan.n_components)
    counts = merge_counts([o[1] for o in outcomes], plan.n_components)
    return mine, counts


def parallel_detect(
    tpiin: TPIIN,
    *,
    processes: int | None = None,
    min_pool_work: int | None = None,
    tracer: TracerLike = NULL_TRACER,
) -> DetectionResult:
    """Shared-memory parallel detection over the compact CSR kernels.

    ``processes`` bounds the worker pool (default: CPU count); the pool
    only spawns when there are at least two workers, at least two
    non-trivial components, and the total estimated mining work clears
    ``min_pool_work`` (default :data:`DEFAULT_MIN_POOL_WORK`) — below
    that the same kernels run in-process, which beats every other
    engine serially.  Results are identical to
    ``detect(engine="faithful")`` up to group ordering; the property
    suite compares them as sets.
    """
    with tracer.span("freeze") as freeze_span:
        csr = CSRGraph.freeze(
            tpiin.graph, colors=(EColor.INFLUENCE, EColor.TRADING)
        )
        if tracer.enabled:
            freeze_span.set(nodes=len(csr), arcs=csr.number_of_arcs())
    with tracer.span("plan") as plan_span:
        plan = build_plan(csr, tpiin.graph.nodes())
        selected = plan.nontrivial()
        total_work = float(plan.est_work[selected].sum())
        if tracer.enabled:
            plan_span.set(
                components=plan.n_components,
                nontrivial=int(selected.size),
                cross_component_trades=plan.cross_count,
                estimated_work=total_work,
            )

    workers = processes if processes is not None else (os.cpu_count() or 1)
    threshold = DEFAULT_MIN_POOL_WORK if min_pool_work is None else min_pool_work
    pooled = workers >= 2 and selected.size >= 2 and total_work >= threshold
    with tracer.span("mine") as mine_span:
        if pooled:
            buckets = _lpt_buckets(selected, plan.est_work[selected], workers)
            mine, counts = _pooled_mine(csr, plan, buckets, tracer)
            if tracer.enabled:
                mine_span.set(
                    pooled=True,
                    workers=len(buckets),
                    shm_bytes=csr.nbytes,
                )
        else:
            mine = mine_components(csr, plan, selected)
            counts = count_mine(mine, plan)
            if tracer.enabled:
                mine_span.set(pooled=False, workers=1)

    decode = csr.decode_table
    store = make_group_store(mine, decode, plan.comp_id)
    groups_by_comp = counts.matched_by_comp + counts.circle_by_comp
    sub_results: list[SubTPIINResult] = []
    for running_index, comp in enumerate(selected.tolist()):
        sub_results.append(
            SubTPIINResult(
                index=running_index,
                node_count=int(plan.comp_sizes[comp]),
                trading_arc_count=int(plan.trading_by_comp[comp]),
                pattern_trail_count=int(counts.trails_by_comp[comp]),
                groups=LazyGroups(store, comp, int(groups_by_comp[comp])),
            )
        )

    with tracer.span("scs_groups") as scs_span:
        scs_groups = scs_suspicious_groups(tpiin)
        if tracer.enabled:
            scs_span.set(groups=len(scs_groups))

    matched_total = int(counts.matched_by_comp.sum())
    circle_total = int(counts.circle_by_comp.sum())
    arc_tails, arc_heads = unpack_arcs(counts.suspicious_arcs, plan.n_nodes)
    suspicious_arcs = {
        (decode[tail], decode[head])
        for tail, head in zip(arc_tails.tolist(), arc_heads.tolist())
    }
    suspicious_arcs.update(g.trading_arc for g in scs_groups)
    kind_counts: Counter[GroupKind] = Counter()
    kind_counts[GroupKind.MATCHED] = matched_total
    kind_counts[GroupKind.CIRCLE] = circle_total
    kind_counts[GroupKind.SCS] = len(scs_groups)

    total_trading = tpiin.graph.number_of_arcs(EColor.TRADING) + len(
        tpiin.intra_scs_trades
    )
    groups: LazyGroups = LazyGroups(
        store, None, matched_total + circle_total, tail=scs_groups
    )
    return DetectionResult(
        groups=groups,
        total_trading_arcs=total_trading,
        cross_component_trades=plan.cross_count,
        subtpiin_count=plan.n_components,
        engine="parallel",
        pattern_trail_count=int(counts.trails_by_comp.sum()),
        sub_results=sub_results,
        kind_counts_override=kind_counts,
        suspicious_arcs_override=suspicious_arcs,
    )
