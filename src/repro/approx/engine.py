"""The ``engine="approx"`` tier: the exact kNNL profile engine.

:class:`ApproxEngine` answers reverse spatial–textual k-NN queries from
a frozen :class:`~repro.approx.sketch.KnnlSketch` instead of
maintaining per-entry contribution lists.  Every sketch row is an
object's exact ``s_k`` (its k-th largest ``SimST`` to any other
object), so the paper's answer ``{p : SimST(q, p) >= s_k(p)}`` is one
comparison per object.  A depth-first walk compares the query's
optimistic similarity against each subtree's minimum ``s_k`` and
descends only where some object could still admit the query:

* ``k <= sketch.kmax``: the surviving objects *are* the answer — each
  passed ``SimST(q, p) >= s_k(p)`` — so no membership probe runs.
* ``k > sketch.kmax``: every floor reads 0.0 and nothing is pruned;
  every object runs the snapshot engine's exact membership probe
  (:meth:`~repro.core.traversal.SnapshotEngine._verify`).  That is
  ``n`` probes per query, so it beats the snapshot walk on small
  corpora only (measurements in ``docs/TUNING.md``).

Either way the ids are byte-identical to the exact engines.  The name
``approx`` is historical: the tier began as a filter with measured
recall and precision.

Node bounds are staged: a spatial-only optimistic bound (text
similarity capped at 1) is tried first and the blended text upper bound
is only computed when the spatial stage cannot already prune — the same
lazy-text trick the exact verification probe uses.

The engine accepts the ``trace`` argument for interface compatibility
but emits no events: its walk makes no accept/prune/verify decisions in
the exact engines' sense, so an event stream would be misleading
rather than comparable.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

from ..core.cancel import cancel_message
from ..core.rstknn import SearchResult, SearchStats
from ..errors import DeadlineExceeded
from ..model.objects import STObject
from ..text.interval import IntervalVector
from ..text.similarity import ExtendedJaccard
from .sketch import KnnlSketch


class ApproxEngine:
    """Exact profile search over one snapshot (see module docstring).

    One engine exists per ``(measure, alpha, te_weight)`` setting of a
    snapshot (see
    :meth:`~repro.perf.snapshot.IndexSnapshot.approx_engine_for`); it
    shares the exact snapshot engine's memoized pair-bound table
    through :attr:`base`, so probes above ``kmax`` warm the exact paths
    and vice versa.
    """

    def __init__(
        self,
        tree,
        snap,
        measure,
        alpha: float,
        te_weight: float,
        sketch: KnnlSketch,
    ) -> None:
        self.tree = tree
        self.snap = snap
        self.measure = measure
        self.alpha = alpha
        self.te_weight = te_weight
        self.sketch = sketch
        self.base = snap.engine_for(tree, measure, alpha, te_weight)
        self._ej = isinstance(measure, ExtendedJaccard)
        #: Cumulative filter counters since engine creation; published
        #: by :func:`repro.obs.record_approx` as ``approx.*`` metrics
        #: (key semantics documented in ``docs/OBSERVABILITY.md``).
        self.counters: Dict[str, int] = {
            "searches": 0,
            "nodes_pruned": 0,
            "objects_pruned": 0,
            "spatial_shortcuts": 0,
            "candidates": 0,
            "verified": 0,
            "answers": 0,
        }
        #: The last query's filter counters (same keys), for reporting.
        self.last_filter: Dict[str, int] = {}

    def search(
        self,
        query: STObject,
        k: int,
        trace: Optional[object] = None,
        cancel: Optional[object] = None,
    ) -> SearchResult:
        """One exact RSTkNN query from the profiles (see module docstring).

        ``cancel`` is polled at start and per node expansion, the same
        protocol as the exact engines; ``trace`` is accepted but
        ignored (no comparable event stream exists for this walk).
        """
        started = time.perf_counter()
        stats = SearchStats()
        if cancel is not None and cancel.expired():
            raise DeadlineExceeded(cancel_message(cancel), stats=stats)
        snap = self.snap
        tree = self.tree
        base = self.base
        sketch = self.sketch
        alpha = self.alpha
        hits0, misses0 = base.hits, base.misses
        is_obj = snap.is_obj
        cnt = snap.cnt
        ref = snap.ref
        xlo, ylo, xhi, yhi = snap.xlo, snap.ylo, snap.xhi, snap.yhi
        fd = base._fd
        measure = self.measure
        ej = self._ej

        qm = query.mbr()
        qxlo, qylo, qxhi, qyhi = qm.xlo, qm.ylo, qm.xhi, qm.yhi
        qvec = query.vector
        q_frozen = qvec.frozen()
        q_nsq = qvec.norm_squared
        q_iv = IntervalVector.from_document(qvec) if not ej else None

        def q_text_hi(slot: int) -> float:
            # Upper text bound of the query against a slot's clusters
            # (the optimistic half of the exact engines' q_text).
            hi = 0.0
            if ej:
                for _iv, _int_b, uni_b, insq_b, _unsq_b in snap.clusters[slot]:
                    d_max = q_frozen.dot(uni_b)
                    if d_max == 0.0:
                        pair_hi = 0.0
                    elif 2.0 * d_max >= q_nsq + insq_b:
                        pair_hi = 1.0
                    else:
                        pair_hi = d_max / (q_nsq + insq_b - d_max)
                    if pair_hi > hi:
                        hi = pair_hi
            else:
                for ivb, *_ in snap.clusters[slot]:
                    pair_hi = measure.max_similarity(q_iv, ivb)
                    if pair_hi > hi:
                        hi = pair_hi
            return hi

        def q_exact(slot: int) -> float:
            score = 0.0
            if alpha > 0.0:
                dist = math.hypot(qxlo - xlo[slot], qylo - ylo[slot])
                score += alpha * fd(dist)
            if alpha < 1.0:
                if ej:
                    sim = q_frozen.ext_jaccard(snap.obj_frozen[slot])
                else:
                    sim = measure.similarity(qvec, snap.obj_vec[slot])
                score += (1.0 - alpha) * sim
            return score

        counters = self.counters
        counters["searches"] += 1
        nodes_pruned = objects_pruned = spatial_shortcuts = 0
        candidates: List[Tuple[int, float]] = []
        use_floors = k <= sketch.kmax

        stack = list(snap.root_slots)
        while stack:
            slot = stack.pop()
            if is_obj[slot]:
                sim = q_exact(slot)
                if use_floors and sim < sketch.obj_floor(slot, k):
                    objects_pruned += 1
                    stats.pruned_entries += 1
                    stats.pruned_objects += 1
                    continue
                candidates.append((slot, sim))
                continue
            if use_floors:
                floor = sketch.node_floor(slot, k)
                if floor > 0.0:
                    pruned = False
                    spatial_only = False
                    if alpha > 0.0:
                        dx = max(qxlo - xhi[slot], 0.0, xlo[slot] - qxhi)
                        dy = max(qylo - yhi[slot], 0.0, ylo[slot] - qyhi)
                        s_hi = fd(math.hypot(dx, dy))
                        # Stage 1: text capped at 1; dominates the full
                        # upper bound, so failing it prunes exactly.
                        # For alpha == 1.0 this *is* the full bound —
                        # the text term is skipped by construction, so
                        # every prune on that path is also a spatial
                        # shortcut (no text bound was ever computed).
                        if alpha * s_hi + (1.0 - alpha) < floor:
                            pruned = True
                            spatial_only = True
                        elif alpha < 1.0:
                            q_hi = alpha * s_hi + (1.0 - alpha) * q_text_hi(slot)
                            pruned = q_hi < floor
                    else:
                        pruned = q_text_hi(slot) < floor
                    if pruned:
                        nodes_pruned += 1
                        if spatial_only:
                            spatial_shortcuts += 1
                        stats.pruned_entries += 1
                        stats.pruned_objects += cnt[slot]
                        continue
            if cancel is not None and cancel.expired():
                stats.elapsed_seconds = time.perf_counter() - started
                raise DeadlineExceeded(cancel_message(cancel), stats=stats)
            tree.buffer.get(snap.record_id[slot], "node")
            stats.expansions += 1
            stack.extend(range(snap.first_child[slot], snap.last_child[slot]))

        if use_floors:
            ids = [ref[slot] for slot, _sim in candidates]
            n_verified = 0
        else:
            ids = []
            for slot, sim in candidates:
                if base._verify(slot, sim, k, stats):
                    ids.append(ref[slot])
            n_verified = len(candidates)
            stats.verified_objects += n_verified
        ids.sort()

        counters["nodes_pruned"] += nodes_pruned
        counters["objects_pruned"] += objects_pruned
        counters["spatial_shortcuts"] += spatial_shortcuts
        counters["candidates"] += len(candidates)
        counters["verified"] += n_verified
        counters["answers"] += len(ids)
        self.last_filter = {
            "nodes_pruned": nodes_pruned,
            "objects_pruned": objects_pruned,
            "spatial_shortcuts": spatial_shortcuts,
            "candidates": len(candidates),
            "verified": n_verified,
            "answers": len(ids),
        }

        stats.result_count = len(ids)
        stats.cache_hits = base.hits - hits0
        stats.cache_misses = base.misses - misses0
        stats.elapsed_seconds = time.perf_counter() - started
        return SearchResult(ids, stats, tree.io.snapshot())
