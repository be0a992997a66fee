"""Frozen kNNL sketches: per-object k-distance floors for pruning.

A :class:`KnnlSketch` is computed once per snapshot and similarity
setting and holds, for every slot of the snapshot, a *provably
conservative* lower bound on the k-th best ``SimST`` of every object
under that slot — the frozen analogue of the competitor floors the
exact branch-and-bound walk tightens lazily per query.  It is one
structure with one floor rule, built from two tables:

* **node floors** (``floor_idx`` / ``floor_table``): a frontier of up
  to :data:`SKETCH_BUDGET` slots is peeled off the snapshot
  (largest-count first, a complete antichain over the objects), and for
  each frontier node ``f`` the weighted k-th largest of the pairwise
  ``MinST(f, g)`` lower bounds (weight ``cnt[g]``; self term
  ``cnt[f] - 1``) is taken through
  :func:`repro.core.contributions._kth_largest`.  Every object under
  ``f`` has at least ``cnt[g]`` competitors at similarity
  ``>= MinST(f, g)``, so the row lower-bounds its true k-th competitor
  similarity ``s_k``.  The peel is *adaptive*: a node whose expansion
  would overflow the budget is kept as its own row and the peel keeps
  refining smaller nodes that still fit, so the row count approaches
  the budget instead of stopping at the first oversized node.  Slots
  under ``f`` inherit ``f``'s row; slots above the frontier use the
  *global* row (the elementwise minimum over all rows, which is valid
  for every object of the snapshot).

* **object profiles** (``obj_profile``, the k-distance of Obermeier et
  al., arXiv:2011.01773): each object's top-:data:`SKETCH_KMAX`
  competitor similarities, collected by a **true-kNN** walk — a
  best-first descent of the snapshot with staged ``MaxST`` upper
  bounds, seeded by layout-neighbour similarities and warm-started by
  the object's own node-floor row.  The walk is capped at
  :data:`_TRUE_WALK_POP_CAP` node pops; an uncapped walk returns the
  exact top-``kmax`` multiset, and a truncated one returns a *subset*
  of it.  Either way the collected k-th value is ``<= s_k``, so the
  stored profile is conservative at every ``k <= kmax`` — but it is
  only guaranteed *equal* to ``s_k`` where the walk finished.  Objects
  with fewer than ``kmax`` collected competitors get a zero-padded
  profile (the zero entries never prune) — the count-aware degenerate
  case, mirroring ``_kth_largest``'s 0.0.

**Floor rule.**  A directory slot's floor is its row floor; an
object's floor is ``max(row floor, profile)`` (:meth:`KnnlSketch.obj_floor`).

The floors feed three consumers: warm-start pruning in the exact
engines (:class:`~repro.core.traversal.SnapshotEngine` /
:class:`~repro.core.fused.FusedBatchEngine`, results bit-identical
because a pruned slot provably holds no result), tightened
:class:`~repro.shard.summaries.ShardSummary` admission floors, and the
``engine="approx"`` filter tier (:class:`~repro.approx.engine.ApproxEngine`).

Soundness rule (used by every consumer): a query with upper bound
``q_hi`` on a slot may skip that slot iff ``q_hi < floor`` — then for
every object ``o`` under the slot, ``SimST(q, o) < floor <= s_k(o)``,
so at least ``k`` competitors are strictly more similar to ``o`` than
the query and ``q`` cannot be in ``o``'s reverse k-NN set.  For
``k > kmax`` every floor reads 0.0 and nothing is ever skipped.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array
from typing import Dict, List, Tuple

from ..core.contributions import _kth_largest
from ..text.interval import IntervalVector
from ..text.similarity import ExtendedJaccard

#: Largest ``k`` the sketch covers; beyond it floors read 0.0 (never
#: prune).  Matches the shard admission default.
SKETCH_KMAX = 16

#: Target frontier width for the node-floor rows: more nodes mean
#: tighter per-subtree floors at quadratic pair-bound build cost.
SKETCH_BUDGET = 256

#: Node-pop budget of one true-kNN profile walk.  The cluster text
#: bounds on wide nodes are loose, so the tail of a best-first descent
#: pops many nodes that contribute nothing; cutting it keeps the build
#: linear in ``n``.  A truncated walk returns a *subset* of the true
#: competitor similarities, so the stored profile stays ``<= s_k``
#: (sound, possibly loose); it is not guaranteed to equal ``s_k``.
_TRUE_WALK_POP_CAP = 96


class KnnlSketch:
    """Frozen per-slot kNNL floors plus per-object k-distance profiles.

    Attributes:
        kmax: Largest ``k`` covered; all floors are 0.0 beyond it.
        frontier: The peeled antichain slots (row ``i`` of the floor
            table belongs to ``frontier[i]``'s subtree).
        floor_idx: Per-slot row index into :attr:`floor_table`
            (``array('q')``, length ``n_slots``); slots above the
            frontier point at the global row.
        floor_table: Row-major ``(len(frontier) + 1) x kmax`` floors
            (``array('d')``); the last row is the global row.
        obj_profile: Row-major ``n_slots x kmax`` k-distance profile
            (``array('d')``): entry ``[slot][k-1]`` is object ``slot``'s
            collected k-th largest competitor similarity (0.0 for
            directory slots and beyond the collected competitors).
        row_objects: Objects under each frontier row (``array('q')``,
            length ``len(frontier)``) — the per-row tightness signal:
            wide rows share one floor across many objects.
        build_seconds: Wall-clock cost of the freeze-time build.
    """

    __slots__ = (
        "kmax",
        "frontier",
        "floor_idx",
        "floor_table",
        "obj_profile",
        "row_objects",
        "build_seconds",
    )

    def __init__(
        self,
        kmax: int,
        frontier: Tuple[int, ...],
        floor_idx,
        floor_table,
        obj_profile,
        row_objects,
        build_seconds: float,
    ) -> None:
        self.kmax = kmax
        self.frontier = frontier
        self.floor_idx = floor_idx
        self.floor_table = floor_table
        self.obj_profile = obj_profile
        self.row_objects = row_objects
        self.build_seconds = build_seconds

    def node_floor(self, slot: int, k: int) -> float:
        """Conservative lower bound on ``s_k`` of every object under
        ``slot`` (0.0 when ``k > kmax``, which never prunes)."""
        if k > self.kmax:
            return 0.0
        return self.floor_table[self.floor_idx[slot] * self.kmax + (k - 1)]

    def obj_floor(self, slot: int, k: int) -> float:
        """Conservative lower bound on object ``slot``'s own ``s_k``:
        ``max(row floor, profile)``."""
        if k > self.kmax:
            return 0.0
        floor = self.floor_table[self.floor_idx[slot] * self.kmax + (k - 1)]
        y = self.obj_profile[slot * self.kmax + (k - 1)]
        return y if y > floor else floor

    def global_floor(self, k: int) -> float:
        """Lower bound on ``s_k`` valid for *every* object (last row)."""
        if k > self.kmax:
            return 0.0
        return self.floor_table[len(self.frontier) * self.kmax + (k - 1)]

    def nbytes(self) -> int:
        """Resident bytes of the sketch arrays."""
        return (
            self.floor_idx.itemsize * len(self.floor_idx)
            + self.floor_table.itemsize * len(self.floor_table)
            + self.obj_profile.itemsize * len(self.obj_profile)
            + self.row_objects.itemsize * len(self.row_objects)
        )

    def describe(self) -> Dict[str, object]:
        """Summary counters for logs and benchmark reports."""
        rows = list(self.row_objects)
        return {
            "kmax": self.kmax,
            "frontier_size": len(self.frontier),
            "row_objects_max": max(rows) if rows else 0,
            "row_objects_mean": (sum(rows) / len(rows)) if rows else 0.0,
            "nbytes": self.nbytes(),
            "build_seconds": self.build_seconds,
        }


def _peel_frontier(snap, budget: int) -> List[int]:
    """Largest-count-first antichain of up to ``budget`` slots.

    Shared with the shard admission summaries
    (:mod:`repro.shard.summaries`): every object of the snapshot lies
    under exactly one returned slot, which is what makes the per-row
    floors (and the shard tables) complete.

    Two refusal cases keep the peel *adaptive* instead of aborting: a
    zero-fanout directory slot (a degenerate empty node) becomes its
    own frontier row and the peel continues — it must not dump the
    whole heap and leave the frontier far under budget — and a node
    whose expansion would overflow the budget is likewise kept as a
    row while smaller nodes later in the heap may still be refined.
    """
    frontier: List[int] = []
    heap: List[Tuple[int, int]] = []  # (-cnt, slot) for directory slots
    for r in snap.root_slots:
        if snap.is_obj[r]:
            frontier.append(r)
        else:
            heapq.heappush(heap, (-snap.cnt[r], r))
    while heap:
        _neg_cnt, slot = heapq.heappop(heap)
        children = range(snap.first_child[slot], snap.last_child[slot])
        fanout = len(children)
        if fanout == 0:
            frontier.append(slot)
            continue
        if len(frontier) + len(heap) + fanout > budget:
            frontier.append(slot)
            continue
        for c in children:
            if snap.is_obj[c]:
                frontier.append(c)
            else:
                heapq.heappush(heap, (-snap.cnt[c], c))
    return frontier


def _make_true_topk(engine, kmax: int):
    """A closure computing one object's exact top-``kmax`` competitor
    similarities by best-first descent of the snapshot.

    The walk uses the same staged upper bound as the approx tier's
    query walk — spatial-only first (text capped at 1), blended text
    bound only when the spatial stage cannot already discard — against
    a threshold that starts at the caller's warm-start ``floor`` (a
    proven lower bound on the object's ``s_kmax``) and rises to the
    running k-th best as real similarities arrive.  Subtrees are
    skipped only when their upper bound is strictly below the floor or
    at most the current k-th best, so the returned value multiset
    equals the true top-``kmax`` exactly (ties may swap which object
    supplied a value, never the value itself) — unless the
    :data:`_TRUE_WALK_POP_CAP` node budget trips first, in which case
    the values are a *subset* of the true multiset and the profile
    built from them is merely looser, never unsound.
    """
    snap = engine.snap
    measure = engine.measure
    alpha = engine.alpha
    fd = engine._fd
    exact = engine._exact
    ej = isinstance(measure, ExtendedJaccard)
    is_obj = snap.is_obj
    ref = snap.ref
    xlo, ylo, xhi, yhi = snap.xlo, snap.ylo, snap.xhi, snap.yhi
    first_child, last_child = snap.first_child, snap.last_child
    clusters = snap.clusters
    obj_frozen = snap.obj_frozen
    obj_vec = snap.obj_vec
    root_slots = snap.root_slots

    def topk(a: int, floor: float, seeds=()):
        ax, ay = xlo[a], ylo[a]
        a_frozen = obj_frozen[a]
        a_nsq = a_frozen.norm_sq
        a_iv = None
        if not ej and alpha < 1.0:
            a_iv = IntervalVector.from_document(obj_vec[a])
        ra = ref[a]
        # Min-heap of the running top-kmax ``(sim, supplier)`` pairs —
        # suppliers are returned so the build can seed the *next*
        # object's walk with this object's actual competitors.
        best: List[Tuple[float, int]] = []
        seen = set()  # slots already offered (seeds recur in the walk)

        def offer(b: int) -> None:
            if ref[b] == ra or b in seen:
                return
            seen.add(b)
            s = exact(a, b)
            if s < floor:
                # Provably below s_kmax >= floor: cannot be a top value.
                return
            if len(best) < kmax:
                heapq.heappush(best, (s, b))
            elif s > best[0][0]:
                heapq.heapreplace(best, (s, b))

        def text_hi(slot: int) -> float:
            hi = 0.0
            if ej:
                for _iv, _int_b, uni_b, insq_b, _unsq_b in clusters[slot]:
                    d_max = a_frozen.dot(uni_b)
                    if d_max == 0.0:
                        pair_hi = 0.0
                    elif 2.0 * d_max >= a_nsq + insq_b:
                        pair_hi = 1.0
                    else:
                        pair_hi = d_max / (a_nsq + insq_b - d_max)
                    if pair_hi > hi:
                        hi = pair_hi
            else:
                for ivb, *_ in clusters[slot]:
                    pair_hi = measure.max_similarity(a_iv, ivb)
                    if pair_hi > hi:
                        hi = pair_hi
            return hi

        pq: List[Tuple[float, int]] = []  # (-upper, slot)

        def push(slot: int) -> None:
            if alpha > 0.0:
                dx = max(ax - xhi[slot], 0.0, xlo[slot] - ax)
                dy = max(ay - yhi[slot], 0.0, ylo[slot] - ay)
                s_hi = fd(math.hypot(dx, dy))
                hi = alpha * s_hi + (1.0 - alpha)
                if hi < floor or (
                    len(best) == kmax and hi <= best[0][0]
                ):
                    return
                if alpha < 1.0:
                    hi = alpha * s_hi + (1.0 - alpha) * text_hi(slot)
            else:
                hi = text_hi(slot)
            if hi < floor:
                return
            if len(best) == kmax and hi <= best[0][0]:
                return
            heapq.heappush(pq, (-hi, slot))

        # Seeds (layout neighbours) are offered before the tree walk:
        # their exact similarities raise the running threshold early,
        # so the best-first descent prunes subtrees much sooner.  The
        # ``seen`` set keeps the walk from counting a seed twice —
        # a duplicate value would inflate the returned k-th best.
        for b in seeds:
            offer(b)
        for r in root_slots:
            if is_obj[r]:
                offer(r)
            else:
                push(r)
        pops = 0
        while pq:
            neg_hi, slot = heapq.heappop(pq)
            if len(best) == kmax and -neg_hi <= best[0][0]:
                break
            pops += 1
            if pops > _TRUE_WALK_POP_CAP:
                # Budget trip: the values found so far are a subset of
                # the true top-kmax, so the profile built from them can
                # only be looser — conservativeness is unconditional.
                break
            for c in range(first_child[slot], last_child[slot]):
                if is_obj[c]:
                    offer(c)
                else:
                    push(c)
        pairs = sorted(best, reverse=True)
        ys = [s for s, _b in pairs]
        ys.extend([0.0] * (kmax - len(ys)))
        return ys, [b for _s, b in pairs]

    return topk


def build_sketch(engine, kmax: int = SKETCH_KMAX) -> KnnlSketch:
    """Compute one snapshot's :class:`KnnlSketch` from its exact engine.

    ``engine`` is the :class:`~repro.core.traversal.SnapshotEngine` of
    the similarity setting being served; its memoized ``_st`` pair table
    supplies every ``MinST`` lower bound (and keeps the values it
    computes warm for the query-time walks to reuse).  Every object
    gets its profile from the true-kNN walk.
    """
    started = time.perf_counter()
    snap = engine.snap
    n_slots = snap.n_slots
    cnt = snap.cnt
    is_obj = snap.is_obj
    st = engine._st

    frontier = _peel_frontier(snap, SKETCH_BUDGET)
    n_rows = len(frontier)

    # Node-floor rows: one row per frontier slot plus the global row.
    floor_table = array("d", [0.0] * ((n_rows + 1) * kmax))
    for row, f in enumerate(frontier):
        contribs: List[Tuple[float, int]] = []
        for g in frontier:
            if g == f:
                continue
            lo, _hi = st(f, g)
            contribs.append((lo, cnt[g]))
        cf = cnt[f]
        if cf >= 2:
            lo, _hi = st(f, f)
            contribs.append((lo, cf - 1))
        base = row * kmax
        for k in range(1, kmax + 1):
            floor_table[base + k - 1] = _kth_largest(contribs, k)

    # Every slot starts on the global row; frontier subtrees then claim
    # their own rows (the frontier is an antichain, so no overlap).
    # Assigned before the profile pass so the true-kNN walks can
    # warm-start from each object's own row floor.
    floor_idx = array("q", [n_rows] * n_slots)
    first_child = snap.first_child
    last_child = snap.last_child
    for row, f in enumerate(frontier):
        stack = [f]
        while stack:
            s = stack.pop()
            floor_idx[s] = row
            if not is_obj[s]:
                fc, lc = first_child[s], last_child[s]
                if fc >= 0:
                    stack.extend(range(fc, lc))

    # Per-row tightness: objects sharing each row (wide rows dilute the
    # floor across many objects).
    row_objects = array("q", [cnt[f] for f in frontier])

    # Object profiles: each object's top-kmax competitor similarities
    # via a best-first snapshot walk seeded with layout-neighbour
    # similarities and warm-started by its row floor.
    objs = [s for s in range(n_slots) if is_obj[s]]
    obj_profile = array("d", [0.0] * (n_slots * kmax))
    topk = _make_true_topk(engine, kmax)
    seed_span = 2 * kmax
    # Consecutive objects are layout (hence spatial) neighbours, so the
    # previous walk's winning suppliers are prime competitor candidates
    # for the next walk too: chaining them as seeds starts each
    # threshold near its final value and collapses the descent to a few
    # node pops.
    prev_suppliers: List[int] = []
    for i, a in enumerate(objs):
        floor = floor_table[floor_idx[a] * kmax + (kmax - 1)]
        seeds = prev_suppliers + objs[max(0, i - seed_span):i + 1 + seed_span]
        ys, prev_suppliers = topk(a, floor, seeds)
        obj_profile[a * kmax:(a + 1) * kmax] = array("d", ys)

    # Global row: elementwise minimum over the frontier rows (valid for
    # every object), sharpened by the minimum object profile.
    gbase = n_rows * kmax
    for k in range(1, kmax + 1):
        row_min = min(
            (floor_table[row * kmax + k - 1] for row in range(n_rows)),
            default=0.0,
        )
        prof_min = 0.0
        if objs:
            prof_min = min(obj_profile[s * kmax + (k - 1)] for s in objs)
        floor_table[gbase + k - 1] = max(row_min, prof_min)

    return KnnlSketch(
        kmax=kmax,
        frontier=tuple(frontier),
        floor_idx=floor_idx,
        floor_table=floor_table,
        obj_profile=obj_profile,
        row_objects=row_objects,
        build_seconds=time.perf_counter() - started,
    )
