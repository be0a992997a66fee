"""Frozen kNNL sketches: exact per-object k-distance profiles for pruning.

A :class:`KnnlSketch` is computed once per snapshot and similarity
setting.  It is one ``n_slots x kmax`` floor table (``floor``):

* an **object** slot holds its exact *k-distance profile* (the
  k-distance of Obermeier et al., arXiv:2011.01773; the NN-ball radius
  of Cheong, Vigneron & Yon, arXiv:0905.4441): entry ``k-1`` is ``s_k``,
  the k-th largest ``SimST`` between the object and any other object,
  0.0 when it has fewer than ``k`` competitors;
* a **directory** slot holds the elementwise minimum of its non-empty
  children's rows, filled bottom-up — so it equals the minimum ``s_k``
  over its subtree (an empty directory keeps 0.0);
* the **global** row (:meth:`KnnlSketch.global_floor`) is the minimum
  over the non-empty root slots, i.e. over every object.

**Build** (:func:`build_sketch`): a blocked self-join over the
snapshot's object columns.  :func:`repro.perf.kernels.simst_block`
evaluates one row block against every column — vectorised with numpy
when it is importable, the scalar ``_exact`` otherwise — under a fixed
element budget (:data:`repro.perf.kernels.JOIN_BLOCK_ELEMENTS`).  Each
row's columns are then rescored with the engine's own ``_exact`` in
descending kernel order until the next kernel value plus
:data:`_MARGIN` is ``<=`` the running ``kmax``-th exact value: the
kernel matches ``_exact`` to far better than the margin, so no
unrescored column can beat that value and the stored profile is the
exact top-``kmax`` multiset of ``_exact`` values.  Only ``_exact``
values are stored, never a kernel float, and soundness never rests on
the margin: the k-th largest of any rescored subset is ``<= s_k``.

The floors feed two consumers: the ``engine="approx"`` profile engine
(:class:`~repro.approx.engine.ApproxEngine`), whose object rows decide
membership outright for ``k <= kmax``, and the tightened
:class:`~repro.shard.summaries.ShardSummary` admission floors.

Soundness rule (used by every consumer): a query with upper bound
``q_hi`` on a slot may skip that slot iff ``q_hi < floor`` — then for
every object ``o`` under the slot, ``SimST(q, o) < floor <= s_k(o)``,
so at least ``k`` competitors are strictly more similar to ``o`` than
the query and ``q`` cannot be in ``o``'s reverse k-NN set.  For
``k > kmax`` every floor reads 0.0 and nothing is ever skipped.
"""

from __future__ import annotations

import heapq
import time
from array import array
from typing import Dict, List, Sequence, Tuple

from ..perf import kernels

#: Largest ``k`` the sketch covers; beyond it floors read 0.0 (never
#: prune).  Matches the shard admission default.
SKETCH_KMAX = 16

#: Rescoring stops once the next kernel value plus this margin cannot
#: exceed the running ``kmax``-th exact value.  Kernel and ``_exact``
#: differ only by float rounding (~1e-15), far inside the margin.
_MARGIN = 1e-9

#: Columns ranked per row before the rare full-row sort (ties around
#: the ``kmax``-th value are the only reason to look further).
_RANK_SLACK = 8


class KnnlSketch:
    """One frozen ``n_slots x kmax`` kNNL floor table (see module doc).

    Attributes:
        kmax: Largest ``k`` covered; all floors are 0.0 beyond it.
        floor: Row-major ``n_slots x kmax`` floors (``array('d')``):
            entry ``[slot][k-1]`` is ``s_k`` for an object slot and the
            minimum ``s_k`` under a directory slot.
        global_row: The ``kmax`` floors valid for every object.
        build_seconds: Wall-clock cost of the freeze-time build.
    """

    __slots__ = ("kmax", "floor", "global_row", "build_seconds")

    def __init__(
        self,
        kmax: int,
        floor,
        global_row: Sequence[float],
        build_seconds: float,
    ) -> None:
        self.kmax = kmax
        self.floor = floor
        self.global_row = tuple(global_row)
        self.build_seconds = build_seconds

    def node_floor(self, slot: int, k: int) -> float:
        """Lower bound on ``s_k`` of every object under ``slot`` (0.0
        when ``k > kmax``, which never prunes)."""
        if k > self.kmax:
            return 0.0
        return self.floor[slot * self.kmax + (k - 1)]

    def obj_floor(self, slot: int, k: int) -> float:
        """Object ``slot``'s own exact ``s_k`` (0.0 when ``k > kmax``)."""
        if k > self.kmax:
            return 0.0
        return self.floor[slot * self.kmax + (k - 1)]

    def global_floor(self, k: int) -> float:
        """Lower bound on ``s_k`` valid for *every* object."""
        if k > self.kmax:
            return 0.0
        return self.global_row[k - 1]

    def nbytes(self) -> int:
        """Resident bytes of the sketch arrays."""
        return self.floor.itemsize * (len(self.floor) + len(self.global_row))

    def describe(self) -> Dict[str, object]:
        """Summary counters for logs and benchmark reports."""
        return {
            "kmax": self.kmax,
            "slots": len(self.floor) // self.kmax,
            "nbytes": self.nbytes(),
            "build_seconds": self.build_seconds,
        }


def _top_exact(
    a: int, order, values, cols, kmax: int, zero_exact: bool
) -> Tuple[List[float], bool]:
    """Rescore row ``a``'s columns in descending kernel order.

    Returns the min-heap of the ``kmax`` largest ``_exact`` values seen
    and whether the stop rule proved no further column can change them
    (``False`` only when ``order`` ran out before the rule fired).
    ``zero_exact`` says a kernel value of 0.0 is an exact 0.0, so the
    zero tail equals the profile's zero padding.
    """
    exact, slots = cols.exact, cols.slots
    best: List[float] = []
    for j, v in zip(order, values):
        if v < 0.0 or (zero_exact and v == 0.0):
            return best, True
        if len(best) == kmax and v + _MARGIN <= best[0]:
            return best, True
        s = exact(a, slots[j])
        if len(best) < kmax:
            heapq.heappush(best, s)
        elif s > best[0]:
            heapq.heapreplace(best, s)
    return best, False


def _profiles(cols, kmax: int, floor) -> None:
    """Write every object's exact profile into ``floor`` (block join)."""
    np = cols.np
    slots = cols.slots
    n = len(slots)
    zero_exact = np is None or cols.alpha == 0.0
    ranked = min(kmax + _RANK_SLACK, n)
    for lo, hi in cols.blocks():
        values = kernels.simst_block(cols, lo, hi)
        if np is not None and ranked < n:
            part = np.argpartition(-values, ranked - 1, axis=1)[:, :ranked]
            top = np.take_along_axis(values, part, axis=1)
            by = np.argsort(-top, axis=1, kind="stable")
            orders = np.take_along_axis(part, by, axis=1).tolist()
            tops = np.take_along_axis(top, by, axis=1).tolist()
        else:
            orders = tops = None
        for i in range(hi - lo):
            a = slots[lo + i]
            row = values[i]
            done = False
            if orders is not None:
                best, done = _top_exact(
                    a, orders[i], tops[i], cols, kmax, zero_exact
                )
            if not done:
                if np is not None:
                    order = np.argsort(-row, kind="stable").tolist()
                    row = row.tolist()
                else:
                    order = sorted(range(n), key=row.__getitem__, reverse=True)
                best, _done = _top_exact(
                    a, order, [row[j] for j in order], cols, kmax, zero_exact
                )
            best.sort(reverse=True)
            floor[a * kmax:a * kmax + len(best)] = array("d", best)


def build_sketch(engine, kmax: int = SKETCH_KMAX) -> KnnlSketch:
    """Compute one snapshot's :class:`KnnlSketch` from its exact engine.

    ``engine`` is the :class:`~repro.core.traversal.SnapshotEngine` of
    the similarity setting being served; its ``_exact`` — the function
    the membership probe counts with — supplies every stored value.
    """
    started = time.perf_counter()
    snap = engine.snap
    cnt = snap.cnt
    floor = array("d", bytes(8 * snap.n_slots * kmax))
    cols = kernels.join_columns(engine, kernels._numpy())
    if cols.slots:
        _profiles(cols, kmax, floor)

    # Directory rows bottom-up: the level-order layout puts every child
    # after its parent, so a reverse sweep sees children first.
    is_obj = snap.is_obj
    first_child, last_child = snap.first_child, snap.last_child
    for s in range(snap.n_slots - 1, -1, -1):
        if is_obj[s]:
            continue
        rows = [
            floor[c * kmax:(c + 1) * kmax]
            for c in range(first_child[s], last_child[s])
            if cnt[c] > 0
        ]
        if rows:
            floor[s * kmax:(s + 1) * kmax] = array("d", map(min, zip(*rows)))

    roots = [
        floor[r * kmax:(r + 1) * kmax] for r in snap.root_slots if cnt[r] > 0
    ]
    global_row = list(map(min, zip(*roots))) if roots else [0.0] * kmax
    return KnnlSketch(
        kmax=kmax,
        floor=floor,
        global_row=global_row,
        build_seconds=time.perf_counter() - started,
    )
