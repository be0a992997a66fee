"""Independent brute-force RSTkNN checker (numpy only).

The oracle recomputes ``SimST`` from the raw object data — location,
weighted term vector, the dataset's ``maxD`` and alpha — without the
tree, the snapshot or the frozen kernels:

    SimST(a, b) = alpha * clip(1 - |ab| / maxD, 0, 1)
                  + (1 - alpha) * <a,b> / (|a|^2 + |b|^2 - <a,b>)

(the text term is 0 when the documents share no term).  It keeps, for
every live object, its ``kmax`` largest similarities to the other live
objects; ``o`` belongs to the answer of ``(q, k)`` iff
``SimST(q, o) >= RS_k(o)``, the k-th of those (0 when fewer exist).  A
comparison that falls within ``TIE_BAND`` of the threshold cannot be
decided under float reordering and is counted as ambiguous.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Absolute band around ``RS_k`` inside which a membership call is a
#: float tie (the library and the oracle sum in different orders).
TIE_BAND = 1e-9

#: Rows per block of the dense similarity computation.
_BLOCK = 256

Obj = Tuple[int, float, float, Dict[int, float]]


class Oracle:
    """Brute-force membership checker with an updatable k-th table."""

    def __init__(
        self,
        objects: Sequence[Obj],
        max_distance: float,
        alpha: float,
        kmax: int,
        table: Optional[np.ndarray] = None,
    ) -> None:
        self.maxd = float(max_distance)
        self.alpha = float(alpha)
        self.kmax = int(kmax)
        cap = max(16, 2 * len(objects))
        self.oid = np.full(cap, -1, dtype=np.int64)
        self.x = np.zeros(cap)
        self.y = np.zeros(cap)
        self.n2 = np.zeros(cap)
        self.alive = np.zeros(cap, dtype=bool)
        self.table = np.zeros((cap, self.kmax))
        self.vec: Dict[int, Dict[int, float]] = {}
        self.row: Dict[int, int] = {}
        self.post: Dict[int, Dict[int, float]] = {}
        self._post_np: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.size = 0
        for obj in objects:
            self._add(*obj)
        if table is not None:
            self.table[: self.size] = table
        else:
            self._refresh(np.flatnonzero(self.alive[: self.size]))

    # -- storage --------------------------------------------------------

    def _add(self, oid: int, x: float, y: float, vec: Dict[int, float]) -> int:
        if self.size == len(self.oid):
            self._grow()
        r = self.size
        self.size += 1
        self.oid[r] = oid
        self.x[r] = x
        self.y[r] = y
        self.n2[r] = sum(w * w for w in vec.values())
        self.alive[r] = True
        self.vec[r] = dict(vec)
        self.row[oid] = r
        for t, w in vec.items():
            self.post.setdefault(t, {})[r] = w
            self._post_np.pop(t, None)
        return r

    def _grow(self) -> None:
        cap = 2 * len(self.oid)
        for name in ("oid", "x", "y", "n2", "alive"):
            old = getattr(self, name)
            new = np.full(cap, -1, dtype=old.dtype) if name == "oid" else np.zeros(cap, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)
        table = np.zeros((cap, self.kmax))
        table[: len(self.table)] = self.table
        self.table = table

    def _postings(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        cached = self._post_np.get(t)
        if cached is None:
            p = self.post.get(t, {})
            cached = (
                np.fromiter(p.keys(), dtype=np.int64, count=len(p)),
                np.fromiter(p.values(), dtype=np.float64, count=len(p)),
            )
            self._post_np[t] = cached
        return cached

    # -- similarity -----------------------------------------------------

    def sims(
        self, xs: np.ndarray, ys: np.ndarray, vecs: Sequence[Dict[int, float]]
    ) -> np.ndarray:
        """Dense ``SimST`` of the given points/vectors to every stored row
        (``len(vecs) x size``); dead rows read ``-inf``."""
        b, n = len(vecs), self.size
        idx: List[np.ndarray] = []
        val: List[np.ndarray] = []
        for i, vec in enumerate(vecs):
            for t, w in vec.items():
                rows, ws = self._postings(t)
                if len(rows):
                    idx.append(i * n + rows)
                    val.append(w * ws)
        if idx:
            dots = np.bincount(
                np.concatenate(idx), weights=np.concatenate(val), minlength=b * n
            ).reshape(b, n)
        else:
            dots = np.zeros((b, n))
        qn2 = np.array([sum(w * w for w in v.values()) for v in vecs])
        denom = qn2[:, None] + self.n2[None, :n] - dots
        text = np.divide(dots, denom, out=np.zeros_like(dots), where=dots > 0.0)
        dist = np.hypot(xs[:, None] - self.x[None, :n], ys[:, None] - self.y[None, :n])
        prox = np.clip(1.0 - dist / self.maxd, 0.0, 1.0)
        sim = self.alpha * prox + (1.0 - self.alpha) * text
        sim[:, ~self.alive[:n]] = -np.inf
        return sim

    def _refresh(self, rows: Iterable[int]) -> None:
        """Recompute the top-``kmax`` competitor table of ``rows``."""
        rows = np.asarray(list(rows), dtype=np.int64)
        k = self.kmax
        for s in range(0, len(rows), _BLOCK):
            blk = rows[s : s + _BLOCK]
            sim = self.sims(self.x[blk], self.y[blk], [self.vec[r] for r in blk])
            sim[np.arange(len(blk)), blk] = -np.inf
            self.table[blk] = _top(sim, k)

    # -- updates --------------------------------------------------------

    def insert(self, oid: int, x: float, y: float, vec: Dict[int, float]) -> None:
        """Add a live object and update every affected table row."""
        r = self._add(oid, x, y, vec)
        col = self.sims(np.array([x]), np.array([y]), [vec])[0]
        col[r] = -np.inf
        self.table[r] = _top(col[None, :], self.kmax)[0]
        hit = np.flatnonzero(col > self.table[: self.size, -1])
        if len(hit):
            merged = np.concatenate([self.table[hit], col[hit][:, None]], axis=1)
            self.table[hit] = -np.sort(-merged, axis=1)[:, : self.kmax]

    def delete(self, oid: int) -> None:
        """Remove a live object; rows it may have ranked in are rebuilt."""
        r = self.row.pop(oid)
        col = self.sims(np.array([self.x[r]]), np.array([self.y[r]]), [self.vec[r]])[0]
        self.alive[r] = False
        for t in self.vec.pop(r):
            del self.post[t][r]
            self._post_np.pop(t, None)
        col[r] = -np.inf
        self._refresh(np.flatnonzero(col >= self.table[: self.size, -1]))

    # -- checking -------------------------------------------------------

    def check(
        self, x: float, y: float, vec: Dict[int, float], k: int, ids: Iterable[int]
    ) -> Tuple[List[int], int]:
        """Check one answer: ``(mismatched ids, ambiguous count)``.

        Every live object is judged — returned ids must be members and
        every other live object a non-member — except those within the
        tie band of their threshold.
        """
        if not 1 <= k <= self.kmax:
            raise ValueError(f"k={k} outside the oracle's 1..{self.kmax}")
        ids = list(ids)
        n = self.size
        s = self.sims(np.array([x]), np.array([y]), [vec])[0]
        thr = self.table[:n, k - 1]
        live = self.alive[:n]
        got = np.zeros(n, dtype=bool)
        rows = [self.row.get(oid, -1) for oid in ids]
        unknown = [oid for oid, r in zip(ids, rows) if r < 0]
        got[[r for r in rows if r >= 0]] = True
        tie = live & (np.abs(s - thr) <= TIE_BAND)
        want = live & (s >= thr)
        bad = live & ~tie & (want != got)
        return sorted(self.oid[np.flatnonzero(bad)].tolist() + unknown), int(tie.sum())


def cached(
    objects: Sequence[Obj], max_distance: float, alpha: float, kmax: int, cache_dir: str
) -> Oracle:
    """An :class:`Oracle` whose initial k-th table is kept on disk.

    The table of a 10^4-object corpus takes seconds of numpy work and
    is the same on every run that logs the same objects, so it is stored
    under ``cache_dir`` keyed by a digest of everything it depends on
    (the objects with their vectors, ``maxD``, alpha and ``kmax``).  Any
    change in those inputs misses the cache and recomputes the table.
    """
    key = hashlib.sha256(
        pickle.dumps((list(objects), float(max_distance), float(alpha), int(kmax)), protocol=4)
    ).hexdigest()
    path = os.path.join(cache_dir, f"oracle-{key}.npy")
    if os.path.exists(path):
        table = np.load(path)
        if table.shape == (len(objects), kmax):
            return Oracle(objects, max_distance, alpha, kmax, table=table)
    oracle = Oracle(objects, max_distance, alpha, kmax)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        np.save(fh, oracle.table[: oracle.size])
    os.replace(tmp, path)
    return oracle


def _top(sim: np.ndarray, k: int) -> np.ndarray:
    """Row-wise ``k`` largest values, descending; missing ones read 0."""
    b, n = sim.shape
    if n > k:
        part = -np.partition(-sim, k - 1, axis=1)[:, :k]
    else:
        part = np.concatenate([sim, np.full((b, k - n), -np.inf)], axis=1)
    top = -np.sort(-part, axis=1)
    top[~np.isfinite(top)] = 0.0
    return top
