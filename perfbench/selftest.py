"""Self-test of the oracle against ``repro.BruteForceRSTkNN``.

Small hand-built corpora cover the cases where a checker is easiest to
get wrong: duplicate locations, identical and empty documents, ``k``
at and beyond the corpus size, and alpha at 0 and 1.  The live-update
path is checked by replaying inserts and deletes and comparing the
updated table with one built from scratch.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np

from oracle import Oracle

_WORDS = ["cafe", "wifi", "pizza", "park", "museum", "bar", "tea", "book"]


def _records(rng: random.Random, n: int) -> List[Tuple[float, float, str]]:
    recs: List[Tuple[float, float, str]] = []
    for i in range(n):
        if i % 7 == 3 and recs:
            x, y, text = recs[-1]  # duplicate location and document
        elif i % 7 == 5 and recs:
            x, y, _ = recs[rng.randrange(len(recs))]  # shared location only
            text = " ".join(rng.choices(_WORDS, k=rng.randint(1, 4)))
        else:
            x, y = rng.uniform(0, 10), rng.uniform(0, 10)
            text = " ".join(rng.choices(_WORDS, k=rng.randint(1, 4)))
        if i % 9 == 8:
            text = ""  # empty document
        recs.append((x, y, text))
    return recs


def objects_of(dataset) -> List[Tuple[int, float, float, Dict[int, float]]]:
    """``(oid, x, y, {term: weight})`` rows of a dataset."""
    return [
        (o.oid, o.point.x, o.point.y, dict(o.vector.items()))
        for o in dataset.objects
    ]


def run(seed: int = 0) -> Dict[str, int]:
    """Run every case; returns counts (``failed`` must be 0)."""
    from repro import BruteForceRSTkNN, SimilarityConfig, STDataset
    from repro.spatial import Point

    rng = random.Random(seed)
    checked = failed = ambiguous = 0
    for n in (1, 2, 9, 24):
        recs = _records(rng, n)
        ds = STDataset.from_corpus([(Point(x, y), t) for x, y, t in recs])
        for alpha in (0.0, 0.4, 1.0):
            cfg = SimilarityConfig(alpha=alpha)
            brute = BruteForceRSTkNN(ds, cfg)
            for k in sorted({1, 3, n, n + 2}):
                oracle = Oracle(objects_of(ds), ds.proximity.max_distance, alpha, k)
                for j in range(4):
                    if j % 2 == 0:
                        src = ds.objects[rng.randrange(n)]
                        q = ds.make_query_from_object(src)
                    else:
                        words = " ".join(rng.choices(_WORDS, k=rng.randint(0, 3)))
                        q = ds.make_query(Point(rng.uniform(-1, 11), rng.uniform(-1, 11)), words)
                    want = brute.search(q, k)
                    bad, amb = oracle.check(q.point.x, q.point.y, dict(q.vector.items()), k, want)
                    checked += 1
                    ambiguous += amb
                    failed += bool(bad)
    failed += _check_updates(rng)
    return {"checked": checked, "failed": failed, "ambiguous": ambiguous}


def _check_updates(rng: random.Random) -> int:
    """Table after inserts/deletes must equal a rebuilt one."""
    from repro import STDataset
    from repro.spatial import Point

    recs = _records(rng, 30)
    ds = STDataset.from_corpus([(Point(x, y), t) for x, y, t in recs])
    objs = objects_of(ds)
    live = Oracle(objs[:20], ds.proximity.max_distance, 0.5, 4)
    current = list(objs[:20])
    for obj in objs[20:]:
        live.insert(*obj)
        current.append(obj)
        victim = current.pop(rng.randrange(len(current)))
        live.delete(victim[0])
    fresh = Oracle(current, ds.proximity.max_distance, 0.5, 4)
    rows_live = np.array([live.table[live.row[o[0]]] for o in current])
    rows_fresh = np.array([fresh.table[fresh.row[o[0]]] for o in current])
    return int(not np.allclose(rows_live, rows_fresh, atol=1e-12, rtol=0.0))
