"""Seeded inputs of the four workloads.

Everything here is plain data — ``(x, y, text)`` records, query panels,
write streams and arrival schedules — so the program under test only
ever receives generated inputs.  The corpus is the ``gn_like`` family at
``N`` objects with a fixed corpus seed; the workload seed drives the
query perturbation, the write stream and the arrival schedule.

Why the corpus seed is fixed: at alpha = 0.5 one exact query costs from
0.2 s to 10 s depending on where it lands (log-sd ~0.9), and on corpora
drawn from different seeds the median query cost moves 3x.  A run of a
few seconds sees tens of queries, so a fully seed-drawn corpus and query
stream cannot give a median that repeats within the bounds.  Queries
therefore come from fixed panels of sites whose locations every seed
perturbs, which keeps the per-run cost mix while the answers change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Corpus size shared by every workload.
N = 10_000

#: Seed of the shared corpus (``gn_like``'s own default).
CORPUS_SEED = 42

#: Side of the square data region of ``WorkloadSpec`` (its default).
REGION_SIZE = 100.0

#: Per-run location perturbation of panel queries, as a fraction of the
#: region diagonal (the panel's own anchor jitter is 0.02).
RUN_JITTER = 0.002

Record = Tuple[float, float, str]


@dataclass(frozen=True)
class Query:
    """One read: location, description and ``k``."""

    x: float
    y: float
    text: str
    k: int


def corpus_spec(n: int = N, seed: int = CORPUS_SEED):
    """The ``gn_like`` generator spec (same knobs as
    :func:`repro.workloads.gn_like`), returned unweighted so weighting
    is timed as part of set-up."""
    from repro.workloads.generator import WorkloadSpec

    return WorkloadSpec(
        n_objects=n,
        n_spatial_clusters=max(8, n // 250),
        cluster_std=0.03,
        uniform_fraction=0.15,
        vocab_size=max(200, n // 2),
        zipf_s=1.1,
        doc_len_mean=4.0,
        n_topics=10,
        topic_affinity=0.65,
        seed=seed,
    )


def corpus(n: int = N, seed: int = CORPUS_SEED) -> List[Record]:
    """The raw ``(x, y, text)`` corpus."""
    from repro.workloads.generator import generate_corpus

    return [(p.x, p.y, text) for p, text in generate_corpus(corpus_spec(n, seed))]


def _clamp(v: float) -> float:
    return min(REGION_SIZE, max(0.0, v))


def panel(
    records: List[Record], panel_seed: int, size: int, ks: Tuple[int, ...]
) -> List[Query]:
    """A fixed-order panel of query sites.

    Sites are drawn like :func:`repro.workloads.sample_queries`: an
    anchor location with 2 % jitter and four terms from the anchor's and
    a second object's words.  ``k`` cycles through ``ks`` by position.
    """
    diag = REGION_SIZE * math.sqrt(2.0)
    rng = random.Random(panel_seed)
    out: List[Query] = []
    for i in range(size):
        ax, ay, atext = records[rng.randrange(len(records))]
        _, _, otext = records[rng.randrange(len(records))]
        words = (atext.split() + otext.split()) or ["query"]
        terms = [words[rng.randrange(len(words))] for _ in range(4)]
        x = _clamp(rng.gauss(ax, 0.02 * diag))
        y = _clamp(rng.gauss(ay, 0.02 * diag))
        out.append(Query(x, y, " ".join(terms), ks[i % len(ks)]))
    return out


def perturb(sites: List[Query], run_seed: int) -> List[Query]:
    """The sites moved by ``RUN_JITTER`` of the diagonal, drawn from
    ``run_seed`` (distinct queries, same cost mix)."""
    diag = REGION_SIZE * math.sqrt(2.0)
    rng = random.Random(run_seed)
    return [
        Query(
            _clamp(rng.gauss(q.x, RUN_JITTER * diag)),
            _clamp(rng.gauss(q.y, RUN_JITTER * diag)),
            q.text,
            q.k,
        )
        for q in sites
    ]


class WriteStream:
    """Seeded 50/50 insert/delete stream over a live id set.

    Inserts copy a live donor's text at a location jittered by 1 % of
    the diagonal; deletes pick a uniformly random live object.  The
    caller reports the id each insert received (:meth:`inserted`), so
    the stream stays in step with the index.
    """

    def __init__(self, records: List[Record], seed: int) -> None:
        self.rng = random.Random(seed * 104729 + 17)
        self.live: List[int] = list(range(len(records)))
        self.pos: Dict[int, int] = {oid: i for i, oid in enumerate(self.live)}
        self.text: Dict[int, Record] = dict(enumerate(records))
        self.diag = REGION_SIZE * math.sqrt(2.0)

    def next(self) -> Tuple[str, object]:
        """``("insert", (x, y, text))`` or ``("delete", oid)``."""
        rng = self.rng
        if rng.random() < 0.5:
            donor = self.live[rng.randrange(len(self.live))]
            dx, dy, text = self.text[donor]
            x = _clamp(rng.gauss(dx, 0.01 * self.diag))
            y = _clamp(rng.gauss(dy, 0.01 * self.diag))
            return "insert", (x, y, text)
        victim = self.live[rng.randrange(len(self.live))]
        self._remove(victim)
        return "delete", victim

    def inserted(self, oid: int, record: Record) -> None:
        """Register the id the index gave an inserted record."""
        self.pos[oid] = len(self.live)
        self.live.append(oid)
        self.text[oid] = record

    def _remove(self, oid: int) -> None:
        i = self.pos.pop(oid)
        last = self.live.pop()
        if last != oid:
            self.live[i] = last
            self.pos[last] = i
        del self.text[oid]


def arrivals(seed: int, rate: float, seconds: float) -> List[float]:
    """Poisson arrival offsets (seconds) at ``rate`` per second,
    conditioned on exactly ``round(rate * seconds)`` arrivals (sorted
    uniform times), so every seed offers the same load."""
    rng = random.Random(seed * 15485863 + 3)
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))


def zipf_requests(seed: int, count: int, pool: int, s: float = 1.1) -> List[int]:
    """``count`` indexes into a pool of ``pool``: each index appears in
    proportion to its Zipf(``s``) weight (largest-remainder rounding),
    in an order shuffled by ``seed``, so every seed asks the same mix."""
    weights = [1.0 / (r + 1) ** s for r in range(pool)]
    total = sum(weights)
    quotas = [count * w / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(pool), key=lambda r: counts[r] - quotas[r])
    for r in by_remainder[: count - sum(counts)]:
        counts[r] += 1
    out = [r for r in range(pool) for _ in range(counts[r])]
    random.Random(seed * 32452843 + 5).shuffle(out)
    return out
