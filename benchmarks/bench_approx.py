"""Approx-tier benchmark: frozen kNNL floors + the sketch-filter engine.

Runs the E3-style single-query workload (gn-like dataset, sampled
queries) through four tiers of
:class:`repro.core.rstknn.RSTkNNSearcher` over a ``k x alpha`` sweep —

* ``snapshot`` — the exact columnar engine (the parity reference);
* ``warm`` — the same engine seeded with frozen kNNL warm-start floors
  (``warm_floors=True``): **bit-identical ids by construction**, only
  pruning gets earlier;
* ``approx verified`` — ``engine="approx", verify=True``: the sketch
  filter generates a conservative candidate superset, every survivor is
  verified exactly (**byte-identical ids**);
* ``approx raw`` — ``engine="approx", verify=False``: the raw filter
  output, with recall/precision measured against the exact reference —

and writes ``BENCH_approx.json`` with QPS, speedups, recall/precision,
the sketch build cost (time and bytes, also under
``report["phases"]``), and the filter counters.

**Six hard gates** (the run exits non-zero on any failure):

1. warm floors and verified approx must return ids identical to the
   exact snapshot engine in every cell — always armed, ``--quick``
   included;
2. raw-filter recall must be exactly 1.0 in every cell — always armed
   (the conservative sketch guarantees it by construction, so any dip
   is a soundness bug, not a tuning miss);
3. raw-filter ids must equal the exact ids in every cell with
   ``k <= kmax`` — always armed (the sketch stores each object's exact
   ``s_k``, so the raw filter *is* the membership test there);
4. every object row of every sketch must equal its brute-force
   ``s_k`` (all pairs through the engine's ``_exact``) — armed below
   ``n = 50_000``, where the quadratic check is affordable;
5. warm-floor single-query QPS must be >= 1.2x the snapshot engine in
   the headline cell — armed at ``n >= 50_000`` (floors only matter
   once contribution lists dominate);
6. verified-mode QPS must be strictly above the first sketch's baseline
   in every baselined cell — armed at ``n >= 50_000``.

Usage::

    PYTHONPATH=src python benchmarks/bench_approx.py [--quick] [--n N]
        [--k K [K ...]] [--alpha A [A ...]] [--out F]
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
from typing import Dict, List

from repro.approx.sketch import SKETCH_KMAX
from repro.bench.gates import ids_gate, median_qps, report_header, timed
from repro.config import SimilarityConfig
from repro.core.rstknn import RSTkNNSearcher
from repro.index.iurtree import IURTree
from repro.obs import MetricsRegistry
from repro.perf import kernels
from repro.workloads import gn_like, sample_queries

#: The warm-floor QPS gate only arms at scale — below this, walks are
#: too short for freeze-time floors to beat their own bookkeeping.
GATE_N = 50_000
WARM_SPEEDUP_GATE = 1.2

#: The conservative sketch guarantees recall 1.0 by construction, so
#: the gate is exact: anything below is a soundness bug.
RECALL_GATE = 1.0

#: Verified-mode QPS at n=100_000 of the first sketch (node-floor rows
#: plus per-object curves fitted to layout-window samples, since
#: replaced); the exact profiles must strictly improve every
#: baselined cell.
_BASELINE_VERIFIED_QPS = {
    (4, 0.3): 1.01185,
    (4, 0.6): 5.64065,
    (8, 0.3): 0.26303,
    (8, 0.6): 1.21472,
}


def profile_mismatches(engine, sketch) -> int:
    """Object rows of ``sketch`` that differ from brute-force ``s_k``."""
    snap = engine.snap
    exact = engine._exact
    ref = snap.ref
    kmax = sketch.kmax
    objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
    bad = 0
    for a in objs:
        top = heapq.nlargest(
            kmax, (exact(a, b) for b in objs if ref[b] != ref[a])
        )
        top += [0.0] * (kmax - len(top))
        if [sketch.obj_floor(a, k) for k in range(1, kmax + 1)] != top:
            bad += 1
    return bad


def recall_precision(
    reference: List[List[int]], got: List[List[int]]
) -> Dict[str, float]:
    """Micro-averaged recall/precision of ``got`` against ``reference``."""
    hits = ref_total = got_total = 0
    for ref_ids, got_ids in zip(reference, got):
        ref_set = set(ref_ids)
        hits += sum(1 for i in got_ids if i in ref_set)
        ref_total += len(ref_ids)
        got_total += len(got_ids)
    return {
        "recall": hits / ref_total if ref_total else 1.0,
        "precision": hits / got_total if got_total else 1.0,
        "reference_results": ref_total,
        "returned_results": got_total,
    }


def bench_cell(
    tree,
    queries,
    k: int,
    alpha: float,
    rounds: int,
    metrics,
) -> Dict[str, object]:
    """Gates + QPS for one ``(k, alpha)`` cell of the sweep."""
    config = SimilarityConfig(alpha=alpha)
    base = RSTkNNSearcher(tree, config=config, engine="snapshot")
    warm = RSTkNNSearcher(
        tree, config=config, engine="snapshot", warm_floors=True
    )
    verified = RSTkNNSearcher(
        tree, config=config, engine="approx", approx_verify=True
    )
    raw = RSTkNNSearcher(
        tree,
        config=config,
        engine="approx",
        approx_verify=False,
        metrics=metrics,
    )
    label = f"k={k} alpha={alpha}"

    # Hard gates first (also warms every engine, sketch, and memo).
    reference = [base.search(q, k).ids for q in queries]
    ids_gate(
        reference,
        [warm.search(q, k).ids for q in queries],
        f"warm floors vs snapshot, {label}",
    )
    ids_gate(
        reference,
        [verified.search(q, k).ids for q in queries],
        f"approx verify=True vs snapshot, {label}",
    )

    # Per-cell candidate-flow counters: delta around the quality pass
    # (the engine's own counters are cumulative across cells).
    snap = tree.snapshot()
    raw_engine = snap.approx_engine_for(
        tree, raw.measure, raw.alpha, raw.te_weight, verify=False
    )
    before = dict(raw_engine.counters)
    raw_ids = [raw.search(q, k).ids for q in queries]
    quality = recall_precision(reference, raw_ids)
    flow = {
        key: raw_engine.counters[key] - before.get(key, 0)
        for key in ("candidates", "answers")
    }
    if quality["recall"] < RECALL_GATE:
        raise SystemExit(
            f"recall gate FAILED ({label}): "
            f"{quality['recall']:.4f} < {RECALL_GATE}"
        )
    if k <= SKETCH_KMAX and raw_ids != reference:
        raise SystemExit(
            f"raw == exact gate FAILED ({label}): the raw filter kept "
            f"{quality['returned_results']} ids, exact answers "
            f"{quality['reference_results']}"
        )
    metrics.gauge("approx.recall").set(quality["recall"])

    n = len(queries)

    def sweep(searcher):
        def run() -> None:
            for q in queries:
                searcher.search(q, k)

        return median_qps(timed(run), n, rounds)

    snapshot_qps = sweep(base)
    warm_qps = sweep(warm)
    verified_qps = sweep(verified)
    raw_qps = sweep(raw)

    # The memoized filter engine exposes its cumulative counters.
    filter_counters = dict(raw_engine.counters)

    return {
        "k": k,
        "alpha": alpha,
        "queries": n,
        "parity": "ok",
        "recall": quality["recall"],
        "precision": quality["precision"],
        "reference_results": quality["reference_results"],
        "returned_results": quality["returned_results"],
        "candidates_per_query": flow["candidates"] / n,
        "answers_per_query": flow["answers"] / n,
        "candidate_precision": (
            flow["answers"] / flow["candidates"]
            if flow["candidates"]
            else 1.0
        ),
        "snapshot_qps": snapshot_qps,
        "warm_floors_qps": warm_qps,
        "approx_verified_qps": verified_qps,
        "approx_raw_qps": raw_qps,
        "speedup_warm_vs_snapshot": warm_qps / snapshot_qps,
        "speedup_verified_vs_snapshot": verified_qps / snapshot_qps,
        "speedup_raw_vs_snapshot": raw_qps / snapshot_qps,
        "filter_counters": filter_counters,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument(
        "--k", type=int, nargs="+", default=None, help="k sweep values"
    )
    parser.add_argument(
        "--alpha",
        type=float,
        nargs="+",
        default=None,
        help="alpha sweep values",
    )
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--out", default="BENCH_approx.json")
    parser.add_argument(
        "--backend",
        choices=kernels.KERNEL_BACKENDS,
        default="auto",
        help="kernel backend to bench (default: auto dispatch, the "
        "production path)",
    )
    args = parser.parse_args(argv)
    kernels.set_backend(args.backend)

    n = args.n if args.n is not None else (400 if args.quick else 100_000)
    ks = args.k if args.k is not None else ([4] if args.quick else [4, 8])
    alphas = (
        args.alpha
        if args.alpha is not None
        else ([0.5] if args.quick else [0.3, 0.6])
    )
    n_queries = (
        args.queries if args.queries is not None else (4 if args.quick else 8)
    )
    rounds = 1 if args.quick else 3

    from repro.obs import PhaseTimer

    timer = PhaseTimer()
    dataset = gn_like(n=n)
    with timer.phase("build"):
        tree = IURTree.build(dataset)
    with timer.phase("freeze"):
        tree.warm_kernels()
        snapshot = tree.snapshot()
    queries = sample_queries(dataset, n_queries, seed=99)

    # Build the sketch for every sweep setting inside one timed phase so
    # the report separates freeze-time cost from per-query wins.
    sketches = []
    built = []
    with timer.phase("sketch"):
        for alpha in alphas:
            config = SimilarityConfig(alpha=alpha)
            s = RSTkNNSearcher(tree, config=config, engine="snapshot")
            engine = snapshot.engine_for(tree, s.measure, s.alpha, s.te_weight)
            sketch = snapshot.sketch_for(engine)
            sketches.append(dict(sketch.describe(), alpha=alpha))
            built.append((alpha, engine, sketch))
    gate_armed = n >= GATE_N
    if not gate_armed:
        for alpha, engine, sketch in built:
            bad = profile_mismatches(engine, sketch)
            if bad:
                raise SystemExit(
                    f"profile exactness gate FAILED (alpha={alpha}): "
                    f"{bad} object rows differ from brute-force s_k"
                )

    metrics = MetricsRegistry()
    with timer.phase("walk"):
        cells = [
            bench_cell(tree, queries, k, alpha, rounds, metrics)
            for k in ks
            for alpha in alphas
        ]

    headline = cells[0]
    if gate_armed and (
        headline["speedup_warm_vs_snapshot"] < WARM_SPEEDUP_GATE
    ):
        raise SystemExit(
            f"warm-floor QPS gate FAILED (k={headline['k']} "
            f"alpha={headline['alpha']}): "
            f"{headline['speedup_warm_vs_snapshot']:.3f}x < "
            f"{WARM_SPEEDUP_GATE}x at n={n}"
        )

    # Verified-QPS gate against the first sketch's baseline at scale.
    for cell in cells:
        key = (cell["k"], cell["alpha"])
        qps_floor = _BASELINE_VERIFIED_QPS.get(key)
        if gate_armed and qps_floor is not None and (
            cell["approx_verified_qps"] <= qps_floor
        ):
            raise SystemExit(
                f"verified-QPS gate FAILED (k={key[0]} alpha={key[1]}): "
                f"{cell['approx_verified_qps']:.3f} <= baseline "
                f"{qps_floor:.3f}"
            )

    report = report_header(n, args.quick, timer=timer, snapshot=snapshot)
    report["gates"] = {
        "parity": "ok",
        "recall_gate": RECALL_GATE,
        "warm_speedup_gate": WARM_SPEEDUP_GATE,
        "warm_speedup_gate_armed": gate_armed,
        "warm_speedup_gate_n": GATE_N,
        "raw_equals_exact_kmax": SKETCH_KMAX,
        "profile_exactness_gate_armed": not gate_armed,
        "verified_qps_baseline": {
            f"{k},{a}": v
            for (k, a), v in _BASELINE_VERIFIED_QPS.items()
        },
    }
    report["sketches"] = sketches
    report["cells"] = cells
    report["approx_metrics"] = metrics.snapshot()

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")
    print(
        f"headline (k={headline['k']} alpha={headline['alpha']}): "
        f"warm floors {headline['speedup_warm_vs_snapshot']:.2f}x, "
        f"approx raw {headline['speedup_raw_vs_snapshot']:.2f}x vs "
        f"snapshot; recall {headline['recall']:.4f}, "
        f"precision {headline['precision']:.4f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
