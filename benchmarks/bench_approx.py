"""Approx-tier benchmark: exact kNNL profiles and the one profile engine.

Runs the E3-style single-query workload (gn-like dataset, sampled
queries) through two tiers of
:class:`repro.core.rstknn.RSTkNNSearcher` over a ``k x alpha`` sweep —

* ``snapshot`` — the exact columnar engine (the parity reference);
* ``approx`` — ``engine="approx"``, the exact profile engine: for
  ``k <= kmax`` the sketch's exact ``s_k`` floors decide membership
  with no probe, above ``kmax`` every object is probed —

and writes ``BENCH_approx.json`` with QPS, speedups, the sketch build
cost (time and bytes, also under ``report["phases"]``), and the filter
counters.

**Four hard gates** (the run exits non-zero on any failure):

1. approx must return ids identical to the snapshot engine in every
   cell, and the sweep must hold at least one ``k > kmax`` cell (the
   probe path) — always armed, ``--quick`` included;
2. no membership probe may run in a ``k <= kmax`` cell (the floors
   alone decide there) — always armed;
3. every object row of every sketch must equal its brute-force
   ``s_k`` (all pairs through the engine's ``_exact``) — armed below
   ``n = 50_000``, where the quadratic check is affordable;
4. approx QPS must be strictly above the first sketch's verified-mode
   baseline in every baselined cell — armed at ``n >= 50_000``.

Usage::

    PYTHONPATH=src python benchmarks/bench_approx.py [--quick] [--n N]
        [--k K [K ...]] [--alpha A [A ...]] [--out F]
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
from typing import Dict

from repro.approx.sketch import SKETCH_KMAX
from repro.bench.gates import ids_gate, median_qps, report_header, timed
from repro.config import SimilarityConfig
from repro.core.rstknn import RSTkNNSearcher
from repro.index.iurtree import IURTree
from repro.obs import MetricsRegistry
from repro.perf import kernels
from repro.workloads import gn_like, sample_queries

#: The QPS baseline gate arms at this size; the quadratic profile
#: exactness check runs below it.
GATE_N = 50_000

#: Verified-mode QPS at n=100_000 of the first sketch (node-floor rows
#: plus per-object curves fitted to layout-window samples, since
#: replaced); the exact profile engine must strictly improve every
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
    approx = RSTkNNSearcher(
        tree, config=config, engine="approx", metrics=metrics
    )
    label = f"k={k} alpha={alpha}"

    # Hard gates first (also warms both engines, the sketch, and memo).
    # Per-cell counters are deltas: the memoized engine's own counters
    # are cumulative across cells.
    engine = tree.snapshot().approx_engine_for(
        tree, approx.measure, approx.alpha, approx.te_weight
    )
    before = dict(engine.counters)
    reference = [base.search(q, k).ids for q in queries]
    ids_gate(
        reference,
        [approx.search(q, k).ids for q in queries],
        f"approx vs snapshot, {label}",
    )
    flow = {
        key: engine.counters[key] - before.get(key, 0)
        for key in ("candidates", "verified", "answers")
    }
    if k <= SKETCH_KMAX and flow["verified"]:
        raise SystemExit(
            f"no-probe gate FAILED ({label}): {flow['verified']} "
            f"membership probes ran at k <= kmax = {SKETCH_KMAX}"
        )

    n = len(queries)

    def sweep(searcher):
        def run() -> None:
            for q in queries:
                searcher.search(q, k)

        return median_qps(timed(run), n, rounds)

    snapshot_qps = sweep(base)
    approx_qps = sweep(approx)

    return {
        "k": k,
        "alpha": alpha,
        "queries": n,
        "parity": "ok",
        "results_per_query": sum(len(ids) for ids in reference) / n,
        "candidates_per_query": flow["candidates"] / n,
        "probes_per_query": flow["verified"] / n,
        "answers_per_query": flow["answers"] / n,
        "snapshot_qps": snapshot_qps,
        "approx_qps": approx_qps,
        "speedup_approx_vs_snapshot": approx_qps / snapshot_qps,
        "filter_counters": dict(engine.counters),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument(
        "--k",
        type=int,
        nargs="+",
        default=None,
        help="k sweep values (at least one must exceed the sketch kmax)",
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
    probe_k = SKETCH_KMAX + 4
    ks = (
        args.k
        if args.k is not None
        else ([4, probe_k] if args.quick else [4, 8, probe_k])
    )
    if not any(k > SKETCH_KMAX for k in ks):
        raise SystemExit(
            f"sweep gate FAILED: no k > kmax = {SKETCH_KMAX} cell in {ks}; "
            "the probe path would go unchecked"
        )
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

    # Approx QPS gate against the first sketch's baseline at scale.
    for cell in cells:
        key = (cell["k"], cell["alpha"])
        qps_floor = _BASELINE_VERIFIED_QPS.get(key)
        if gate_armed and qps_floor is not None and (
            cell["approx_qps"] <= qps_floor
        ):
            raise SystemExit(
                f"approx-QPS gate FAILED (k={key[0]} alpha={key[1]}): "
                f"{cell['approx_qps']:.3f} <= baseline {qps_floor:.3f}"
            )

    report = report_header(n, args.quick, timer=timer, snapshot=snapshot)
    report["gates"] = {
        "parity": "ok",
        "no_probe_kmax": SKETCH_KMAX,
        "probe_cells": sum(1 for c in cells if c["k"] > SKETCH_KMAX),
        "profile_exactness_gate_armed": not gate_armed,
        "qps_baseline_gate_armed": gate_armed,
        "qps_baseline_gate_n": GATE_N,
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
    for cell in cells:
        print(
            f"k={cell['k']} alpha={cell['alpha']}: approx "
            f"{cell['speedup_approx_vs_snapshot']:.2f}x vs snapshot, "
            f"{cell['probes_per_query']:.0f} probes/query"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
