"""End-to-end and per-layer metrics from a program log.

End-to-end metrics come from the untraced run; per-layer metrics from
the traced run's spans (self time = duration minus children), the
answers' own counters, and sizes the program reported.  ``LAYER_MAP``
says which end-to-end metric each layer metric should move, and on
which workload.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracing import self_times

#: ``(name, unit)`` of every gated end-to-end metric (BENCHMARK.json).
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: Reported but not gated: workload-specific or legitimately zero.
REPORTED: List[Tuple[str, str]] = [
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("slo_ok_frac", "ratio"),
    ("error_rate", "ratio"),
]

#: per-layer metric -> (unit, end-to-end metrics it should move, workloads).
LAYER_MAP: Dict[str, Tuple[str, str, str]] = {
    "model.weight_s": ("s", "setup_s", "live_mixed,exact_read"),
    "index.build_s": ("s", "setup_s", "live_mixed,exact_read"),
    "snapshot.freeze_s": ("s", "setup_s", "live_mixed,exact_read"),
    "snapshot.bytes": ("bytes", "peak_rss_mb", "live_mixed,exact_read"),
    "sketch.build_s": ("s", "setup_s", "profile_read"),
    "sketch.bytes": ("bytes", "peak_rss_mb", "profile_read"),
    "engine.search_ms": ("ms", "query_p50_ms,query_tail_ms,ops_per_s", "live_mixed,http_open,exact_read"),
    "engine.expansions": ("count", "query_p50_ms,query_tail_ms,ops_per_s", "live_mixed,exact_read"),
    "engine.verified_objects": ("count", "query_p50_ms,query_tail_ms,ops_per_s", "live_mixed,exact_read"),
    "engine.verify_node_reads": ("count", "query_p50_ms,query_tail_ms,ops_per_s", "live_mixed,exact_read"),
    "engine.bound_decided_frac": ("ratio", "query_p50_ms,query_tail_ms,ops_per_s", "live_mixed,exact_read"),
    "approx.search_ms": ("ms", "query_p50_ms", "profile_read"),
    "approx.candidates": ("count", "query_p50_ms", "profile_read"),
    "approx.verified": ("count", "query_p50_ms", "profile_read"),
    "approx.precision": ("ratio", "query_p50_ms", "profile_read"),
    "seed.search_ms": ("ms", "query_p50_ms,query_tail_ms", "live_mixed"),
    "seed.expansions": ("count", "query_p50_ms,query_tail_ms", "live_mixed"),
    "lsm.dirty_read_frac": ("ratio", "query_p50_ms,query_tail_ms", "live_mixed"),
    "lsm.read_dirty_ms": ("ms", "query_p50_ms,query_tail_ms", "live_mixed"),
    "lsm.read_clean_ms": ("ms", "query_p50_ms,query_tail_ms", "live_mixed"),
    "lsm.insert_ms": ("ms", "write_p50_ms,write_tail_ms,ops_per_s", "live_mixed"),
    "lsm.delete_ms": ("ms", "write_p50_ms,write_tail_ms,ops_per_s", "live_mixed"),
    "lsm.fold_s": ("s", "write_p50_ms,write_tail_ms,ops_per_s", "live_mixed"),
    "lsm.folds": ("count", "write_p50_ms,write_tail_ms,ops_per_s", "live_mixed"),
    "shard.build_s": ("s", "setup_s,query_p50_ms,slo_ok_frac", "http_open"),
    "shard.search_ms": ("ms", "setup_s,query_p50_ms,slo_ok_frac", "http_open"),
    "shard.pruned_frac": ("ratio", "setup_s,query_p50_ms,slo_ok_frac", "http_open"),
    "shard.candidates": ("count", "setup_s,query_p50_ms,slo_ok_frac", "http_open"),
    "shard.merge_probes": ("count", "setup_s,query_p50_ms,slo_ok_frac", "http_open"),
    "shm.segment_bytes": ("bytes", "peak_rss_mb", "http_open"),
    "service.serve_ms": ("ms", "query_tail_ms,slo_ok_frac,error_rate", "http_open"),
    "http.overhead_ms": ("ms", "query_tail_ms,slo_ok_frac,error_rate", "http_open"),
    "http.shed": ("count", "query_tail_ms,slo_ok_frac,error_rate", "http_open"),
    "http.status_5xx": ("count", "query_tail_ms,slo_ok_frac,error_rate", "http_open"),
    "loadgen.late_tail_ms": ("ms", "diagnostic", "http_open"),
    "loadgen.repeat_frac": ("ratio", "diagnostic", "http_open"),
    "oracle.ambiguous": ("count", "diagnostic", "all"),
    "trace.overhead_frac": ("ratio", "diagnostic", "all"),
    "registry.mismatches": ("count", "diagnostic", "all"),
}

_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def pct(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (0 for no values)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with at
    least ten samples beyond it (the median below 20 samples)."""
    n = len(values)
    for p in _LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, pct(values, p)
    return 50.0, pct(values, 50.0)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(log: Dict[str, Any], check: Dict[str, Any], limit_s: Optional[float]) -> Dict[str, Any]:
    """Every end-to-end metric (gated and reported) plus tail notes."""
    ops = log["ops"]
    reads = [op for op in ops if op["kind"] == "read"]
    writes = [op for op in ops if op["kind"] in ("insert", "delete")]
    lat = [op["t"] for op in reads]
    wlat = [op["t"] for op in writes]
    qp, qtail = tail(lat)
    wp, wtail = tail(wlat)
    out: Dict[str, Any] = {
        "setup_s": pct(log["setup_s"], 50.0),
        "ops_per_s": len(ops) / log["wall_s"],
        "query_p50_ms": 1e3 * pct(lat, 50.0),
        "query_tail_ms": 1e3 * qtail,
        "peak_rss_mb": log["peak_rss_mb"],
        "write_p50_ms": 1e3 * pct(wlat, 50.0),
        "write_tail_ms": 1e3 * wtail,
        "error_rate": check["failed"] / max(1, len(ops)),
        "notes": {
            "query_tail_percentile": qp,
            "query_samples": len(lat),
            "write_tail_percentile": wp,
            "write_samples": len(wlat),
            "setup_samples": len(log["setup_s"]),
        },
    }
    if limit_s is not None:
        ok = [
            i for i, op in enumerate(reads)
            if op.get("status") == 200 and op["t"] <= limit_s and i not in check["bad_reads"]
        ]
        out["slo_ok_frac"] = len(ok) / max(1, len(reads))
        out["notes"]["latency_limit_ms"] = 1e3 * limit_s
    else:
        out["slo_ok_frac"] = 1.0 - out["error_rate"]
    return out


def per_layer(
    log: Dict[str, Any], check: Dict[str, Any], overhead: float, mismatches: int
) -> Dict[str, float]:
    """Every per-layer metric of ``LAYER_MAP`` (zero where a layer is idle)."""
    server = log.get("server", {})
    spans = server.get("spans") if server else log.get("spans", [])
    spans = spans or []
    selfs = self_times(spans)
    by_name: Dict[str, List[List[Any]]] = {}
    children: Dict[int, List[str]] = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
        children.setdefault(s[1], []).append(s[3])

    def dur(s) -> float:
        return (s[5] - s[4]) / 1e9

    def setup_sum(name: str, own: bool = False) -> float:
        return sum(
            (selfs[s[0]] / 1e9 if own else dur(s))
            for s in by_name.get(name, []) if s[2] == "setup"
        )

    def measured(s) -> bool:
        # Request ids: "setup" for set-up, "u…" for untimed warm-up.
        return bool(s[2]) and s[2] != "setup" and not s[2].startswith("u")

    def per_request(names: Sequence[str]) -> Dict[str, float]:
        acc: Dict[str, float] = {}
        for name in names:
            for s in filter(measured, by_name.get(name, [])):
                acc[s[2]] = acc.get(s[2], 0.0) + dur(s)
        return acc

    def attr_sum(names: Sequence[str], key: str) -> Dict[str, float]:
        acc: Dict[str, float] = {}
        for name in names:
            for s in filter(measured, by_name.get(name, [])):
                acc[s[2]] = acc.get(s[2], 0.0) + s[6].get(key, 0)
        return acc

    ops = log["ops"]
    reads = [op for op in ops if op["kind"] == "read"]
    n_of = {f"r{i}": op.get("n") for i, op in enumerate(ops)}
    engines = ("engine.search", "engine.run_group")
    eng_ms = per_request(engines)
    decided = attr_sum(engines, "decided")
    n_total = log.get("objects") and len(log["objects"])
    frac = [decided[r] / (n_of.get(r) or n_total) for r in decided if (n_of.get(r) or n_total)]
    approx = list(filter(measured, by_name.get("approx.search", [])))
    a_cand = sum(s[6].get("candidates", 0) for s in approx)
    a_ans = sum(s[6].get("answers", 0) for s in approx)
    dispatch = {"searcher.search", "engine.search", "engine.run_group", "approx.search"}
    seed_walks = [
        s for s in filter(measured, by_name.get("searcher.search", []))
        if not dispatch & set(children.get(s[0], []))
    ]
    dirty = [op for op in reads if op.get("dirty")]
    clean = [op for op in reads if op.get("dirty") is False]
    http = [op for op in reads if "status" in op]
    ok_http = [op for op in http if op["status"] == 200]
    shard_ms = per_request(("shard.admit", "shard.merge"))
    serve = {s[2]: dur(s) for s in filter(measured, by_name.get("service.serve", []))}
    seen: set = set()
    repeats = 0
    for op in http:
        repeats += op["pool"] in seen
        seen.add(op["pool"])
    st = [op["stats"] for op in ok_http]

    out = {
        "model.weight_s": setup_sum("model.from_corpus"),
        "index.build_s": setup_sum("index.build"),
        "snapshot.freeze_s": setup_sum("snapshot.get", own=True) + setup_sum("snapshot.text_matrix", own=True),
        "snapshot.bytes": float(log.get("snapshot_bytes", server.get("snapshot_bytes", 0))),
        "sketch.build_s": sum(dur(s) for s in by_name.get("sketch.build", [])),
        "sketch.bytes": float(sum(s[6].get("bytes", 0) for s in by_name.get("sketch.build", []))),
        "engine.search_ms": 1e3 * pct(list(eng_ms.values()), 50.0),
        "engine.expansions": _mean(list(attr_sum(engines, "expansions").values())),
        "engine.verified_objects": _mean(list(attr_sum(engines, "verified_objects").values())),
        "engine.verify_node_reads": _mean(list(attr_sum(engines, "verify_node_reads").values())),
        "engine.bound_decided_frac": _mean(frac),
        "approx.search_ms": 1e3 * pct([dur(s) for s in approx], 50.0),
        "approx.candidates": a_cand / len(approx) if approx else 0.0,
        "approx.verified": _mean([s[6].get("verified", 0) for s in approx]),
        "approx.precision": a_ans / a_cand if a_cand else 0.0,
        "seed.search_ms": 1e3 * pct([dur(s) for s in seed_walks], 50.0),
        "seed.expansions": _mean([op["stats"]["expansions"] for op in dirty if "stats" in op]),
        "lsm.dirty_read_frac": len(dirty) / len(reads) if dirty else 0.0,
        "lsm.read_dirty_ms": 1e3 * pct([op["t"] for op in dirty], 50.0),
        "lsm.read_clean_ms": 1e3 * pct([op["t"] for op in clean], 50.0),
        "lsm.insert_ms": 1e3 * pct([dur(s) for s in by_name.get("lsm.insert", [])], 50.0),
        "lsm.delete_ms": 1e3 * pct([dur(s) for s in by_name.get("lsm.delete", [])], 50.0),
        "lsm.fold_s": _mean([dur(s) for s in by_name.get("lsm.freeze", [])]),
        "lsm.folds": float(sum(1 for op in ops if op["kind"] == "fold")),
        "shard.build_s": sum(dur(s) for s in by_name.get("shard.build", [])),
        "shard.search_ms": 1e3 * pct(list(shard_ms.values()), 50.0),
        "shard.pruned_frac": (
            sum(x["shards_pruned"] for x in st) / sum(x["shards_total"] for x in st) if st else 0.0
        ),
        "shard.candidates": _mean([x["candidates"] for x in st]),
        "shard.merge_probes": _mean([x["merge_probes"] for x in st]),
        "shm.segment_bytes": float(sum(s[6].get("bytes", 0) for s in by_name.get("shm.create", []))),
        "service.serve_ms": 1e3 * pct(list(serve.values()), 50.0),
        "http.overhead_ms": 1e3 * pct(
            [op["rtt"] - serve[op["rid"]] for op in ok_http if op["rid"] in serve], 50.0
        ),
        "http.shed": float(sum(1 for op in http if op["status"] == 503)),
        "http.status_5xx": float(sum(1 for op in http if op["status"] >= 500)),
        "loadgen.late_tail_ms": 1e3 * tail([op["late"] for op in http])[1],
        "loadgen.repeat_frac": repeats / len(http) if http else 0.0,
        "oracle.ambiguous": float(check["ambiguous"]),
        "trace.overhead_frac": overhead,
        "registry.mismatches": float(mismatches),
    }
    return out


def registry_check(log: Dict[str, Any]) -> List[str]:
    """Counts derived from outside vs the attached registry's deltas."""
    src = log.get("server") or log
    before = (src.get("registry_before") or {}).get("counters", {})
    after = (src.get("registry_after") or {}).get("counters", {})
    if not after:
        return ["no registry snapshot"]

    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    ops = log["ops"]
    reads = [op for op in ops if op["kind"] == "read" and "stats" in op]
    want: Dict[str, int] = {}
    workload = log["workload"]
    if workload == "http_open":
        # The untimed warm-up requests reach the registry too.
        ok = [op for op in reads + log["warm_ops"] if op["status"] == 200]
        want["shard.queries"] = len(ok)
        want["shard.pruned"] = sum(op["stats"]["shards_pruned"] for op in ok)
        want["shard.candidates"] = sum(op["stats"]["candidates"] for op in ok)
        want["shard.merge.probes"] = sum(op["stats"]["merge_probes"] for op in ok)
        want["shard.http.shed"] = sum(1 for op in reads + log["warm_ops"] if op["status"] == 503)
    else:
        engine = {"exact_read": "snapshot", "profile_read": "approx"}.get(workload)
        if engine:
            want[f"search.queries.{engine}"] = len(reads)
        else:
            want["search.queries.seed"] = sum(1 for op in reads if op.get("dirty"))
            want["search.queries.snapshot"] = sum(1 for op in reads if op.get("dirty") is False)
            want["lsm.swaps"] = sum(1 for op in ops if op["kind"] == "fold" and op.get("ok"))
            want["lsm.reads.merged"] = sum(1 for op in reads if op.get("dirty"))
        for key, counter in (
            ("expansions", "search.decisions.expand"),
            ("verified_objects", "search.decisions.verify"),
            ("pruned_entries", "search.decisions.prune"),
            ("accepted_entries", "search.decisions.accept"),
            ("verify_node_reads", "search.verify_node_reads"),
        ):
            want[counter] = sum(op["stats"][key] for op in reads)
    return [
        f"{name}: benchmark {value} vs registry {delta(name)}"
        for name, value in sorted(want.items())
        if delta(name) != value
    ]
