"""Run one workload against ``repro`` and log every operation.

This is the measured process: it imports the package from ``src/``,
receives only generated inputs, and writes a pickle log (set-up times,
every operation with its latency and answer, provenance, and — when
traced — spans and a metrics-registry snapshot) for ``run.py`` to check
with the oracle.  Oracle time and memory therefore never reach the
measured numbers.

    python3 perfbench/program.py --workload exact_read --seed 1 \\
        --seconds 15 --trace 0 --setups 5 --max-ops 0 --out log.pkl
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import pickle
import resource
import signal
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Every ``live_mixed`` read is followed by this many writes; a round
#: holds this many reads of one site, so it ends with one fold.
WRITES_PER_READ = 20
READS_PER_ROUND = 5

#: Overlay size at which the ``live_mixed`` client folds.
FREEZE_THRESHOLD = 100

#: ``http_open`` constants.  The rate is about a quarter of the
#: closed-loop capacity (7.2-8.0/s) measured at the commit that
#: introduced the benchmark: at 3/s and 4/s, queueing doubled the
#: machine's own speed swings in the tail (a run 20 % slower at the
#: median was 40 % slower at p75), and ten runs of the same code spread
#: 0.38-0.40 there.  The latency limit is about 3x the p75 latency
#: measured at 4/s.  Fixed here, never derived at run time.
HTTP_RATE_PER_S = 2.0
HTTP_LATENCY_LIMIT_S = 1.0
HTTP_DEADLINE_S = 5.0
HTTP_POOL = 64
HTTP_CONNECTIONS = 2

#: Seed of the arrival schedule.  The schedule is the same Poisson
#: draw on every run ("fixed-seed arrivals"): a seed-drawn schedule puts
#: its bursts in different places on every run, and under queueing that
#: adds a swing of its own to the latencies of runs of the same code.
#: The run seed still drives which request arrives when (the Zipf order).
HTTP_ARRIVAL_SEED = 404

#: Corpus size of ``profile_read``.  Its set-up is the kNNL sketch build:
#: ~37 s at n = 10^4 but ~5 s at 2500, which is what lets every
#: workload measure ~25 s per run when each is repeated ~20 times
#: within one hour.
PROFILE_N = 2500

#: Per-workload settings: alpha, the ``k`` cycle, panel seed, panel size
#: (reads per round; the ``http_open`` query pool) and ``round_s``, the
#: nominal seconds of one round on a 2-vCPU Xeon.  A run measures
#: ``round(seconds / round_s)`` whole rounds: fixed work per run, so the
#: mix of reads never depends on where a time budget would cut.
#: ``live_mixed`` reads one site of its panel (``site``), one whose
#: clean read takes ~0.5 s, so five rounds fit a 25 s run.
SETTINGS: Dict[str, Dict[str, Any]] = {
    "exact_read": {"alpha": 0.5, "ks": (5, 10), "panel": 101, "size": 7, "round_s": 4.5},
    "profile_read": {"alpha": 0.3, "ks": (4, 8), "panel": 202, "size": 400, "round_s": 5.0,
                     "n": PROFILE_N},
    "live_mixed": {"alpha": 0.5, "ks": (5,), "panel": 303, "size": 4, "site": 3, "round_s": 5.0},
    "http_open": {"alpha": 0.9, "ks": (5,), "panel": 404, "size": HTTP_POOL},
}

#: A run stops after the round in progress once it has measured this
#: many times ``--seconds`` (a slow program still ends in time).
TIME_CAP = 1.25


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks stop the
    processes this one started before it ends."""

    def _raise(signum, frame):
        del frame
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _raise)


def clear_repro_env() -> None:
    """Drop every ``REPRO_*`` variable so no override changes the run."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def vec_of(obj) -> Dict[int, float]:
    """An object's weighted vector as a plain dict."""
    return dict(obj.vector.items())


def obj_row(obj) -> tuple:
    """``(oid, x, y, vector)`` of one object, for the oracle."""
    return (obj.oid, obj.point.x, obj.point.y, vec_of(obj))


def provenance(resolved: str) -> Dict[str, Any]:
    """Metadata stamped on every result."""
    from repro.bench.meta import bench_metadata
    from repro.perf import kernels

    return {
        "bench_metadata": bench_metadata(),
        "nproc": len(os.sched_getaffinity(0)),
        "engine": resolved,
        "kernel_backend": kernels.backend_name(),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


class Run:
    """Shared state of one measured run."""

    def __init__(self, args: argparse.Namespace) -> None:
        import inputs

        self.args = args
        self.cfg = SETTINGS[args.workload]
        self.tracer = None
        # http_open traces inside the server process, not the generator.
        if args.trace and args.workload != "http_open":
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.install(server=False)
        self.records = inputs.corpus(self.cfg.get("n", inputs.N))
        self.sites = inputs.panel(
            self.records, self.cfg["panel"], self.cfg["size"], self.cfg["ks"]
        )
        self.log: Dict[str, Any] = {
            "workload": args.workload,
            "seed": args.seed,
            "alpha": self.cfg["alpha"],
            "kmax": max(self.cfg["ks"]),
            "setup_s": [],
            "ops": [],
        }

    def span(self, name: str, rid: Optional[str] = None):
        """A tracer span, or nothing when untraced."""
        if self.tracer is None:
            return contextlib.nullcontext({})
        return self.tracer.span(name, rid=rid)

    def registry(self):
        """A metrics registry in traced runs only (the cross-check)."""
        if self.tracer is None:
            return None
        from repro.obs import MetricsRegistry

        return MetricsRegistry()

    def points(self):
        from repro.spatial import Point

        return [(Point(x, y), text) for x, y, text in self.records]

    def round_panel(self, r: int) -> List[Any]:
        """Round ``r``'s reads: the panel sites, perturbed per round."""
        import inputs

        return inputs.perturb(self.sites, self.args.seed * 1000 + r)

    def rounds(self, started: float) -> Iterator[int]:
        """The round numbers of this run (see ``SETTINGS``); with
        ``--max-ops`` set, rounds until that many operations."""
        a = self.args
        planned = max(1, round(a.seconds / self.cfg["round_s"]))
        r = 0
        while True:
            yield r
            r += 1
            if a.max_ops:
                if len(self.log["ops"]) >= a.max_ops:
                    return
            elif r >= planned or time.perf_counter() - started > TIME_CAP * a.seconds:
                return

    def finish(self, resolved: str, wall: float) -> Dict[str, Any]:
        log = self.log
        log["wall_s"] = wall
        log["meta"] = provenance(resolved)
        if "peak_rss_mb" not in log:
            log["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer is not None:
            log["spans"] = self.tracer.dump()
        return log


def _read(run: Run, searcher, ds, q, i: int, **extra) -> Dict[str, Any]:
    from repro.spatial import Point

    t0 = time.perf_counter()
    try:
        with run.span("op.read", rid=f"r{i}"):
            query = ds.make_query(Point(q.x, q.y), q.text)
            res = searcher.search(query, q.k)
            dt = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
        return {"kind": "read", "t": time.perf_counter() - t0, "error": repr(exc), **extra}
    op = {
        "kind": "read",
        "t": dt,
        "q": (query.point.x, query.point.y, vec_of(query), q.k),
        "ids": list(res.ids),
        "stats": res.stats.as_dict(),
        "n": len(ds),
    }
    op.update(extra)
    return op


def _write(run: Run, live, stream, i: int) -> Dict[str, Any]:
    from repro.spatial import Point

    kind, arg = stream.next()
    t0 = time.perf_counter()
    try:
        with run.span(f"op.{kind}", rid=f"w{i}"):
            if kind == "insert":
                obj = live.insert(Point(arg[0], arg[1]), arg[2])
                dt = time.perf_counter() - t0
                stream.inserted(obj.oid, arg)
                return {"kind": kind, "t": dt, "obj": obj_row(obj), "ok": True}
            ok = live.delete_object(arg)
            return {"kind": kind, "t": time.perf_counter() - t0, "oid": arg, "ok": ok}
    except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
        return {"kind": kind, "t": time.perf_counter() - t0, "error": repr(exc), "ok": False}


def static_reads(run: Run, engine: Optional[str]) -> Dict[str, Any]:
    """``exact_read`` / ``profile_read``: closed loop, one client."""
    from repro import IURTree, RSTkNNSearcher, SimilarityConfig, STDataset
    from repro.spatial import Point

    import inputs

    corpus = run.points()
    cfg = SimilarityConfig(alpha=run.cfg["alpha"])
    warm = inputs.panel(run.records, -run.cfg["panel"], 1, run.cfg["ks"])[0]
    reg = ds = tree = searcher = None
    for _ in range(run.args.setups):
        ds = tree = searcher = None
        gc.collect()
        reg = run.registry()
        with run.span("setup", rid="setup"):
            t0 = time.perf_counter()
            ds = STDataset.from_corpus(corpus)
            tree = IURTree.build(ds)
            tree.snapshot()
            searcher = RSTkNNSearcher(tree, config=cfg, engine=engine, metrics=reg)
            if engine == "approx":
                # The sketch is built by the first approx query.
                searcher.search(ds.make_query(Point(warm.x, warm.y), warm.text), warm.k)
            run.log["setup_s"].append(time.perf_counter() - t0)
    run.log["objects"] = [obj_row(o) for o in ds.objects]
    run.log["max_distance"] = ds.proximity.max_distance
    run.log["snapshot_bytes"] = tree.snapshot().nbytes()
    if engine is None:
        # Untimed warm-up: one pass over the panel (its own perturbation)
        # fills the snapshot engine's pair-bound memo, a cache every
        # long-lived index has; cold, the first pass costs ~1.6x a warm one.
        for q in inputs.perturb(run.sites, run.args.seed * 1000 + 999):
            searcher.search(ds.make_query(Point(q.x, q.y), q.text), q.k)
    if reg is not None:
        run.log["registry_before"] = reg.snapshot()
    started = time.perf_counter()
    i = 0
    for r in run.rounds(started):
        for q in run.round_panel(r):
            run.log["ops"].append(_read(run, searcher, ds, q, i))
            i += 1
    wall = time.perf_counter() - started
    if reg is not None:
        run.log["registry_after"] = reg.snapshot()
    return run.finish(searcher._resolve_engine(None), wall)


def live_mixed(run: Run) -> Dict[str, Any]:
    """Reads beside a 50/50 insert/delete stream on one ``LiveIndex``."""
    from repro import IURTree, LiveIndex, RSTkNNSearcher, SimilarityConfig, STDataset
    from repro.spatial import Point

    import inputs

    corpus = run.points()
    cfg = SimilarityConfig(alpha=run.cfg["alpha"])
    live = reg = None
    for _ in range(run.args.setups):
        if live is not None:
            live.close()
            live = searcher = None
        gc.collect()
        reg = run.registry()
        with run.span("setup", rid="setup"):
            t0 = time.perf_counter()
            ds = STDataset.from_corpus(corpus)
            live = LiveIndex(
                IURTree.build(ds), metrics=reg, freeze_threshold=FREEZE_THRESHOLD
            )
            live.snapshot()
            searcher = RSTkNNSearcher(live, config=cfg, metrics=reg)
            run.log["setup_s"].append(time.perf_counter() - t0)
    run.log["objects"] = [obj_row(o) for o in ds.objects]
    run.log["max_distance"] = ds.proximity.max_distance
    run.log["snapshot_bytes"] = live.snapshot().nbytes()
    if reg is not None:
        run.log["registry_before"] = reg.snapshot()
    stream = inputs.WriteStream(run.records, run.args.seed)
    ops = run.log["ops"]
    started = time.perf_counter()
    i = 0
    try:
        for r in run.rounds(started):
            # One round: READS_PER_ROUND reads of the site (fresh
            # perturbations), each followed by WRITES_PER_READ writes,
            # then writes until the overlay size triggers the fold.
            site = run.sites[run.cfg["site"]]
            for q in inputs.perturb([site] * READS_PER_ROUND, run.args.seed * 1000 + r):
                ops.append(_read(run, searcher, ds, q, i, dirty=live.overlay_dirty))
                i += 1
                for _ in range(WRITES_PER_READ):
                    ops.append(_write(run, live, stream, i))
                    i += 1
            while live.pending() < FREEZE_THRESHOLD:
                ops.append(_write(run, live, stream, i))
                i += 1
            with run.span("op.fold", rid=f"f{i}"):
                t0 = time.perf_counter()
                swapped = live.freeze_step()
                ops.append({"kind": "fold", "t": time.perf_counter() - t0, "ok": swapped})
            i += 1
        wall = time.perf_counter() - started
        if reg is not None:
            run.log["registry_after"] = reg.snapshot()
    finally:
        live.close()
    return run.finish("seed|snapshot", wall)


def http_open(run: Run) -> Dict[str, Any]:
    """Open-loop HTTP traffic against ``server.py`` in its own process."""
    import asyncio

    from repro import STDataset

    import inputs

    # The generator weights the pool against its own copy of the corpus
    # (outside any timing) so the oracle sees the server's query vectors.
    ds = STDataset.from_corpus(run.points())
    run.log["objects"] = [obj_row(o) for o in ds.objects]
    run.log["max_distance"] = ds.proximity.max_distance
    from repro.spatial import Point

    pool = run.sites
    run.log["pool"] = [
        (q.x, q.y, vec_of(ds.make_query(Point(q.x, q.y), q.text)), q.k) for q in pool
    ]
    due = inputs.arrivals(HTTP_ARRIVAL_SEED, HTTP_RATE_PER_S, run.args.seconds)
    if run.args.max_ops:
        due = due[: run.args.max_ops]
    draws = inputs.zipf_requests(run.args.seed, len(due), len(pool))
    work = os.path.dirname(run.args.out)
    server = None
    try:
        for attempt in range(run.args.setups):
            if server is not None:
                server.stop()
            server = Server(work, attempt, run.args.trace)
            run.log["setup_s"].append(server.start())
        # Untimed warm-up: each pool site the schedule asks for, once and
        # perturbed (so no answer repeats a measured one), fills the
        # engines' pair-bound memos the way a long-running server has them.
        warm = inputs.perturb(pool, run.args.seed * 1000 + 999)
        asked = sorted(set(draws))
        run.log["warm_ops"] = asyncio.run(
            _load(server.port, warm, [0.0] * len(asked), asked, "u")
        )["ops"]
        results = asyncio.run(_load(server.port, pool, due, draws, "r"))
        run.log["ops"] = results["ops"]
        wall = results["wall"]
        server_log = server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()
    run.log["server"] = server_log
    run.log["peak_rss_mb"] = server_log["peak_rss_mb"]
    return run.finish(server_log["engine"], wall)


class Server:
    """One ``server.py`` process: start until ``/healthz`` answers, stop."""

    def __init__(self, work: str, attempt: int, trace: int) -> None:
        self.port_file = os.path.join(work, f"server{attempt}.port")
        self.out = os.path.join(work, f"server{attempt}.pkl")
        for path in (self.port_file, self.out):
            if os.path.exists(path):
                os.remove(path)
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for ``/healthz``; returns the set-up seconds."""
        import asyncio

        from repro.shard.http import fetch_json

        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             "--port-file", self.port_file, "--out", self.out,
             "--trace", str(self.trace)],
            stdout=sys.stderr,
            env=dict(os.environ),
        )
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if os.path.exists(self.port_file):
                with open(self.port_file) as fh:
                    text = fh.read().strip()
                if text:
                    self.port = int(text)
                    try:
                        status, _ = asyncio.run(fetch_json("127.0.0.1", self.port, "/healthz"))
                    except OSError:
                        status = 0
                    if status == 200:
                        return time.perf_counter() - t0
            if time.perf_counter() - t0 > 120:
                raise RuntimeError("server did not become healthy in 120 s")
            time.sleep(0.005)

    def stop(self) -> Dict[str, Any]:
        """SIGTERM, wait, and return the server's own log."""
        proc, self.proc = self.proc, None
        if proc is None:
            return {}
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not os.path.exists(self.out):
            raise RuntimeError(f"server ended with {proc.returncode} and no log")
        with open(self.out, "rb") as fh:
            return pickle.load(fh)


async def _load(
    port: int, pool, due: List[float], draws: List[int], prefix: str
) -> Dict[str, Any]:
    """Send each request at its due time over at most two connections;
    request ids are ``prefix`` + position."""
    import asyncio

    from repro.shard.http import fetch_json

    loop_start = time.perf_counter()
    ops: List[Optional[Dict[str, Any]]] = [None] * len(due)
    queue: "asyncio.Queue[int]" = asyncio.Queue()
    for i in range(len(due)):
        queue.put_nowait(i)

    async def client() -> None:
        while True:
            try:
                i = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            q = pool[draws[i]]
            at = loop_start + due[i]
            delay = at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            body = {
                "x": q.x, "y": q.y, "text": q.text, "k": q.k,
                "deadline_seconds": HTTP_DEADLINE_S, "request_id": f"{prefix}{i}",
            }
            sent = time.perf_counter()
            try:
                status, payload = await fetch_json("127.0.0.1", port, "/search", body)
            except OSError as exc:
                status, payload = 0, {"error": f"{type(exc).__name__}: {exc}"}
            done = time.perf_counter()
            ops[i] = {
                "kind": "read", "t": done - at, "rtt": done - sent,
                "late": sent - at, "status": status, "pool": draws[i],
                "ids": payload.get("ids", []), "stats": payload.get("stats", {}),
                "rid": f"{prefix}{i}", "error": payload.get("error"),
            }

    clients = [asyncio.create_task(client()) for _ in range(HTTP_CONNECTIONS)]
    for task in clients:
        await task
    return {"ops": ops, "wall": time.perf_counter() - loop_start}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETTINGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setups", type=int, default=1)
    ap.add_argument("--max-ops", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    exit_on_sigterm()
    clear_repro_env()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    run = Run(args)
    if args.workload == "exact_read":
        log = static_reads(run, None)
    elif args.workload == "profile_read":
        log = static_reads(run, "approx")
    elif args.workload == "live_mixed":
        log = live_mixed(run)
    else:
        log = http_open(run)
    with open(args.out, "wb") as fh:
        pickle.dump(log, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
