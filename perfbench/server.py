"""The ``http_open`` server: the sharded stack behind ``ShardHttpServer``.

Started by ``program.py`` in its own process.  It builds S = 4 Morton
shards of the corpus, a ``ScatterGatherSearcher`` with a two-process
worker pool over shared-memory segments, a ``ShardQueryService`` with a
per-request deadline and the HTTP front door — the same composition as
``repro-rstknn serve-http``, through public constructors only.  One
warm-up query builds every lazily built artifact (pool, segments,
engines) before the port is published, so ``/healthz`` answering means
the first query is answerable.  On SIGTERM it stops, joins the pool and
writes its log (resource usage, sizes, and when traced the spans and a
metrics-registry snapshot) to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import pickle
import resource
import signal
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Shard count and worker processes of the serving stack.
SHARDS = 4
WORKERS = 2


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--port-file", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from program import HTTP_DEADLINE_S, SETTINGS, clear_repro_env, exit_on_sigterm, provenance

    exit_on_sigterm()
    clear_repro_env()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(server=True)

    import inputs
    from repro import SimilarityConfig, STDataset
    from repro.obs import MetricsRegistry
    from repro.shard import ScatterGatherSearcher, build_sharded_index
    from repro.shard.http import ShardHttpServer, ShardQueryService
    from repro.spatial import Point

    cfg = SETTINGS["http_open"]
    records = inputs.corpus()
    corpus = [(Point(x, y), t) for x, y, t in records]
    reg = MetricsRegistry() if tracer is not None else None
    span = tracer.span if tracer is not None else _no_span
    log: Dict[str, Any] = {}
    # The stack closes the worker pool on every way out, SIGTERM included.
    with contextlib.ExitStack() as stack:
        with span("setup", rid="setup"):
            ds = STDataset.from_corpus(corpus)
            with span("shard.build"):
                index = build_sharded_index(ds, SHARDS)
            searcher = ScatterGatherSearcher(
                index,
                config=SimilarityConfig(alpha=cfg["alpha"]),
                workers=WORKERS,
                share="shm",
                metrics=reg,
            )
            stack.callback(searcher.close)
            service = ShardQueryService(searcher, deadline_seconds=HTTP_DEADLINE_S, metrics=reg)
            warm = inputs.panel(records, -cfg["panel"], 1, cfg["ks"])[0]
            result, _ = service.serve(service.make_query(warm.x, warm.y, warm.text), warm.k)
        log["warmup_stats"] = result.stats.as_dict()
        log["snapshot_bytes"] = sum(shard.snapshot().nbytes() for shard in index)
        if reg is not None:
            log["registry_before"] = reg.snapshot()
        server = ShardHttpServer(service, host="127.0.0.1", port=0, metrics=reg)
        asyncio.run(_serve(server, args.port_file))
    if reg is not None:
        log["registry_after"] = reg.snapshot()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    # RUSAGE_CHILDREN reports the largest joined worker; the pool's
    # workers hold the same segments, so each is counted at that peak.
    log["peak_rss_mb"] = own + WORKERS * workers
    log["engine"] = "shard:" + ",".join(service.services[0].chain)
    log["meta"] = provenance(log["engine"])
    if tracer is not None:
        log["spans"] = tracer.dump()
    with open(args.out, "wb") as fh:
        pickle.dump(log, fh)
    return 0


async def _serve(server, port_file: str) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    await server.start()
    tmp = port_file + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(str(server.port))
    os.replace(tmp, port_file)
    try:
        await stop.wait()
    finally:
        await server.stop()


def _no_span(name: str, rid: Optional[str] = None):
    del name, rid
    return contextlib.nullcontext({})


if __name__ == "__main__":
    sys.exit(main())
