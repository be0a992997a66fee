"""In-memory spans around the calls into each layer of ``repro``.

Wrappers are installed from the benchmark's own files by replacing the
public entry point of each layer on its class or module (nothing under
``src/`` changes).  A span records ``(id, parent, request id, name,
start_ns, end_ns, attrs)``; the parent and request id travel in a
context variable, which is per thread in synchronous code and per task
under asyncio.  Two hops do not carry a context on their own:

* ``loop.run_in_executor`` in the HTTP server: the query object built in
  the request's task is mapped to that task's context and picked up by
  the ``ShardQueryService.serve`` wrapper in the executor thread;
* the shard worker pool: spans inside worker processes are not
  recorded (that layer is listed as untraced; its segment sizes are
  still measured at ``SharedSnapshotSegment.create``).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, int, Optional[str], str, int, int, Dict[str, Any]]

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, 0)
)


class Tracer:
    """Collects spans in memory; :meth:`install` wraps the layers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._handoff: Dict[int, Tuple[Optional[str], int]] = {}

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[str] = None, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record one span; ``rid`` starts a new request id."""
        cur_rid, parent = _CURRENT.get()
        sid = next(self._ids)
        token = _CURRENT.set((rid if rid is not None else cur_rid, sid))
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            _CURRENT.reset(token)
            with self._lock:
                self.spans.append(
                    (sid, parent, rid if rid is not None else cur_rid, name, start, end, attrs)
                )

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[Tuple[Any, ...], Any, Dict[str, Any]], None]] = None,
    ) -> None:
        """Wrap ``owner.attr`` (function, method, static- or classmethod).

        ``after(args, result, attrs)`` may add counts to the span.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                with tracer.span(name, **tracer._rid_from(args)) as at:
                    result = await fn(*args, **kwargs)
                    if after is not None:
                        after(args, result, at)
                    return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(name) as at:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(args, result, at)
                    return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    @staticmethod
    def _rid_from(args: Tuple[Any, ...]) -> Dict[str, Any]:
        """The request id a client put in an HTTP body (``request_id``)."""
        import json

        for arg in args:
            if isinstance(arg, (bytes, bytearray)):
                try:
                    rid = json.loads(arg.decode("utf-8")).get("request_id")
                except (ValueError, AttributeError):
                    return {}
                return {"rid": str(rid)} if rid is not None else {}
        return {}

    def hand_off(self, owner: Any, attr: str) -> None:
        """Map the object ``owner.attr`` returns to the caller's context."""
        raw = getattr(owner, attr)
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            result = raw(*args, **kwargs)
            with tracer._lock:
                tracer._handoff[id(result)] = _CURRENT.get()
            return result

        setattr(owner, attr, wrapper)

    def pick_up(self, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr(self, obj, ...)``, resuming ``obj``'s context."""
        raw = getattr(owner, attr)
        tracer = self

        @functools.wraps(raw)
        def wrapper(this, obj, *args, **kwargs):
            with tracer._lock:
                ctx = tracer._handoff.pop(id(obj), None)
            token = _CURRENT.set(ctx) if ctx is not None else None
            try:
                with tracer.span(name):
                    return raw(this, obj, *args, **kwargs)
            finally:
                if token is not None:
                    _CURRENT.reset(token)

        setattr(owner, attr, wrapper)

    # -- layer map ------------------------------------------------------

    def install(self, server: bool = False) -> None:
        """Wrap the public entry point of every layer."""
        from repro.approx import engine as approx_engine
        from repro.approx import sketch
        from repro.core.fused import FusedBatchEngine
        from repro.core.rstknn import RSTkNNSearcher
        from repro.core.traversal import SnapshotEngine
        from repro.index.iurtree import IURTree
        from repro.lsm.live import LiveIndex
        from repro.model.dataset import STDataset
        from repro.perf.shm import SharedSnapshotSegment
        from repro.perf.snapshot import IndexSnapshot

        self.wrap(STDataset, "from_corpus", "model.from_corpus")
        self.wrap(IURTree, "build", "index.build")
        self.wrap(IURTree, "snapshot", "snapshot.get")
        self.wrap(IndexSnapshot, "text_matrix", "snapshot.text_matrix")
        self.wrap(sketch, "build_sketch", "sketch.build", after=_sketch_size)
        self.wrap(RSTkNNSearcher, "search", "searcher.search")
        self.wrap(SnapshotEngine, "search", "engine.search", after=_engine_stats)
        self.wrap(FusedBatchEngine, "run_group", "engine.run_group", after=_engine_stats)
        self.wrap(approx_engine.ApproxEngine, "search", "approx.search", after=_approx_filter)
        self.wrap(LiveIndex, "insert", "lsm.insert")
        self.wrap(LiveIndex, "delete_object", "lsm.delete")
        self.wrap(LiveIndex, "freeze_step", "lsm.freeze")
        self.wrap(SharedSnapshotSegment, "create", "shm.create", after=_segment_size)
        if server:
            from repro.service.service import QueryService
            from repro.shard.http import ShardHttpServer, ShardQueryService
            from repro.shard.merge import ShardProbe
            from repro.shard.scatter import ScatterGatherSearcher

            self.wrap(ShardHttpServer, "_search", "http.search")
            self.hand_off(ShardQueryService, "make_query")
            self.pick_up(ShardQueryService, "serve", "service.serve")
            self.wrap(QueryService, "serve", "service.shard_serve")
            self.wrap(ScatterGatherSearcher, "_admit", "shard.admit")
            self.wrap(ScatterGatherSearcher, "_merge", "shard.merge")
            self.wrap(ShardProbe, "count_better", "shard.count_better")

    def dump(self) -> List[List[Any]]:
        """Spans as JSON-friendly lists."""
        with self._lock:
            return [list(s) for s in self.spans]


def _sketch_size(args: Tuple[Any, ...], result: Any, attrs: Dict[str, Any]) -> None:
    attrs["bytes"] = result.nbytes()


def _segment_size(args: Tuple[Any, ...], result: Any, attrs: Dict[str, Any]) -> None:
    attrs["bytes"] = result.nbytes


def _engine_stats(args: Tuple[Any, ...], result: Any, attrs: Dict[str, Any]) -> None:
    results = result if isinstance(result, list) else [result]
    for key in ("expansions", "verified_objects", "verify_node_reads"):
        attrs[key] = sum(getattr(r.stats, key) for r in results)
    attrs["decided"] = sum(r.stats.group_decided_objects() for r in results)


def _approx_filter(args: Tuple[Any, ...], result: Any, attrs: Dict[str, Any]) -> None:
    attrs.update(args[0].last_filter)


# -- analysis -----------------------------------------------------------


def self_times(spans: List[List[Any]]) -> Dict[int, int]:
    """Span id -> self time (ns): duration minus the union of the
    intervals its children cover."""
    kids: Dict[int, List[Tuple[int, int]]] = {}
    for sid, parent, _rid, _name, start, end, _attrs in spans:
        if parent:
            kids.setdefault(parent, []).append((start, end))
    out: Dict[int, int] = {}
    for sid, _parent, _rid, _name, start, end, _attrs in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids.get(sid, [])):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out
