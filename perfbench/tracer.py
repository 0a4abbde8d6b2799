#!/usr/bin/env python3
"""Traced launcher: run ``repro`` with spans around each layer's entry points.

Usage::

    python3 perfbench/tracer.py SPANS.json -- <repro arguments>

The launcher wraps the functions below at the module attributes the program
calls them through, then invokes ``repro.cli.main`` with the arguments.
Nothing inside ``src/`` changes.  Each span records a name, start, end,
parent span and request id; spans are kept in memory and written as JSON to
``SPANS.json`` when the process exits, with the sample pools' and parallel
engines' own counters.  ``per_layer`` (called by ``run.py``) folds the files
of one traced run into the per-layer metrics.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

_clock = time.perf_counter
_spans: list[tuple] = []
_ids = itertools.count(1)
_requests = itertools.count(1)
_current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
_thread = threading.local()
_enqueued: dict[int, tuple[float, int]] = {}
# Strong references: a tenant's pool must outlive its service's shutdown so
# its counters can be read at exit.
_pools: list = []
_engines: list = []
# Forked sampling workers inherit the atexit hook; only this process writes.
_owner = os.getpid()


def _record(name: str, start: float, end: float, span: int, parent, **extra) -> None:
    _spans.append((span, name, start, end, parent, getattr(_thread, "request", None), extra))


def _traced(name: str, function, measure=None):
    """``function`` wrapped in a span; ``measure(args, kwargs, result)`` adds counts."""
    if inspect.iscoroutinefunction(function):
        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            span, parent = next(_ids), _current.get()
            token = _current.set(span)
            start = _clock()
            try:
                return await function(*args, **kwargs)
            finally:
                _current.reset(token)
                _record(name, start, _clock(), span, parent)
        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span, parent = next(_ids), _current.get()
        token = _current.set(span)
        start = _clock()
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            end = _clock()
            _current.reset(token)
            extra = measure(args, kwargs, result) if measure and result is not None else {}
            _record(name, start, end, span, parent, **extra)
    return wrapper


def _wrap(owner, attribute: str, name: str, measure=None) -> None:
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(_traced(name, raw.__func__, measure)))
    else:
        setattr(owner, attribute, _traced(name, raw, measure))


def _argument(args, kwargs, position: int, keyword: str):
    return kwargs[keyword] if keyword in kwargs else args[position]


def install() -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.cli as cli
    import repro.core.maximization as maximization
    import repro.core.problem as problem
    import repro.graph.compiled as compiled
    import repro.core.raf as raf
    import repro.diffusion.engine as engine
    import repro.parallel.engine as parallel
    import repro.pool.sample_pool as sample_pool
    import repro.service.query_service as query_service
    import repro.service.server as server

    _wrap(cli, "_load_graph", "graph.load")
    # The CSR snapshot of an in-memory graph, and the alias tables the
    # numpy-alias kernel builds from a snapshot on first use.
    _wrap(problem, "compile_graph", "graph.compile")
    _wrap(engine, "compile_graph", "graph.compile")
    _wrap(compiled.CompiledGraph, "alias_tables", "graph.alias")
    pmax_samples = lambda a, k, r: {"samples": r.num_samples}  # noqa: E731
    _wrap(raf, "estimate_pmax", "raf.pmax", pmax_samples)
    _wrap(query_service, "estimate_pmax", "raf.pmax", pmax_samples)
    _wrap(raf, "run_sampling_framework", "raf.sampling")
    _wrap(raf, "minimum_subset_cover", "setcover.msc")
    _wrap(maximization, "budgeted_trace_cover", "setcover.budgeted")
    _wrap(cli, "estimate_acceptance_probability", "evaluate.forward",
          lambda a, k, r: {"samples": r.num_samples})

    # Sampling kernels: a span per call, counting the paths asked for.
    count = lambda a, k, r: {"paths": _argument(a, k, 3, "count")}  # noqa: E731
    _wrap(engine.NumpyEngine, "sample_path_batch", "engine.sample", count)
    _wrap(engine.PythonEngine, "sample_paths", "engine.sample", count)
    seeded = lambda a, k, r: {  # noqa: E731
        "paths": sum(size for size, _ in _argument(a, k, 3, "sized_seeds")),
        "chunks": len(_argument(a, k, 3, "sized_seeds")),
    }
    _wrap(parallel.ParallelEngine, "sample_seeded_batches", "parallel.dispatch", seeded)
    _wrap(parallel.ParallelEngine, "sample_seeded_chunks", "parallel.dispatch", seeded)
    for method in ("sample_path_batch", "sample_paths", "sample_reduced"):
        _wrap(parallel.ParallelEngine, method, "parallel.dispatch",
              lambda a, k, r: {"paths": _argument(a, k, 3, "count"),
                               "chunks": -(-_argument(a, k, 3, "count") // a[0].chunk_size)})
    parallel_init = parallel.ParallelEngine.__init__

    def register_engine(self, *args, **kwargs):
        parallel_init(self, *args, **kwargs)
        _engines.append(self)
    parallel.ParallelEngine.__init__ = register_engine

    # The sample pool: reads (serve) with draws (engine work) as children.
    _wrap(sample_pool.SamplePool, "_serve_segment", "pool.serve")
    _wrap(sample_pool.SamplePool, "_extend", "pool.draw")
    pool_init = sample_pool.SamplePool.__init__

    def register_pool(self, *args, **kwargs):
        pool_init(self, *args, **kwargs)
        _pools.append(self)
    sample_pool.SamplePool.__init__ = register_pool

    # The service: queue wait from submit_async to submit, lock wait from
    # submit to execute_query, and the execution itself.
    submit_async = query_service.QueryService.submit_async

    async def traced_submit_async(self, query):
        _enqueued[id(query)] = (_clock(), next(_requests))
        return await submit_async(self, query)
    query_service.QueryService.submit_async = traced_submit_async
    submit = query_service.QueryService.submit

    def traced_submit(self, query):
        start = _clock()
        queued, request = _enqueued.pop(id(query), (None, None))
        _thread.request, _thread.submitted = request, start
        span = next(_ids)
        try:
            return submit(self, query)
        finally:
            extra = {} if queued is None else {"queue_wait": start - queued}
            _record("service.submit", start, _clock(), span, None, **extra)
            _thread.request = None
    query_service.QueryService.submit = traced_submit
    execute = query_service.execute_query

    def traced_execute(graph, query, pool):
        start = _clock()
        span, parent = next(_ids), _current.get()
        token = _current.set(span)
        try:
            return execute(graph, query, pool)
        finally:
            _current.reset(token)
            _record("service.exec", start, _clock(), span, parent,
                    lock_wait=start - getattr(_thread, "submitted", start))
    query_service.execute_query = traced_execute

    # Response encoding: to_jsonable plus the JSON dump of each response.
    _wrap(server, "to_jsonable", "server.jsonable")

    class _Json:
        dumps = staticmethod(_traced("server.dumps", json.dumps))

        def __getattr__(self, name):
            return getattr(json, name)
    server.json = _Json()


def _dump(path: Path) -> None:
    if os.getpid() != _owner:
        return
    pools = []
    for pool in _pools:
        stats = pool.stats()
        pools.append({"served": stats.served_paths, "drawn": stats.drawn_paths,
                      "evictions": stats.evictions})
    payload = {
        "spans": _spans,
        "pools": pools,
        "worker_crashes": sum(engine.worker_crashes for engine in _engines),
    }
    path.write_text(json.dumps(payload))


def launch(argv: list[str]) -> int:
    output, separator, *args = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <repro arguments>")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = _clock()
    span = next(_ids)
    import repro.cli

    _record("cli.import", start, _clock(), span, None)
    install()
    atexit.register(_dump, Path(output))
    return repro.cli.main(args)


# --------------------------------------------------------------------------- #
# Folding one traced run into per-layer metrics
# --------------------------------------------------------------------------- #


def _self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    own = {}
    for span in spans:
        covered, reach = 0.0, span[2]
        for child in sorted(children.get(span[0], []), key=lambda c: c[2]):
            lo, hi = max(child[2], reach), min(child[3], span[3])
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[span[0]] = span[3] - span[2] - covered
    return own


def per_layer(workload, trace_dir: Path) -> dict:
    spans, pools, crashes = [], [], 0
    for path in sorted(trace_dir.glob("*.json")):
        payload = json.loads(path.read_text())
        # Span ids restart in every process: qualify them by file.
        tag = path.stem
        for span_id, name, start, end, parent, request, extra in payload["spans"]:
            spans.append(((tag, span_id), name, start, end,
                          None if parent is None else (tag, parent), request, extra))
        pools.extend(payload["pools"])
        crashes += payload["worker_crashes"]
    own = _self_times(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    names = {s[0]: s[1] for s in spans}

    def median_ms(name: str) -> float:
        found = by_name.get(name, [])
        return statistics.median(s[3] - s[2] for s in found) * 1000.0 if found else 0.0

    def median_extra(name: str, key: str) -> float:
        found = [s[6][key] for s in by_name.get(name, []) if key in s[6]]
        return float(statistics.median(found)) if found else 0.0

    ops = max(1, workload.attempted)
    # Outermost sampling spans only: a parallel dispatch that falls back to
    # the in-process kernel must not count its paths twice.
    sampling = [s for s in by_name.get("engine.sample", []) + by_name.get("parallel.dispatch", [])
                if names.get(s[4]) not in ("engine.sample", "parallel.dispatch")]
    paths = sum(s[6].get("paths", 0) for s in sampling)
    busy = sum(s[3] - s[2] for s in sampling)
    served = sum(p["served"] for p in pools)
    drawn = sum(p["drawn"] for p in pools)
    submit = by_name.get("service.submit", [])
    quality = workload.quality
    client = workload.client_latencies
    client_p50 = statistics.median(client) * 1000.0 if client else 0.0
    metrics = {
        "cli.import_ms": (median_ms("cli.import"), "ms"),
        "graph.load_ms": (median_ms("graph.load"), "ms"),
        "graph.compile_ms": (median_ms("graph.compile") + median_ms("graph.alias"), "ms"),
        "raf.pmax_ms": (median_ms("raf.pmax"), "ms"),
        "raf.pmax_samples": (median_extra("raf.pmax", "samples"), "count"),
        "raf.sampling_ms": (median_ms("raf.sampling"), "ms"),
        "setcover.msc_ms": (median_ms("setcover.msc"), "ms"),
        "setcover.type1_sets": (float(statistics.median(workload.type1_sets))
                                if workload.type1_sets else 0.0, "count"),
        "setcover.budgeted_ms": (median_ms("setcover.budgeted"), "ms"),
        "raf.invitation_size": (statistics.mean(q[0] for q in quality) if quality else 0.0, "count"),
        "raf.achieved_ratio": (statistics.mean(q[1] for q in quality) if quality else 0.0, "ratio"),
        "evaluate.forward_ms": (median_ms("evaluate.forward"), "ms"),
        "evaluate.forward_samples": (median_extra("evaluate.forward", "samples"), "count"),
        "engine.paths": (paths / ops, "count"),
        "engine.busy_ms": (busy * 1000.0 / ops, "ms"),
        "engine.paths_per_s": (paths / busy if busy else 0.0, "1/s"),
        "parallel.dispatch_ms": (median_ms("parallel.dispatch"), "ms"),
        "parallel.chunks": (sum(s[6].get("chunks", 0) for s in by_name.get("parallel.dispatch", []))
                            / ops, "count"),
        "parallel.worker_crashes": (float(crashes), "count"),
        "parallel.worker_peak_rss_mb": (workload.layer.get("parallel.worker_peak_rss_mb", 0.0), "MB"),
        "pool.served_paths": (served / ops, "count"),
        "pool.drawn_paths": (drawn / ops, "count"),
        "pool.hit_ratio": (max(0.0, 1.0 - drawn / served) if served else 0.0, "ratio"),
        "pool.evictions": (sum(p["evictions"] for p in pools) / ops, "count"),
        "pool.serve_ms": (statistics.median(own[s[0]] for s in by_name["pool.serve"]) * 1000.0
                          if "pool.serve" in by_name else 0.0, "ms"),
        "service.queue_wait_ms": (median_extra("service.submit", "queue_wait") * 1000.0, "ms"),
        "service.lock_wait_ms": (median_extra("service.exec", "lock_wait") * 1000.0, "ms"),
        "service.exec_ms": (median_ms("service.exec"), "ms"),
        "server.overhead_ms": (client_p50 - median_ms("service.submit") if submit else 0.0, "ms"),
        "server.encode_ms": (median_ms("server.jsonable") + median_ms("server.dumps"), "ms"),
        "trace.latency_p50_ms": (client_p50, "ms"),
    }
    for name in ("service.executed", "service.coalesced", "service.rejected"):
        metrics[name] = (float(workload.layer.get(name, 0)), "count")
    metrics["service.reported_p50_ms"] = (workload.layer.get("service.reported_p50_ms", 0.0), "ms")
    return metrics


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
