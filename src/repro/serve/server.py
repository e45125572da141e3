"""The asyncio verification server.

One process, one event loop, three front doors on a single port:

* **NDJSON over TCP** — the native protocol (see
  :mod:`repro.serve.protocol`); connections are persistent and
  pipelined one request at a time per line.
* **HTTP/1.1 shim** — ``GET /healthz``, ``GET /metrics`` (Prometheus
  text format) and ``POST /v1/verify`` (the NDJSON request object as a
  JSON body).  The shim is deliberately minimal: one request per
  connection, enough for curl, load balancers and scrapers.
* **Signals** — SIGTERM/SIGINT trigger a graceful drain: stop
  accepting, fast-reject new requests, finish everything in flight,
  compact the cache, exit 0.

The request path is three asynchronous stages, each designed so the
event loop never blocks on verification work:

1. **plan** (worker thread): parse the rule text and decompose it into
   content-addressed refinement jobs;
2. **admit**: per-connection token bucket, then the global queue-depth
   bound — a request whose *new* jobs would not fit is rejected with
   ``overloaded`` + ``retry_after`` *before* buffering anything;
3. **resolve**: each unique job is answered by the persistent cache
   (fast path, no dispatch), an identical in-flight job's future
   (dedup), or the micro-batcher, which coalesces concurrent clients
   into shared engine dispatches running in a worker thread.

The failure model is explicit (see README "Failure model"): a
per-connection **read deadline** reaps slowloris clients, frames are
**bounded** in size and rejected in-band when oversize, malformed
requests get structured ``bad_request`` errors, and a **circuit
breaker** around engine dispatch fast-fails requests at admission
while the engine is broken — with ``/healthz`` and ``/metrics``
deliberately outside all of it, so the server stays observable while
on fire.  Every defense exports a counter via ``/metrics``.
"""

from __future__ import annotations

import asyncio
import json
import signal
from functools import partial
from typing import Dict, List, Optional, Tuple

from .. import chaos
from ..core.config import Config, DEFAULT_CONFIG
from ..engine import (EngineStats, ResultCache, Scheduler, aggregate_plan,
                      plan_transformation, submit_jobs)
from ..engine.cache import semantics_fingerprint
from ..ir import AliveError, parse_transformations
from .batcher import MicroBatcher
from .breaker import CircuitBreaker
from .metrics import Metrics
from .protocol import (ERR_BAD_REQUEST, ERR_OVERLOADED, ERR_RATE_LIMITED,
                       MAX_LINE_BYTES, ProtocolError, decode, encode,
                       error_response, ok_response, result_to_wire)
from .ratelimit import TokenBucket

_HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ",
                 b"OPTIONS ")

#: hard cap on HTTP header lines per request (header-flood defense)
_MAX_HTTP_HEADERS = 100


class ServeOptions:
    """Tunables of one server instance (the ``repro serve`` flags)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7341,
                 jobs: int = 1, max_batch: int = 16,
                 max_wait_ms: float = 20.0, queue_depth: int = 256,
                 rate: float = 0.0, burst: Optional[float] = None,
                 max_retries: int = 1, read_timeout: float = 30.0,
                 max_frame_bytes: int = MAX_LINE_BYTES,
                 breaker_threshold: int = 5,
                 breaker_reset: float = 10.0,
                 node_id: Optional[str] = None,
                 join: Optional[str] = None,
                 heartbeat_interval: float = 2.0):
        self.host = host
        self.port = port
        self.jobs = max(1, jobs)
        self.max_batch = max(1, max_batch)
        self.max_wait_ms = max(0.0, max_wait_ms)
        self.queue_depth = max(1, queue_depth)
        self.rate = rate
        self.burst = burst
        self.max_retries = max(0, max_retries)
        #: seconds a connection may sit mid-frame before being reaped
        #: (slowloris defense; 0 disables)
        self.read_timeout = max(0.0, read_timeout)
        #: largest request frame the server will buffer
        self.max_frame_bytes = max(1024, int(max_frame_bytes))
        self.breaker_threshold = max(1, breaker_threshold)
        self.breaker_reset = max(0.0, breaker_reset)
        #: cluster identity (``--node-id``); labels every metric sample
        self.node_id = node_id
        #: path of a shared cluster membership file (``--join``)
        self.join = join
        self.heartbeat_interval = max(0.1, heartbeat_interval)


class VerifyServer:
    """Verification-as-a-service on top of :mod:`repro.engine`."""

    def __init__(self, config: Config = DEFAULT_CONFIG,
                 cache: Optional[ResultCache] = None,
                 options: Optional[ServeOptions] = None):
        self.config = config
        self.cache = cache
        self.options = options or ServeOptions()
        self.node_id = self.options.node_id
        self.metrics = Metrics(
            labels={"node": self.node_id} if self.node_id else None)
        #: this node's membership incarnation (from the file registry)
        self.generation = 0
        self._registry = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        #: engine-side counters aggregated across every dispatch
        self.stats = EngineStats()
        self.scheduler = Scheduler(jobs=self.options.jobs,
                                   max_retries=self.options.max_retries)
        self.batcher = MicroBatcher(self._dispatch,
                                    max_batch=self.options.max_batch,
                                    max_wait_ms=self.options.max_wait_ms)
        #: fast-fails requests at admission while dispatch is broken
        self.breaker = CircuitBreaker(
            threshold=self.options.breaker_threshold,
            reset_after=self.options.breaker_reset)
        self.fingerprint = cache.fingerprint if cache is not None \
            else semantics_fingerprint()
        self.draining = False
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._active_requests = 0
        self._idle: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._writers: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; sets :attr:`port`."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.options.host, self.options.port,
            limit=self.options.max_frame_bytes)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.options.join:
            self._join_cluster()

    # ------------------------------------------------------------------
    # Cluster membership (``repro serve --join``)
    # ------------------------------------------------------------------

    def _join_cluster(self) -> None:
        """Register in the shared membership file; start heartbeating."""
        # imported lazily: repro.cluster imports repro.serve.client
        from ..cluster.registry import FileRegistry
        if self.node_id is None:
            self.node_id = "node-%d" % self.port
            self.metrics.labels["node"] = self.node_id
        self._registry = FileRegistry(self.options.join)
        addr = "%s:%d" % (self.options.host, self.port)
        self.generation = self._registry.join(self.node_id, addr)
        self.metrics.set_gauge("serve_node_generation", self.generation)
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())

    async def _heartbeat_loop(self) -> None:
        """Refresh this node's registry stamp; rejoin if pruned.

        A node that stalls long enough to be pruned by a coordinator
        comes back as a *new incarnation* (fresh generation), so any
        reply stamped with its old generation is correctly discarded.
        """
        addr = "%s:%d" % (self.options.host, self.port)
        loop = asyncio.get_running_loop()
        while not self.draining:
            await asyncio.sleep(self.options.heartbeat_interval)
            if self.draining:
                break
            try:
                alive = await loop.run_in_executor(
                    None, self._registry.heartbeat, self.node_id)
                if not alive:
                    self.generation = await loop.run_in_executor(
                        None, self._registry.join, self.node_id, addr)
                    self.metrics.set_gauge("serve_node_generation",
                                           self.generation)
            except OSError:  # pragma: no cover - registry unwritable
                pass

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.drain()))
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    async def run(self) -> None:
        """Start (if needed), serve until :meth:`drain` completes."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, then stop.

        Idempotent.  Order matters: stop accepting connections first,
        mark draining (new requests on existing connections fast-reject
        with ``overloaded``), wait for active requests to resolve —
        the batcher keeps flushing throughout — then stop the batcher
        and compact the cache so the next server starts from a tidy
        file.
        """
        if self.draining:
            return
        self.draining = True
        self.metrics.set_gauge("serve_draining", 1)
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        if self._registry is not None:
            try:
                self._registry.leave(self.node_id)
            except OSError:  # pragma: no cover - registry unwritable
                pass
        if self._server is not None:
            self._server.close()
        await self._idle.wait()
        await self.batcher.drain()
        if self.cache is not None:
            self.cache.compact()
        for writer in list(self._writers):
            writer.close()
        self._stopped.set()

    def _enter_request(self) -> None:
        self._active_requests += 1
        self._idle.clear()
        self.metrics.set_gauge("serve_inflight_requests",
                               self._active_requests)

    def _leave_request(self) -> None:
        self._active_requests -= 1
        self.metrics.set_gauge("serve_inflight_requests",
                               self._active_requests)
        if self._active_requests == 0:
            self._idle.set()

    # ------------------------------------------------------------------
    # Engine bridge
    # ------------------------------------------------------------------

    async def _dispatch(self, payloads: List[dict]) -> Dict[str, dict]:
        """One micro-batch → one engine dispatch, off the event loop.

        Every outcome — success or failure — is reported to the
        circuit breaker; a raise here resolves the batch's waiters to
        transient ``unknown`` outcomes (the batcher's contract) and,
        repeated, opens the breaker so later requests fail fast at
        admission instead.
        """
        self.metrics.inc("serve_batches_total")
        self.metrics.observe_batch(len(payloads))
        loop = asyncio.get_running_loop()
        stats = EngineStats()
        opens_before = self.breaker.opens
        try:
            spec = chaos.fire("serve.dispatch", jobs=len(payloads))
            if spec is not None and spec.kind == chaos.KIND_ERROR:
                raise RuntimeError("chaos: injected dispatch failure")
            outcomes = await loop.run_in_executor(None, partial(
                submit_jobs, payloads,
                cache=self.cache, stats=stats,
                max_retries=self.options.max_retries,
                scheduler=self.scheduler,
            ))
        except Exception:
            self.metrics.inc("serve_dispatch_failures_total")
            self.breaker.record_failure()
            self.metrics.inc("serve_breaker_open_total",
                             self.breaker.opens - opens_before)
            self.metrics.set_gauge("serve_breaker_state",
                                   self.breaker.gauge)
            raise
        self.breaker.record_success()
        self.metrics.set_gauge("serve_breaker_state", self.breaker.gauge)
        self.stats.merge(stats)
        self.metrics.inc("serve_jobs_executed_total", stats.jobs_executed)
        return outcomes

    def _plan(self, rules: str, config: Config):
        """Parse + decompose (runs in a worker thread)."""
        transformations = parse_transformations(rules)
        return [plan_transformation(t, config, self.fingerprint)
                for t in transformations]

    def _config_for(self, knobs: dict) -> Config:
        if not knobs:
            return self.config
        merged = self.config.to_dict()
        unknown = set(knobs) - set(merged)
        if unknown:
            raise ValueError("unknown knobs: %s" % ", ".join(sorted(unknown)))
        merged.update(knobs)
        return Config.from_dict(merged)

    def _retry_after(self) -> float:
        """Backpressure hint: roughly one queue-clearing time."""
        backlog_batches = (self.batcher.pending
                          // max(1, self.options.max_batch) + 1)
        per_batch = max(self.stats.p50, 0.05)
        return min(5.0, backlog_batches * per_batch)

    # ------------------------------------------------------------------
    # Request handling (shared by NDJSON and HTTP POST)
    # ------------------------------------------------------------------

    async def handle_request(self, obj: dict,
                             bucket: Optional[TokenBucket] = None) -> dict:
        req_id = obj.get("id")
        if self.draining:
            return error_response(req_id, ERR_OVERLOADED,
                                  detail="server is draining",
                                  retry_after=1.0)
        if not self.breaker.allow():
            self.metrics.inc("serve_breaker_rejections_total")
            return error_response(
                req_id, ERR_OVERLOADED,
                detail="engine dispatch circuit breaker open",
                retry_after=max(0.05, self.breaker.retry_after()))
        if bucket is not None:
            wait = bucket.try_acquire()
            if wait > 0:
                self.metrics.inc("serve_rate_limited_total")
                return error_response(req_id, ERR_RATE_LIMITED,
                                      detail="per-connection rate limit",
                                      retry_after=wait)
        if "cache_put" in obj:
            return self._handle_cache_put(obj, req_id)
        loop = asyncio.get_running_loop()
        start = loop.time()
        self._enter_request()
        try:
            response = await (self._handle_jobs(obj, req_id)
                              if "jobs" in obj
                              else self._handle_rules(obj, req_id))
        finally:
            self._leave_request()
        if response["ok"]:
            self.metrics.inc("serve_requests_total")
            self.metrics.observe_latency(loop.time() - start)
        return response

    async def _handle_rules(self, obj: dict, req_id) -> dict:
        """Verify Alive rule text: plan it, resolve the jobs, aggregate
        each rule's verdict."""
        rules = obj.get("rules")
        if not isinstance(rules, str) or not rules.strip():
            self.metrics.inc("serve_bad_requests_total")
            return error_response(req_id, ERR_BAD_REQUEST,
                                  detail="missing 'rules' text")
        knobs = obj.get("knobs") or {}
        if not isinstance(knobs, dict):
            self.metrics.inc("serve_bad_requests_total")
            return error_response(req_id, ERR_BAD_REQUEST,
                                  detail="'knobs' must be an object")
        try:
            config = self._config_for(knobs)
        except (ValueError, TypeError) as e:
            self.metrics.inc("serve_bad_requests_total")
            return error_response(req_id, ERR_BAD_REQUEST, detail=str(e))
        try:
            plans = await asyncio.get_running_loop().run_in_executor(
                None, self._plan, rules, config)
        except AliveError as e:
            self.metrics.inc("serve_bad_requests_total")
            return error_response(req_id, ERR_BAD_REQUEST, detail=str(e))

        unique: Dict[str, dict] = {}
        for plan in plans:
            for job in plan.jobs:
                unique.setdefault(job.key, job.payload())

        def respond(outcomes: Dict[str, dict], req_stats: dict) -> dict:
            self.metrics.inc("serve_rules_total", len(plans))
            return ok_response(req_id, [
                result_to_wire(aggregate_plan(plan, outcomes))
                for plan in plans], req_stats)

        return await self._resolve(req_id, unique, respond)

    async def _resolve(self, req_id, unique: Dict[str, dict],
                       respond) -> dict:
        """Resolve deduplicated job payloads (key -> payload) and answer
        with ``respond(outcomes, req_stats)``: the one path of both the
        ``rules`` and the ``jobs`` requests.

        Admission control counts only the jobs that would *add*
        buffered work — cache hits and coalescible keys are free; then
        each key is a cache hit, joins an in-flight dispatch or is
        submitted to the micro-batcher.
        """
        new_jobs = [
            key for key in unique
            if not self.batcher.is_inflight(key)
            and (self.cache is None or self.cache.get(key) is None)
        ]
        if self.batcher.pending + len(new_jobs) > self.options.queue_depth:
            self.metrics.inc("serve_overloaded_total")
            return error_response(req_id, ERR_OVERLOADED,
                                  detail="queue depth exceeded",
                                  retry_after=self._retry_after())

        outcomes: Dict[str, dict] = {}
        waiters: List[Tuple[str, asyncio.Future]] = []
        req_stats = {"jobs": len(unique), "cache_hits": 0, "coalesced": 0}
        for key, payload in unique.items():
            entry = self.cache.get(key) if self.cache is not None else None
            if entry is not None:
                self.metrics.inc("serve_cache_hits_total")
                self.stats.cache_hits += 1
                req_stats["cache_hits"] += 1
                outcomes[key] = entry["outcome"]
                continue
            future, fresh = self.batcher.submit(payload)
            if not fresh:
                self.metrics.inc("serve_dedup_total")
                req_stats["coalesced"] += 1
            waiters.append((key, future))
        self.metrics.inc("serve_jobs_total", len(unique))
        self._update_queue_gauges()
        if waiters:
            resolved = await asyncio.gather(
                *(future for _, future in waiters))
            outcomes.update(
                (key, outcome)
                for (key, _), outcome in zip(waiters, resolved))
            self._update_queue_gauges()
        return respond(outcomes, req_stats)

    # ------------------------------------------------------------------
    # Cluster operations (coordinator → node)
    # ------------------------------------------------------------------

    async def _handle_jobs(self, obj: dict, req_id) -> dict:
        """Resolve pre-planned job payloads (a coordinator's chunk).

        The sharded counterpart of the ``rules`` path: the coordinator
        already planned the corpus, so this node receives raw payloads
        and returns a ``key → outcome`` map.  Both take
        :meth:`_resolve`, so a forwarded chunk and a curl of the same
        rule coalesce onto one dispatch.
        """
        payloads = obj.get("jobs")
        if not isinstance(payloads, list) or not payloads or not all(
                isinstance(p, dict) and isinstance(p.get("key"), str)
                and isinstance(p.get("text"), str)
                and isinstance(p.get("knobs"), dict)
                for p in payloads):
            self.metrics.inc("serve_bad_requests_total")
            return error_response(req_id, ERR_BAD_REQUEST,
                                  detail="'jobs' must be a non-empty list "
                                         "of job payloads")
        shard = obj.get("shard") or self.node_id or "unknown"
        self.metrics.inc_labeled("cluster_forwarded_total",
                                 {"shard": shard})
        if obj.get("hedged"):
            self.metrics.inc_labeled("cluster_hedged_total",
                                     {"shard": shard})

        unique: Dict[str, dict] = {}
        for payload in payloads:
            unique.setdefault(payload["key"], payload)
        return await self._resolve(
            req_id, unique, lambda outcomes, req_stats: {
                "id": req_id, "ok": True, "outcomes": outcomes,
                "stats": req_stats})

    def _handle_cache_put(self, obj: dict, req_id) -> dict:
        """Install replicated verdict entries (write-through tier).

        Every entry is re-validated (CRC, fingerprint, shape) by
        :meth:`~repro.engine.cache.ResultCache.install` — a corrupted
        replica is rejected and counted, never adopted.
        """
        entries = obj.get("cache_put")
        if not isinstance(entries, list):
            self.metrics.inc("serve_bad_requests_total")
            return error_response(req_id, ERR_BAD_REQUEST,
                                  detail="'cache_put' must be a list")
        installed = 0
        rejected = 0
        for entry in entries:
            if self.cache is not None and self.cache.install(entry):
                installed += 1
            else:
                rejected += 1
        self.metrics.inc("cluster_replicated_total", installed)
        self.metrics.inc("cluster_replica_rejected_total", rejected)
        return {"id": req_id, "ok": True, "installed": installed,
                "rejected": rejected}

    def _update_queue_gauges(self) -> None:
        self.metrics.set_gauge("serve_queue_depth",
                               self.batcher.queue_depth)
        self.metrics.set_gauge("serve_inflight_jobs", self.batcher.pending)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _read_line(self, reader: asyncio.StreamReader) -> bytes:
        """One frame line, bounded in both time and size.

        Raises ``asyncio.TimeoutError`` when the client stalls past the
        read deadline (slowloris) and ``ValueError`` when the line
        exceeds the stream limit (oversize frame) — the connection
        handler converts both into counted, structured rejections.
        """
        timeout = self.options.read_timeout or None
        return await asyncio.wait_for(reader.readline(), timeout)

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.metrics.inc("serve_connections_total")
        self._writers.add(writer)
        bucket = TokenBucket(self.options.rate, self.options.burst) \
            if self.options.rate and self.options.rate > 0 else None
        try:
            line = await self._read_line(reader)
            if not line:
                return
            if line.startswith(_HTTP_METHODS):
                await self._handle_http(line, reader, writer)
                return
            while line:
                await self._handle_line(line, writer, bucket)
                line = await self._read_line(reader)
        except asyncio.TimeoutError:
            # slowloris defense: a stalled client is reaped, never
            # allowed to pin a connection handler open indefinitely
            self.metrics.inc("serve_read_timeouts_total")
        except ValueError:
            # StreamReader signals a line beyond the frame bound with
            # ValueError; reject in-band, then close
            self.metrics.inc("serve_oversize_frames_total")
            self.metrics.inc("serve_bad_requests_total")
            try:
                writer.write(encode(error_response(
                    None, ERR_BAD_REQUEST,
                    detail="frame exceeds %d bytes"
                    % self.options.max_frame_bytes)))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_line(self, line: bytes, writer: asyncio.StreamWriter,
                           bucket: Optional[TokenBucket]) -> None:
        if not line.strip():
            return
        spec = chaos.fire("serve.read_frame")
        if spec is not None and spec.kind == chaos.KIND_DELAY:
            await asyncio.sleep(float(spec.args.get("seconds", 0.05)))
        try:
            obj = decode(line)
        except ProtocolError as e:
            self.metrics.inc("serve_bad_requests_total")
            response = error_response(None, ERR_BAD_REQUEST, detail=str(e))
        else:
            response = await self.handle_request(obj, bucket)
        writer.write(encode(response))
        await writer.drain()

    # ------------------------------------------------------------------
    # HTTP shim
    # ------------------------------------------------------------------

    async def _handle_http(self, request_line: bytes,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            method, target, _version = \
                request_line.decode("latin1").split(None, 2)
        except ValueError:
            await self._http_reply(writer, 400, "text/plain",
                                   "bad request line\n")
            return
        headers = {}
        while True:
            if len(headers) >= _MAX_HTTP_HEADERS:
                await self._http_reply(writer, 400, "text/plain",
                                       "too many headers\n")
                return
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            self.metrics.inc("serve_bad_requests_total")
            await self._http_reply(writer, 400, "text/plain",
                                   "bad Content-Length\n")
            return
        if length < 0 or length > self.options.max_frame_bytes:
            self.metrics.inc("serve_oversize_frames_total")
            self.metrics.inc("serve_bad_requests_total")
            await self._http_reply(writer, 413, "text/plain",
                                   "body exceeds %d bytes\n"
                                   % self.options.max_frame_bytes)
            return
        body = b""
        if length:
            timeout = self.options.read_timeout or None
            body = await asyncio.wait_for(reader.readexactly(length),
                                          timeout)

        if method == "GET" and target == "/healthz":
            pool_stats = self.scheduler.total_stats
            payload = {
                "status": "draining" if self.draining else "ok",
                "inflight_requests": self._active_requests,
                "queue_depth": self.batcher.queue_depth,
                "pending_jobs": self.batcher.pending,
                "breaker": self.breaker.state,
                "node_id": self.node_id,
                "generation": self.generation,
                "pool": {
                    "workers": self.options.jobs,
                    "dispatches": pool_stats.dispatches,
                    "crashes": pool_stats.crashes,
                    "timeouts": pool_stats.timeouts,
                },
            }
            await self._http_reply(writer, 200, "application/json",
                                   json.dumps(payload, sort_keys=True) + "\n")
        elif method == "GET" and target == "/metrics":
            self._update_queue_gauges()
            text = self.metrics.render(extra_gauges=self._engine_gauges())
            await self._http_reply(
                writer, 200, "text/plain; version=0.0.4", text)
        elif method == "POST" and target == "/v1/verify":
            try:
                obj = decode(body)
            except ProtocolError as e:
                self.metrics.inc("serve_bad_requests_total")
                response = error_response(None, ERR_BAD_REQUEST,
                                          detail=str(e))
            else:
                response = await self.handle_request(obj)
            status = 200
            extra = []
            if response.get("error") == ERR_OVERLOADED:
                status = 503
                extra = [("Retry-After",
                          "%g" % response.get("retry_after", 1.0))]
            elif response.get("error") == ERR_RATE_LIMITED:
                status = 429
                extra = [("Retry-After",
                          "%g" % response.get("retry_after", 1.0))]
            elif response.get("error") == ERR_BAD_REQUEST:
                status = 400
            await self._http_reply(
                writer, status, "application/json",
                json.dumps(response, sort_keys=True) + "\n", extra)
        else:
            await self._http_reply(writer, 404, "text/plain",
                                   "not found\n")

    def _engine_gauges(self) -> Dict[str, float]:
        """Engine + scheduler snapshots re-exported for /metrics."""
        gauges = {}
        for name, value in self.stats.to_dict().items():
            if isinstance(value, (int, float)):
                gauges["engine_%s" % name] = value
        for name, value in self.scheduler.total_stats.to_dict().items():
            gauges["engine_scheduler_%s" % name] = value
        if self.cache is not None:
            gauges["engine_cache_entries"] = len(self.cache)
        return gauges

    async def _http_reply(self, writer: asyncio.StreamWriter, status: int,
                          content_type: str, body: str,
                          extra_headers=()) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   413: "Payload Too Large", 429: "Too Many Requests",
                   503: "Service Unavailable"}
        payload = body.encode("utf-8")
        head = ["HTTP/1.1 %d %s" % (status, reasons.get(status, "Error")),
                "Content-Type: %s" % content_type,
                "Content-Length: %d" % len(payload),
                "Connection: close"]
        head.extend("%s: %s" % pair for pair in extra_headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin1")
                     + payload)
        await writer.drain()


async def serve_until_signalled(server: VerifyServer,
                                announce=None) -> None:
    """CLI entry: start, announce the bound address, run until drained."""
    await server.start()
    server.install_signal_handlers()
    if announce is not None:
        announce(server)
    await server.run()
