"""The simplification job server: versioned HTTP API over a job store.

Stdlib only (``http.server`` + threads) -- the service adds no
dependencies beyond what the library already needs.  One
:class:`SimplifyService` owns the durable state (job store, result
cache, content-addressed netlist store, worker pool) and exposes the
transport-free operations; :class:`_Handler` is a thin HTTP adapter
mapping routes to those operations and taxonomy errors
(:mod:`repro.core.errors`) to their stable status codes + JSON bodies.

API (version prefix ``/v1``; bodies are JSON unless noted):

========================== ============================================
``POST /v1/jobs``          submit -- ``{"request": {...},
                           "netlist": "<bench text>"}`` or
                           ``{"request": ..., "netlist_sha256": "..."}``.
                           202 + job snapshot (200 when served from
                           cache or deduplicated against a live job).
``GET /v1/jobs``           list job snapshots.
``GET /v1/jobs/<id>``      one snapshot: state, attempts, live
                           ``progress`` block while running.
``GET /v1/jobs/<id>/result`` the full ``SimplifyOutcome`` JSON; 409
                           while the job is active.
``GET /v1/jobs/<id>/events`` long-poll journal/progress deltas:
                           ``?offset=N&wait=S`` returns events past
                           the cursor (or waits up to ``S`` seconds
                           for new ones); the streaming feed behind
                           ``ServiceClient.stream()`` / ``repro top``.
``GET /v1/jobs/<id>/trace`` the job's assembled Chrome trace
                           (queue-wait + attempt spans + runner
                           iteration spans; Perfetto-loadable).
``DELETE /v1/jobs/<id>``   request cancellation (cooperative).
``POST /v1/netlists``      upload a netlist once; returns its sha256
                           for hash-only submissions.
``GET /v1/metrics``        OpenMetrics exposition (service counters,
                           queue/cache gauges, and the SLO latency
                           histograms -- queue-wait, attempt,
                           end-to-end, cache-hit).
``GET /v1/healthz``        liveness + version/schema info.
========================== ============================================

Submissions are content-addressed: a request whose
``(circuit, request)`` cache key matches a completed run is answered
from the result cache without queueing; one matching a queued/running
job coalesces onto that job.  Either way a million identical submits
cost one simplification.

Every submission carries a correlation id: the ``X-Repro-Trace-Id``
request header (or a ``trace_id`` in the request body, or a generated
uuid when neither is given) is echoed in the response header and
snapshot, written to the structured service logs
(``<data_dir>/logs/``, see :mod:`repro.service.slog`), persisted in
the job's ``request.json`` and stamped by the runner into its journal
header and telemetry events -- one grep joins the whole distributed
lifetime of a job.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .. import __version__
from ..circuit import loads_bench
from ..core.api import SCHEMA_VERSION, _TRACE_ID_RE, SimplifyRequest
from ..core.errors import (
    CompileError,
    InvalidRequestError,
    JobCancelledError,
    ReproError,
    ResultNotReadyError,
    ServiceUnavailableError,
    UnknownNetlistError,
    error_body,
    error_from_body,
)
from ..fileio import atomic_write_text
from ..obs.core import Instrumentation
from ..obs.flight import cluster_errors
from ..obs.metrics_export import render_openmetrics
from .cache import ResultCache, cache_key
from .jobs import (
    ACTIVE_STATES,
    TERMINAL_STATES,
    Job,
    JobStore,
    job_chrome_trace,
    job_error_record,
    job_journal_events,
)
from .runner import _bench_name
from .slog import ServiceLog
from .workers import WorkerPool

__all__ = ["SimplifyService", "create_server", "serve"]

logger = logging.getLogger("repro.service")

_JSON = "application/json; charset=utf-8"
_OPENMETRICS = "application/openmetrics-text; version=1.0.0; charset=utf-8"
_TRACE_HEADER = "X-Repro-Trace-Id"

#: Long-poll bounds for ``GET /v1/jobs/<id>/events``: the requested
#: ``wait`` is clamped to this many seconds (keep-alive friendly --
#: well under common 30 s proxy timeouts), checked at this cadence.
_EVENTS_MAX_WAIT_S = 25.0
_EVENTS_POLL_S = 0.1


class SimplifyService:
    """Transport-free core of the job server (the handler calls this).

    Owns the data dir layout::

        <data_dir>/
          jobs/<id>/...     # per-job state (see repro.service.jobs)
          cache/<key>.json  # content-addressed outcome cache
          netlists/<sha>.bench  # content-addressed netlist store
    """

    def __init__(
        self,
        data_dir: str,
        workers: int = 2,
        queue_limit: int = 64,
        max_attempts: int = 3,
        obs: Optional[Instrumentation] = None,
        hang_timeout_s: Optional[float] = None,
        log_max_bytes: Optional[int] = None,
        log_keep: int = 3,
    ) -> None:
        self.data_dir = os.path.abspath(data_dir)
        self.obs = obs if obs is not None else Instrumentation()
        self.log = ServiceLog(
            os.path.join(self.data_dir, "logs"),
            max_bytes=log_max_bytes,
            keep=log_keep,
        )
        self.store = JobStore(
            self.data_dir,
            queue_limit=queue_limit,
            max_attempts=max_attempts,
            obs=self.obs,
            on_transition=self._on_job_transition,
        )
        self.cache = ResultCache(os.path.join(self.data_dir, "cache"))
        self.netlists_dir = os.path.join(self.data_dir, "netlists")
        os.makedirs(self.netlists_dir, exist_ok=True)
        self.pool = WorkerPool(
            self.store,
            self.cache,
            workers=workers,
            obs=self.obs,
            on_attempt=self._on_attempt,
            hang_timeout_s=hang_timeout_s,
        )
        self.started_unix = time.time()

    def start(self) -> None:
        self.pool.start()

    def stop(self) -> None:
        self.pool.stop()
        self.log.close()

    # -- observability hooks ---------------------------------------------
    def _on_job_transition(self, kind: str, job: Job) -> None:
        """Lifecycle observer: structured log line + SLO histograms.

        Fired by the job store after every state edge (outside its
        lock).  ``started`` on the first attempt closes the queue-wait
        window; any terminal edge closes the end-to-end window."""
        now = time.time()
        if kind == "started" and job.attempts == 1:
            self.obs.observe_latency(
                "slo.queue_wait_seconds", now - job.submitted_unix
            )
        elif kind in TERMINAL_STATES:
            finished = job.finished_unix if job.finished_unix is not None else now
            self.obs.observe_latency(
                "slo.e2e_seconds", finished - job.submitted_unix
            )
        self.log.event(
            kind,
            job_id=job.id,
            trace_id=job.trace_id,
            state=job.state,
            attempt=job.attempts,
            circuit=job.circuit_name,
        )

    def _on_attempt(self, job: Job, record: Dict) -> None:
        """Per-attempt observer from the worker pool."""
        self.obs.observe_latency(
            "slo.attempt_seconds", record["ended_unix"] - record["started_unix"]
        )
        self.log.event(
            "attempt",
            job_id=job.id,
            trace_id=job.trace_id,
            attempt=record["attempt"],
            outcome=record["outcome"],
            duration_s=round(record["ended_unix"] - record["started_unix"], 6),
        )

    # -- netlist store ---------------------------------------------------
    def store_netlist(self, text: str) -> str:
        """Store bench text content-addressed; returns its sha256."""
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        path = os.path.join(self.netlists_dir, f"{sha}.bench")
        if not os.path.exists(path):
            atomic_write_text(path, text)
        return sha

    def netlist_text(self, sha: str) -> str:
        if not isinstance(sha, str) or not sha.isalnum():
            raise InvalidRequestError(f"bad netlist_sha256: {sha!r}")
        path = os.path.join(self.netlists_dir, f"{sha}.bench")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        except FileNotFoundError:
            raise UnknownNetlistError(
                f"no stored netlist with sha256 {sha}; upload it via "
                f"POST /v1/netlists or submit with a 'netlist' body"
            ) from None

    # -- operations --------------------------------------------------------
    def submit(self, payload: Any, trace_id: Optional[str] = None) -> Tuple[int, Dict]:
        """Handle one submission; returns ``(http_status, job snapshot)``.

        ``trace_id`` is the transport-level correlation id (the
        ``X-Repro-Trace-Id`` header); it beats a ``trace_id`` inside the
        request body, and a uuid is minted when neither is given, so
        every job has one."""
        if not isinstance(payload, dict):
            raise InvalidRequestError("submit body must be a JSON object")
        t0 = time.perf_counter()
        request = SimplifyRequest.from_dict(payload.get("request") or {})
        if trace_id is not None and not _TRACE_ID_RE.match(trace_id):
            raise InvalidRequestError(
                f"invalid {_TRACE_HEADER} header: {trace_id!r} "
                f"(want 1-128 chars of [A-Za-z0-9._-])"
            )
        trace_id = trace_id or request.trace_id or uuid.uuid4().hex
        request = request.replace(trace_id=trace_id)
        netlist = payload.get("netlist")
        sha = payload.get("netlist_sha256")
        if netlist is not None:
            if not isinstance(netlist, str):
                raise InvalidRequestError("'netlist' must be bench text")
            sha = self.store_netlist(netlist)
        elif sha is not None:
            netlist = self.netlist_text(sha)
        else:
            raise InvalidRequestError(
                "submit body needs 'netlist' (bench text) or 'netlist_sha256'"
            )
        name = payload.get("name") or _bench_name(netlist)
        try:
            circuit = loads_bench(netlist, name=name)
        except ValueError as exc:
            raise CompileError(f"netlist does not parse: {exc}") from exc

        key = cache_key(circuit, request)
        if key in self.cache:
            job = self.store.complete_from_cache(request, key, circuit.name)
            self.obs.incr("service.cache_hits")
            self.obs.observe_latency(
                "slo.cache_hit_seconds", time.perf_counter() - t0
            )
            logger.info("%s served from cache (%s)", job.id, circuit.name)
            status = 200
        else:
            job = self.store.submit(request, netlist, key, circuit.name)
            if job.deduplicated:
                self.obs.incr("service.jobs_deduplicated")
                logger.info("submission coalesced onto %s", job.id)
                status = 200
            else:
                self.obs.incr("service.jobs_submitted")
                logger.info("%s queued (%s)", job.id, circuit.name)
                status = 202
        body = job.snapshot()
        body["netlist_sha256"] = sha
        return status, body

    def result_text(self, job_id: str) -> str:
        """The stored ``SimplifyOutcome`` JSON for a finished job."""
        job = self.store.get(job_id)
        if job.state in ACTIVE_STATES:
            raise ResultNotReadyError(
                f"{job.id} is {job.state}; poll GET /v1/jobs/{job.id}"
            )
        if job.state == "cancelled":
            raise JobCancelledError(f"{job.id} was cancelled")
        if job.state == "failed":
            raise error_from_body(job.error or {})
        text = self.cache.get(job.cache_key)
        if text is None:
            try:
                with open(job.outcome_path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except FileNotFoundError:
                raise ServiceUnavailableError(
                    f"{job.id} finished but its result is missing from the "
                    f"cache; resubmit to recompute"
                ) from None
        return text

    def cancel(self, job_id: str) -> Dict:
        job = self.store.cancel(job_id)
        if job.state in ACTIVE_STATES:
            self.obs.incr("service.cancel_requests")
        return job.snapshot()

    def job_events(self, job_id: str, offset: int = 0, wait: float = 0.0) -> Dict:
        """Long-poll the job's journal event stream past ``offset``.

        The cursor is an event *index* into the fixed-order
        concatenation of the job's journal files (see
        :func:`~repro.service.jobs.job_journal_events`).  When no event
        past the cursor exists yet, blocks up to ``wait`` seconds
        (clamped to ``_EVENTS_MAX_WAIT_S``) for one to appear or for
        the job to reach a terminal state -- the server side of
        ``ServiceClient.stream()``.
        """
        job = self.store.get(job_id)
        offset = max(int(offset), 0)
        wait = min(max(float(wait), 0.0), _EVENTS_MAX_WAIT_S)
        deadline = time.monotonic() + wait
        self.obs.incr("service.event_polls")
        while True:
            events = job_journal_events(job)
            terminal = job.state in TERMINAL_STATES
            if len(events) > offset or terminal or time.monotonic() >= deadline:
                break
            time.sleep(_EVENTS_POLL_S)
        body: Dict = {
            "job_id": job.id,
            "trace_id": job.trace_id,
            "state": job.state,
            "offset": offset,
            "next_offset": max(len(events), offset),
            "events": events[offset:],
            "complete": job.state in TERMINAL_STATES,
        }
        progress = job.progress()
        if progress is not None:
            body["progress"] = progress
        return body

    def job_trace(self, job_id: str) -> Dict:
        """The job's assembled Chrome trace (``/v1/jobs/<id>/trace``)."""
        return job_chrome_trace(self.store.get(job_id))

    def metrics_text(self) -> str:
        snap = self.obs.snapshot()
        gauges = dict(snap.get("gauges") or {})
        jobs = self.store.list()
        gauges["service.queue_depth"] = self.store.queue_depth
        gauges["service.workers"] = self.pool.workers
        gauges["service.uptime_s"] = time.time() - self.started_unix
        gauges["service.cache_entries"] = len(self.cache)
        for state in ACTIVE_STATES + TERMINAL_STATES:
            gauges[f"service.jobs_{state}"] = sum(
                1 for j in jobs if j.state == state
            )
        return render_openmetrics(
            {
                "timers": snap.get("timers") or {},
                "counters": snap.get("counters") or {},
                "gauges": gauges,
                "histograms": snap.get("histograms") or {},
            },
            info={"service": "repro-simplify", "version": __version__},
        )

    def errors_summary(self, limit: int = 10) -> Dict:
        """Fleet-wide error clusters (``GET /v1/errors``).

        Scans every known job for a crash bundle or typed error.json,
        groups by fingerprint (:mod:`repro.obs.flight`) and returns the
        top-``limit`` clusters with first/last seen and sample
        trace/job ids.  Bundles from since-recovered jobs count too: a
        hang that resumed successfully is still an incident.
        """
        jobs = self.store.list()
        records = []
        for job in jobs:
            record = job_error_record(job)
            if record is not None:
                records.append(record)
        return {
            "clusters": cluster_errors(records, limit=limit),
            "errors_total": len(records),
            "jobs_scanned": len(jobs),
            "generated_unix": time.time(),
        }

    def health(self) -> Dict:
        return {
            "status": "ok",
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "workers": self.pool.workers,
            "queue_depth": self.store.queue_depth,
            "uptime_s": time.time() - self.started_unix,
        }


class _Handler(BaseHTTPRequestHandler):
    """Route table + error mapping; all state lives on ``server.service``."""

    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------
    @property
    def service(self) -> SimplifyService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:  # quiet by default
        # The record of note is the structured access log
        # (<data_dir>/logs/access.jsonl, written by _route); this stays
        # debug-only for humans tailing a terminal.
        logger.debug("%s %s", self.address_string(), fmt % args)

    def _send(
        self,
        status: int,
        text: str,
        content_type: str = _JSON,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = text.encode("utf-8")
        self._sent_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, body: Dict) -> None:
        # Job-scoped responses echo the correlation id as a header too,
        # so clients that never parse the body can still join logs.
        trace_id = body.get("trace_id") if isinstance(body, dict) else None
        headers = None
        if isinstance(trace_id, str) and trace_id:
            self._trace_id = trace_id
            headers = {_TRACE_HEADER: trace_id}
        self._send(
            status,
            json.dumps(body, indent=2, sort_keys=True) + "\n",
            headers=headers,
        )

    def _send_error_obj(self, exc: ReproError) -> None:
        self._send_json(exc.http_status, error_body(exc))

    def _not_found(self) -> None:
        self._send_json(
            404,
            {
                "error": {
                    "code": "not_found",
                    "message": f"no route for {self.command} {self.path}",
                    "status": 404,
                }
            },
        )

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise InvalidRequestError("request body is empty")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidRequestError(f"body is not valid JSON: {exc}") from exc

    def _route(self, handler) -> None:
        svc = self.service
        t0 = time.perf_counter()
        self._sent_status: Optional[int] = None
        self._trace_id: Optional[str] = self.headers.get(_TRACE_HEADER)
        try:
            try:
                handler()
            except (BrokenPipeError, ConnectionResetError):
                raise  # not ours to answer -- the client is gone
            except ReproError as exc:
                self._send_error_obj(exc)
            except Exception as exc:  # noqa: BLE001 - map to a 500 body
                logger.exception(
                    "unhandled error serving %s %s", self.command, self.path
                )
                self._send_error_obj(ReproError(f"internal error: {exc}"))
        except (BrokenPipeError, ConnectionResetError):
            # The peer hung up mid-response (a poller that timed out, a
            # killed `repro top`).  Routine, not an error: count it,
            # drop the connection, no stack-trace spam.
            svc.obs.incr("service.client_disconnects")
            logger.debug(
                "client %s disconnected during %s %s",
                self.client_address[0],
                self.command,
                self.path,
            )
            self.close_connection = True
        finally:
            try:
                svc.log.access(
                    self.command,
                    self.path,
                    self._sent_status or 0,
                    (time.perf_counter() - t0) * 1e3,
                    trace_id=self._trace_id,
                    client=self.client_address[0],
                )
            except Exception:  # noqa: BLE001 - logging never kills a request
                logger.debug("access log write failed", exc_info=True)

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._route(self._get)

    def do_POST(self) -> None:  # noqa: N802
        self._route(self._post)

    def do_DELETE(self) -> None:  # noqa: N802
        self._route(self._delete)

    @staticmethod
    def _query_params(query: str) -> Dict[str, str]:
        """Parse ``a=1&b=2`` (last value wins; no URL decoding needed
        for the numeric offset/wait parameters this API takes)."""
        params: Dict[str, str] = {}
        for pair in query.split("&"):
            if "=" in pair:
                name, _, value = pair.partition("=")
                params[name] = value
        return params

    def _get(self) -> None:
        svc = self.service
        path, _, query = self.path.partition("?")
        path = path.rstrip("/")
        if path == "/v1/healthz":
            self._send_json(200, svc.health())
        elif path == "/v1/metrics":
            self._send(200, svc.metrics_text(), content_type=_OPENMETRICS)
        elif path == "/v1/errors":
            params = self._query_params(query)
            try:
                limit = int(params.get("limit") or 10)
            except ValueError as exc:
                raise InvalidRequestError(f"limit must be an integer: {exc}") from exc
            self._send_json(200, svc.errors_summary(limit=limit))
        elif path == "/v1/jobs":
            self._send_json(
                200, {"jobs": [j.snapshot() for j in svc.store.list()]}
            )
        elif path.startswith("/v1/jobs/") and path.endswith("/result"):
            job_id = path[len("/v1/jobs/") : -len("/result")]
            self._send(200, svc.result_text(job_id))
        elif path.startswith("/v1/jobs/") and path.endswith("/events"):
            job_id = path[len("/v1/jobs/") : -len("/events")]
            params = self._query_params(query)
            try:
                offset = int(params.get("offset") or 0)
                wait = float(params.get("wait") or 0.0)
            except ValueError as exc:
                raise InvalidRequestError(
                    f"offset/wait must be numeric: {exc}"
                ) from exc
            self._send_json(200, svc.job_events(job_id, offset=offset, wait=wait))
        elif path.startswith("/v1/jobs/") and path.endswith("/trace"):
            job_id = path[len("/v1/jobs/") : -len("/trace")]
            job = svc.store.get(job_id)
            if job.trace_id:
                self._trace_id = job.trace_id
            self._send(
                200,
                json.dumps(svc.job_trace(job_id), sort_keys=True) + "\n",
            )
        elif path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/") :]
            self._send_json(200, svc.store.get(job_id).snapshot())
        else:
            self._not_found()

    def _post(self) -> None:
        svc = self.service
        path = self.path.rstrip("/")
        if path == "/v1/jobs":
            status, body = svc.submit(
                self._read_json(), trace_id=self.headers.get(_TRACE_HEADER)
            )
            self._send_json(status, body)
        elif path == "/v1/netlists":
            payload = self._read_json()
            if not isinstance(payload, dict) or not isinstance(
                payload.get("netlist"), str
            ):
                raise InvalidRequestError(
                    "body must be {'netlist': '<bench text>'}"
                )
            sha = svc.store_netlist(payload["netlist"])
            self._send_json(201, {"netlist_sha256": sha})
        else:
            self._not_found()

    def _delete(self) -> None:
        path = self.path.rstrip("/")
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/") :]
            self._send_json(202, self.service.cancel(job_id))
        else:
            self._not_found()


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    data_dir: str = ".repro-service",
    workers: int = 2,
    queue_limit: int = 64,
    max_attempts: int = 3,
    obs: Optional[Instrumentation] = None,
    hang_timeout_s: Optional[float] = None,
    log_max_bytes: Optional[int] = None,
    log_keep: int = 3,
) -> Tuple[ThreadingHTTPServer, SimplifyService]:
    """Build a bound (not yet serving) server + its started service.

    ``port=0`` binds an ephemeral port (read it back from
    ``httpd.server_address[1]``) -- the shape the tests and the
    throughput benchmark use.  The worker pool is already running when
    this returns; stop it with ``service.stop()``.
    """
    service = SimplifyService(
        data_dir,
        workers=workers,
        queue_limit=queue_limit,
        max_attempts=max_attempts,
        obs=obs,
        hang_timeout_s=hang_timeout_s,
        log_max_bytes=log_max_bytes,
        log_keep=log_keep,
    )
    httpd = ThreadingHTTPServer((host, port), _Handler)
    httpd.daemon_threads = True
    httpd.service = service  # type: ignore[attr-defined]
    service.start()
    return httpd, service


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    data_dir: str = ".repro-service",
    workers: int = 2,
    queue_limit: int = 64,
    max_attempts: int = 3,
    hang_timeout_s: Optional[float] = None,
    log_max_bytes: Optional[int] = None,
    log_keep: int = 3,
) -> None:
    """Run the job server until interrupted (the ``repro serve`` body)."""
    httpd, service = create_server(
        host,
        port,
        data_dir=data_dir,
        workers=workers,
        queue_limit=queue_limit,
        max_attempts=max_attempts,
        hang_timeout_s=hang_timeout_s,
        log_max_bytes=log_max_bytes,
        log_keep=log_keep,
    )
    bound = httpd.server_address
    logger.info(
        "repro service v%s listening on http://%s:%d (data dir %s, %d workers)",
        __version__,
        bound[0],
        bound[1],
        service.data_dir,
        workers,
    )
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        logger.info("shutting down")
    finally:
        service.stop()
        httpd.server_close()


def serve_in_thread(**kwargs: Any) -> Tuple[ThreadingHTTPServer, SimplifyService, threading.Thread]:
    """Test/benchmark helper: a serving server on a background thread."""
    httpd, service = create_server(**kwargs)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd, service, thread
