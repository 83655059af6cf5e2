"""The always-on decision service: HTTP front end, worker pool, recovery.

Request path for ``POST /v1/plan``::

    handler thread                     worker thread
    --------------                     -------------
    auth + parse + deadline
    submit to bounded queue  ----->    take
      (full -> shed 503)               deadline still live?
    wait on task event                 admission vs core budget
      (deadline -> 504,                  (oversubscribed -> 503)
       mark abandoned)                 plan (decision engine)
                                       journal grant, then
    respond task.status    <-----      finish task

The grant is journalled *before* the response is sent, so a crash at any
point leaves the journal a prefix of the uninterrupted run's journal --
the invariant the crash-recovery byte-identity gate checks.  Shutdown
comes in two flavours: :meth:`drain` (graceful: stop accepting, finish
in-flight work, checkpoint the journal) and :meth:`kill` (abrupt: drop
everything, no checkpoint -- the chaos harness's crash button).
"""

import hmac
import http.server
import json
import socketserver
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Type

from repro.rpc.breaker import CircuitBreaker
from repro.service.budget import CoreBudgetLedger
from repro.service.config import ServiceConfig
from repro.service.journal import GrantRecord, PlanJournal, ReleaseRecord
from repro.service.planner import JobSpec, ServicePlanner
from repro.service.queue import BoundedWorkQueue, PlanTask, QueueFullError
from repro.telemetry.exporters import render_prometheus
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.logs import StructuredLogger
from repro.telemetry.registry import get_default_registry
from repro.telemetry.spans import TRACE_HEADER, Tracer, parse_trace_header

#: Extra seconds a handler waits past the request deadline before giving
#: up on the worker -- covers the response hand-off itself.
_DEADLINE_GRACE_S = 0.05

#: Disturbance hook signature: request index -> extra seconds of delay
#: injected before planning (the chaos brownout / CPU-drift lever).
Disturbance = Callable[[int], float]


class _ServiceHTTPServer(socketserver.ThreadingMixIn, http.server.HTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class DecisionService:
    """Serves offload plans to a fleet of trainers, robustly.

    clock/sleep are injectable (tests drive deadlines without real
    waiting where possible); ``disturbance`` lets the chaos harness
    inject per-request latency on a deterministic request-index axis.
    """

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        planner: Optional[ServicePlanner] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        disturbance: Optional[Disturbance] = None,
        breakers: Optional[Mapping[str, CircuitBreaker]] = None,
    ) -> None:
        self.config = config
        self.planner = (
            planner
            if planner is not None
            else ServicePlanner(cache_size=config.plan_cache_size)
        )
        self._clock = clock
        self._sleep = sleep
        self.disturbance = disturbance
        #: Full span stream when ``config.trace``; always None otherwise.
        self.tracer: Optional[Tracer] = Tracer(clock=clock) if config.trace else None
        #: Always-on bounded ring of recent spans + log records; the tee
        #: keeps the unbounded tracer in sync when tracing is enabled.
        self.flight = FlightRecorder(
            capacity=config.flight_capacity, clock=clock, tee=self.tracer
        )
        self.log = StructuredLogger(
            "repro.service", clock=clock, sink=self.flight.record_log
        )
        #: Circuit breakers surfaced in ``/v1/status`` (name -> breaker);
        #: the service only reads their transition history.
        self.breakers: Dict[str, CircuitBreaker] = dict(breakers or {})
        self.ledger = CoreBudgetLedger(config.total_storage_cores)
        self.queue = BoundedWorkQueue(config.queue_capacity, recorder=self.flight)
        self.planner.recorder = self.flight
        #: Idempotency map: job -> params_digest -> the grant already
        #: made.  Releasing a job drops its entries.
        self._grants: Dict[str, Dict[str, GrantRecord]] = {}
        self._seq = 1
        self._state_lock = threading.Lock()
        self._index_lock = threading.Lock()
        self._request_index = 0
        self._journal: Optional[PlanJournal] = None
        self.recovered_grants = 0
        if config.journal_path is not None:
            self._journal = PlanJournal(
                config.journal_path, sync=config.sync_journal,
                recorder=self.flight,
            )
            state = self._journal.recovered
            self.ledger.restore(state.committed)
            for grant in state.live_grants:
                self._grants.setdefault(grant.job, {})[grant.params_digest] = grant
            self._seq = state.next_seq
            self.recovered_grants = len(state.grants)
            if state.grants:
                self.log.info(
                    "recovered grants from journal",
                    grants=len(state.grants),
                    next_seq=self._seq,
                    committed_jobs=len(state.committed),
                    journal=config.journal_path,
                )
        self._draining = False
        self._killed = False
        self._ready = False
        self._stop_workers = threading.Event()
        self._workers: List[threading.Thread] = []
        self._httpd: Optional[_ServiceHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self.drain_seconds: Optional[float] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "DecisionService":
        if self._httpd is not None:
            raise ValueError("service already started")
        if self._killed:
            raise ValueError("service was killed; build a fresh one to restart")
        self._httpd = _ServiceHTTPServer(
            (self.config.host, self.config.port), _make_handler(self)
        )
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="service-http",
        )
        self._http_thread.start()
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, daemon=True, name=f"service-worker-{index}"
            )
            worker.start()
            self._workers.append(worker)
        self._ready = True
        host, port = self.address
        self.log.info("decision service listening", host=host, port=port)
        return self

    @property
    def address(self) -> Tuple[str, int]:
        if self._httpd is None:
            raise ValueError("service is not started")
        host, port = self._httpd.server_address[:2]
        return (str(host), int(port))

    @property
    def is_ready(self) -> bool:
        return self._ready and not self._draining and not self._killed

    def drain(self) -> float:
        """Graceful shutdown: stop accepting, finish in-flight, checkpoint.

        Returns the drain duration in (service-clock) seconds.  Idempotent.
        """
        if self._killed:
            raise ValueError("service was killed; nothing to drain")
        if self.drain_seconds is not None:
            return self.drain_seconds
        started = self._clock()
        self._draining = True
        self._ready = False
        self.queue.join()
        self._stop_all_workers()
        with self._state_lock:
            if self._journal is not None:
                # The fsync must happen under the lock: journal order is
                # seq order, which is what crash recovery byte-compares.
                self._journal.append_checkpoint(  # sophon-lint: disable=GUARD02
                    self._next_seq_locked(), self.ledger.committed()
                )
                self._journal.close()
        self._shutdown_http()
        self.drain_seconds = self._clock() - started
        get_default_registry().gauge(
            "service_drain_seconds", "duration of the last graceful drain"
        ).set(self.drain_seconds)
        self.log.info("drained", seconds=self.drain_seconds)
        self._dump_flight()
        return self.drain_seconds

    def kill(self) -> int:
        """Abrupt stop: no checkpoint, queued work dropped.  Returns drops.

        The closest an in-process service gets to ``kill -9``: the journal
        keeps exactly the grants made so far (each was durable before its
        response), and everything else is lost.  A fresh
        :class:`DecisionService` on the same journal path recovers.
        """
        self._killed = True
        self._ready = False
        self._shutdown_http()
        self._stop_all_workers()
        dropped = self.queue.drain_pending()
        if dropped:
            get_default_registry().counter(
                "service_shed_total", "plan requests shed by cause",
                labels=["cause"],
            ).inc(dropped, cause="killed")
        with self._state_lock:
            if self._journal is not None:
                self._journal.close()
        self.log.warning("service killed", dropped=dropped)
        self._dump_flight()
        return dropped

    def _dump_flight(self) -> None:
        """Write the flight-recorder timeline if the config asks for one."""
        if self.config.flight_path is not None:
            self.flight.dump(self.config.flight_path)

    def _stop_all_workers(self) -> None:
        self._stop_workers.set()
        self.queue.push_stop(len(self._workers))
        for worker in self._workers:
            worker.join(timeout=self.config.drain_timeout_s)
        self._workers = []

    def _shutdown_http(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None and self._http_thread.is_alive():
            self._http_thread.join(timeout=2.0)

    def __enter__(self) -> "DecisionService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        if not self._killed and self.drain_seconds is None:
            self.drain()

    # -- the worker side -----------------------------------------------------

    def _next_seq_locked(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _worker_loop(self) -> None:
        while True:
            task = self.queue.take(timeout=0.05)
            if task is None:
                if self._stop_workers.is_set():
                    return
                continue
            try:
                self._process(task)
            except Exception as exc:  # a worker must never die silently
                self.log.error(
                    "worker failed processing a task",
                    trace=task.trace_id,
                    error_type=type(exc).__name__,
                    error=str(exc),
                )
                task.finish(500, {"error": f"internal error: {exc}"},
                            outcome="internal_error")
            finally:
                self.queue.task_done()

    def _admission(self, decision: str) -> None:
        get_default_registry().counter(
            "service_admissions_total",
            "worker-side plan request outcomes",
            labels=["decision"],
        ).inc(decision=decision)

    def _process(self, task: PlanTask) -> None:
        trace = task.trace_id
        with self._index_lock:
            index = self._request_index
            self._request_index += 1
        if task.abandoned:
            self._admission("abandoned")
            if trace is not None:
                self.flight.instant(trace, "service.abandoned")
            return
        if task.deadline_at is not None and self._clock() >= task.deadline_at:
            self._admission("deadline_expired")
            if trace is not None:
                self.flight.instant(trace, "service.deadline_expired")
            task.finish(
                504,
                {"error": "deadline expired while queued"},
                outcome="deadline",
            )
            return
        if self.disturbance is not None:
            extra = self.disturbance(index)
            if extra > 0:
                self._sleep(extra)
        try:
            spec = JobSpec.from_request(task.request)
        except ValueError as exc:
            self._admission("bad_request")
            task.finish(400, {"error": str(exc)}, outcome="bad_request")
            return
        if spec.num_samples > self.config.max_samples:
            self._admission("bad_request")
            task.finish(
                400,
                {"error": (
                    f"num_samples {spec.num_samples} exceeds the service cap "
                    f"of {self.config.max_samples}"
                )},
                outcome="bad_request",
            )
            return
        digest = spec.params_digest()
        with self._state_lock:
            existing = self._grants.get(spec.job, {}).get(digest)
        if existing is not None and self.ledger.holds(spec.job) == existing.cores:
            # Idempotent replay: the client re-sent a request we already
            # granted (typically after a crash ate the response).
            self._admission("replayed")
            if trace is not None:
                self.flight.instant(
                    trace, "service.replayed", job=spec.job, seq=existing.seq
                )
            task.finish(200, self._grant_body(existing, replayed=True),
                        outcome="replayed")
            return
        if trace is not None:
            self.flight.begin(
                trace, "service.admission",
                job=spec.job, cores=spec.storage_cores,
            )
        decision = self.ledger.commit(spec.job, spec.storage_cores)
        if trace is not None:
            self.flight.end(
                trace, "service.admission", admitted=decision.admitted
            )
        if not decision.admitted:
            self._admission("budget_rejected")
            task.finish(
                503,
                {"error": decision.reason},
                outcome="budget",
                retry_after_s=self.config.retry_after_s,
            )
            return
        try:
            result = self.planner.plan(spec, trace=trace)
        except ValueError as exc:
            # Roll the commitment back to what it was before this request.
            if decision.previous_cores > 0:
                self.ledger.commit(spec.job, decision.previous_cores)
            else:
                self.ledger.release(spec.job)
            self._admission("bad_request")
            task.finish(400, {"error": str(exc)}, outcome="bad_request")
            return
        with self._state_lock:
            grant = GrantRecord(
                seq=self._next_seq_locked(),
                job=spec.job,
                params_digest=digest,
                cores=spec.storage_cores,
                splits=result.splits,
                reason=result.reason,
            )
            if self._journal is not None:
                # Sequenced-append invariant: the fsync'd journal line
                # must land in seq order, so it stays under the lock.
                self._journal.append_grant(grant, trace=trace)  # sophon-lint: disable=GUARD02
            self._grants.setdefault(spec.job, {})[digest] = grant
        self._admission("granted")
        registry = get_default_registry()
        registry.gauge(
            "service_committed_cores", "storage cores committed to jobs"
        ).set(self.ledger.committed_cores)
        task.finish(
            200,
            self._grant_body(
                grant, replayed=False, expected_epoch_s=result.expected_epoch_s
            ),
            outcome="granted",
        )

    def _grant_body(
        self,
        grant: GrantRecord,
        replayed: bool,
        expected_epoch_s: Optional[float] = None,
    ) -> Dict[str, object]:
        body: Dict[str, object] = {
            "job": grant.job,
            "seq": grant.seq,
            "params_digest": grant.params_digest,
            "granted_cores": grant.cores,
            "splits": list(grant.splits),
            "reason": grant.reason,
            "replayed": replayed,
        }
        if expected_epoch_s is not None:
            body["expected_epoch_s"] = expected_epoch_s
        return body

    # -- handler-side operations (cheap; no queue hop) -----------------------

    def authorized(self, header: Optional[str]) -> bool:
        expected = f"Bearer {self.config.token}"
        return header is not None and hmac.compare_digest(header, expected)

    def submit_plan(
        self,
        body: Dict[str, object],
        deadline_s: Optional[float],
        trace: Optional[str] = None,
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        """The handler's plan path: enqueue, wait, relay the worker's answer.

        ``trace`` (from ``X-Sophon-Trace``) brackets the whole request
        with a ``service.request`` span in the flight recorder; the queue,
        ledger, planner, and journal hang their child spans off the same
        trace id.  Returns (status, body, retry_after_s).
        """
        if trace is None:
            return self._submit_plan(body, deadline_s, None)
        self.flight.begin(trace, "service.request")
        status, response, retry_after = self._submit_plan(body, deadline_s, trace)
        self.flight.end(trace, "service.request", status=status)
        return (status, response, retry_after)

    def _submit_plan(
        self,
        body: Dict[str, object],
        deadline_s: Optional[float],
        trace: Optional[str],
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        if not self.is_ready:
            cause = "draining" if self._draining else "not_ready"
            get_default_registry().counter(
                "service_shed_total", "plan requests shed by cause",
                labels=["cause"],
            ).inc(cause=cause)
            return (
                503,
                {"error": f"service is {cause.replace('_', ' ')}"},
                self.config.retry_after_s,
            )
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        now = self._clock()
        task = PlanTask(
            request=body,
            enqueued_at=now,
            deadline_at=(now + deadline_s) if deadline_s is not None else None,
            trace_id=trace,
        )
        try:
            self.queue.submit(task)
        except QueueFullError as exc:
            return (503, {"error": str(exc)}, self.config.retry_after_s)
        timeout = (
            deadline_s + _DEADLINE_GRACE_S if deadline_s is not None else None
        )
        if not task.done.wait(timeout=timeout):
            task.abandoned = True
            return (
                504,
                {"error": f"no plan within the {deadline_s}s deadline"},
                None,
            )
        return (task.status, task.body, task.retry_after_s)

    def release_job(
        self, job: str, trace: Optional[str] = None
    ) -> Tuple[int, Dict[str, object]]:
        """Free a job's committed cores (and journal the release)."""
        with self._state_lock:
            cores = self.ledger.release(job)
            if cores is None:
                return (404, {"error": f"job {job!r} holds no cores"})
            self._grants.pop(job, None)
            if self._journal is not None:
                # Same sequenced-append invariant as the grant path.
                self._journal.append_release(  # sophon-lint: disable=GUARD02
                    ReleaseRecord(seq=self._next_seq_locked(), job=job,
                                  cores=cores),
                    trace=trace,
                )
        get_default_registry().gauge(
            "service_committed_cores", "storage cores committed to jobs"
        ).set(self.ledger.committed_cores)
        return (200, {"job": job, "released_cores": cores})

    def status_body(self) -> Dict[str, object]:
        with self._state_lock:
            grants = sum(len(by_digest) for by_digest in self._grants.values())
            next_seq = self._seq
        return {
            "ready": self.is_ready,
            "draining": self._draining,
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.capacity,
            "queue_max_depth": self.queue.max_depth,
            "shed_count": self.queue.shed_count,
            "total_cores": self.ledger.total_cores,
            "committed_cores": self.ledger.committed_cores,
            "committed": self.ledger.committed(),
            "grants": grants,
            "recovered_grants": self.recovered_grants,
            "next_seq": next_seq,
            "breakers": {
                name: {
                    "state": breaker.state.value,
                    "transitions": [
                        t.to_dict() for t in breaker.transition_history()
                    ],
                }
                for name, breaker in sorted(self.breakers.items())
            },
        }

    def refresh_gauges(self) -> None:
        """Push live queue/budget state into the default registry.

        ``/metrics`` calls this before rendering, so the gauges exist (and
        are current) from the very first scrape instead of appearing only
        after the first plan request touches them.
        """
        registry = get_default_registry()
        registry.gauge(
            "service_queue_depth", "plan requests waiting for a worker"
        ).set(self.queue.depth)
        registry.gauge(
            "service_queue_capacity", "bounded work queue capacity"
        ).set(self.queue.capacity)
        registry.gauge(
            "service_committed_cores", "storage cores committed to jobs"
        ).set(self.ledger.committed_cores)
        registry.gauge(
            "service_budget_headroom_cores",
            "storage cores still free for admission",
        ).set(self.ledger.available_cores)


def _make_handler(service: DecisionService) -> Type[http.server.BaseHTTPRequestHandler]:
    """A request-handler class bound to one service instance."""

    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format: str, *args: object) -> None:
            service.log.debug(
                "http", client=self.address_string(), line=format % args
            )

        # -- plumbing ------------------------------------------------------

        def _respond(
            self,
            status: int,
            body: Dict[str, object],
            retry_after_s: Optional[float] = None,
            content_type: str = "application/json",
            raw: Optional[bytes] = None,
        ) -> None:
            data = (
                raw
                if raw is not None
                else json.dumps(body, sort_keys=True).encode("utf-8")
            )
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            if retry_after_s is not None:
                self.send_header("Retry-After", f"{retry_after_s:.3f}")
            self.send_header("Connection", "close")
            try:
                self.end_headers()
                self.wfile.write(data)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client hung up first (deadline, kill); nothing to tell it

        def _observe(self, endpoint: str, outcome: str, started: float) -> None:
            registry = get_default_registry()
            registry.counter(
                "service_requests_total", "HTTP requests by endpoint/outcome",
                labels=["endpoint", "outcome"],
            ).inc(endpoint=endpoint, outcome=outcome)
            registry.histogram(
                "service_request_seconds", "HTTP request latency",
                labels=["endpoint"],
            ).observe(service._clock() - started, endpoint=endpoint)

        def _authorized(self) -> bool:
            if service.authorized(self.headers.get("Authorization")):
                return True
            self._respond(401, {"error": "missing or invalid bearer token"})
            return False

        def _json_body(self) -> Optional[Dict[str, object]]:
            try:
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length) or b"{}")
            except (ValueError, TypeError):
                self._respond(400, {"error": "request body is not valid JSON"})
                return None
            if not isinstance(body, dict):
                self._respond(400, {"error": "request body must be an object"})
                return None
            return body

        def _deadline_s(self) -> Optional[float]:
            header = self.headers.get("X-Sophon-Deadline-S")
            if header is None:
                return None
            try:
                value = float(header)
            except ValueError:
                return None
            return value if value > 0 else None

        # -- routes --------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            started = service._clock()
            if self.path == "/healthz":
                self._respond(200, {"status": "alive"})
                self._observe("healthz", "ok", started)
            elif self.path == "/readyz":
                if service.is_ready:
                    self._respond(200, {"status": "ready"})
                    self._observe("readyz", "ok", started)
                else:
                    self._respond(
                        503, {"status": "not ready"},
                        retry_after_s=service.config.retry_after_s,
                    )
                    self._observe("readyz", "not_ready", started)
            elif self.path == "/metrics":
                service.refresh_gauges()
                text = render_prometheus(get_default_registry())
                self._respond(
                    200, {}, content_type="text/plain; version=0.0.4",
                    raw=text.encode("utf-8"),
                )
                self._observe("metrics", "ok", started)
            elif self.path == "/v1/status":
                if not self._authorized():
                    self._observe("status", "unauthorized", started)
                    return
                self._respond(200, service.status_body())
                self._observe("status", "ok", started)
            elif self.path == "/v1/debug/flight":
                if not self._authorized():
                    self._observe("flight", "unauthorized", started)
                    return
                self._respond(200, service.flight.to_chrome_trace())
                self._observe("flight", "ok", started)
            else:
                self._respond(404, {"error": f"no such endpoint {self.path}"})
                self._observe("unknown", "not_found", started)

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            started = service._clock()
            if self.path not in ("/v1/plan", "/v1/release", "/v1/drain"):
                self._respond(404, {"error": f"no such endpoint {self.path}"})
                self._observe("unknown", "not_found", started)
                return
            if not self._authorized():
                self._observe(self.path.rsplit("/", 1)[-1], "unauthorized",
                              started)
                return
            body = self._json_body()
            if body is None:
                self._observe(self.path.rsplit("/", 1)[-1], "bad_request",
                              started)
                return
            trace = parse_trace_header(self.headers.get(TRACE_HEADER))
            if self.path == "/v1/plan":
                status, response, retry_after = service.submit_plan(
                    body, self._deadline_s(), trace=trace
                )
                self._respond(status, response, retry_after_s=retry_after)
                self._observe(
                    "plan", "ok" if status == 200 else str(status), started
                )
            elif self.path == "/v1/release":
                job = str(body.get("job", ""))
                status, response = service.release_job(job, trace=trace)
                self._respond(status, response)
                self._observe("release", "ok" if status == 200 else str(status),
                              started)
            else:  # /v1/drain
                self._respond(202, {"status": "draining"})
                self._observe("drain", "ok", started)
                threading.Thread(target=service.drain, daemon=True).start()

    return Handler
