"""The repro service: a stdlib-only JSON HTTP API over the coordinator.

``ReproService`` ties the pieces together — one
:class:`~repro.runtime.checkpoint.CheckpointStore` (``<data_dir>/store``),
one :class:`~repro.service.queue.JobQueue` journaling into
``<data_dir>/queue``, one :class:`~repro.service.coordinator.Coordinator`
draining it — and serves them through a
:class:`http.server.ThreadingHTTPServer`.  No web framework, no new
runtime dependency: the API surface is small enough that the stdlib
handler plus a route table is the whole story.

Endpoints::

    POST /jobs                submit {"kind": ..., "params": {...}}
                              → 202 {"key", "state", "coalesced", ...}
    GET  /jobs                list job summaries
    GET  /jobs/<key>          full record incl. result (404 unknown key)
    GET  /jobs/<key>/trace    the job's trace document
    GET  /metrics             service-wide aggregate counters/histograms
    GET  /store/stats         checkpoint store statistics
    GET  /store/fsck          run fsck, return the report
    GET  /healthz             liveness (also reports store degradation)

Error discipline: a :class:`~repro.errors.ServiceError` from parameter
normalization is the client's fault → 400 with a JSON error body; an
unknown key/route → 404; anything else → 500.  Store degradation is
**not** an error path — a cache-off store keeps serving submissions and
results from memory, it just stops persisting; ``/healthz`` and
``/metrics`` surface the reason instead of the API failing.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.runtime.checkpoint import CheckpointStore
from repro.service.coordinator import Coordinator
from repro.service.queue import JobQueue

logger = logging.getLogger(__name__)

#: maximum accepted request body (a job submission is a few KB of JSON;
#: anything bigger is a client bug, not a bigger job).
MAX_BODY_BYTES = 1 << 20


def _not_found(message: str) -> ServiceError:
    """A ServiceError the handler maps to 404 instead of 400."""
    error = ServiceError(message)
    error.http_status = 404
    return error


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can configure."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0 → ephemeral (tests)
    data_dir: Optional[Path] = None  # None → TemporaryDirectory
    store_dir: Optional[Path] = None  # None → <data_dir>/store; set to
                                      # share a warm store with --resume
                                      # CLI sessions (--checkpoint-dir)
    jobs: int = 1
    worker_faults: Sequence = ()
    fault_label_filter: Optional[str] = None
    max_crash_retries: int = 2


class ReproService:
    """Store + queue + coordinator + HTTP server, as one lifecycle."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self._tmp = None
        data_dir = self.config.data_dir
        if data_dir is None:
            import tempfile
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-service-")
            data_dir = Path(self._tmp.name)
        self.data_dir = Path(data_dir)
        store_dir = (Path(self.config.store_dir)
                     if self.config.store_dir is not None
                     else self.data_dir / "store")
        self.store = CheckpointStore(store_dir)
        self.queue = JobQueue(self.data_dir / "queue")
        self.coordinator = Coordinator(
            store=self.store,
            queue=self.queue,
            jobs=self.config.jobs,
            worker_faults=self.config.worker_faults,
            fault_label_filter=self.config.fault_label_filter,
            max_crash_retries=self.config.max_crash_retries,
        )
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ReproService":
        """Bind the socket, start the coordinator, serve in background."""
        if self._server is not None:
            return self
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler)
        self._server.daemon_threads = True
        self.coordinator.start()
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service-http", daemon=True)
        self._server_thread.start()
        logger.info("repro service listening on http://%s:%d "
                    "(data under %s)", self.host, self.port, self.data_dir)
        return self

    def stop(self) -> None:
        """Shut down HTTP first (no new submissions), then drain-stop the
        coordinator, then release the data dir.  Idempotent."""
        server = self._server
        if server is not None:
            server.shutdown()
            server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(10.0)
            self._server_thread = None
        self.coordinator.stop()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def serve_forever(self) -> None:
        """Foreground mode for the CLI: start, then block until EOF."""
        self.start()
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def host(self) -> str:
        if self._server is None:
            return self.config.host
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        if self._server is None:
            return self.config.port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handlers (called from HTTP threads) -----------------------

    def handle_submit(self, body: Dict[str, object]
                      ) -> Tuple[int, Dict[str, object]]:
        record, coalesced = self.coordinator.submit(
            body.get("kind"), body.get("params"))
        return 202, {
            "key": record.key,
            "kind": record.kind,
            "state": record.state,
            "coalesced": coalesced,
            "submissions": record.submissions,
            "runs": record.runs,
        }

    def handle_jobs(self) -> Tuple[int, object]:
        return 200, {"jobs": [r.summary() for r in self.queue.jobs()]}

    def handle_job(self, key: str) -> Tuple[int, object]:
        record = self.queue.get(key)
        if record is None:
            raise _not_found(f"unknown job {key!r}")
        payload = record.to_dict()
        payload["result"] = self.coordinator.result_for(record)
        return 200, payload

    def handle_trace(self, key: str) -> Tuple[int, object]:
        record = self.queue.get(key)
        if record is None:
            raise _not_found(f"unknown job {key!r}")
        trace = self.coordinator.trace_for(record)
        if trace is None:
            raise _not_found(f"no trace recorded for job {key!r}")
        return 200, {"key": key, "trace": trace}

    def handle_metrics(self) -> Tuple[int, object]:
        return 200, self.coordinator.metrics_snapshot()

    def handle_store_stats(self) -> Tuple[int, object]:
        return 200, self.store.stats()

    def handle_store_fsck(self) -> Tuple[int, object]:
        return 200, self.store.fsck().to_dict()

    def handle_health(self) -> Tuple[int, object]:
        return 200, {
            "ok": self.coordinator.running,
            "coordinator_running": self.coordinator.running,
            "queue_depth": self.queue.depth(),
            "store_degraded": self.store.degraded,
            "jobs": self.config.jobs,
        }


def _make_handler(service: ReproService):
    """Build the request-handler class closed over one service."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-service"

        # -- plumbing ------------------------------------------------------

        def log_message(self, fmt, *args):   # route to logging, not stderr
            logger.debug("%s - %s", self.address_string(), fmt % args)

        def _reply(self, status: int, payload: object) -> None:
            body = json.dumps(payload, sort_keys=True,
                              default=str).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str,
                   error: str = "ServiceError") -> None:
            self._reply(status, {"error": error, "message": message})

        def _read_body(self) -> Dict[str, object]:
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                raise ServiceError(
                    f"request body too large ({length} bytes)")
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            try:
                body = json.loads(raw)
            except ValueError as exc:
                raise ServiceError(f"request body is not JSON: {exc}") \
                    from None
            if not isinstance(body, dict):
                raise ServiceError("request body must be a JSON object")
            return body

        def _dispatch(self, method: str) -> None:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            try:
                route = self._route(method, path)
                if route is None:
                    self._error(404, f"no route {method} {path}",
                                error="NotFound")
                    return
                status, payload = route()
                self._reply(status, payload)
            except ServiceError as exc:
                status = getattr(exc, "http_status", 400)
                self._error(status, str(exc))
            except Exception as exc:       # a service bug, not the client
                logger.exception("unhandled error on %s %s", method, path)
                self._error(500, str(exc), error=type(exc).__name__)

        def _route(self, method: str, path: str):
            parts = [p for p in path.split("/") if p]
            if method == "POST" and parts == ["jobs"]:
                body = self._read_body()
                return lambda: service.handle_submit(body)
            if method != "GET":
                return None
            if parts == ["jobs"]:
                return service.handle_jobs
            if len(parts) == 2 and parts[0] == "jobs":
                return lambda: service.handle_job(parts[1])
            if len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "trace":
                return lambda: service.handle_trace(parts[1])
            if parts == ["metrics"]:
                return service.handle_metrics
            if parts == ["store", "stats"]:
                return service.handle_store_stats
            if parts == ["store", "fsck"]:
                return service.handle_store_fsck
            if parts == ["healthz"]:
                return service.handle_health
            return None

        # -- verbs ---------------------------------------------------------

        def do_GET(self):
            self._dispatch("GET")

        def do_POST(self):
            self._dispatch("POST")

    return Handler
