"""Stdlib JSON/HTTP front end for :class:`~repro.serve.service.KRCoreService`.

A :class:`ThreadingHTTPServer` daemon — one thread per connection, all
threads sharing the service's per-graph sessions behind their locks.
Pure stdlib (``http.server`` + ``json``): no framework dependency.

Routes
------
* GET ``/health`` — liveness + counters
* GET ``/graphs`` — stored graph list
* GET ``/graphs/<name>/stats`` — cache + store stats
* GET ``/graphs/<name>/edits`` — persisted edit log
* POST ``/graphs/<name>/enumerate`` — ``{"k": 3, "r": 0.5, ...}``
* POST ``/graphs/<name>/maximum`` — ``{"k": 3, "r": 0.5, ...}``
* POST ``/graphs/<name>/statistics`` — ``{"k": 3, "r": 0.5, ...}``
* POST ``/graphs/<name>/sweep`` — ``{"ks": [...], "rs": [...], ...}``
* POST ``/graphs/<name>/edit`` — add/remove edges, tagged attributes
* POST ``/graphs/<name>/flush`` — persist one session
* POST ``/flush`` — persist all sessions
* POST ``/shutdown`` — flush dirty state + stop serving

Every response is a JSON object; errors come back as
``{"error": message}`` with a 4xx/5xx status.  Shutdown — whether via
``POST /shutdown``, :meth:`KRCoreHTTPServer.stop`, or the CLI's signal
handler — flushes dirty session state before the store closes.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ServiceError
from repro.serve.service import KRCoreService

#: Request body size cap (16 MiB) — an edit batch or sweep grid fits
#: comfortably; anything larger is a client error.
_MAX_BODY = 16 * 1024 * 1024

_POST_OPS = (
    "enumerate", "maximum", "top", "statistics", "sweep", "edit", "flush",
)


class KRCoreRequestHandler(BaseHTTPRequestHandler):
    """One JSON request per call; routing is a straight path match."""

    server_version = "krcore-serve"
    protocol_version = "HTTP/1.1"

    # The server object carries the service; typing helper:
    server: "KRCoreHTTPServer"

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler convention)
        service = self.server.service
        try:
            if self.path in ("/", "/health"):
                self._reply(200, service.health())
                return
            if self.path == "/graphs":
                self._reply(200, {"graphs": service.store.list_graphs()})
                return
            name, op = self._parse_graph_path()
            if op in ("stats", "edits"):
                self._reply(200, service.handle(name, op, {}))
                return
            raise ServiceError(f"no such route GET {self.path}", status=404)
        except ServiceError as exc:
            self._reply(exc.status, {"error": str(exc)})
        except Exception as exc:  # defensive: a handler crash must answer
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802
        service = self.server.service
        try:
            if self.path == "/shutdown":
                self._reply(200, {"ok": True, "shutting_down": True})
                self.server.stop(from_request=True)
                return
            if self.path == "/flush":
                self._reply(200, {"flushed": service.flush()})
                return
            name, op = self._parse_graph_path()
            if op not in _POST_OPS:
                raise ServiceError(
                    f"no such route POST {self.path}", status=404
                )
            params = self._read_json_body()
            self._reply(200, service.handle(name, op, params))
        except ServiceError as exc:
            self._reply(exc.status, {"error": str(exc)})
        except Exception as exc:
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _parse_graph_path(self) -> Tuple[str, str]:
        parts = [p for p in self.path.split("/") if p]
        if len(parts) != 3 or parts[0] != "graphs":
            raise ServiceError(f"no such route {self.path}", status=404)
        return parts[1], parts[2]

    def _read_json_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            raise ServiceError("request body too large", status=413)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise ServiceError(f"malformed JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise ServiceError("JSON body must be an object")
        return body

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class KRCoreHTTPServer(ThreadingHTTPServer):
    """Threaded JSON daemon owning a :class:`KRCoreService`.

    ``daemon_threads`` keeps per-connection threads from blocking
    shutdown; :meth:`stop` flushes dirty session state exactly once no
    matter how many shutdown paths race.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: KRCoreService,
        verbose: bool = False,
    ):
        super().__init__(address, KRCoreRequestHandler)
        self.service = service
        self.verbose = verbose
        self._stop_lock = threading.Lock()
        self._stopped = False
        self._closed = threading.Event()

    def stop(self, from_request: bool = False) -> None:
        """Stop serving, flush dirty state and close the store.

        Idempotent and thread-safe: the first caller flushes and closes
        the service, and every later caller blocks until that has
        finished, so :func:`run_server` never returns mid-flush.  Not
        for the thread running ``serve_forever`` while the loop is live
        (a signal handler, say): ``shutdown()`` would wait on itself.
        """
        with self._stop_lock:
            first = not self._stopped
            self._stopped = True
        if not first:
            self._closed.wait()
            return
        try:
            if from_request:
                # shutdown() deadlocks when called from a handler thread —
                # hand it to a helper thread and return so the response
                # already sent can complete.
                threading.Thread(target=self.shutdown, daemon=True).start()
            else:
                self.shutdown()
            self.service.close()
        finally:
            self._closed.set()


def make_server(
    service: KRCoreService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> KRCoreHTTPServer:
    """Bind a daemon (``port=0`` picks a free port; see ``server_address``)."""
    return KRCoreHTTPServer((host, port), service, verbose=verbose)


def run_server(
    server: KRCoreHTTPServer,
    ready: Optional[threading.Event] = None,
) -> None:
    """Serve until :meth:`KRCoreHTTPServer.stop` (blocking call)."""
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.stop()
        server.server_close()


__all__ = [
    "KRCoreHTTPServer",
    "KRCoreRequestHandler",
    "make_server",
    "run_server",
]
