"""Optional HTTP/JSON frontend for the admission service (stdlib only).

A deliberately small HTTP/1.1 endpoint on ``asyncio`` streams — no
third-party web framework, per the repo's no-new-dependencies rule:

* ``POST /jobs`` with ``{"deadline": 40.0, "origin": 3}`` (optional
  ``"dag_size"``) draws a DAG from the server's seeded mix, stamps the
  arrival at the resident's current time and enqueues it via
  :meth:`~repro.service.admission.AdmissionService.submit_nowait` —
  **202** with the job id, or **503** when the bounded queue sheds it.
* ``GET /stats`` — live :class:`~repro.service.admission.ServiceStats`,
  guarantee ratio and cumulative admission-latency summary.
* ``GET /health`` — readiness probe: **200** ``ready``, **503** while the
  service is ``draining`` or the degraded breaker is open.
* ``POST /drain`` — graceful shutdown: flush, run the resident dry,
  answer with the final scalar metrics.

Every failure is answered by name with a one-line JSON ``error``: **400**
for a malformed request line, header, ``Content-Length``, JSON body,
non-object body or job field; **413** for a body above 1 MiB; **404** for
an unknown route; **503** for a submission after ``/drain``; **500** (the
traceback goes to the ``repro.service.http`` logger, the client sees a
generic body) for anything that is this server's own fault.

The simulation advances on the service's pump inside the same event loop,
so a long ``advance_to`` stalls HTTP responses; this frontend is a demo
and test surface, not a production server. The soak campaign drives the
service directly (:mod:`repro.experiments.soak`).
"""

from __future__ import annotations

import json
import logging
from http import HTTPStatus
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.service.admission import AdmissionService
from repro.workloads.deadlines import assign_deadline
from repro.workloads.jobs import JobSpec
from repro.workloads.scenarios import mixed_dag_factory

if TYPE_CHECKING:  # the server loads asyncio when it starts, batch imports never
    import asyncio

_MAX_BODY = 1 << 20
_MAX_HEADERS = 100
_LINGER_SECONDS = 1.0

_log = logging.getLogger(__name__)


class _BadRequest(Exception):
    """A request this server refuses by name: HTTP status + one-line reason."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class AdmissionHTTPServer:
    """Bind an :class:`AdmissionService` to a local HTTP port."""

    def __init__(
        self, service: AdmissionService, host: str = "127.0.0.1", port: int = 0,
        seed: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._rng = np.random.default_rng(seed)
        self._factories = {}
        self._next_id = 0
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Start listening; returns the bound ``(host, port)``."""
        import asyncio

        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling ------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        import asyncio

        unread = False
        try:
            status, payload = await self._dispatch(reader)
        except _BadRequest as err:
            status, payload = err.status, {"error": err.message}
            unread = True
        except Exception:  # a bug on our side: log it, never blame or stall the client
            _log.exception("unhandled error while serving a request")
            status, payload = 500, {"error": "internal server error"}
        body = json.dumps(payload).encode()
        writer.write(
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()
        if unread:
            # closing on bytes the client has sent and we have not read resets
            # the connection and can take the answer with it: finish our side,
            # then read off (bounded) what is still coming before closing
            writer.write_eof()
            try:
                await asyncio.wait_for(reader.readexactly(_MAX_BODY), _LINGER_SECONDS)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError, ConnectionError):
                pass
        writer.close()

    async def _read_request(self, reader: asyncio.StreamReader) -> Tuple[str, str, dict]:
        """Parse one request into ``(method, path, JSON object)``; every way
        the bytes can be wrong is a named :class:`_BadRequest`."""
        import asyncio

        try:
            lines = [await reader.readline()]
            while lines[-1] not in (b"\r\n", b"\n", b""):
                if len(lines) > _MAX_HEADERS:
                    raise _BadRequest(400, "too many header lines")
                lines.append(await reader.readline())
        except ValueError:  # StreamReader: no line end within its buffer limit
            raise _BadRequest(400, "request or header line too long") from None
        parts = lines[0].decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(400, "malformed request line")
        length = 0
        for line in lines[1:-1]:
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not name.strip():
                raise _BadRequest(400, "malformed header line")
            if name.strip().lower() == "content-length":
                digits = value.strip()
                if not digits.isdecimal():
                    raise _BadRequest(400, "malformed Content-Length header")
                if len(digits) > 18 or int(digits) > _MAX_BODY:
                    raise _BadRequest(413, f"body larger than {_MAX_BODY} bytes")
                length = int(digits)
        try:
            body = json.loads(await reader.readexactly(length)) if length else {}
        except asyncio.IncompleteReadError:
            raise _BadRequest(400, "body shorter than its Content-Length") from None
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            raise _BadRequest(400, "body is not valid JSON") from None
        if not isinstance(body, dict):
            raise _BadRequest(400, "body must be a JSON object")
        return parts[0], parts[1], body

    async def _dispatch(self, reader: asyncio.StreamReader):
        method, path, body = await self._read_request(reader)
        if method == "POST" and path == "/jobs":
            return self._post_job(body)
        if method == "GET" and path == "/stats":
            return 200, self._stats()
        if method == "GET" and path == "/health":
            return self._health()
        if method == "POST" and path == "/drain":
            await self.service.drain()
            return 200, self.service.res.scalar_metrics()
        return 404, {"error": f"no route {method} {path}"}

    def _post_job(self, body: dict):
        if self.service.draining:
            return 503, {"error": "service is draining; submission refused"}
        res = self.service.res
        # base sites only: latent joiner sites receive no arrivals
        n_sites = res.resident.n_base_sites
        origin = body.get("origin")
        if origin is None:
            origin = int(self._rng.integers(n_sites))
        # bool is an int subclass: JSON true must not pass as site 1
        if not isinstance(origin, int) or isinstance(origin, bool) or not 0 <= origin < n_sites:
            return 400, {"error": f"origin must be an integer in [0, {n_sites}), got {origin!r}"}
        size = body.get("dag_size", "small")
        if not isinstance(size, str):
            return 400, {"error": f"dag_size must be a string, got {size!r}"}
        if size not in self._factories:
            try:
                self._factories[size] = mixed_dag_factory(size)
            except WorkloadError as err:
                return 400, {"error": str(err)}
        arrival = res.now
        deadline = None
        relative = body.get("deadline")
        if relative is not None:
            # only a JSON number is a deadline: float("5") parses, and bool
            # is an int subclass (float(True) is 1.0)
            number = isinstance(relative, (int, float)) and not isinstance(relative, bool)
            try:
                deadline = arrival + float(relative) if number else float("nan")
            except OverflowError:  # an integer too large for a float
                deadline = float("nan")
            if not arrival < deadline < float("inf"):
                return 400, {"error": "deadline must be a finite number > 0 (relative to arrival)"}
        dag = self._factories[size](self._rng)
        if deadline is None:
            deadline = assign_deadline(dag, arrival, 3.0, self._rng)
        job = JobSpec(
            job=self._next_id, dag=dag, origin=origin,
            arrival=arrival, deadline=deadline,
        )
        if not self.service.submit_nowait(job):
            return 503, {"error": "queue full", "queue_depth": self.service.queue_depth}
        self._next_id += 1
        return 202, {"job": job.job, "origin": job.origin,
                     "arrival": arrival, "deadline": deadline}

    def _health(self):
        """Readiness probe: 200 ready, 503 while draining or degraded."""
        if self.service.draining:
            return 503, {"status": "draining"}
        if self.service.degraded:
            return 503, {"status": "degraded"}
        return 200, {"status": "ready"}

    def _stats(self) -> dict:
        out = self.service.stats.as_dict()
        out["queue_depth"] = self.service.queue_depth
        out["guarantee_ratio"] = self.service.res.guarantee_ratio()
        out["latency"] = self.service.latency.summary()
        return out
