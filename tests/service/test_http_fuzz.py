"""HTTP frontend under hostile bytes: every failure has a name.

One table of raw socket writes — malformed request lines, headers and
bodies, oversized and truncated bodies, wrong JSON types, unknown routes,
submit-after-drain — each answered with the documented status and a
one-line JSON error: never a traceback, never a leaked exception text,
never a connection left hanging; and a server-side bug is a logged 500,
not the client's 400.
"""

import asyncio
import json
import logging

import pytest

from repro.experiments.runner import ExperimentConfig
from repro.service import AdmissionService, ResidentSimulation
from repro.service.http import _MAX_BODY, AdmissionHTTPServer


def _post(path: str, body: bytes, length=None) -> bytes:
    length = len(body) if length is None else length
    return f"POST {path} HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode() + body


def _jobs(obj) -> bytes:
    return _post("/jobs", json.dumps(obj).encode())


#: (case, raw request bytes, expected status, fragment of the error text)
CASES = [
    ("empty request", b"", 400, "request line"),
    ("blank request line", b"\r\n\r\n", 400, "request line"),
    ("one-word request line", b"GET\r\n\r\n", 400, "request line"),
    ("no protocol version", b"GET /stats\r\n\r\n", 400, "request line"),
    ("binary garbage", bytes(range(128, 256)) + b"\r\n\r\n", 400, "request line"),
    ("request line too long", b"GET /" + b"a" * (1 << 17) + b" HTTP/1.1\r\n\r\n", 400, "too long"),
    ("header without colon", b"GET /stats HTTP/1.1\r\nnocolon\r\n\r\n", 400, "header line"),
    ("header without name", b"GET /stats HTTP/1.1\r\n: x\r\n\r\n", 400, "header line"),
    ("too many headers", b"GET /stats HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 200 + b"\r\n", 400, "too many"),
    ("content-length not a number", _post("/jobs", b"{}", "two"), 400, "Content-Length"),
    ("content-length negative", _post("/jobs", b"{}", -2), 400, "Content-Length"),
    ("content-length above the cap", _post("/jobs", b"{}", _MAX_BODY + 1), 413, "larger than"),
    ("content-length astronomically large", _post("/jobs", b"{}", "9" * 5000), 413, "larger than"),
    ("body shorter than declared", _post("/jobs", b'{"origin"', 64), 400, "shorter"),
    ("body is not JSON", _post("/jobs", b"notjson"), 400, "not valid JSON"),
    ("body is not UTF-8", _post("/jobs", b"\xff\xfe{}"), 400, "not valid JSON"),
    ("body is a JSON list", _jobs([1, 2]), 400, "JSON object"),
    ("body is a JSON string", _jobs("origin"), 400, "JSON object"),
    ("origin is a string", _jobs({"origin": "abc"}), 400, "origin"),
    ("origin is a float", _jobs({"origin": 1.5}), 400, "origin"),
    ("origin out of range", _jobs({"origin": 10**30}), 400, "origin"),
    ("origin is a boolean", _jobs({"origin": True}), 400, "origin"),
    ("dag_size unknown", _jobs({"dag_size": "galactic"}), 400, "size"),
    ("dag_size unhashable", _jobs({"dag_size": [1]}), 400, "dag_size"),
    ("deadline is a list", _jobs({"deadline": [3]}), 400, "deadline"),
    ("deadline is negative", _jobs({"deadline": -1}), 400, "deadline"),
    ("deadline is NaN", _post("/jobs", b'{"deadline": NaN}'), 400, "deadline"),
    ("deadline overflows a float", _jobs({"deadline": 10**400}), 400, "deadline"),
    ("deadline is a boolean", _jobs({"origin": 2, "deadline": True}), 400, "deadline"),
    ("deadline is a string", _jobs({"origin": 2, "deadline": "5"}), 400, "deadline"),
    ("unknown route", b"GET /nope HTTP/1.1\r\n\r\n", 404, "no route"),
    ("wrong method on a known path", b"DELETE /jobs HTTP/1.1\r\n\r\n", 404, "no route"),
]


async def _send(host, port, raw: bytes):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    writer.write_eof()
    answer = await asyncio.wait_for(reader.read(), timeout=5.0)
    writer.close()
    head, _, body = answer.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


async def _serve():
    config = ExperimentConfig(
        topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 1.0)}, seed=0
    )
    service = AdmissionService(ResidentSimulation(config), queue_capacity=32)
    service.start()
    server = AdmissionHTTPServer(service, seed=1)
    return server, await server.start()


def test_every_malformed_request_has_a_named_status():
    async def drive():
        server, (host, port) = await _serve()
        answers = [await _send(host, port, raw) for _, raw, _, _ in CASES]
        # intake is still alive and still accepts a good job after all of it
        alive = await _send(host, port, _jobs({"origin": 2, "deadline": 50.0}))
        drained = await _send(host, port, b"POST /drain HTTP/1.1\r\n\r\n")
        after_drain = await _send(host, port, _jobs({"origin": 2}))
        health = await _send(host, port, b"GET /health HTTP/1.1\r\n\r\n")
        await server.close()
        return answers, alive, drained, after_drain, health

    answers, alive, drained, after_drain, health = asyncio.run(drive())
    for (case, _, want, fragment), (status, body) in zip(CASES, answers):
        assert status == want, f"{case}: {status} {body}"
        assert set(body) == {"error"} and fragment in body["error"], f"{case}: {body}"
        assert "Traceback" not in body["error"] and "Error" not in body["error"], case
    assert alive[0] == 202
    assert drained[0] == 200 and drained[1]["n_jobs"] == 1
    assert after_drain[0] == 503 and "draining" in after_drain[1]["error"]
    assert health == (503, {"status": "draining"})


def test_internal_bug_is_a_logged_500_not_a_400(caplog, monkeypatch):
    def boom(self):
        raise RuntimeError("secret internal detail")

    monkeypatch.setattr(AdmissionHTTPServer, "_stats", boom)

    async def drive():
        server, (host, port) = await _serve()
        answer = await _send(host, port, b"GET /stats HTTP/1.1\r\n\r\n")
        await server.service.drain()
        await server.close()
        return answer

    with caplog.at_level(logging.ERROR, logger="repro.service.http"):
        status, body = asyncio.run(drive())
    assert status == 500
    assert body == {"error": "internal server error"}
    assert "secret internal detail" in caplog.text  # the traceback went to the log
