"""HTTP/JSON frontend: raw-socket round trips against the stdlib server."""

import asyncio
import json
from dataclasses import replace

from repro.experiments.runner import ExperimentConfig
from repro.faults.plan import FaultPlan
from repro.service import AdmissionService, ResidentSimulation
from repro.service.http import AdmissionHTTPServer


def _config(seed=0):
    return ExperimentConfig(
        topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 1.0)},
        seed=seed,
    )


async def _request(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, resp_body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(resp_body)


async def _scenario():
    res = ResidentSimulation(_config())
    svc = AdmissionService(res, queue_capacity=32)
    svc.start()
    server = AdmissionHTTPServer(svc, seed=1)
    host, port = await server.start()
    out = {}

    status, body = await _request(host, port, "POST", "/jobs",
                                  {"origin": 2, "deadline": 60.0})
    out["post"] = (status, body)

    status, body = await _request(host, port, "POST", "/jobs", {})
    out["post_defaults"] = (status, body)

    status, body = await _request(host, port, "POST", "/jobs", {"origin": 99})
    out["bad_origin"] = (status, body)

    status, body = await _request(host, port, "GET", "/nope")
    out["not_found"] = (status, body)

    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"POST /jobs HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    out["bad_json_status"] = int(raw.split()[1])

    status, body = await _request(host, port, "GET", "/stats")
    out["stats"] = (status, body)

    status, body = await _request(host, port, "POST", "/drain")
    out["drain"] = (status, body)

    await server.close()
    return out


def test_http_round_trip():
    out = asyncio.run(_scenario())

    status, body = out["post"]
    assert status == 202
    assert body["origin"] == 2
    assert body["deadline"] == body["arrival"] + 60.0

    status, body = out["post_defaults"]
    assert status == 202
    assert 0 <= body["origin"] < 8
    assert body["deadline"] > body["arrival"]

    status, body = out["bad_origin"]
    assert status == 400 and "origin" in body["error"]

    status, body = out["not_found"]
    assert status == 404

    assert out["bad_json_status"] == 400

    status, body = out["stats"]
    assert status == 200
    assert body["submitted"] == 2
    assert "latency" in body and "guarantee_ratio" in body

    status, body = out["drain"]
    assert status == 200
    assert body["n_jobs"] == 2
    assert 0.0 <= body["guarantee_ratio"] <= 1.0


def test_http_sheds_when_queue_full():
    async def drive():
        res = ResidentSimulation(_config(1))
        svc = AdmissionService(res, queue_capacity=2)  # pump never started
        server = AdmissionHTTPServer(svc, seed=2)
        host, port = await server.start()
        statuses = []
        for _ in range(4):
            status, _body = await _request(host, port, "POST", "/jobs", {})
            statuses.append(status)
        await server.close()
        return statuses

    statuses = asyncio.run(drive())
    assert statuses == [202, 202, 503, 503]


def test_http_refuses_origins_at_latent_joiners():
    """Sites that join later are pre-built but receive no arrivals: the
    intake draws and range-checks origins over the base sites only."""

    async def drive():
        config = replace(
            _config(), routing_mode="oracle",
            faults=FaultPlan.from_spec("joins=2,join_links=2"),
        )
        res = ResidentSimulation(config)
        assert res.resident.topology.n == 10 and res.resident.n_base_sites == 8
        svc = AdmissionService(res, queue_capacity=32)  # pump never started
        server = AdmissionHTTPServer(svc, seed=3)
        host, port = await server.start()
        joiner = await _request(host, port, "POST", "/jobs", {"origin": 8})
        drawn = [await _request(host, port, "POST", "/jobs", {}) for _ in range(20)]
        await server.close()
        return joiner, drawn

    (status, body), drawn = asyncio.run(drive())
    assert status == 400 and "origin" in body["error"]
    assert all(status == 202 and body["origin"] < 8 for status, body in drawn)
