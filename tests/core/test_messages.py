"""The schema in :mod:`repro.core.messages` is the wire format.

One hardened RTDS run (so the optional ``lease`` key appears too)
is tapped at :meth:`SiteBase._dispatch`: every message a handler receives
— SPHERE envelopes and the messages unwrapped from them — is checked
against the schema the module docstring documents.
"""

import pytest

from repro.core.config import RTDSConfig
from repro.core.messages import (
    MSG_ENROLL,
    MSG_ENROLL_ACK,
    MSG_EXECUTE,
    MSG_RESULT,
    MSG_SPHERE,
    MSG_VALIDATE,
)
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults import hardened
from repro.simnet.site import SiteBase

CELL = ExperimentConfig(
    topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
    rho=1.0,
    duration=150.0,
    seed=5,
    algorithm="rtds",
    rtds=hardened(RTDSConfig(), ack_timeout=5.0),
)


@pytest.fixture(scope="module")
def delivered():
    """mtype -> [(message, locked at delivery, deferred-queue growth)]."""
    seen = {}
    original = SiteBase._dispatch

    def tap(site, msg):
        locked, before = site.lock.locked, len(site.lock.deferred)
        original(site, msg)
        seen.setdefault(msg.mtype, []).append(
            (msg, locked, len(site.lock.deferred) - before)
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SiteBase, "_dispatch", tap)
        run_experiment(CELL)
    return seen


def messages(delivered, mtype):
    msgs = [m for m, _, _ in delivered.get(mtype, ())]
    assert msgs, f"the run delivered no {mtype}"
    return msgs


class TestPayloads:
    def test_sphere(self, delivered):
        for msg in messages(delivered, MSG_SPHERE):
            assert set(msg.payload) == {"targets", "inner_mtype", "inner_payload", "origin"}
            assert msg.payload["targets"] == sorted(msg.payload["targets"])

    def test_enroll(self, delivered):
        for msg in messages(delivered, MSG_ENROLL):
            p = msg.payload
            # hardened runs carry the lease hint
            assert set(p) == {"job", "initiator", "members", "lease"}
            # the sorted asked ACS plus the initiator, receiver included
            assert p["members"] == sorted(p["members"])
            assert p["initiator"] == msg.origin
            assert {p["initiator"], msg.dst} <= set(p["members"])

    def test_enroll_ack(self, delivered):
        for msg in messages(delivered, MSG_ENROLL_ACK):
            p = msg.payload
            assert set(p) == {"job", "site", "surplus", "busyness", "speed", "distances"}
            assert p["site"] == msg.origin
            assert p["busyness"] == 1.0 - p["surplus"]
            assert p["site"] not in p["distances"]

    def test_validate(self, delivered):
        for msg in messages(delivered, MSG_VALIDATE):
            p = msg.payload
            assert set(p) == {"job", "initiator", "procs"}
            for entries in p["procs"].values():
                for task, c, release, deadline in entries:
                    assert c > 0.0 and release <= deadline

    def test_execute(self, delivered):
        for msg in messages(delivered, MSG_EXECUTE):
            p = msg.payload
            assert set(p) == {
                "job", "permutation", "host", "preds", "succs", "volumes", "deadline",
            }
            assert set(p["volumes"]) == set(p["host"]) == set(p["preds"]) == set(p["succs"])

    def test_result_is_lock_transparent(self, delivered):
        results = delivered.get(MSG_RESULT, ())
        assert {tuple(m.payload) for m, _, _ in results} == {("job", "task")}
        while_locked = [growth for _, locked, growth in results if locked]
        assert while_locked, "no RESULT reached a locked site; the check is vacuous"
        # handled on arrival, never parked behind the lock
        assert not any(while_locked)


class TestSizeEstimate:
    def test_counts_nested(self, delivered):
        """Sizes are set at the send site and count the nested entries."""
        for msg in messages(delivered, MSG_ENROLL):
            assert msg.size == 2 + len(msg.payload["members"])
        for msg in messages(delivered, MSG_ENROLL_ACK):
            assert msg.size == 5 + len(msg.payload["distances"])
        for msg in messages(delivered, MSG_VALIDATE):
            assert msg.size == 2 + sum(len(v) for v in msg.payload["procs"].values())
