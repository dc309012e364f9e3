"""The phase timeline read off the trace reproduces the online spans.

``span_golden.json.gz`` holds, per identity scenario, every span the
runtime used to record online while the run executed — (category, key,
site, t0, t1, ok), in recording order: 550 enroll / map / validate /
retransmission spans across the four scenarios, then the 195 execute
spans built from the collector after the run. It was recorded before
that in-path instrumentation was deleted; :func:`repro.obs.timeline`
must rebuild it exactly from the trace events and the collector alone.

Like the identity goldens, it changes only when the protocol's semantics
intentionally change.
"""

import gzip
import json
import pathlib

import pytest

from repro.obs import timeline
from tests.identity.scenarios import SCENARIOS, run_scenario

GOLDEN = pathlib.Path(__file__).parent / "span_golden.json.gz"


@pytest.fixture(scope="module")
def golden():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_the_online_spans(golden):
    assert sorted(golden) == sorted(SCENARIOS)
    online = [row for rows in golden.values() for row in rows if row[0] != "phase.execute"]
    assert len(online) == 550


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_timeline_reproduces_the_online_spans(golden, name):
    got = [
        [s.category, s.key, s.site, s.t0, s.t1, s.ok]
        for s in timeline(run_scenario(name))
    ]
    want = golden[name]
    assert len(got) == len(want), f"{name}: {len(got)} spans != golden {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name}: span {i} diverges: {g!r} != {w!r}"
