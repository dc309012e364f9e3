"""Tests of the benchmark harness itself (not collected by tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import statistics
import sys
from dataclasses import replace

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import ledger  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro import api  # noqa: E402


# -- stats ---------------------------------------------------------------------

def test_min_of_reps_and_spread():
    assert stats.min_of_reps([2.5, 2.0, 3.0]) == 2.0
    assert stats.rep_spread([2.5, 2.0, 3.0]) == pytest.approx(0.5)
    assert stats.rep_spread([4.0]) == 0.0
    with pytest.raises(ValueError):
        stats.min_of_reps([])


def test_percentile_is_nearest_rank():
    vals = list(range(1, 101))  # 1..100
    assert stats.percentile(vals, 99) == 99
    assert stats.percentile(vals, 50) == 50
    assert stats.percentile(vals, 100) == 100
    assert stats.percentile(vals, 0) == 1
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2  # input need not be sorted
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


def test_samples_beyond_p99():
    assert stats.samples_beyond(1502, 99) == 15  # the smallest cell still has >= 15
    assert stats.samples_beyond(100, 99) == 1
    assert stats.samples_beyond(0, 99) == 0


def test_spread_summary_uses_statistics_quantiles():
    vals = [10.0, 10.2, 9.9, 10.4, 10.1, 9.8, 10.0, 10.3, 9.7, 10.6]
    s = stats.spread_summary(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    assert s["median"] == med and s["q1"] == q1 and s["q3"] == q3
    assert s["iqr_over_median"] == pytest.approx((q3 - q1) / med)
    assert s["max_dev_over_median"] == pytest.approx((10.6 - med) / med)
    assert stats.spread_summary([5.0])["iqr_over_median"] == 0.0


def test_digest_is_exact_and_order_free():
    a = {"x": 0.1 + 0.2, "n": 3, "m": float("nan")}
    b = {"m": float("nan"), "n": 3, "x": 0.1 + 0.2}
    assert stats.digest(a) == stats.digest(b)
    assert stats.digest(a) != stats.digest({**a, "x": 0.3})  # one ulp apart


# -- tracer --------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_from_nested_spans_and_kernels():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def leaf():
        clock.t += 1.0

    leaf_k = tr.kernel(leaf, "leaf")

    def inner(job):
        clock.t += 2.0
        leaf_k()
        leaf_k()

    inner_s = tr.span(inner, "inner", lambda args: args[0])

    def outer():
        clock.t += 3.0
        inner_s(7)
        clock.t += 0.5
        inner_s(8)

    tr.span(outer, "outer")()

    # outer: 3 + (2+1+1) + 0.5 + (2+1+1) = 11.5 busy, 3.5 self
    assert tr.busy_s("outer") == pytest.approx(11.5)
    assert tr.self_s("outer") == pytest.approx(3.5)
    assert tr.calls("inner") == 2
    assert tr.busy_s("inner") == pytest.approx(8.0)
    assert tr.self_s("inner") == pytest.approx(4.0)  # the kernels are charged to "leaf"
    assert tr.calls("leaf") == 4 and tr.self_s("leaf") == pytest.approx(4.0)
    # self times add up to what the root handed out: nothing is counted twice
    assert sum(a[tracing.SELF] for a in tr.acc.values()) == pytest.approx(tr.attributed_s())
    assert tr.attributed_s() == pytest.approx(11.5)
    # recorded spans: outer, inner(7), inner(8) with parents and job ids
    assert [tr.names[i] for i in tr.span_name] == ["outer", "inner", "inner"]
    assert tr.span_parent == [-1, 0, 0]
    assert tr.span_job == [None, 7, 8]
    assert tr.span_start == [0.0, 3.0, 7.5] and tr.span_end == [11.5, 7.0, 11.5]
    # kernels leave no span records
    assert "leaf" not in tr.names


def test_offline_self_time_matches_online_accumulators():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def c():
        clock.t += 1.0

    c_s = tr.span(c, "c")

    def b():
        clock.t += 2.0
        c_s()

    b_s = tr.span(b, "b")

    def a():
        b_s()
        clock.t += 4.0
        b_s()
        c_s()

    tr.span(a, "a")()
    offline = tracing.self_time_by_name(
        [tr.names[i] for i in tr.span_name], tr.span_start, tr.span_end, tr.span_parent
    )
    assert offline == pytest.approx({"a": 4.0, "b": 4.0, "c": 3.0})
    for name, seconds in offline.items():
        assert tr.self_s(name) == pytest.approx(seconds)


def test_span_bookkeeping_survives_exceptions():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def boom():
        clock.t += 1.0
        raise RuntimeError("x")

    boom_s = tr.span(boom, "boom")

    def outer():
        with pytest.raises(RuntimeError):
            boom_s()
        clock.t += 1.0

    tr.span(outer, "outer")()
    assert tr.self_s("boom") == pytest.approx(1.0)
    assert tr.self_s("outer") == pytest.approx(1.0)
    assert tr.span_parent == [-1, 0]


def test_kernel_iter_times_each_next_and_measures_items():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def gen(n):
        for i in range(n):
            clock.t += 0.5
            yield [0] * (i + 1)

    items = list(tr.kernel_iter(gen, "gen", len)(3))
    assert [len(x) for x in items] == [1, 2, 3]
    assert tr.measured("gen") == 6
    assert tr.calls("gen") == 4  # three items + the exhausted next()
    assert tr.busy_s("gen") == pytest.approx(1.5)


def test_document_is_json_and_columnar():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def f():
        clock.t += 0.25

    tr.span(f, "f")()
    doc = json.loads(json.dumps(tr.document()))
    assert doc["names"] == ["f"]
    assert doc["spans"] == {"name": [0], "start": [0.0], "end": [0.25], "parent": [-1], "job": [None]}
    assert doc["accumulated"]["f"]["calls"] == 1


# -- wrapper install / uninstall -----------------------------------------------

def _patched_surface():
    """Every (owner, attribute) the ledger is expected to replace."""
    from repro.core import rtds
    from repro.core.admission_cache import AdmissionCache
    from repro.experiments import runner, soak
    from repro.sched.executor import PlanExecutor
    from repro.simnet.engine import Simulator
    from repro.simnet.network import Network
    from repro.simnet.site import SiteBase

    return [
        (Simulator, "run"), (Network, "transmit"), (SiteBase, "on"),
        (AdmissionCache, "endorse"), (PlanExecutor, "_finish_call"),
        (rtds.RTDSSite, "submit_job"),
        # names re-imported with ``from x import f`` into their callers
        (rtds, "local_guarantee_test"), (rtds, "build_trial_mapping"),
        (rtds, "sphere_broadcast"), (rtds, "handle_sphere_message"), (rtds, "build_pcs"),
        (runner, "topology_factory"), (runner, "build_network"), (runner, "phased_tables"),
        (runner, "generate_workload"), (runner, "summarize"),
        (soak, "open_loop_jobs"), (soak, "open_loop_rate"),
    ]


def test_install_replaces_and_restore_brings_back_the_originals():
    surface = _patched_surface()
    before = [vars(owner)[attr] for owner, attr in surface]
    patches = ledger.install(tracing.Tracer())
    try:
        during = [vars(owner)[attr] for owner, attr in surface]
        assert all(d is not b for d, b in zip(during, before))
    finally:
        patches.restore()
    after = [vars(owner)[attr] for owner, attr in surface]
    assert all(a is b for a, b in zip(after, before))


def test_patches_refuse_inherited_attributes():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        tracing.Patches().set(Child, "f", lambda self: 2)


def test_traced_run_counts_handlers_and_changes_no_result():
    cell = workloads.BatchCell("mini", "", replace(workloads.all_workloads()["steady48"].config, duration=150.0))
    wl = cell.prepare(0)
    plain = cell.observe(cell.call(wl))
    fresh = cell.prepare(0)  # untraced: the call builds (and routes) its own network
    tr = tracing.Tracer()
    patches = ledger.install(tr)
    try:
        traced = cell.observe(cell.call(fresh))
    finally:
        patches.restore()
    assert traced.digest == plain.digest
    # one wrapped transmit per physical transmission; a delivery runs at
    # most one handler (transit hops run none), and the four broadcast
    # types only ever arrive inside a SPHERE envelope
    sent = traced.network.stats.total
    assert tr.calls("simnet.network.transmit") == sent
    enveloped = ("ENROLL", "VALIDATE", "EXECUTE", "UNLOCK")
    inner = sum(tr.calls(f"core.rtds.{t}") for t in enveloped)
    delivered = sum(tr.calls(f"core.rtds.{t}") for t in ledger.RTDS_TYPES if t not in enveloped)
    assert 0 < inner <= tr.calls("core.rtds.SPHERE")
    assert 0 < delivered <= sent
    assert tr.calls("core.rtds.submit") == traced.arrived
    assert tr.attributed_s() > 0
    metrics = ledger.per_layer(
        tr, tr, traced, call_wall_traced=1.0, call_wall_untraced=1.0, loop_s_untraced=1.0, harness={
            "harness.import_s": 0.0, "harness.rep_spread": 0.0,
            "harness.cpu_over_wall": 1.0, "harness.calib_s": 0.0,
        },
    )
    assert list(metrics) == [name for name, _, _ in ledger.PER_LAYER]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())


# -- workloads -----------------------------------------------------------------

def test_seed_zero_batch_cell_is_the_published_cell_and_seeds_differ():
    cfg = replace(workloads.all_workloads()["montage48"].config, duration=150.0)
    cell = workloads.BatchCell("mini", "", cfg)
    published = stats.digest(api.run(cfg).scalar_metrics())
    seed0 = cell.observe(cell.call(cell.prepare(0)))
    seed1 = cell.observe(cell.call(cell.prepare(1)))
    assert seed0.digest == published
    assert seed1.digest != published
    assert seed1.arrived == seed0.arrived  # same job population, other sites
    assert seed0.failed == 0 and seed1.failed == 0


def test_seed_zero_soak_is_the_auto_rate_soak_and_seeds_differ():
    class MiniSoak(workloads.SoakCell):
        N_SITES = 8
        TARGET_JOBS = 300

    cell = MiniSoak("mini", "")
    auto = api.soak(api.SoakConfig(n_sites=8, rho=cell.RHO, target_jobs=300, seed=0))
    seed0 = cell.observe(cell.call(cell.prepare(0)))
    seed1 = cell.observe(cell.call(cell.prepare(1)))
    assert seed0.soak_report.guarantee_ratio == auto.guarantee_ratio
    assert seed0.soak_report.lat_p99 == auto.lat_p99
    assert seed0.soak_report.sim_time == auto.sim_time
    assert seed1.digest != seed0.digest
    assert seed0.arrived == seed1.arrived == 300
    assert seed0.failed == 0


# -- BENCHMARK.json ------------------------------------------------------------

def test_benchmark_json_matches_the_code_and_the_contract():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"][-1] == "benchmarks/e2e/run.py"
    assert 1 <= doc["run_seconds"] <= 60 and isinstance(doc["run_seconds"], int)

    cells = workloads.all_workloads()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [(c.name, c.why) for c in cells.values()]
    assert tuple(cells) == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(ledger.PER_LAYER)

    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in doc[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    for w in doc["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
