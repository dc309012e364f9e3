"""Command-line interface.

::

    rtds example              # the paper's worked example (Figs 2-4, Table 1)
    rtds run --algorithm rtds --rho 0.6 --sites 16
    rtds profile --sites 48 --duration 300    # cProfile an experiment
    rtds run --faults "loss=0.05,jitter=0.5,links=4,sites=1" --seed 3
    rtds campaign --algorithms rtds,local --runs 8 --jobs 4 --store results/store
    rtds sweep-load --algorithms rtds,local --rhos 0.3,0.6,0.9
    rtds sweep-size --algorithms rtds,focused --sizes 16,36,64
    rtds sweep-faults --losses 0.0,0.05,0.15,0.3 --runs 3 --jobs 2 --store results/store --resume
    rtds sweep-widenet --sizes 256,512,1024 --kinds geometric,barabasi_albert --jobs 4
    rtds sweep-hetero --speeds uniform,skew:4 --workloads synthetic,trace:montage --jobs 4
    rtds run --sites 512 --routing oracle      # vectorized setup, no simulated routing
    rtds soak --target-jobs 100000 --arrival auto --metrics soak.jsonl   # E12
    rtds soak --sites 32 --rho 0.5 --routing oracle --degraded-floor 0.2 \\
        --faults "sites=12,downtime=40,joins=4,join_links=3" --metrics chaos.jsonl   # E13

A thin argparse shell over :mod:`repro.api`: every subcommand turns its
flags into one ``api`` call and prints the result; the seven ``sweep-*``
subcommands are rows of one table (:data:`_SWEEPS`) behind one command
function. ``campaign``, ``sweep-faults``, ``sweep-widenet`` and
``sweep-hetero`` take the campaign runtime flags: ``--jobs N`` fans the
cell matrix across ``N`` worker processes, ``--store DIR`` persists every
cell to a JSONL result store as it finishes, and ``--resume`` skips cells
the store already completed (failed cells are retried). Live per-cell
progress goes to stderr; tables go to stdout.

Exit codes (:func:`main` is the single error boundary): ``0`` success;
``1`` the run failed (crashed campaign cells, each named by key and seed;
a leaking soak or one whose repaired routing tables differ from a
rebuild; a missing store); ``2`` the request was wrong — a
:class:`~repro.errors.ConfigError` printed as one ``error:`` line, like
argparse's own usage errors.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import RTDSConfig
from repro.errors import CampaignCellError, ConfigError
from repro.experiments.campaign import paired_difference
from repro.experiments.paper_example import (
    PAPER_DEADLINE,
    fig3_schedule,
    fig4_schedule,
    paper_example_adjusted,
    paper_example_config,
    table1_rows,
)
from repro.experiments.parallel import CampaignStore, ResultStore
from repro.experiments.reporting import format_kv, format_table
from repro import api
from repro.api import ExperimentConfig
from repro.faults import FaultPlan, hardened
from repro.graphs.generators import paper_example_dag
from repro.obs.dashboard import CampaignDashboard
from repro.obs.export import write_metrics_jsonl
from repro.obs.telemetry import percentiles
from repro.obs.timeline import run_telemetry
from repro.simnet.speeds import split_speed_specs
from repro.viz.dagviz import render_dag
from repro.viz.gantt import render_gantt, schedule_to_items


def _cmd_example(_args: argparse.Namespace) -> int:
    print(render_dag(paper_example_dag()))
    print()
    print(render_gantt(schedule_to_items(fig3_schedule()), title="Figure 3 - schedule S (surplus-scaled)"))
    print()
    print(render_gantt(schedule_to_items(fig4_schedule()), title="Figure 4 - schedule S* (100% surplus)"))
    print()
    tm, adj = paper_example_adjusted()
    rows = [
        {"ti": t, "ri": r0, "di": d0, "r(ti)": r1, "d(ti)": d1}
        for t, r0, d0, r1, d1 in table1_rows()
    ]
    print(format_table(rows, title="Table 1 - adjusted r(ti) and d(ti)"))
    print()
    print(
        format_kv(
            "derived",
            {
                "M": tm.makespan,
                "M*": adj.mstar,
                "case": adj.case,
                "scaling (d-r)/M": (PAPER_DEADLINE - 0.0) / tm.makespan,
            },
        )
    )
    return 0


#: default ``--duration`` of a run, in simulated time units
_DURATION = 400.0


def _base_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.sites < 2:
        raise ConfigError(f"--sites must be >= 2 (one site has no network), got {args.sites}")
    faults = FaultPlan.from_spec(args.faults) if args.faults else None
    rtds_cfg = RTDSConfig(h=args.h)
    # joins-only plans don't disturb messages in flight: no hardening
    if faults is not None and faults.perturbs_network():
        rtds_cfg = hardened(
            rtds_cfg, ack_timeout=args.ack_timeout, ack_retries=args.ack_retries
        )
    return ExperimentConfig(
        topology="erdos_renyi",
        topology_kwargs={"n": args.sites, "p": min(1.0, 4.0 / max(1, args.sites - 1))},
        # run/profile/trace pick one; campaigns and sweeps set their own per cell
        algorithm=getattr(args, "algorithm", "rtds"),
        rho=args.rho,
        duration=args.duration,
        laxity_factor=args.laxity,
        seed=args.seed,
        rtds=rtds_cfg,
        faults=faults,
        routing_mode=args.routing,
    )


def _runtime(args: argparse.Namespace, name: str) -> Dict[str, Any]:
    """``--jobs/--store/--resume`` as campaign-runtime keywords.

    ``store`` is the named campaign's JSONL file under ``--store`` (None
    without the flag). ``progress`` is the live dashboard on stderr
    (stdout stays clean for tables): every completed cell prints its own
    line plus a running footer with cells/sec, elapsed and ETA
    (:class:`repro.obs.CampaignDashboard`). The callback fires in the
    parent process even under ``--jobs`` pools, and every line is flushed
    so worker stderr cannot interleave it.
    """
    return {
        "executor": args.jobs,
        "store": ResultStore(args.store).campaign(name) if args.store else None,
        "resume": args.resume,
        "progress": CampaignDashboard(),
    }


def _report_cell_failures(err: CampaignCellError, args: argparse.Namespace) -> int:
    print(f"error: {len(err.failures)} campaign cell(s) failed", file=sys.stderr)
    for failure in err.failures:
        print(
            f"  failed cell {failure.key} ({failure.label}, seed={failure.seed}): "
            f"{failure.error}",
            file=sys.stderr,
        )
    if all(f.error and f.error.startswith("ConfigError") for f in err.failures):
        # deterministic config mistakes reproduce on every retry
        print("these are configuration errors; fix the config and rerun", file=sys.stderr)
    elif not hasattr(args, "store"):
        pass  # a sweep without the runtime flags has no store to resume from
    elif args.store:
        print("rerun with --resume to retry only the failed cells", file=sys.stderr)
    else:
        print(
            "attach --store DIR and rerun to record results and retry only failures",
            file=sys.stderr,
        )
    return 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile one experiment and print the top offenders.

    The starting point of every perf PR: run it before guessing. Also
    reports raw event throughput (total and loop-only). Per-phase
    sim-time breakdowns come from ``rtds trace --metrics``; per-layer
    wall time from the e2e ledger (``benchmarks/e2e/run.py --trace 1``).
    """
    import cProfile
    import pstats
    import time

    cfg = _base_config(args)
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    res = api.run(cfg)
    profiler.disable()
    wall = time.perf_counter() - t0
    sim = res.network.sim
    print(
        f"profiled: {args.algorithm}, "
        f"{args.sites} sites, duration {args.duration}, seed {args.seed}"
    )
    print(
        f"{sim.events_processed} events in {wall:.3f}s wall "
        f"({sim.events_processed / wall:.0f} events/sec; "
        f"loop only: {sim.events_processed / sim.wall_seconds:.0f} events/sec)"
    )
    print("note: cProfile instrumentation inflates wall time; ratios matter, not totals\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.limit)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one traced experiment and export its phase timeline.

    Writes a Chrome trace-event JSON (load it in https://ui.perfetto.dev
    or ``chrome://tracing``) with one lane per site showing the protocol
    phases of every job, plus (``--metrics``) the flat metrics JSONL.
    ``--paper-example`` runs the Figure-1 scenario: a 4-site complete
    network fed Fig. 2 DAGs — small enough to read span by span.
    """
    if args.paper_example:
        cfg = paper_example_config(seed=args.seed)
        if args.duration is not None:
            cfg = replace(cfg, duration=args.duration)
    else:
        if args.duration is None:
            args.duration = _DURATION
        cfg = _base_config(args)
    res, doc = api.trace(cfg, out=args.out)
    obs = run_telemetry(res)
    n_events = len(doc["traceEvents"])
    admitted = [r for r in res.collector.records() if r.outcome.accepted]
    spanned = {
        cat: {s.key for s in obs.spans if s.category == cat}
        for cat in ("phase.enroll", "phase.validate", "phase.execute")
    }
    missing = [
        (r.job, cat)
        for r in admitted
        for cat, keys in spanned.items()
        if r.job not in keys
    ]
    print(f"wrote {args.out}: {n_events} trace events, {len(obs.spans)} spans")
    print(
        f"jobs: {len(admitted)} admitted / {res.collector.n_arrived()} arrived; "
        f"enroll/validate/execute spans cover "
        f"{len(admitted) - len({j for j, _ in missing})}/{len(admitted)} admitted jobs"
    )
    if args.metrics:
        n_rec = write_metrics_jsonl(obs, args.metrics)
        print(f"wrote {args.metrics}: {n_rec} metric records")
    if missing:
        for job, cat in missing:
            print(f"error: admitted job {job} has no {cat} span", file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Summarize a campaign result store's metrics and obs snapshots.

    Accepts a ``--store`` directory (all campaigns) or one campaign's
    ``.jsonl`` file. Per campaign: cell counts, wall time, mean GR, and
    percentile summaries of the per-cell events/sec and peak-RSS samples
    the campaign runtime records on every cell.
    """
    path = pathlib.Path(args.store)
    if path.is_dir():
        store = ResultStore(path)
        names = store.campaigns()
        stores = [(name, store.campaign(name)) for name in names]
    elif path.is_file():
        stores = [(path.stem, CampaignStore(path))]
    else:
        print(f"error: no store at {path}", file=sys.stderr)
        return 1
    if not stores:
        print(f"error: store {path} holds no campaigns", file=sys.stderr)
        return 1
    rows = []
    for name, cs in stores:
        results = list(cs.load().values())
        if not results:
            continue
        ok = [r for r in results if r.ok]
        grs = [
            r.metrics["guarantee_ratio"] for r in ok if "guarantee_ratio" in r.metrics
        ]
        eps = [r.obs["events_per_sec"] for r in ok if "events_per_sec" in r.obs]
        rss = [r.obs["rss_mb"] for r in ok if "rss_mb" in r.obs]
        eps_p = percentiles(eps)
        rows.append(
            {
                "campaign": name,
                "cells": len(results),
                "failed": len(results) - len(ok),
                "wall_s": sum(r.elapsed for r in results),
                "GR": sum(grs) / len(grs) if grs else float("nan"),
                "ev/s p50": eps_p["p50"],
                "ev/s p95": eps_p["p95"],
                "rss_mb max": max(rss) if rss else float("nan"),
            }
        )
    if not rows:
        print(f"error: store {path} holds no records", file=sys.stderr)
        return 1
    print(format_table(rows, title=f"store stats: {path}"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    res = api.run(_base_config(args))
    print(format_table([res.summary.row()], title=f"run: {args.algorithm}"))
    if res.summary.rejected_by:
        print(format_kv("rejections", res.summary.rejected_by))
    if res.faults is not None:
        from repro.metrics.faults import fault_report

        print(format_table(fault_report(res).rows(), title="fault report"))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    algos = args.algorithms.split(",")
    rows = api.campaign(
        _base_config(args),
        algos,
        seeds=_seeds(args),
        **_runtime(args, args.name),
    )
    print(
        format_table(
            [{k: v for k, v in row.items() if k != "per_seed"} for row in rows],
            title=(
                f"campaign: {len(algos)} algorithm(s) x {args.runs} seeds "
                f"(mean ± 95% CI, jobs={args.jobs})"
            ),
        )
    )
    first = rows[0]
    for other in rows[1:]:
        diff, half = paired_difference(first["per_seed"]["GR"], other["per_seed"]["GR"])
        star = " (*)" if abs(diff) > half else ""
        print(f"GR: {first['label']} - {other['label']} = {diff:+.4f} ± {half:.4f}{star}")
    return 0


def _seeds(args: argparse.Namespace) -> range:
    """``--runs`` replications starting at ``--seed``."""
    return range(args.seed, args.seed + args.runs)


def _csv(text: str, cast: Callable[[str], Any] = str) -> List[Any]:
    try:
        return [cast(x) for x in text.split(",")]
    except ValueError as err:  # names the item: "could not convert string to float: 'x'"
        raise ConfigError(f"bad list {text!r}: {err}") from None


def _fault_plans(args: argparse.Namespace) -> Dict[str, Any]:
    base = _base_config(args)
    if not base.rtds.hardened:  # no perturbing --faults, but the scaled plans will be
        rtds_cfg = hardened(base.rtds, ack_timeout=args.ack_timeout, ack_retries=args.ack_retries)
        base = replace(base, rtds=rtds_cfg)
    template = FaultPlan.from_spec(args.faults) if args.faults else FaultPlan()
    return {
        "base": base,
        "plans": [(f"loss={p:g}", template.scaled(p)) for p in _csv(args.losses, float)],
        "seeds": _seeds(args),
    }


def _hetero_axes(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        # profile-aware split: commas inside "tiers:1,2,4" stay attached
        "speed_specs": split_speed_specs(args.speeds),
        "workloads": [w.strip() for w in args.workloads.split(",") if w.strip()],
        "seeds": _seeds(args),
        "n_sites": args.sites,
    }


#: subcommand -> (sweep, table title, flags -> the sweep's keywords); every
#: sweep also takes ``base``, :func:`_base_config` unless the keywords set it
_SWEEPS: Dict[str, Tuple[Callable, str, Callable[[argparse.Namespace], Dict[str, Any]]]] = {
    "sweep-load": (
        api.sweep_load,
        "E1: guarantee ratio vs offered load",
        lambda a: {
            "algorithms": _csv(a.algorithms),
            "rhos": _csv(a.rhos, float),
            "seeds": tuple(range(a.runs)),
        },
    ),
    "sweep-size": (
        api.sweep_network_size,
        "E2: messages per job vs network size",
        lambda a: {"algorithms": _csv(a.algorithms), "sizes": _csv(a.sizes, int)},
    ),
    "sweep-radius": (
        api.sweep_sphere_radius,
        "E3: sphere radius sweep",
        lambda a: {"hs": _csv(a.radii, int)},
    ),
    "sweep-ablations": (api.sweep_ablations, "E5: §13 generalization ablations", lambda a: {}),
    "sweep-faults": (api.sweep_fault_plans, "E7: guarantee ratio vs message-loss rate", _fault_plans),
    "sweep-widenet": (
        api.sweep_widenet,
        "E10: wide-network scale-out ({routing} routing)",
        lambda a: {
            "kinds": _csv(a.kinds),
            "sizes": _csv(a.sizes, int),
            "seeds": _seeds(a),
            "routing_mode": a.routing,
        },
    ),
    "sweep-hetero": (api.sweep_hetero, "E11: guarantee ratio vs speed skew x workload family", _hetero_axes),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Every ``sweep-*`` subcommand: one :data:`_SWEEPS` row, run and printed."""
    sweep, title, keywords = _SWEEPS[args.command]
    kwargs = keywords(args)
    kwargs.setdefault("base", _base_config(args))
    if hasattr(args, "jobs"):  # E7/E10/E11 carry the campaign runtime flags
        kwargs.update(_runtime(args, args.command))
    rows = sweep(**kwargs)
    print(format_table(rows, title=title.format(**vars(args))))
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    cfg = api.SoakConfig(
        n_sites=args.sites,
        arrival=args.arrival,
        rho=args.rho,
        target_jobs=args.target_jobs,
        queue_capacity=args.queue_capacity,
        laxity_factor=args.laxity,
        sample_every=args.sample_every,
        algorithm=args.algorithm,
        routing_mode=args.routing,
        seed=args.seed,
        faults=args.faults,
        fault_horizon=args.fault_horizon,
        degraded_floor=args.degraded_floor,
    )

    def progress(s: api.SoakSample) -> None:
        print(
            f"  jobs {s.jobs_decided:>8}  sim {s.sim_time:>9.1f}  "
            f"{s.jobs_per_sec:>7.0f} j/s  GR {s.guarantee_ratio:.4f}  "
            f"p99 {s.lat_p99:>7.3f}  q {s.queue_depth:>5}  "
            f"rss {s.rss_mb:>6.1f}MB  live {s.live_records:>6}  "
            f"joins {s.joins_applied}  rejoins {s.rejoins:>3}  "
            f"downs {s.site_down_events:>3}  shed {s.shed_total:>5}",
            file=sys.stderr,
        )

    report = api.soak(cfg, progress=progress)
    faults = f", faults {cfg.faults}" if cfg.faults else ""
    print(
        format_kv(
            f"E12 soak ({args.arrival}, {args.sites} sites{faults})",
            {
                "jobs": report.n_jobs,
                "wall_s": round(report.wall_s, 2),
                "jobs_per_sec": round(report.jobs_per_sec, 1),
                "sim_time": round(report.sim_time, 1),
                "GR": round(report.guarantee_ratio, 4),
                "effGR": round(report.effective_ratio, 4),
                "lat_p50": round(report.lat_p50, 3),
                "lat_p99": round(report.lat_p99, 3),
                "max_queue_depth": report.max_queue_depth,
                "rss_peak_mb": round(report.rss_peak_mb, 1),
                "rss_growth_final80": round(report.rss_growth_final80, 4),
                "joins_applied": report.joins_applied,
                "rejoins": report.rejoins,
                "repaired_rows": report.repaired_rows,
                "site_down_events": report.site_down_events,
                "jobs_dropped": report.jobs_dropped,
                "abandoned_reaped": report.abandoned_reaped,
                "shed_queue_full": report.shed_queue_full,
                "shed_degraded": report.shed_degraded,
                "leaked_unfinished": report.leaked_unfinished,
                "tables_converged": bool(report.tables_converged),
            },
        )
    )
    if args.metrics is not None:
        report.write_samples_jsonl(pathlib.Path(args.metrics))
        print(f"wrote {len(report.samples)} samples to {args.metrics}")
    ok = report.leaked_unfinished == 0 and report.tables_converged
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``rtds`` argument parser (exposed for docs/completion tooling)."""
    parser = argparse.ArgumentParser(prog="rtds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("example", help="reproduce the paper's worked example")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sites", type=int, default=16)
        p.add_argument("--rho", type=float, default=0.6)
        p.add_argument("--duration", type=float, default=_DURATION)
        p.add_argument("--laxity", type=float, default=3.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--h", type=int, default=2)
        p.add_argument(
            "--faults",
            default=None,
            help='fault spec, e.g. "loss=0.05,jitter=0.5,links=4,sites=1,downtime=20"',
        )
        p.add_argument("--ack-timeout", type=float, default=5.0, dest="ack_timeout")
        p.add_argument("--ack-retries", type=int, default=1, dest="ack_retries")
        p.add_argument(
            "--routing", default="protocol", choices=["protocol", "oracle"],
            help="routing back end: simulate the phased protocol, or install "
            "vectorized precomputed tables (identical routes, wide-network-fast setup)",
        )

    def runtime(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for the cell matrix (1 = serial)",
        )
        p.add_argument(
            "--store", default=None,
            help="directory of the persistent JSONL result store",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="skip cells already completed in --store (failed cells are retried)",
        )

    p_run = sub.add_parser("run", help="one experiment")
    common(p_run)
    p_run.add_argument("--algorithm", default="rtds")

    p_prof = sub.add_parser(
        "profile", help="cProfile one experiment; print the top offenders"
    )
    common(p_prof)
    p_prof.add_argument("--algorithm", default="rtds")
    p_prof.add_argument(
        "--limit", type=int, default=25, help="rows of profile output"
    )
    p_prof.add_argument(
        "--sort", default="cumulative", choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key",
    )

    p_tr = sub.add_parser(
        "trace", help="run traced; export its phase timeline as Chrome trace events"
    )
    common(p_tr)
    p_tr.add_argument("--algorithm", default="rtds")
    p_tr.add_argument(
        "--paper-example", action="store_true", dest="paper_example",
        help="trace the Figure-1 scenario (4-site complete net, Fig. 2 DAGs) "
        "instead of the --sites/--rho synthetic workload",
    )
    # unset --duration: the paper example runs its own default length
    p_tr.set_defaults(duration=None)
    p_tr.add_argument(
        "--out", default="trace.json",
        help="Chrome trace-event JSON output path (open in ui.perfetto.dev)",
    )
    p_tr.add_argument(
        "--metrics", default=None,
        help="also write the flat metrics JSONL stream to this path",
    )

    p_st = sub.add_parser(
        "stats", help="summarize a campaign result store (GR, events/sec, RSS)"
    )
    p_st.add_argument(
        "store", help="result-store directory or one campaign's .jsonl file"
    )

    p_camp = sub.add_parser(
        "campaign", help="replicated multi-algorithm campaign with 95%% CIs"
    )
    common(p_camp)
    p_camp.add_argument("--algorithms", default="rtds,local")
    p_camp.add_argument(
        "--runs", type=int, default=8,
        help="replications per algorithm (seeds --seed .. --seed+runs-1)",
    )
    p_camp.add_argument("--name", default="campaign", help="store file name")
    runtime(p_camp)

    p_sf = sub.add_parser("sweep-faults", help="E7 guarantee vs loss-rate sweep")
    common(p_sf)
    p_sf.add_argument("--losses", default="0.0,0.05,0.15,0.3")
    p_sf.add_argument("--runs", type=int, default=2)
    runtime(p_sf)

    p_wn = sub.add_parser(
        "sweep-widenet", help="E10 wide-network scale-out campaign (oracle routing)"
    )
    common(p_wn)
    # E10's point is the scale-out path: oracle routing unless asked otherwise
    p_wn.set_defaults(routing="oracle")
    p_wn.add_argument("--sizes", default="256,512,1024", help="network sizes, comma-separated")
    p_wn.add_argument(
        "--kinds", default="geometric,barabasi_albert",
        help="topology families (geometric,barabasi_albert)",
    )
    p_wn.add_argument("--runs", type=int, default=1, help="seeds per (kind, size) cell")
    runtime(p_wn)

    p_he = sub.add_parser(
        "sweep-hetero",
        help="E11 heterogeneous-sites campaign (speed profiles x trace workloads)",
    )
    common(p_he)
    # E11's own cell preset: the flag-less CLI run addresses the same
    # cells as sweep_hetero()'s defaults, which tier-1 gates; --sites/
    # --rho/--duration/--laxity still work and reshape the cells like on
    # any subcommand
    p_he.set_defaults(sites=24, duration=240.0)
    p_he.add_argument(
        "--speeds", default="uniform,skew:2,skew:4",
        help="speed profiles (uniform, skew:K, tiers:a,b, lognormal:SIGMA)",
    )
    p_he.add_argument(
        "--workloads", default="synthetic,trace:montage,trace:epigenomics",
        help="workload families (synthetic, trace:<name>)",
    )
    p_he.add_argument("--runs", type=int, default=2, help="seeds per (profile, workload) cell")
    runtime(p_he)

    p_sl = sub.add_parser("sweep-load", help="E1 load sweep")
    common(p_sl)
    p_sl.add_argument("--algorithms", default="rtds,local")
    p_sl.add_argument("--rhos", default="0.3,0.6,0.9")
    p_sl.add_argument("--runs", type=int, default=1)

    p_ss = sub.add_parser("sweep-size", help="E2 network size sweep")
    common(p_ss)
    p_ss.add_argument("--algorithms", default="rtds,focused")
    p_ss.add_argument("--sizes", default="16,36,64")

    p_sr = sub.add_parser("sweep-radius", help="E3 sphere radius sweep")
    common(p_sr)
    p_sr.add_argument("--radii", default="1,2,3")

    p_ab = sub.add_parser("sweep-ablations", help="E5 §13 generalization ablations")
    common(p_ab)

    p_soak = sub.add_parser(
        "soak",
        help="E12 long-lived admission soak: open-loop stream into one "
        "resident network (jobs/sec, interval p99s, flat-RSS audit); with "
        "--faults, E13: site churn and mid-flight joins (survivability "
        "ledger, bit-for-bit routing-repair check)",
    )
    p_soak.add_argument("--sites", type=int, default=48)
    p_soak.add_argument("--rho", type=float, default=0.6)
    p_soak.add_argument(
        "--target-jobs", type=int, default=100_000, dest="target_jobs",
        help="jobs to push through the resident network",
    )
    p_soak.add_argument(
        "--sample-every", type=int, default=2000, dest="sample_every",
        help="decisions between trajectory samples",
    )
    p_soak.add_argument(
        "--arrival", default="auto",
        help='arrival process: "auto" (Poisson at --rho), "poisson:RATE", '
        '"mmpp:R1,R2@S1,S2" or "diurnal:VOLUME@DAY[@AMP]"',
    )
    p_soak.add_argument(
        "--queue-capacity", type=int, default=1024, dest="queue_capacity",
        help="admission queue bound (backpressure beyond this)",
    )
    p_soak.add_argument("--laxity", type=float, default=3.0)
    p_soak.add_argument("--algorithm", default="rtds")
    p_soak.add_argument(
        "--routing", default="protocol", choices=["protocol", "oracle"]
    )
    p_soak.add_argument(
        "--faults", default=None,
        help='fault spec armed on the resident, e.g. "sites=6,downtime=30" '
        'or "sites=12,downtime=40,joins=4,join_links=3" (joins need '
        "--routing oracle)",
    )
    p_soak.add_argument(
        "--fault-horizon", type=float, default=None, dest="fault_horizon",
        help="simulated span the fault plan draws its churn/join events "
        "over (default: the stream's expected span at --rho plus 10%%, so "
        "the faults cover the whole run)",
    )
    p_soak.add_argument(
        "--degraded-floor", type=float, default=None, dest="degraded_floor",
        help="admission breaker: switches the intake to lossy submit_nowait, "
        "which sheds (counted) when the queue is full and while the windowed "
        "acceptance rate sits below this floor",
    )
    p_soak.add_argument("--seed", type=int, default=0)
    p_soak.add_argument(
        "--metrics", default=None,
        help="write the per-sample trajectory as JSONL here (CI artifact)",
    )

    return parser


#: subcommands with a command function of their own; every other
#: subcommand is a row of :data:`_SWEEPS`
_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "example": _cmd_example,
    "run": _cmd_run,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "campaign": _cmd_campaign,
    "soak": _cmd_soak,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``rtds`` command — and its one error boundary.

    A :class:`~repro.errors.ConfigError` from anywhere below (flag
    parsing, config validation, the run) is a one-line ``error:`` on
    stderr and exit 2; a :class:`~repro.errors.CampaignCellError` is the
    per-cell failure report plus a resume hint and exit 1.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS.get(args.command, _cmd_sweep)(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CampaignCellError as err:
        return _report_cell_failures(err, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
