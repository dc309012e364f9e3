"""Documentation integrity: the docs reference real things.

DESIGN.md's experiment index and EXPERIMENTS.md's regeneration pointers
must name claim tests and bench files that exist, and every claim test
must be named; README's example table must name real
scripts; the paper-identity check must be present (the reproduction brief
requires it at the top of DESIGN.md).
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: the paper's shape claims, one test file per experiment
CLAIMS = sorted(p.name for p in (ROOT / "tests" / "claims").glob("test_*.py"))


def read(name: str) -> str:
    return (ROOT / name).read_text()


def section(name: str, heading: str) -> str:
    """The text under ``heading`` up to the next heading of its level."""
    text = read(name)
    level = heading.split(" ", 1)[0] + " "
    start = text.index(heading)
    end = text.find("\n" + level, start + len(heading))
    return text[start:] if end < 0 else text[start:end]


class TestDesignMd:
    def test_exists_with_identity_check(self):
        text = read("DESIGN.md")
        assert "identity check" in text.lower() or "Paper identity" in text
        assert "Butelle" in text

    def test_referenced_bench_files_exist(self):
        text = read("DESIGN.md")
        for name in set(re.findall(r"benchmarks/(bench_\w+\.py)", text)):
            assert (ROOT / "benchmarks" / name).exists(), name
        named = set(re.findall(r"tests/claims/(test_\w+\.py)", text))
        assert named == set(CLAIMS), f"DESIGN.md names {sorted(named)}; tests/claims: {CLAIMS}"

    def test_referenced_modules_exist(self):
        text = read("DESIGN.md")
        for mod in set(re.findall(r"`repro\.([a-z_.]+)`", text)):
            path = ROOT / "src" / "repro" / (mod.replace(".", "/") + ".py")
            pkg = ROOT / "src" / "repro" / mod.replace(".", "/") / "__init__.py"
            assert path.exists() or pkg.exists(), f"repro.{mod} referenced but missing"

    def test_heterogeneity_section(self):
        """DESIGN.md §11 must document speed semantics + determinism."""
        text = read("DESIGN.md")
        assert "Heterogeneity & trace workloads" in text
        assert "`repro.simnet.speeds`" in text
        assert "`repro.workloads.traces`" in text
        lower = text.lower()
        for concept in (
            "c / speed",
            "mean-normalised",
            "uniform is invisible",
            "e11_hetero",
            "reference_speed",
        ):
            assert concept.lower() in lower, f"DESIGN.md must document {concept!r}"
        assert "test_hetero_sweep.py" in text

    def test_observability_section(self):
        """DESIGN.md §12 must document the one-instrument cost contract."""
        text = read("DESIGN.md")
        assert "Observability model" in text
        assert "`repro.obs`" in text
        lower = text.lower()
        for concept in (
            "read off the trace",
            "test_timeline.py",
            "reservoir",
            "chrome trace",
            "phase.enroll",
        ):
            assert concept.lower() in lower, f"DESIGN.md must document {concept!r}"
        overhead = section("DESIGN.md", "### §12.2 Overhead contract")
        assert "Nothing but the tracer on the hot path" in overhead and "trace_on" in overhead

    def test_service_section(self):
        """DESIGN.md §13 must document the service model's contracts."""
        text = read("DESIGN.md")
        assert "Service model & open-loop traffic" in text
        assert "`repro.service`" in text
        assert "`repro.workloads.arrivals`" in text
        lower = text.lower()
        for concept in (
            "open-loop",
            "rate × duration",
            "bounded queue",
            "service ≡ batch identity",
            "fold_before",
            "rtds soak",
        ):
            assert concept.lower() in lower, f"DESIGN.md must document {concept!r}"
        assert "soak48" in section("DESIGN.md", "## §13 Service model")

    def test_membership_section(self):
        """DESIGN.md §14 must document the survivability contracts."""
        text = read("DESIGN.md")
        assert "Membership & survivability model" in text
        assert "`repro.membership`" in text
        lower = text.lower()
        for concept in (
            "join/rejoin",
            "incremental routing repair",
            "bit-for-bit",
            "affected set",
            "lost_coordinator",
            "degraded_floor",
            "rtds soak --routing",
        ):
            assert concept.lower() in lower, f"DESIGN.md must document {concept!r}"
        assert 'faults="sites=12,downtime=40,joins=4,join_links=3"' in text
        assert "test_chaos.py" in text

    def test_admission_cache_section(self):
        """DESIGN.md §15 must document the batched core & plan cache."""
        text = read("DESIGN.md")
        assert "Batched admission core & plan cache" in text
        assert "`repro.core.admission_cache`" in text
        assert "`repro.sched.soa`" in text
        assert "`repro.api`" in text
        lower = text.lower()
        for concept in (
            "bit for bit",
            "state_digest",
            "tail signature",
            "digest_value_max",
            "config_fingerprint",
            "tests/cache",
            "admission_cache=false",
            "site_speeds",
        ):
            assert concept.lower() in lower, f"DESIGN.md must document {concept!r}"
        assert "steady48" in section("DESIGN.md", "## §15 Batched admission core")

    def test_single_engine_section(self):
        """DESIGN.md §16 must say why one process is enough, with the gate."""
        text = section("DESIGN.md", "## §16 ")
        assert "one process" in text
        assert "10 000" in text
        assert "e7b698db2ff66299" in text and "e7981cc3f47e79a0" in text
        assert "750 MB" in text

    def test_parallel_runtime_section(self):
        """The campaign runtime must stay documented where it is built."""
        text = read("DESIGN.md")
        assert "Parallel runtime & result store" in text
        assert "`repro.experiments.parallel`" in text
        lower = text.lower()
        for concept in (
            "cell key",
            "content-address",
            "jsonl",
            "resume",
            "determinism",
            "last record per key",
        ):
            assert concept.lower() in lower, f"DESIGN.md must document {concept!r}"
        assert "test_parallel.py" in text and "E8 pool speedup" in text


class TestExperimentsMd:
    def test_every_artifact_names_an_existing_gate(self):
        text = read("EXPERIMENTS.md")
        for name in set(re.findall(r"`(bench_\w+\.py)`", text)):
            assert (ROOT / "benchmarks" / name).exists(), name
        named = set(re.findall(r"`tests/claims/(test_\w+\.py)`", text))
        assert named == set(CLAIMS), f"EXPERIMENTS.md names {sorted(named)}; tests/claims: {CLAIMS}"

    def test_paper_numbers_present(self):
        text = read("EXPERIMENTS.md")
        # the exact worked-example anchors
        for anchor in ("M = 33", "M* = 19", "case (ii)"):
            assert anchor in text, anchor

    def test_every_sweep_entry_has_a_cli_line(self):
        """Each E1–E8 artifact must carry the exact line that reproduces it."""
        text = read("EXPERIMENTS.md")
        for exp in ("E1", "E1b", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"):
            assert re.search(rf"### {re.escape(exp)} —", text), f"missing entry {exp}"
        # every experiment entry is followed by a runnable command line
        entries = re.split(r"### ", text)[1:]
        for entry in entries:
            assert re.search(r"```bash\n(rtds |PYTHONPATH=src )", entry), (
                f"entry {entry.splitlines()[0]!r} lacks a CLI line"
            )
        # the campaign-runtime flags are shown in anger, not just described
        assert "--jobs" in text and "--store" in text and "--resume" in text

    def test_e8_links_its_gates(self):
        """E8 names its tier-1 tests and the nightly speedup step, which
        must exist under that name."""
        text = section("EXPERIMENTS.md", "### E8 —")
        assert "test_parallel.py" in text
        assert "test_serial_pool_identity" in text and "test_store_skips_completed" in text
        assert "E8 pool speedup" in text
        assert "name: E8 pool speedup" in read(".github/workflows/nightly.yml")

    def test_e10_entry_names_gate_and_cli(self):
        """E10 must name its e2e workload, its tests and the campaign CLI."""
        text = section("EXPERIMENTS.md", "### E10 —")
        assert "wide_geo1024" in text
        assert "tests/routing/" in text
        assert "rtds sweep-widenet" in text

    def test_observability_entry_names_tools_and_gate(self):
        """The observability entry must show the trace/stats CLI and the gate."""
        text = read("EXPERIMENTS.md")
        assert "rtds trace" in text
        assert "rtds stats" in text
        assert "--paper-example" in text
        assert "read off the trace" in text
        assert "test_timeline.py" in text

    def test_e11_entry_names_gate_and_cli(self):
        """E11 must document its drift gate, differential check and CLI."""
        text = section("EXPERIMENTS.md", "### E11 —")
        assert "test_hetero_sweep.py" in text
        assert "rtds sweep-hetero" in text
        assert "uniform differential" in text
        assert "trace:montage" in text and "trace:epigenomics" in text


    def test_e9_entry_names_overhead_gate(self):
        """E9 must name its e2e workload, the span golden and tests/cache."""
        text = section("EXPERIMENTS.md", "### E9 —")
        assert "steady48" in text
        assert "test_timeline.py" in text and "trace_on" in text
        assert "hit-rate floor" in text
        assert "tests/cache" in text

    def test_e12_entry_names_gate_and_cli(self):
        """E12 must document its soak gate, the CLI and the test lockdown."""
        text = section("EXPERIMENTS.md", "### E12 —")
        assert "soak48" in text
        assert "rtds soak" in text
        assert "--target-jobs 100000" in text
        assert "open-loop" in text
        assert "test_soak_fast.py" in text

    def test_e13_entry_names_gate_and_cli(self):
        """E13 must document its chaos gate, the CLI and the test lockdown."""
        text = section("EXPERIMENTS.md", "### E13 —")
        assert "nightly" in text
        assert 'api.soak(api.SoakConfig(n_sites=32, rho=0.5, routing_mode="oracle", ' in text
        assert 'faults="sites=12,downtime=40,joins=4,join_links=3", degraded_floor=0.2))' in text
        assert "rtds soak --sites 32 --rho 0.5 --routing oracle --degraded-floor 0.2" in text
        assert "--faults" in text
        assert "tables_converged" in text
        assert "test_repair.py" in text
        assert "test_chaos.py" in text

    def test_e14_entry_names_gate_and_cli(self):
        """E14 must say why one process is enough and keep its gate."""
        text = section("EXPERIMENTS.md", "### E14 —")
        assert "one process" in text
        assert "10 000" in text
        assert "e7b698db2ff66299" in text
        assert "750 MB" in text
        assert "rtds sweep-widenet" in text

    def test_experiment_numbers_are_unique(self):
        """Every `### E<n> —` entry number appears exactly once.

        Guards against the docs drift where a roadmap item and a shipped
        experiment claim the same number (the E13 zoo/chaos collision).
        """
        text = read("EXPERIMENTS.md")
        numbers = re.findall(r"^### (E\d+b?) —", text, flags=re.MULTILINE)
        assert numbers, "EXPERIMENTS.md lost its experiment entries"
        dupes = {n for n in numbers if numbers.count(n) > 1}
        assert not dupes, f"duplicate experiment numbers in EXPERIMENTS.md: {dupes}"


class TestReadme:
    def test_examples_exist(self):
        text = read("README.md")
        for name in set(re.findall(r"`examples/(\w+\.py)`", text)):
            assert (ROOT / "examples" / name).exists(), name

    def test_install_commands_present(self):
        text = read("README.md")
        assert "pip install -e ." in text
        assert "pytest -q tests/claims" in text

    def test_cli_reference_covers_every_subcommand(self):
        """The README CLI table must track the real parser."""
        import argparse
        import sys

        sys.path.insert(0, str(ROOT / "src"))
        try:
            from repro.cli import build_parser
        finally:
            sys.path.pop(0)
        sub = next(
            a
            for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        text = read("README.md")
        for command in sub.choices:
            assert f"rtds {command}" in text, f"README CLI table misses {command!r}"

    def test_quickstart_runs_a_parallel_campaign(self):
        text = read("README.md")
        assert "rtds campaign" in text
        for flag in ("--jobs", "--store", "--resume"):
            assert flag in text, f"README quickstart must show {flag}"

    def test_quickstart_uses_the_api_facade(self):
        """README's Python quickstart must go through repro.api and the
        facade must actually export what the quickstart imports."""
        text = read("README.md")
        assert "from repro.api import" in text
        import sys

        sys.path.insert(0, str(ROOT / "src"))
        try:
            from repro import api
        finally:
            sys.path.pop(0)
        for name in ("run", "campaign", "soak", "trace",
                     "ExperimentConfig"):
            assert hasattr(api, name), f"repro.api must export {name!r}"
