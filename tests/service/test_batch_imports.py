"""No run loads an event-loop stack, and batch processes load no process pool.

``asyncio`` pulls in ``ssl``, ``selectors``, ``socket``, ``logging`` and
``concurrent.futures``: 49 modules and about 2.8 MB of RSS in every process
that imports it. The admission service is a synchronous intake, so neither the package
nor a soak or chaos run imports it. Likewise only a parallel campaign starts
a worker pool, and ``concurrent.futures``' process pool pulls in
``multiprocessing``, ``socket`` and ``subprocess`` (about 1.7 MB more);
:mod:`repro.experiments.parallel` imports it inside the method that runs the
pool.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

IMPORTS = "import repro, repro.api, repro.experiments, repro.service"


def _loaded_after(imports: str, modules) -> str:
    """The sorted names among ``modules`` a fresh interpreter holds after ``imports``."""
    probe = f"{imports}; import sys; print(sorted({set(modules)!r} & set(sys.modules)))"
    # the child imports the same package this suite is testing
    src = str(Path(repro.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip()


EVENT_LOOP = {"asyncio", "ssl", "selectors"}

#: a tiny E12 soak and E13 chaos soak (faults, lossy intake), run end to
#: end in the child
SERVICE_RUNS = (
    "import repro.api as api; "
    "api.soak(api.SoakConfig(n_sites=6, target_jobs=60, sample_every=30)); "
    "api.soak(api.SoakConfig(n_sites=6, target_jobs=60, sample_every=30, "
    "routing_mode='oracle', degraded_floor=0.2, "
    "faults='sites=1,downtime=40,joins=1,join_links=2'))"
)


def test_importing_the_package_loads_no_asyncio():
    assert _loaded_after(IMPORTS, EVENT_LOOP) == "[]"


def test_soak_and_chaos_runs_load_no_event_loop():
    assert _loaded_after(SERVICE_RUNS, EVENT_LOOP) == "[]"


def test_importing_the_batch_api_loads_no_process_pool():
    pool = {"multiprocessing", "concurrent.futures", "socket", "subprocess"}
    assert _loaded_after("import repro, repro.api, repro.experiments", pool) == "[]"
