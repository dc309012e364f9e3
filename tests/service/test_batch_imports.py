"""Batch processes never load the service's event-loop stack or a process pool.

Only the admission service and the soak / chaos experiments run an
``asyncio`` loop, and they import it inside the functions that use it. ``asyncio`` pulls in ``ssl``, about 2.5 MB of RSS in every
process and every campaign worker that only runs batch experiments. Likewise
only a parallel campaign starts a worker pool, and ``concurrent.futures``'
process pool pulls in ``multiprocessing``, ``socket`` and ``subprocess``
(about 1.7 MB more); :mod:`repro.experiments.parallel` imports it inside the
method that runs the pool.
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


def test_importing_the_package_loads_no_asyncio():
    assert _loaded_after(IMPORTS, {"asyncio", "ssl"}) == "[]"


def test_importing_the_batch_api_loads_no_process_pool():
    pool = {"multiprocessing", "concurrent.futures", "socket", "subprocess"}
    assert _loaded_after("import repro, repro.api, repro.experiments", pool) == "[]"
