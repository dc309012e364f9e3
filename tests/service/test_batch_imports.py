"""Batch processes never load the service's event-loop stack.

Only the admission service, its HTTP frontend and the soak / chaos
experiments run an ``asyncio`` loop, and they import it inside the functions
that use it. ``asyncio`` pulls in ``ssl``, about 2.5 MB of RSS in every
process and every campaign worker that only runs batch experiments.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

IMPORTS = "import repro, repro.api, repro.experiments, repro.service"


def test_importing_the_package_loads_no_asyncio():
    probe = f"{IMPORTS}; import sys; print(sorted({{'asyncio', 'ssl'}} & set(sys.modules)))"
    # the child imports the same package this suite is testing
    src = str(Path(repro.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]", out.stdout
