"""A site pays for what it uses — stand-up bytes per site under ``tracemalloc``.

Standing up a wide oracle-routed cell builds its topology, links, row
tables and one RTDS site per node. Nothing in it depends on which sites
will ever initiate a round, so the per-site state that only a round needs
(the PCS, the lock's deferral queue, the executor's completion queue) is
built on first use. With every sphere and queue built eagerly and a
``__dict__`` per link, the 2048-site geometric cell cost about 12.3 KB per site
on Python 3.11; lazily it costs 6.8 KB. The budget sits between the two,
with room for interpreters without dataclass slots. Measured with
``tracemalloc``, not RSS, so it passes the same on any box.
"""

import tracemalloc

from repro.experiments.runner import build_resident
from repro.experiments.widenet import widenet_config

N_SITES = 2048
BYTES_PER_SITE = 9_000


def test_geometric_2048_stands_up_in_at_most_9_kb_per_site():
    cfg = widenet_config("geometric", N_SITES)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        resident = build_resident(cfg)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(resident.sites) == N_SITES
    assert all(site.routing.done for site in resident.sites)
    per_site = held / N_SITES
    assert per_site <= BYTES_PER_SITE, f"{per_site / 1e3:.1f} KB per site"


def test_no_site_builds_its_sphere_at_stand_up():
    sites = build_resident(widenet_config("geometric", 256)).sites
    assert all(site._pcs is None for site in sites)
    sizes = [site.sphere_size() for site in sites]
    assert all(site._pcs is None for site in sites)
    # the build-free count is what the sphere built on first read holds
    assert sizes == [len(site.pcs) for site in sites]
