"""``AckRound`` / ``Rounds`` on a bare simulator: the one hardened
ask→answer round, without a network or a protocol around it."""

from collections import Counter

from repro.core.config import RTDSConfig
from repro.core.rounds import Rounds
from repro.simnet.engine import Simulator

GRACE = 5.0  # ack_timeout; with no sphere and no link model it is the whole budget


class StubSite:
    """The narrow surface a round needs of its site."""

    sid = 0
    pcs = None

    def __init__(self, retries=1, ack_timeout=GRACE):
        self.sim = Simulator()
        self.config = RTDSConfig(ack_timeout=ack_timeout, ack_retries=retries)
        self.events = []
        self.counts = Counter()

    @property
    def now(self):
        return self.sim.now

    def min_adjacent_throughput(self):
        return None

    def trace(self, category, **detail):
        self.events.append((self.sim.now, category, detail))

    def count(self, name):
        self.counts[name] += 1


def watch(site, targets, job=7):
    asked, lost = [], []
    book = Rounds(site)
    book.watch(job, "validate", "validate", targets, 0.0,
               lambda silent: asked.append((site.now, silent)), lost.append)
    return book, asked, lost


def test_answers_settle_the_round_and_cancel_its_timer():
    site = StubSite()
    book, asked, lost = watch(site, [1, 2])
    assert site.sim.pending() == 1 and list(book.open) == [7]
    assert book.answered(7, 1) is False
    assert book.answered(7, 1) is False  # a duplicate answer changes nothing
    assert book.answered(7, 2) is True
    assert not book.open and site.sim.pending() == 0
    site.sim.run()
    assert not asked and not lost and not site.events


def test_retransmits_then_gives_up_on_the_silent():
    site = StubSite(retries=2)
    book, asked, lost = watch(site, [2, 1])
    site.sim.run()
    assert asked == [(GRACE, [1, 2]), (2 * GRACE, [1, 2])]
    assert lost == [[1, 2]]
    assert [(t, cat, d) for t, cat, d in site.events] == [
        (GRACE, "validate.retransmit", {"job": 7, "to": [1, 2], "attempt": 1}),
        (2 * GRACE, "validate.retransmit", {"job": 7, "to": [1, 2], "attempt": 2}),
        (3 * GRACE, "validate.gave_up", {"job": 7, "lost": [1, 2]}),
    ]
    assert site.counts == {"validate_retransmit": 2, "validate_gave_up": 1}
    assert not book.open and site.sim.pending() == 0


def test_zero_retries_gives_up_at_the_first_expiry():
    site = StubSite(retries=0)
    _, asked, lost = watch(site, [1])
    site.sim.run()
    assert not asked and lost == [[1]] and site.sim.now == GRACE


def test_late_answer_after_give_up_is_ignored():
    site = StubSite(retries=0)
    book, _, lost = watch(site, [1, 2])
    rnd = book.open[7]
    site.sim.run()
    assert lost == [[1, 2]]
    assert book.answered(7, 1) is False and rnd.answered(2) is False
    assert rnd.silent == {1, 2} and site.sim.pending() == 0


def test_re_ask_goes_to_the_silent_subset_only():
    site = StubSite(retries=1)
    book, asked, lost = watch(site, [1, 2, 3])
    site.sim.schedule(1.0, lambda: book.answered(7, 2))
    site.sim.schedule(GRACE + 1.0, lambda: book.answered(7, 3))
    site.sim.run()
    assert asked == [(GRACE, [1, 3])]
    assert lost == [[1]]


def test_close_stops_watching():
    site = StubSite()
    book, asked, lost = watch(site, [1])
    book.close(7)
    book.close(7)  # idempotent; also a no-op for jobs never watched
    site.sim.run()
    assert not book.open and not asked and not lost


def test_unhardened_never_creates_a_round():
    site = StubSite(ack_timeout=None)
    book, _, _ = watch(site, [1, 2])
    assert not book.open and site.sim.pending() == 0
    assert book.answered(7, 1) is False
