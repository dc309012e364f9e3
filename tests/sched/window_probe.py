"""The §10 window test as the protocol runs it, for tests that probe one
task set: a one-processor payload through
:func:`~repro.core.validation.endorse_mapping`."""

from repro.core.validation import endorse_mapping, slot_reservations


def endorse_one(timeline, tasks, now, order="edf"):
    """The reservations validation places ``tasks`` (``WindowTask``s of one
    job) in, or ``None`` when the set is not locally satisfiable."""
    job = tasks[0].job if tasks else 0
    payload = {0: [(t.task, t.duration, t.release, t.deadline) for t in tasks]}
    endorsed, slots = endorse_mapping(timeline, job, payload, now, order=order)
    return slot_reservations(job, slots[0]) if endorsed else None
