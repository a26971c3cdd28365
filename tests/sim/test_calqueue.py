"""Unit tests for the calendar event queue and the kernel's queue knob.

The contract under test is *exact* ordering: :class:`CalendarQueue` must
pop the identical ``(time, seq)`` total order as the default tuple heap,
because ``Simulator(queue="calendar")`` is digest-equivalence-gated
against ``Simulator(queue="heap")`` (see
``tests/properties/test_scaleout_equivalence.py`` for the full matrix).
"""

import heapq
import random

import pytest

from repro.errors import SimulationError
from repro.sim import CalendarQueue, Simulator
from repro.sim.event import Event


def _entry(time: float, seq: int) -> tuple:
    return (time, seq, Event(time, seq, lambda: None, ()))


def _drain(q: CalendarQueue) -> list:
    out = []
    while q:
        out.append(q.pop())
    return out


class TestCalendarQueue:
    def test_pops_exact_heap_order(self):
        rng = random.Random(42)
        entries = [
            _entry(rng.uniform(0.0, 50.0), seq) for seq in range(500)
        ]
        # Same-bucket ties on time, broken by seq, must also agree.
        entries += [_entry(7.25, seq) for seq in range(500, 520)]
        rng.shuffle(entries)
        heap: list = []
        cal = CalendarQueue()
        for e in entries:
            heapq.heappush(heap, e)
            cal.push(e)
        expected = [heapq.heappop(heap) for _ in range(len(entries))]
        assert _drain(cal) == expected

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            CalendarQueue().pop()

    def test_head_peeks_without_removing(self):
        q = CalendarQueue()
        assert q.head() is None
        first = _entry(1.0, 0)
        q.push(_entry(3.0, 1))
        q.push(first)
        assert q.head() == first
        assert len(q) == 2
        assert q.pop() == first

    def test_len_bool_iter(self):
        q = CalendarQueue()
        assert not q and len(q) == 0
        entries = [_entry(float(i) * 0.4, i) for i in range(7)]
        for e in entries:
            q.push(e)
        assert q and len(q) == 7
        assert sorted(q) == sorted(entries)

    def test_compact_drops_cancelled(self):
        q = CalendarQueue()
        keep = _entry(2.0, 1)
        drop = _entry(1.0, 0)
        drop[2].cancelled = True
        q.push(drop)
        q.push(keep)
        q.compact()
        assert len(q) == 1
        assert _drain(q) == [keep]

    def test_rejects_bad_width(self):
        with pytest.raises(SimulationError):
            CalendarQueue(width_ms=0.0)

    def test_mixed_operations_match_reference_heap(self):
        rng = random.Random(1234)
        heap: list = []
        cal = CalendarQueue()
        seq = 0
        now = 0.0
        for _ in range(300):
            if rng.random() < 0.45:
                batch = [
                    _entry(now + rng.uniform(0.0, 15.0), seq + i)
                    for i in range(rng.randrange(1, 6))
                ]
                seq += len(batch)
                for e in batch:
                    cal.push(e)
                    heapq.heappush(heap, e)
            elif heap:
                popped = cal.pop()
                assert popped == heapq.heappop(heap)
                assert cal.head() == (heap[0] if heap else None)
                now = max(now, popped[0])
            assert len(cal) == len(heap)
        assert sorted(cal) == sorted(heap)


class TestKernelQueueKnob:
    def test_unknown_queue_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(queue="fifo")

    def test_calendar_fires_in_heap_order(self):
        def trace(sim):
            fired = []
            rng = random.Random(7)
            for i in range(300):
                sim.schedule_at(rng.uniform(0.0, 20.0), fired.append, i)
            sim.run()
            return fired

        assert trace(Simulator(seed=0, queue="calendar")) == trace(
            Simulator(seed=0, queue="heap")
        )

    def test_calendar_supports_until_and_cancel(self):
        sim = Simulator(seed=0, queue="calendar")
        fired = []
        sim.schedule_at(1.0, fired.append, "a")
        handle = sim.schedule_at(2.0, fired.append, "cancelled")
        sim.schedule_at(3.0, fired.append, "b")
        sim.schedule_at(9.0, fired.append, "late")
        handle.cancel()
        sim.run(until=5.0)
        assert fired == ["a", "b"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["a", "b", "late"]

    @pytest.mark.parametrize("seed", [5, 99, 2024])
    def test_cancelling_timer_web_fires_identically(self, seed):
        def run(queue: str) -> list:
            sim = Simulator(seed=0, queue=queue)
            fired: list = []
            _random_workload(sim, fired, seed)
            sim.run(until=10_000.0)
            return fired

        assert run("calendar") == run("heap")


def _random_workload(sim: Simulator, fired: list, seed: int) -> None:
    """Self-expanding random timer web: each firing schedules 0-2 more
    events and occasionally cancels a pending one, so tombstones
    interleave with pops on both queue implementations."""
    rng = random.Random(seed)
    pending = []
    state = {"budget": 600}

    def tick(tag: int) -> None:
        fired.append((sim.now, tag))
        if state["budget"] <= 0:
            return
        for _ in range(rng.randrange(0, 3)):
            state["budget"] -= 1
            tag2 = state["budget"]
            pending.append(sim.schedule(rng.uniform(0.1, 12.0), tick, tag2))
        if pending and rng.random() < 0.2:
            pending.pop(rng.randrange(len(pending))).cancel()

    for i in range(8):
        sim.schedule(rng.uniform(0.0, 3.0), tick, -i)
