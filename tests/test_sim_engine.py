"""The discrete-event engine: ordering, cancellation, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.link import Link, Port
from repro.sim.engine import Simulator
from repro.sim.process import Process


class _Receiver:
    """A device whose ``receive_frame`` is the callable it is given."""

    def __init__(self, receive_frame) -> None:
        self.receive_frame = receive_frame
        self.port = Port(self, "rx")


def _stub_link(sim, receive_frame):
    """A bare sending port linked to a :class:`_Receiver`; returns
    ``(port, link)``.  ``Port.send`` on it is the default hop: one
    plain heap entry for ``receive_frame(frame, port)``, due after the
    link's latency."""
    sender = Port(object(), "tx")
    link = Link(sim, sender, _Receiver(receive_frame).port, latency=0.0)
    return sender, link


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == list("abcde")

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_nan_times_rejected(self):
        # ``nan < 0`` is false, so a plain "< 0" check lets NaN through:
        # the event then fires past ``until`` and the clock turns NaN.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending == 1
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0

    def test_run_until_before_now_is_refused(self):
        # The clock never runs backwards: an until already passed (or
        # NaN, which would silently drain the whole queue) is refused
        # before anything is popped.
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "ten")
        sim.schedule(20.0, fired.append, "twenty")
        assert sim.run(until=11.0) == 11.0
        for until in (5.0, 10.999, float("nan"), float("-inf")):
            with pytest.raises(ValueError):
                sim.run(until=until)
            assert sim.now == 11.0 and sim.pending == 1
        # A later event still fires after the one that ran at 10.
        sim.schedule_at(12.0, fired.append, "twelve")
        assert sim.run(until=11.0) == 11.0      # until == now is fine
        sim.run()
        assert fired == ["ten", "twelve", "twenty"]
        assert sim.now == 20.0

    def test_port_send_rejects_what_schedule_rejects(self):
        sim = Simulator()
        sender, link = _stub_link(sim, lambda frame, port: None)
        sim.schedule(1.0, lambda: None)
        before = list(sim._queue)
        for latency in (-1.0, -0.0001, float("nan"), float("-inf")):
            link.latency = latency
            with pytest.raises(ValueError):
                sender.send("frame")
        # Nothing was pushed and no sequence number was drawn.
        assert sim._queue == before and sim.pending == 1
        assert sim.schedule(1.0, lambda: None).seq == 1

    def test_port_send_is_schedule_without_a_handle(self):
        from repro.obs.export import snapshot
        from repro.obs.telemetry import Telemetry

        sim = Simulator()
        telemetry = Telemetry(clock=lambda: sim.now)
        sim.attach_telemetry(telemetry)
        fired = []
        sender, link = _stub_link(sim, lambda frame, port: fired.append(frame))
        sim.schedule(1.0, fired.append, "a")
        link.latency = 1.0
        assert sender.send("b") is None
        sim.schedule_at(1.0, fired.append, "c")
        link.latency = 0.5
        sender.send("first")
        assert type(sim._queue[0]) is list and sim.pending == 4
        sim.run()
        assert fired == ["first", "a", "b", "c"]
        assert sim.events_processed == 4
        assert snapshot(telemetry)["counters"]["sim.events.scheduled"] == 4

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_max_events_bound(self):
        sim = Simulator()
        for _ in range(100):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=10)
        assert sim.events_processed == 10


class TestDeterminism:
    def test_rng_streams_independent_and_stable(self):
        sim1, sim2 = Simulator(seed=9), Simulator(seed=9)
        a1 = [sim1.rng("a").random() for _ in range(5)]
        # Interleave another stream in sim2; "a" must not be perturbed.
        sim2.rng("b").random()
        a2 = [sim2.rng("a").random() for _ in range(5)]
        assert a1 == a2

    def test_different_seeds_differ(self):
        assert Simulator(seed=1).rng("x").random() != \
            Simulator(seed=2).rng("x").random()


class TestProcess:
    def test_periodic_ticks(self):
        sim = Simulator()
        ticks = []
        process = Process(sim, 10.0, lambda: ticks.append(sim.now))
        process.start()
        sim.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_stop_halts(self):
        sim = Simulator()
        ticks = []
        process = Process(sim, 10.0, lambda: ticks.append(sim.now))
        process.start()
        sim.schedule(25.0, process.stop)
        sim.run(until=100.0)
        assert ticks == [10.0, 20.0]

    def test_callable_interval(self):
        sim = Simulator()
        gaps = iter([1.0, 2.0, 4.0, 100.0])
        ticks = []
        process = Process(sim, lambda: next(gaps),
                          lambda: ticks.append(sim.now))
        process.start()
        sim.run(until=10.0)
        assert ticks == [1.0, 3.0, 7.0]


class TestQueueKernel:
    """The event-loop kernel: O(1) pending, lazy-cancel compaction,
    and step()'s parity with run()."""

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(10)]
        assert sim.pending == 10
        for event in events[:4]:
            event.cancel()
        assert sim.pending == 6

    def test_compaction_purges_dead_events(self):
        sim = Simulator()
        keep = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
        doomed = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(sim.COMPACT_MIN_QUEUE * 2)]
        for event in doomed:
            event.cancel()
        # Compaction fires whenever the dead majority is reached above
        # the size floor, so the queue must have shrunk far below the
        # total scheduled; the live events all survive.
        total = len(keep) + len(doomed)
        assert len(sim._queue) < total // 2
        assert sim.pending == len(keep)
        live = [e for e in sim._queue if not e.cancelled]
        assert len(live) == len(keep)

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        for i in range(100):
            sim.schedule(float(i + 1), fired.append, i)
        doomed = [sim.schedule(0.5, lambda: None)
                  for _ in range(200)]
        for event in doomed:
            event.cancel()
        sim.run()
        assert fired == list(range(100))

    def test_cancel_after_fire_is_noop_for_accounting(self):
        sim = Simulator()
        grabbed = []
        event = sim.schedule(1.0, lambda: None)
        grabbed.append(event)
        sim.schedule(2.0, lambda: None)
        sim.run()
        # Cancelling an already-fired event must not corrupt the dead
        # counter (it is cleared from the queue at pop time).
        event.cancel()
        assert sim.pending == 0
        sim.schedule(3.0, lambda: None)
        assert sim.pending == 1

    def test_events_processed_counts_fired_only(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        cancelled = sim.schedule(0.5, lambda: None)
        cancelled.cancel()
        sim.run()
        assert sim.events_processed == 5

    def test_step_matches_run_instruments(self):
        from repro.obs.export import snapshot
        from repro.obs.telemetry import Telemetry

        results = []
        for use_step in (False, True):
            sim = Simulator()
            telemetry = Telemetry(clock=lambda: sim.now)
            sim.attach_telemetry(telemetry)
            for i in range(6):
                sim.schedule(float(i + 1), lambda: None, label="tick")
            if use_step:
                while sim.step():
                    pass
            else:
                sim.run()
            results.append({
                "fired": snapshot(telemetry)["counters"]["sim.events.fired"],
                "processed": sim.events_processed,
                "now": sim.now,
            })
        run_result, step_result = results
        assert step_result == run_result

    def test_step_returns_false_when_idle(self):
        sim = Simulator()
        assert sim.step() is False
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.now == 1.0
        assert sim.step() is False


# ----------------------------------------------------------------------
# Model check: the engine against a sort-in-plain-Python reference
# ----------------------------------------------------------------------
# Binary-exact delays, few of them, so equal timestamps are the norm.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0])
# (delay, what the child does, whether it is sent over a link or
# scheduled)
CHILD = st.tuples(DELAYS, st.sampled_from(["plain", "drain"]),
                  st.booleans())
ACTIONS = st.one_of(
    st.tuples(st.just("plain")),
    st.tuples(st.just("drain")),
    st.tuples(st.just("spawn"), CHILD),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.tuples(st.just("compact")),
)
OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, ACTIONS),
    st.tuples(st.just("schedule_at"), DELAYS, ACTIONS),
    st.tuples(st.just("send"), DELAYS, ACTIONS),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.tuples(st.just("run_until"), DELAYS),
    st.tuples(st.just("run_max"), st.integers(0, 4)),
    st.tuples(st.just("step")),
    st.tuples(st.just("compact")),
)


class _Reference:
    """The engine's contract with no heap: a list re-sorted by
    ``(time, seq)`` whenever the head is needed."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.queued = []      # [time, seq, ident, action, cancelled]
        self.records = []     # the ones a handle came back for
        self.events_processed = 0
        self.log = []

    @property
    def pending(self):
        return sum(1 for record in self.queued if not record[4])

    def schedule_at(self, time, action, handle=True):
        record = [time, self.seq, self.seq, action, False]
        self.seq += 1
        self.queued.append(record)
        if handle:  # a link delivery has none, so is never cancelled
            self.records.append(record)

    def cancel(self, index):
        if self.records:
            self.records[index % len(self.records)][4] = True

    def _head(self):
        """Discard dead heads, return the live one (or None)."""
        self.queued.sort(key=lambda record: (record[0], record[1]))
        while self.queued and self.queued[0][4]:
            self.queued.pop(0)
        return self.queued[0] if self.queued else None

    def run(self, until=None, max_events=None):
        processed = 0
        while True:
            head = self._head()
            if head is None:
                if until is not None and until > self.now:
                    self.now = until
                return
            if until is not None and head[0] > until:
                self.now = until
                return
            if max_events is not None and processed >= max_events:
                return
            self.queued.pop(0)
            self.now = head[0]
            self._fire(head)
            processed += 1
            self.events_processed += 1

    def _fire(self, record):
        ident, action = record[2], record[3]
        if action[0] == "drain":
            while True:
                head = self._head()
                if (head is None or head[0] != self.now
                        or head[3][0] != "drain"):
                    break
                self.queued.pop(0)
                self.events_processed += 1
                self.log.append(("drained", head[2]))
        elif action[0] == "spawn":
            delay, kind, sent = action[1]
            self.schedule_at(self.now + delay, (kind,), handle=not sent)
        elif action[0] == "cancel":
            self.cancel(action[1])
        self.log.append(("fired", ident, self.now))


class _Driver:
    """The same program against the real engine.  Every callback takes
    ``((ident, action), port)``: a scheduled one gets ``None`` for the
    port, a link delivery the receiving port, so ``drain_coincident``
    hands back the same shape for both."""

    def __init__(self, compact_min_queue):
        self.sim = Simulator()
        self.sim.COMPACT_MIN_QUEUE = compact_min_queue
        self.handles = []
        self.idents = 0
        self.log = []
        # One link per callback: a delivery's callback is the receiving
        # device's receive_frame, which is _plain or _drainer itself.
        self.links = {"plain": _stub_link(self.sim, self._plain),
                      "drain": _stub_link(self.sim, self._drainer)}

    def schedule_at(self, time, action, relative=None, send=False):
        ident = self.idents
        self.idents += 1
        if send:
            sender, link = self.links[
                "drain" if action[0] == "drain" else "plain"]
            link.latency = relative
            assert sender.send((ident, action)) is None
            return
        callback = self._drainer if action[0] == "drain" else self._plain
        if relative is None:
            event = self.sim.schedule_at(time, callback, (ident, action),
                                         None)
        else:
            event = self.sim.schedule(relative, callback, (ident, action),
                                      None)
        self.handles.append(event)

    def cancel(self, index):
        if self.handles:
            self.handles[index % len(self.handles)].cancel()

    def _plain(self, item, _port):
        ident, action = item
        sim = self.sim
        if action[0] == "spawn":
            delay, kind, sent = action[1]
            self.schedule_at(None, (kind,), relative=delay, send=sent)
        elif action[0] == "cancel":
            self.cancel(action[1])
        elif action[0] == "compact":
            sim._compact()
        self.log.append(("fired", ident, sim.now))

    def _drainer(self, item, _port):
        for (drained_ident, _), _ in self.sim.drain_coincident(
                self._drainer):
            self.log.append(("drained", drained_ident))
        self.log.append(("fired", item[0], self.sim.now))


def _play(program, compact_min_queue):
    ref, real = _Reference(), _Driver(compact_min_queue)
    sim = real.sim
    for op in program:
        if op[0] == "schedule":
            ref.schedule_at(ref.now + op[1], op[2])
            real.schedule_at(None, op[2], relative=op[1])
        elif op[0] == "schedule_at":
            ref.schedule_at(ref.now + op[1], op[2])
            real.schedule_at(sim.now + op[1], op[2])
        elif op[0] == "send":
            ref.schedule_at(ref.now + op[1], op[2], handle=False)
            real.schedule_at(None, op[2], relative=op[1], send=True)
        elif op[0] == "cancel":
            ref.cancel(op[1])
            real.cancel(op[1])
        elif op[0] == "run_until":
            ref.run(until=ref.now + op[1])
            assert sim.run(until=sim.now + op[1]) == ref.now
        elif op[0] == "run_max":
            ref.run(max_events=op[1])
            sim.run(max_events=op[1])
        elif op[0] == "step":
            before = ref.events_processed
            ref.run(max_events=1)
            assert sim.step() is (ref.events_processed != before)
        else:
            sim._compact()
        assert real.log == ref.log
        assert sim.now == ref.now
        assert sim.pending == ref.pending
        assert sim.events_processed == ref.events_processed
    ref.run()
    sim.run()
    assert real.log == ref.log
    assert (sim.now, sim.pending) == (ref.now, 0)
    assert sim.events_processed == ref.events_processed
    assert sim._queue == [] and sim._dead == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=60))
def test_engine_matches_sorting_reference(program):
    """Random interleavings of schedule / schedule_at / ``Port.send``
    over a stub link / cancel (before and after firing, repeatedly) /
    bounded runs / step / in-callback drain_coincident, cancel, spawn
    and compaction fire in exactly the reference's ``(time, seq)``
    order — with compaction eager (floor of 2 entries, so it triggers
    mid-run) and with it never running.  A link delivery is a plain
    list beside the ``Event`` handles: it draws from the same counter,
    survives compaction, is claimed by drain_coincident like any other,
    and is never cancelled."""
    _play(program, compact_min_queue=2)
    _play(program, compact_min_queue=10 ** 9)
