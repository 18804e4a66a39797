"""Property-based tests (hypothesis) for the discrete-event engine."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Engine

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
priorities = st.integers(min_value=-5, max_value=5)


@given(st.lists(times, min_size=1, max_size=100))
def test_execution_order_is_time_sorted(schedule_times):
    eng = Engine()
    executed = []
    for t in schedule_times:
        eng.schedule_at(t, lambda t=t: executed.append(t))
    eng.run()
    assert executed == sorted(schedule_times)
    assert eng.events_executed == len(schedule_times)


@given(st.lists(st.tuples(times, priorities), min_size=1, max_size=100))
def test_execution_order_time_then_priority_then_seq(entries):
    eng = Engine()
    executed = []
    for seq, (t, prio) in enumerate(entries):
        eng.schedule_at(t, lambda key=(t, prio, seq): executed.append(key), priority=prio)
    eng.run()
    assert executed == sorted(executed)


@given(
    st.lists(times, min_size=1, max_size=60),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_run_until_partitions_events(schedule_times, horizon):
    eng = Engine()
    fired = []
    for t in schedule_times:
        eng.schedule_at(t, lambda t=t: fired.append(t))
    eng.run(until=horizon)
    expected = sorted(t for t in schedule_times if t <= horizon)
    assert fired == expected
    # the rest remain queued
    assert eng.pending_count() == len(schedule_times) - len(expected)


@given(st.lists(times, min_size=2, max_size=60), st.data())
def test_cancellation_removes_exactly_those_events(schedule_times, data):
    eng = Engine()
    fired = []
    events = [
        eng.schedule_at(t, lambda i=i: fired.append(i)) for i, t in enumerate(schedule_times)
    ]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(events) - 1), max_size=len(events))
    )
    for i in to_cancel:
        events[i].cancel()
    eng.run()
    assert sorted(fired) == sorted(set(range(len(events))) - to_cancel)


@given(st.lists(st.floats(min_value=0.001, max_value=100.0, allow_nan=False), min_size=1, max_size=30))
def test_clock_never_goes_backwards(delays):
    eng = Engine()
    observed = []

    def chain(remaining):
        observed.append(eng.now)
        if remaining:
            eng.schedule(remaining[0], chain, remaining[1:])

    eng.schedule(delays[0], chain, delays[1:])
    eng.run()
    assert observed == sorted(observed)


# one program step: (time, priority, how it is scheduled, what it does when
# it runs: cancel the step with this index, schedule this many children)
steps = st.tuples(
    st.sampled_from([0.0, 1.0, 2.0]),
    st.integers(min_value=-1, max_value=1),
    st.sampled_from(["own", "a", "b"]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=80)),
    st.integers(min_value=0, max_value=2),
)


def _run_program(program, bundled):
    """Run ``program``; bundled steps become own events when not ``bundled``."""
    eng = Engine()
    executed, events = [], []

    def schedule(i):
        t, prio, how, _, _ = program[i % len(program)]
        t = max(t, eng.now)
        if how == "own" or not bundled:
            events.append(eng.schedule_at(t, step, len(events), priority=prio))
        else:
            events.append(eng.bundle(how, t, priority=prio).add(step, len(events)))

    def step(i):
        executed.append((eng.now, i))
        _, _, _, cancel, children = program[i % len(program)]
        if cancel is not None and cancel < len(events):
            events[cancel].cancel()
        for _ in range(children if len(events) < 200 else 0):
            schedule(len(events))

    for i in range(len(program)):
        schedule(i)
    eng.run()
    return executed


@given(st.lists(steps, min_size=1, max_size=40))
def test_bundled_calls_run_where_their_own_events_would(program):
    assert _run_program(program, bundled=True) == _run_program(program, bundled=False)


def test_bundle_hands_over_to_an_event_due_between_its_calls():
    eng = Engine()
    order = []
    bundle = eng.bundle("k", 1.0)
    bundle.add(order.append, "a")
    eng.schedule_at(1.0, order.append, "own")
    bundle.add(order.append, "b")
    eng.run()
    assert order == ["a", "own", "b"]
    assert eng.events_executed == 3  # the bundle resumed from a second entry


def test_fully_cancelled_bundle_leaves_the_queue():
    eng = Engine()
    calls = [eng.bundle("k", 5.0).add(lambda: None) for _ in range(3)]
    assert eng.pending_count() == 1
    for call in calls:
        call.cancel()
    assert eng.pending_count() == 0
    eng.run()
    assert eng.events_executed == 0 and eng.now == 0.0
