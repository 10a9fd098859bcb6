import pytest
from hypothesis import given, strategies as st

from cxlsim.engine import Engine, ns_to_ticks


def test_same_tick_fifo_order():
    engine = Engine()
    fired = []
    engine.schedule(0, lambda: fired.append("a"))
    engine.schedule(0, lambda: fired.append("b"))
    engine.run()
    assert fired == ["a", "b"]


def test_delay_is_relative_to_now():
    engine = Engine()
    seen = {}
    engine.schedule(100, lambda: engine.schedule(50, lambda: seen.setdefault("t", engine.now)))
    engine.run()
    assert seen["t"] == 150


def test_run_until_empty_queue_advances_clock():
    engine = Engine()
    assert engine.run_until(10**9) == 10**9
    assert engine.now == 10**9


def test_run_until_does_not_fire_future_events():
    engine = Engine()
    fired = []
    engine.schedule(500, lambda: fired.append(1))
    assert engine.run_until(400) == 400
    assert fired == []
    engine.run_until(500)
    assert fired == [1]


@pytest.mark.parametrize("limit,period", [(1000, 100), (999, 100), (10000, 7)])
def test_self_rescheduling_chain_count(limit, period):
    engine = Engine()
    count = [0]

    def tick():
        count[0] += 1
        engine.schedule(period, tick)

    engine.schedule(0, tick)
    engine.run_until(limit)
    assert count[0] == limit // period + 1


def test_two_runs_identical_event_order():
    def build():
        engine = Engine()
        fired = []

        def spawn(depth):
            fired.append((engine.now, "spawn", depth))
            if depth:
                engine.schedule(depth * 3, lambda: spawn(depth - 1))
                engine.schedule(depth * 3,
                                lambda: fired.append((engine.now, "leaf", depth)))

        engine.schedule(0, lambda: spawn(10))
        engine.run()
        return fired

    first = build()
    assert len(first) == 21
    assert first == build()


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_run_until_past_rejected():
    engine = Engine()
    engine.run_until(100)
    with pytest.raises(ValueError):
        engine.run_until(50)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_no_time_travel(delays):
    """Actions always observe now >= the tick they were scheduled for."""
    engine = Engine()
    observed = []
    for d in delays:
        when = engine.now + d
        engine.schedule(d, lambda w=when: observed.append((w, engine.now)))
    engine.run()
    assert all(now >= when for when, now in observed)
    assert [now for _, now in observed] == sorted(now for _, now in observed)


def test_ns_conversion():
    assert ns_to_ticks(1) == 1000
    assert ns_to_ticks(0.5) == 500
    assert ns_to_ticks(13.0) == 13000
