import pytest
from hypothesis import given, strategies as st

from cxlsim.engine import Engine, ns_to_ticks


def test_same_tick_fifo_order():
    engine = Engine()
    fired = []
    engine.schedule(0, lambda _: fired.append("a"))
    engine.schedule(0, lambda _: fired.append("b"))
    engine.run()
    assert fired == ["a", "b"]


def test_action_is_called_with_its_argument():
    engine = Engine()
    fired = []
    engine.schedule(5, fired.append, "packet")
    engine.schedule(0, fired.append)
    engine.run()
    assert fired == [None, "packet"]
    assert engine._seq == 2


def test_delay_is_relative_to_now():
    engine = Engine()
    seen = {}
    engine.schedule(100, lambda _: engine.schedule(
        50, lambda _: seen.setdefault("t", engine.now)))
    engine.run()
    assert seen["t"] == 150


@pytest.mark.parametrize("limit,period", [(1000, 100), (999, 100), (10000, 7)])
def test_self_rescheduling_chain_count(limit, period):
    engine = Engine()
    count = [0]

    def tick(_):
        count[0] += 1
        if engine.now + period <= limit:
            engine.schedule(period, tick)

    engine.schedule(0, tick)
    assert engine.run() == limit // period * period
    assert count[0] == limit // period + 1


def test_two_runs_identical_event_order():
    def build():
        engine = Engine()
        fired = []

        def spawn(depth):
            fired.append((engine.now, "spawn", depth))
            if depth:
                engine.schedule(depth * 3, spawn, depth - 1)
                engine.schedule(depth * 3,
                                lambda _: fired.append((engine.now, "leaf", depth)))

        engine.schedule(0, spawn, 10)
        engine.run()
        return fired

    first = build()
    assert len(first) == 21
    assert first == build()


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda _: None)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_no_time_travel(delays):
    """Actions always observe now >= the tick they were scheduled for."""
    engine = Engine()
    observed = []
    for d in delays:
        when = engine.now + d
        engine.schedule(d, lambda w: observed.append((w, engine.now)), when)
    engine.run()
    assert all(now >= when for when, now in observed)
    assert [now for _, now in observed] == sorted(now for _, now in observed)


def test_ns_conversion():
    assert ns_to_ticks(1) == 1000
    assert ns_to_ticks(0.5) == 500
    assert ns_to_ticks(13.0) == 13000
