import itertools
import random
from collections import deque

from hypothesis import example, given, settings, strategies as st

from cxlsim.engine import Engine, ns_to_ticks
from cxlsim.stats import StatsRegistry
from cxlsim.bridge import LinkChannel
from cxlsim.media import READ, WRITE, CoarseDram, QueuedDdr
from cxlsim.ssd import SsdMedium


def make_ddr(engine, read=13, write=13, penalty=2, access=50):
    return QueuedDdr(engine, ns_to_ticks(read), ns_to_ticks(write),
                     ns_to_ticks(penalty), ns_to_ticks(access),
                     StatsRegistry(), "dram")


def drive(engine, ddr, kinds):
    done = []
    for k in kinds:
        engine.schedule(ddr.submit(k), lambda k: done.append((k, engine.now)), k)
    engine.run()
    return done


def test_idle_latency_is_service_plus_access():
    engine = Engine()
    ddr = make_ddr(engine)
    done = drive(engine, ddr, [READ])
    assert done[0][1] == ns_to_ticks(13 + 50)


def test_all_read_stream_no_turnarounds():
    engine = Engine()
    ddr = make_ddr(engine)
    drive(engine, ddr, [READ] * 64)
    assert ddr.turnarounds == 0


def test_alternating_stream_pays_every_boundary():
    engine = Engine()
    ddr = make_ddr(engine)
    n = 32
    drive(engine, ddr, [READ, WRITE] * n)
    assert ddr.turnarounds == 2 * n - 1


def test_random_mix_boundary_count_matches_bernoulli():
    engine = Engine()
    ddr = make_ddr(engine)
    rng = random.Random(5)
    n = 4000
    kinds = [READ if rng.random() < 0.5 else WRITE for _ in range(n)]
    drive(engine, ddr, kinds)
    expected = (n - 1) / 2
    assert abs(ddr.turnarounds - expected) <= 0.1 * expected


def test_single_direction_saturation_throughput():
    engine = Engine()
    ddr = make_ddr(engine)
    n = 1000
    done = drive(engine, ddr, [READ] * n)
    elapsed = done[-1][1] - done[0][1]
    per_op = elapsed / (n - 1)
    assert abs(per_op - ns_to_ticks(13)) / ns_to_ticks(13) < 0.02


def test_coarse_dram_width_parallelism():
    engine = Engine()
    dram = CoarseDram(engine, ns_to_ticks(50), 2)
    done = []
    for i in range(4):
        engine.schedule(dram.submit(READ),
                        lambda i: done.append((i, engine.now)), i)
    engine.run()
    # width 2: pairs complete at 50 ns and 100 ns
    assert [t for _, t in done] == [ns_to_ticks(50)] * 2 + [ns_to_ticks(100)] * 2


def test_submit_with_delay_arrives_later():
    engine = Engine()
    ddr = make_ddr(engine)
    # idle: the request starts when it arrives, 100 ns from now
    assert ddr.submit(READ, ns_to_ticks(100)) == ns_to_ticks(100 + 13 + 50)
    # arrives at 105 ns, waits 8 ns for the bus, then pays the turnaround
    assert ddr.submit(WRITE, ns_to_ticks(105)) == ns_to_ticks(113 + 15 + 50)
    assert ddr.turnarounds == 1
    dram = CoarseDram(engine, ns_to_ticks(50), 1)
    assert dram.submit(READ, ns_to_ticks(30)) == ns_to_ticks(80)
    assert dram.submit(READ, ns_to_ticks(30)) == ns_to_ticks(130)


# -- the closed-form servers against the event-driven FIFO they replaced ------


def reference_starts(arrivals, holds, servers):
    """Event-driven FIFO with `servers` servers: a request starts on arrival
    when a server is idle, else when a release event frees one."""
    engine, starts, backlog, busy = Engine(), {}, deque(), [0]

    def start(i):
        busy[0] += 1
        starts[i] = engine.now
        engine.schedule(holds[i], release)

    def release(_):
        busy[0] -= 1
        if backlog:
            start(backlog.popleft())

    def arrive(i):
        if busy[0] < servers:
            start(i)
        else:
            backlog.append(i)

    for i, tick in enumerate(arrivals):
        engine.schedule(tick, arrive, i)
    engine.run()
    return [starts[i] for i in range(len(arrivals))]


def at_arrivals(engine, arrivals, call):
    """Run `call(i)` at the tick of each arrival i."""
    for i, tick in enumerate(arrivals):
        engine.schedule(tick, call, i)
    engine.run()


# (gap to the previous arrival in ticks, is a read); ties and bursts are
# likely, so queues build and drain.
request_streams = st.lists(
    st.tuples(st.one_of(st.just(0), st.integers(1, 40_000)), st.booleans()),
    min_size=1, max_size=40)
SERVERS = st.integers(1, 3)
DELAYS = st.integers(0, 20_000)
_fifo = settings(max_examples=200, derandomize=True, database=None,
                 deadline=None)


def arrivals_and_kinds(reqs):
    return (list(itertools.accumulate(gap for gap, _ in reqs)),
            [READ if is_read else WRITE for _, is_read in reqs])


@_fifo
@given(reqs=request_streams, delay=DELAYS)
def test_queued_ddr_matches_event_driven_fifo(reqs, delay):
    arrivals, kinds = arrivals_and_kinds(reqs)
    engine = Engine()
    ddr = make_ddr(engine, read=13, write=15)
    done = []
    at_arrivals(engine, arrivals,
                lambda i: done.append(engine.now + ddr.submit(kinds[i], delay)))
    # The bus serves in arrival order, so each turnaround is known upfront.
    services = [(ddr.read_service if k == READ else ddr.write_service)
                + (ddr.turnaround_penalty if i and k != kinds[i - 1] else 0)
                for i, k in enumerate(kinds)]
    starts = reference_starts([t + delay for t in arrivals], services, 1)
    assert done == [s + services[i] + ddr.access_lat
                    for i, s in enumerate(starts)]


@_fifo
@given(reqs=request_streams, width=SERVERS, delay=DELAYS)
def test_coarse_dram_matches_event_driven_fifo(reqs, width, delay):
    arrivals, kinds = arrivals_and_kinds(reqs)
    engine = Engine()
    lat = ns_to_ticks(50)
    dram = CoarseDram(engine, lat, width)
    done = []
    at_arrivals(engine, arrivals,
                lambda i: done.append(engine.now + dram.submit(kinds[i], delay)))
    starts = reference_starts([t + delay for t in arrivals],
                              [lat] * len(arrivals), width)
    assert done == [s + lat for s in starts]


@_fifo
@given(reqs=request_streams, channels=SERVERS)
def test_ssd_channels_match_event_driven_fifo(reqs, channels):
    arrivals, kinds = arrivals_and_kinds(reqs)
    engine = Engine()
    ssd = SsdMedium(engine, 4096, ns_to_ticks(25), ns_to_ticks(70), channels,
                    StatsRegistry())
    done = {}
    at_arrivals(engine, arrivals, lambda i: ssd.io(
        kinds[i], lambda _: done.__setitem__(i, engine.now)))
    lats = [ssd.read_latency if k == READ else ssd.write_latency
            for k in kinds]
    starts = reference_starts(arrivals, lats, channels)
    assert [done[i] for i in range(len(arrivals))] == [
        s + lat for s, lat in zip(starts, lats)]


@_fifo
@given(reqs=request_streams, delay=DELAYS)
@example(reqs=[(0, True), (3_000, True)], delay=0)   # the second waits 478 ticks
def test_link_channel_matches_event_driven_fifo(reqs, delay):
    arrivals, kinds = arrivals_and_kinds(reqs)
    engine = Engine()
    link = LinkChannel(engine, 4.6)
    sizes = [16 if k == READ else 80 for k in kinds]
    granted = []
    at_arrivals(engine, arrivals, lambda i: granted.append(
        engine.now + link.transmit(sizes[i], delay)))
    holds = [max(1, round(b * 1000 / 4.6)) for b in sizes]
    # Cut-through: a message is delivered when the channel grants it.
    assert granted == reference_starts([t + delay for t in arrivals], holds, 1)
    # The channel fires no event of its own: only the arrivals ran.
    assert engine._seq == len(arrivals)


# -- the order a device's answers leave in -------------------------------------


@_fifo
@given(gaps=st.lists(st.integers(0, 3), min_size=1, max_size=40),
       reads=st.lists(st.booleans(), min_size=40, max_size=40),
       read=st.integers(0, 3), write=st.integers(0, 3),
       penalty=st.integers(0, 3), access=st.integers(0, 6),
       width=st.integers(1, 4))
def test_completions_never_go_backwards_for_ordered_arrivals(
        gaps, reads, read, write, penalty, access, width):
    # A device records each answer's sample when it submits the request,
    # and its answers leave at these completions, so the samples keep the
    # order the answers leave in only while completions never decrease.
    # Zero service times and a long access make a reordering likely.
    arrivals = list(itertools.accumulate(gaps))
    kinds = [READ if r else WRITE for r in reads]
    engine = Engine()
    ddr = QueuedDdr(engine, read, write, penalty, access, StatsRegistry(),
                    "dram")
    dram = CoarseDram(engine, access, width)
    for medium in (ddr, dram):
        done = [medium.submit(kind, tick) for tick, kind in zip(arrivals, kinds)]
        assert done == sorted(done), medium
