import random

import pytest

from cxlsim.engine import Engine, ns_to_ticks
from cxlsim.stats import StatsRegistry
from cxlsim.media import (READ, WRITE, CoarseDram, CoarseDramConfig,
                          QueuedDdr, QueuedDdrConfig)


def make_ddr(engine, read=13, write=13, penalty=2, access=50, cap=256):
    return QueuedDdr(engine, QueuedDdrConfig(
        read_service=ns_to_ticks(read), write_service=ns_to_ticks(write),
        turnaround_penalty=ns_to_ticks(penalty), access_lat=ns_to_ticks(access),
        queue_capacity=cap), StatsRegistry())


def drive(engine, ddr, kinds):
    done = []
    for k in kinds:
        ddr.submit(k, lambda k=k: done.append((k, engine.now)))
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


def test_queue_capacity_backpressure_no_drops():
    engine = Engine()
    ddr = make_ddr(engine, cap=4)
    done = drive(engine, ddr, [READ] * 64)
    assert len(done) == 64  # all served despite the tiny queue


def test_write_service_must_dominate_read():
    with pytest.raises(ValueError):
        QueuedDdrConfig(read_service=10, write_service=5,
                        turnaround_penalty=0, access_lat=0).validate()


def test_coarse_dram_width_parallelism():
    engine = Engine()
    dram = CoarseDram(engine, CoarseDramConfig(access_lat=ns_to_ticks(50), width=2))
    done = []
    for i in range(4):
        dram.submit(READ, lambda i=i: done.append((i, engine.now)))
    engine.run()
    # width 2: pairs complete at 50 ns and 100 ns
    assert [t for _, t in done] == [ns_to_ticks(50)] * 2 + [ns_to_ticks(100)] * 2
