"""Event engine: determinism, ordering, links, loss accounting."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loraledger.simnet import (
    CausalityError,
    Engine,
    LINK_CLASS_AIR,
    US_PER_S,
    named_stream,
)


def test_streams_are_memoized_and_independent():
    engine = Engine(7)
    a = engine.stream("alpha")
    assert engine.stream("alpha") is a
    b = engine.stream("beta")
    assert a is not b
    # same seed, same name, same draws in a fresh engine
    again = Engine(7).stream("alpha")
    assert [a.random() for _ in range(5)] == [again.random() for _ in range(5)]
    # different seed diverges
    assert Engine(7).stream("beta").random() != Engine(8).stream("beta").random()


def test_events_fire_in_time_then_insertion_order():
    engine = Engine(0)
    log = []
    engine.register("n", lambda p: log.append((engine.now_us, p)))
    engine.schedule(300, "n", "late")
    engine.schedule(100, "n", "first")
    engine.schedule(100, "n", "second")  # same time: insertion order
    engine.schedule(200, "n", "middle")
    engine.run_until(1000)
    assert log == [(100, "first"), (100, "second"), (200, "middle"), (300, "late")]
    assert engine.now_us == 1000
    assert engine.events_processed == 4


def test_run_until_boundary_inclusive_and_horizon():
    engine = Engine(0)
    log = []
    engine.register("n", lambda p: log.append(p))
    engine.schedule(1000, "n", "at")
    engine.schedule(1001, "n", "after")
    engine.run_until(1000)
    assert log == ["at"]
    engine.run_until(2000)
    assert log == ["at", "after"]


def test_handler_can_schedule_followups():
    engine = Engine(0)
    log = []

    def handler(payload):
        log.append((engine.now_us, payload))
        if payload < 3:
            engine.schedule(10, "n", payload + 1)

    engine.register("n", handler)
    engine.schedule(0, "n", 0)
    engine.run_until(100)
    assert log == [(0, 0), (10, 1), (20, 2), (30, 3)]


def test_negative_delay_and_backwards_run_rejected():
    engine = Engine(0)
    engine.register("n", lambda p: None)
    with pytest.raises(CausalityError):
        engine.schedule(-1, "n", None)
    engine.run_until(50)
    with pytest.raises(CausalityError):
        engine.run_until(49)


def test_cancel_suppresses_event():
    engine = Engine(0)
    log = []
    engine.register("n", lambda p: log.append(p))
    keep = engine.schedule(10, "n", "keep")
    drop = engine.schedule(10, "n", "drop")
    engine.cancel(drop)
    engine.run_until(100)
    assert log == ["keep"]
    assert keep != drop
    assert engine.events_processed == 1  # a cancelled event is not counted


def test_send_and_schedule_due_at_one_microsecond_fire_in_call_order():
    """``send`` pushes onto the heap itself, from the same counter as ``schedule``."""
    engine = Engine(0)
    log = []
    engine.register("dst", log.append)
    link = engine.add_link("src", "dst", LINK_CLASS_AIR, (50, 50))
    engine.schedule(50, "dst", "scheduled first")
    engine.send(link, "sent second", 1)
    engine.schedule(50, "dst", "scheduled third")
    engine.send(link, "sent fourth", 1)
    engine.run_until(50)
    assert log == ["scheduled first", "sent second", "scheduled third", "sent fourth"]


def test_a_raising_handler_is_counted_and_the_next_run_goes_on():
    engine = Engine(0)
    log = []

    def handler(payload):
        if payload == "boom":
            raise ValueError("handler failed")
        log.append((engine.now_us, payload))

    engine.register("n", handler)
    engine.schedule(10, "n", "before")
    engine.schedule(20, "n", "boom")
    engine.schedule(30, "n", "after")
    with pytest.raises(ValueError, match="handler failed"):
        engine.run_until(100)
    assert log == [(10, "before")]
    assert engine.events_processed == 2
    assert engine.now_us == 20
    engine.run_until(100)
    assert log == [(10, "before"), (30, "after")]
    assert engine.events_processed == 3
    assert engine.now_us == 100


def test_unknown_target_raises():
    engine = Engine(0)
    engine.schedule(1, "ghost", None)
    with pytest.raises(RuntimeError):
        engine.run_until(10)


def test_duplicate_node_registration_rejected():
    engine = Engine(0)
    engine.register("n", lambda p: None)
    with pytest.raises(ValueError):
        engine.register("n", lambda p: None)


def test_fixed_latency_delivery_time():
    engine = Engine(0)
    seen = []
    engine.register("dst", lambda p: seen.append(engine.now_us))
    link = engine.add_link("src", "dst", LINK_CLASS_AIR, (400_000, 400_000))
    engine.send(link, "pkt", 32)
    engine.run_until(US_PER_S)
    assert seen == [400_000]
    assert link.bytes_sent == 32


def test_uniform_latency_within_bounds():
    engine = Engine(3)
    seen = []
    engine.register("dst", lambda p: seen.append(engine.now_us))
    link = engine.add_link("src", "dst", LINK_CLASS_AIR, (5_000, 20_000))
    for _ in range(200):
        engine.send(link, "pkt", 1)
    engine.run_until(US_PER_S)
    assert len(seen) == 200
    assert all(5_000 <= t <= 20_000 for t in seen)
    assert len(set(seen)) > 1  # actually random, not collapsed to a constant


def test_loss_accounting_conserves_messages():
    engine = Engine(9)
    delivered = []
    engine.register("dst", lambda p: delivered.append(p))
    link = engine.add_link("src", "dst", LINK_CLASS_AIR, (10, 10), loss_rate=0.3)
    for n in range(1000):
        engine.send(link, n, 10)
    engine.run_until(US_PER_S)
    assert link.offered_msgs == 1000  # the sum of the two counters below
    assert link.delivered_msgs + link.lost_msgs == 1000
    assert link.delivered_msgs == len(delivered)
    assert link.bytes_sent == 10_000  # bytes counted for lost messages too
    assert 200 < link.lost_msgs < 400  # seeded, loose sanity bounds


def test_loss_extremes():
    engine = Engine(1)
    got = []
    engine.register("dst", lambda p: got.append(p))
    never = engine.add_link("x", "dst", LINK_CLASS_AIR, (1, 1), loss_rate=1.0)
    always = engine.add_link("y", "dst", LINK_CLASS_AIR, (1, 1), loss_rate=0.0)
    for _ in range(50):
        engine.send(never, "n", 1)
        engine.send(always, "y", 1)
    engine.run_until(100)
    assert never.delivered_msgs == 0 and never.lost_msgs == 50
    assert always.delivered_msgs == 50 and always.lost_msgs == 0
    assert got == ["y"] * 50


def test_duplicate_link_name_rejected():
    """A link is named by its endpoints, so one direction holds one link."""
    engine = Engine(0)
    link = engine.add_link("a", "b", LINK_CLASS_AIR, (1, 1))
    assert link.name == "a->b" and engine.links == {"a->b": link}
    with pytest.raises(ValueError, match="already exists"):
        engine.add_link("a", "b", LINK_CLASS_AIR, (2, 5))
    assert engine.add_link("b", "a", LINK_CLASS_AIR, (1, 1)).name == "b->a"


@pytest.mark.parametrize(
    "latency_us, loss_rate, message",
    [
        ((-1, 5), 0.0, "latency bounds"),
        ((5, 4), 0.0, "latency bounds"),
        ((1, 1), -0.1, "loss rate"),
        ((1, 1), 1.5, "loss rate"),
    ],
    ids=["lo-negative", "hi-below-lo", "loss-negative", "loss-above-one"],
)
def test_add_link_refuses_bad_bounds_and_loss(latency_us, loss_rate, message):
    engine = Engine(0)
    with pytest.raises(ValueError, match=message):
        engine.add_link("a", "b", LINK_CLASS_AIR, latency_us, loss_rate)
    assert engine.links == {}


def test_full_trace_determinism():
    """Two engines with one seed replay identical event traces."""

    def run(seed):
        engine = Engine(seed)
        trace = []
        engine.register("a", lambda p: trace.append(("a", engine.now_us, p)))

        def b_handler(p):
            trace.append(("b", engine.now_us, p))
            engine.send(link_ba, p + 1, 4)

        engine.register("b", b_handler)
        link_ab = engine.add_link("a", "b", LINK_CLASS_AIR, (10, 50), loss_rate=0.2)
        link_ba = engine.add_link("b", "a", LINK_CLASS_AIR, (10, 50))
        rng = engine.stream("driver")
        t = 0
        for n in range(100):
            t += rng.randint(1, 20)
            engine.schedule(t, "b", n)
        engine.run_until(10_000)
        return trace, link_ab.lost_msgs

    first = run(5)
    second = run(5)
    third = run(6)
    assert first == second
    assert first != third


def test_named_stream_draws_as_the_engine_stream_of_its_name():
    engine = Engine(7)
    fresh = named_stream(7, "alpha")
    assert [fresh.random() for _ in range(5)] == [engine.stream("alpha").random() for _ in range(5)]


LINK_SPECS = {  # (lo_us, hi_us)
    "zero": (0, 0),
    "equal": (250, 250),
    "uniform": (100, 900),
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    specs=st.lists(
        st.tuples(st.sampled_from(sorted(LINK_SPECS)), st.sampled_from((0.0, 0.3, 1.0))),
        min_size=1,
        max_size=3,
    ),
    steps=st.lists(st.integers(-1, 2), max_size=40),
)
def test_link_draws_follow_its_named_stream_whenever_made(seed, specs, steps):
    """Outcomes and delays are the link's own seeded draws, in send order.

    A step of -1 draws from another stream first, so a link's first draw may
    come after any number of other draws; each other step sends on link
    ``step % len(specs)``.  A link with equal bounds draws no delay: it makes
    its stream only when it has loss, and then draws one loss per message.
    """
    engine = Engine(seed)
    delivered: dict[tuple, int] = {}  # (link name, send number) -> delivery time
    engine.register("dst", lambda sent: delivered.__setitem__(sent, engine.now_us))
    links = [
        engine.add_link("src%d" % n, "dst", LINK_CLASS_AIR, LINK_SPECS[kind], loss)
        for n, (kind, loss) in enumerate(specs)
    ]
    sends = {link.name: 0 for link in links}
    for step in steps:
        if step < 0:
            engine.stream("other").random()
            continue
        link = links[step % len(links)]
        engine.send(link, (link.name, sends[link.name]), 1)
        sends[link.name] += 1
    engine.run_until(US_PER_S)

    for link, (kind, loss) in zip(links, specs):
        rng = Random("%d:link:%s" % (seed, link.name))
        expected = []
        for _ in range(sends[link.name]):
            if loss > 0.0 and rng.random() < loss:
                expected.append("lost")
            elif link.lo_us == link.hi_us:
                expected.append(link.lo_us)
            else:
                expected.append(rng.randint(link.lo_us, link.hi_us))
        got = [delivered.get((link.name, k), "lost") for k in range(sends[link.name])]
        assert got == expected
        # a loss draw on every send, a delay draw on every delivery with unequal bounds
        delivered_any = expected.count("lost") < len(expected)
        uniform = link.lo_us < link.hi_us
        drew = bool(expected) and (loss > 0.0 or (uniform and delivered_any))
        stream = engine._streams.get("link:%s" % link.name)
        assert (stream is not None) == drew
        if drew:  # and nothing more than the draws above
            assert stream.getstate() == rng.getstate()
