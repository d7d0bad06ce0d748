"""Event-driven dispatcher wakeups (poll elision).

An idle :class:`RpcEndpoint` dispatcher parks on an unscheduled event
held by its ring's :class:`~repro.channel.ring.RingRendezvous`; the
peer's :class:`RingSender` succeeds it after every publish commit.  An
idle endpoint therefore schedules *no* events between messages — no
empty polls and no timeout — while first-message latency stays at
base-poll scale: the rendezvous also carries the sender's published
count, so a dispatcher that was awake when the wake fired keeps
base-rate polling across the NT-store landing window instead of parking
and stranding the message until the next publish.
"""

from repro.channel.messages import Heartbeat
from repro.channel.rpc import RpcEndpoint
from repro.cxl.params import RECV_POLL_NS
from repro.cxl.pod import CxlPod, PodConfig
from repro.sim import Simulator


def make_pod(seed=0):
    sim = Simulator(seed)
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    return sim, pod


def make_pair(seed=0):
    sim, pod = make_pod(seed)
    a, b = RpcEndpoint.pair(pod, "h0", "h1")
    return sim, a, b


def close(sim, *eps):
    for ep in eps:
        ep.close()
    sim.run()


def heartbeat(i):
    return Heartbeat(request_id=i, timestamp_us=0, healthy=1)


def test_idle_endpoint_schedules_no_empty_polls():
    """A 50 ms idle stretch costs one park, not the ~1.6 M empty polls a
    30 ns busy-poll grid would burn."""
    sim, client, server = make_pair()
    got = []
    server.on(Heartbeat, lambda msg: got.append(sim.now))

    def proc():
        yield sim.timeout(50_000_000.0)      # 50 ms idle
        t0 = sim.now
        yield from client.send(heartbeat(1))
        yield sim.timeout(100_000.0)
        return t0

    p = sim.spawn(proc())
    sim.run(until=p)
    assert got, "message lost by the parked dispatcher"
    # One park across the idle stretch, one more after the delivery.
    assert server.parks == 2
    assert server.empty_polls <= 3
    assert server.polls_elided > 1_000_000
    # Delivery latency after the wake stays at poll scale.
    assert got[0] - p.value < 100 * RECV_POLL_NS
    close(sim, client, server)


def test_idle_open_endpoints_leave_the_queue_empty():
    """Two open, idle endpoints park once each and schedule nothing
    else: ``run()`` with no horizon returns while both are open."""
    sim, client, server = make_pair()
    sim.run(until=50_000_000.0)
    # Checked before the unbounded run so a queued wake fails here
    # instead of spinning forever.
    assert sim.peek() == float("inf")
    sim.run()
    assert sim.now == 50_000_000.0
    for ep in (client, server):
        assert ep.parks == 1
        assert ep.empty_polls <= 2
        assert ep.notify_wakeups == 0
    close(sim, client, server)


def test_notify_wakes_parked_dispatcher_early():
    sim, client, server = make_pair()
    got = []
    server.on(Heartbeat, lambda msg: got.append(sim.now))

    def proc():
        yield sim.timeout(10_000_000.0)
        yield from client.send(heartbeat(1))
        yield sim.timeout(100_000.0)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert len(got) == 1
    assert server.notify_wakeups == 1
    # Every park ends on a publish; the one left is the current park.
    assert server.parks - server.notify_wakeups == 1
    close(sim, client, server)


def test_every_park_ends_on_a_publish_or_close():
    """``parks - notify_wakeups`` counts the dispatchers still parked at
    exit or closed while parked — nothing else ends a park."""
    sim, client, server = make_pair()
    server.on(Heartbeat, lambda msg: None)

    def proc():
        for i in range(6):
            yield sim.timeout(1_500_000.0)
            yield from client.send(heartbeat(i))

    p = sim.spawn(proc())
    sim.run(until=p)
    sim.run(until=sim.now + 1_000_000.0)
    assert server.notify_wakeups == 6
    assert server.parks == 7
    close(sim, client, server)
    assert server.parks - server.notify_wakeups == 1   # closed while parked
    assert client.notify_wakeups == 0
    assert client.parks == 1


def test_publish_during_poll_is_not_stranded():
    """The commit-to-landing race: a publish whose wake fires while the
    dispatcher is awake (mid-poll, not parked) must still be delivered
    at poll scale — the published-count check keeps the dispatcher
    polling instead of parking until the next publish."""
    sim, client, server = make_pair()
    got = []
    server.on(Heartbeat, lambda msg: got.append(sim.now))

    def proc():
        # t=0: the dispatcher's very first poll is in flight right now.
        yield from client.send(heartbeat(1))
        yield sim.timeout(50_000.0)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert len(got) == 1
    assert got[0] < 10_000.0, f"stranded until next publish: {got[0]} ns"
    close(sim, client, server)


def test_second_message_after_idle_sees_poll_latency():
    """A message sent shortly after another one, both after a long idle
    stretch, is delivered at poll scale too."""
    sim, client, server = make_pair()
    arrivals = []
    server.on(Heartbeat, lambda msg: arrivals.append(sim.now))

    def proc():
        yield sim.timeout(20_000_000.0)
        yield from client.send(heartbeat(1))
        yield sim.timeout(510_000.0)
        t1 = sim.now
        yield from client.send(heartbeat(2))
        yield sim.timeout(1_000_000.0)
        return t1

    p = sim.spawn(proc())
    sim.run(until=p)
    assert len(arrivals) == 2
    assert arrivals[1] - p.value < 100 * RECV_POLL_NS
    close(sim, client, server)


def test_jittered_periodic_ticks_see_poll_latency():
    """Agent-style ticks arriving with bounded jitter around a 10 ms
    period are each delivered at poll scale: the wake is the publish
    itself, so no arrival has to be predicted."""
    sim, client, server = make_pair()
    period_ns = 10_000_000.0
    jitter = sim.rng.stream("tick-jitter")
    arrivals = []
    server.on(Heartbeat, lambda msg: arrivals.append(sim.now))
    sends = []

    def proc():
        for i in range(12):
            yield sim.timeout(period_ns
                              + float(jitter.uniform(0.0, 50_000.0)))
            sends.append(sim.now)
            yield from client.send(heartbeat(i))
        yield sim.timeout(2_000_000.0)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert len(arrivals) == 12
    lag = [a - s for a, s in zip(arrivals, sends)]
    assert max(lag) < 100 * RECV_POLL_NS
    close(sim, client, server)


def test_burst_is_batch_drained_in_order():
    """A burst of fire-and-forget messages is delivered completely and
    in order through the dispatcher's drain pass."""
    sim, client, server = make_pair()
    got = []
    server.on(Heartbeat, lambda msg: got.append(msg.request_id))

    def proc():
        yield sim.timeout(5_000_000.0)       # let the dispatcher park
        for i in range(24):
            yield from client.send(heartbeat(i))
        yield sim.timeout(2_000_000.0)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert got == list(range(24))
    close(sim, client, server)


def test_recycled_ring_memory_starts_a_fresh_rendezvous():
    """A channel rebuilt over freed ring memory (same pool base) must
    not inherit the dead sender's published count: the new dispatcher
    parks after one empty poll instead of polling at base cadence."""
    sim, pod = make_pod()
    client, server = RpcEndpoint.pair(pod, "h0", "h1")
    server.on(Heartbeat, lambda msg: None)

    def burst():
        for i in range(5):
            yield from client.send(heartbeat(i))
        yield sim.timeout(100_000.0)

    sim.run(until=sim.spawn(burst()))
    old_bases = [ring.alloc.range.base for ring in client.rings]
    close(sim, client, server)
    for ring in client.rings:
        ring.retire()
        pod.free(ring.alloc)

    client, server = RpcEndpoint.pair(pod, "h0", "h1")
    assert [ring.alloc.range.base for ring in client.rings] == old_bases
    sim.run(until=sim.now + 1_000_000.0)
    assert server.empty_polls == 1
    assert server.parks == 1
    close(sim, client, server)


def test_elision_is_deterministic_across_runs():
    def run_once():
        sim, client, server = make_pair(seed=11)
        arrivals = []
        server.on(Heartbeat, lambda msg: arrivals.append(sim.now))

        def proc():
            for i in range(5):
                yield sim.timeout(250_000.0 * (i + 1))
                yield from client.send(heartbeat(i))
            yield sim.timeout(1_000_000.0)

        p = sim.spawn(proc())
        sim.run(until=p)
        stats = (server.parks, server.notify_wakeups, server.empty_polls,
                 server.messages_handled)
        close(sim, client, server)
        return arrivals, stats

    assert run_once() == run_once()
