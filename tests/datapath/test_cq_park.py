"""The completion-queue collectors' park (``repro.cxl.memsys.PollPark``).

A collector polls its CQ line uncached and sleeps ``poll_ns`` after every
empty poll.  The park skips the empty polls without moving a single
completion: the checks here run each scenario twice, once with the real
collector and once with a test-local copy of the polling loop it
replaced, and require identical completion instants, statuses and link
counters.  The copy differs from the old loop in one way only: a poll
over a down link counts as an empty poll (the old loop let
``LinkDownError`` escape and abort the whole run).
"""

import pytest

from repro.cxl.link import LinkDownError
from repro.cxl.memsys import PollPark
from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.proxy import LocalDeviceHandle
from repro.datapath.vaccel import RemoteAcceleratorClient
from repro.datapath.vssd import RemoteSsdClient
from repro.pcie.accelerator import KERNEL_COMPRESS, Accelerator, AcceleratorSpec
from repro.pcie.rings import COMPLETION_BYTES, CompletionEntry, seq_for_pass
from repro.pcie.ssd import Ssd, SsdSpec
from repro.sim import Simulator


def polling_collect(client, poll_ns):
    """The collector loop before the park (link-down poll = empty)."""
    while client._pending:
        gen = client.generation
        expect = seq_for_pass(client._cq_head // client.n_entries)
        addr = client._cq_addr()
        try:
            raw = yield from client.mem.read(addr, COMPLETION_BYTES)
        except LinkDownError:
            raw = None
        if gen != client.generation:
            continue
        if raw is None or CompletionEntry.decode(raw).seq != expect:
            yield client.sim.timeout(poll_ns)
            continue
        client._cq_head += 1
        client._complete(CompletionEntry.decode(raw))


class PollingSsdClient(RemoteSsdClient):
    def _collect_completions(self, poll_ns: float = 2_000.0):
        yield from polling_collect(self, poll_ns)


class PollingAcceleratorClient(RemoteAcceleratorClient):
    def _collect(self, poll_ns: float = 1_000.0):
        yield from polling_collect(self, poll_ns)


class FlakyHandle(LocalDeviceHandle):
    """Local MMIO; with ``refuse_after_ns`` set, the next doorbell
    raises that long after it is rung (an error path in ``_post``)."""

    refuse_after_ns = None

    def ring_doorbell(self, queue_id, index, parent=None):
        delay, self.refuse_after_ns = self.refuse_after_ns, None
        if delay is not None:
            yield self.device.sim.timeout(delay)
            raise RuntimeError("doorbell refused")
        yield from super().ring_doorbell(queue_id, index, parent=parent)


class Rig:
    """2 hosts, 2 MHDs; the SSD sits on h0, its client on h1 (local
    MMIO, CQ in pool memory the SSD writes by DMA)."""

    def __init__(self, client_cls, write_latency_ns=16_000.0, seed=3):
        self.sim = sim = Simulator(seed=seed)
        self.pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=2,
                                         mhd_capacity=1 << 27))
        self.ssd = Ssd(sim, "ssd0", device_id=10,
                       spec=SsdSpec(write_latency_ns=write_latency_ns))
        self.ssd.attach(self.pod.host("h0"))
        self.ssd.start()
        self.client = client_cls(
            sim, self.pod.host("h1"), FlakyHandle(self.ssd), self.pod, "h0",
            n_entries=self.ssd.spec.n_sq_entries)
        self.completions = []
        complete = self.client._complete

        def record(entry):
            self.completions.append((sim.now, entry.index, entry.status))
            complete(entry)

        self.client._complete = record

    def cq_link(self):
        """h1's link to the MHD holding the CQ entry polled next."""
        mhd = self.pod.route(self.client._cq_addr())[0]
        return self.pod.mhds[mhd].link_of("h1")

    def run(self, script, horizon_ns=100e6):
        proc = self.sim.spawn(script(self))
        # A bounded run: a collector stuck parked would otherwise leave
        # the op watchdog ticking forever.
        self.sim.run(until=horizon_ns)
        assert proc.processed, "script still running at the horizon"
        self.ssd.stop()
        self.sim.run()
        links = [(link.name, link.line_ops, link.bytes_read,
                  link.bytes_written) for mhd in self.pod.mhds
                 for link in mhd.links]
        return {"result": proc.value, "completions": self.completions,
                "links": links, "end_ns": self.sim.now,
                "collector_alive": self.client._collector.is_alive}


def compare(script, **rig):
    """Run ``script`` under the park and under polling; they must agree."""
    parked, polled = Rig(RemoteSsdClient, **rig), Rig(PollingSsdClient, **rig)
    out = parked.run(script)
    assert out == polled.run(script)
    return out, parked, polled


def writes_at(offsets_ns, size=4096):
    """Script: one write per offset (from setup), concurrently."""
    def script(rig):
        sim, client = rig.sim, rig.client
        yield from client.setup()
        statuses = {}

        def one(i, delay):
            yield sim.timeout(delay)
            statuses[i] = yield from client.write(i * 8192, b"w" * size)

        procs = [sim.spawn(one(i, d)) for i, d in enumerate(offsets_ns)]
        for proc in procs:
            yield proc
        return [statuses[i] for i in range(len(offsets_ns))]
    return script


# -------------------------------------------------------- completion instants


def test_concurrent_writes_complete_at_the_polling_instants():
    out, parked, polled = compare(writes_at(
        [0.0, 10.0, 3_333.3, 17_000.0, 17_050.5, 40_000.0, 41_234.5]))
    assert out["result"] == [0] * 7
    assert parked.ssd.commands_completed == 7
    assert not out["collector_alive"]
    assert parked.sim.events_processed < polled.sim.events_processed


@pytest.mark.parametrize("phase", range(24))
def test_cqe_landing_during_an_empty_polls_flight(phase):
    """Two writes, the second offset across one poll period (2 us plus
    the read).  After the first CQE, the collector polls the second's
    slot at once; for some offsets that CQE lands while the empty
    poll's read is in flight, which the park must notice before it
    sleeps."""
    out, _, _ = compare(writes_at([0.0, phase * 97.3]))
    assert out["result"] == [0, 0]


def test_park_sleeps_through_a_long_command_in_o1_events():
    """O(1) events per completion while an op is pending, not one poll
    per 2.2 us: a 10 ms write costs the polling loop ~9k events."""
    out, parked, polled = compare(writes_at([0.0]),
                                  write_latency_ns=10_000_000.0)
    assert out["result"] == [0]
    assert polled.sim.events_processed > 8_000
    assert parked.sim.events_processed < 200
    # Every skipped poll is still billed to h1's link.
    assert sum(ops for _n, ops, _r, _w in out["links"]) > 4_000


# ------------------------------------------------------------ link state


def test_cq_link_flap_does_not_abort_the_run():
    """A CQ link flap mid-command: polls over the down link count as
    empty, the collector parks until restore, and the write completes
    exactly once.  Failover's CQ drain over the down link stops short
    instead of raising."""
    def script(rig):
        sim, client = rig.sim, rig.client
        yield from client.setup()
        waiter = sim.spawn(client.write(0, b"f" * 4096))
        yield sim.timeout(8_000.0)
        link = rig.cq_link()
        link.fail()
        yield sim.timeout(10_000.0)
        yield sim.spawn(client._drain_cq())     # reads over the dead link
        assert client.ops_completed == 0
        yield sim.timeout(8_000.0)
        link.restore()
        status = yield waiter
        return status, client.ops_completed, rig.ssd.commands_completed

    out, _, _ = compare(script)
    assert out["result"] == (0, 1, 1)
    assert len(out["completions"]) == 1


def test_mhd_slow_starting_and_ending_mid_park():
    """The grid step follows the link's slow factor poll by poll."""
    def script(rig):
        sim, client = rig.sim, rig.client
        yield from client.setup()
        waiter = sim.spawn(client.write(0, b"s" * 4096))
        mhd = rig.pod.route(client._cq_addr())[0]
        yield sim.timeout(5_000.3)
        rig.pod.slow_mhd(mhd, 7.5)
        yield sim.timeout(9_000.0)
        rig.pod.restore_mhd_latency(mhd)
        yield sim.timeout(2_000.0)
        rig.pod.slow_mhd(mhd, 3.0)              # still slow at landing
        return (yield waiter)

    out, _, _ = compare(script, write_latency_ns=40_000.0)
    assert out["result"] == 0


def test_jittered_link_keeps_polling():
    """Each poll over a jittered link draws from the jitter stream, so
    the collector polls instead of parking; both draw the same stream."""
    def script(rig):
        sim, client = rig.sim, rig.client
        yield from client.setup()
        waiter = sim.spawn(client.write(0, b"j" * 4096))
        link = rig.cq_link()
        yield sim.timeout(3_000.0)
        link.set_jitter(400.0, sim.rng.stream("test-jitter"))
        yield sim.timeout(6_000.0)
        link.clear_jitter()
        return (yield waiter)

    out, _, _ = compare(script, write_latency_ns=30_000.0)
    assert out["result"] == 0


# ----------------------------------------------------- the collector's inputs


def test_failover_swaps_the_queues_under_a_parked_collector():
    """Failover bumps ``generation`` first and swaps ``cq_base`` later;
    the parked collector must follow the swap to the new CQ."""
    def script(rig):
        sim, client = rig.sim, rig.client
        yield from client.setup()
        waiters = [sim.spawn(client.write(i * 8192, b"x" * 4096))
                   for i in range(3)]
        yield sim.timeout(4_000.0)
        yield sim.spawn(client.failover())
        statuses = []
        for waiter in waiters:
            status = yield waiter
            statuses.append(status)
        return statuses, client.failovers, client.resubmitted

    out, _, _ = compare(script, write_latency_ns=60_000.0)
    assert out["result"] == ([0, 0, 0], 1, 3)


def test_error_path_emptying_the_journal_ends_the_collector():
    """The first write completes while a second is journaled; the
    collector then parks on the second's CQ slot until that op's post
    fails and empties the journal.  The collector must exit on its poll
    grid (not stay parked), and ``sim.run()`` drains."""
    def script(rig):
        sim, client = rig.sim, rig.client
        yield from client.setup()
        first = sim.spawn(client.write(0, b"a" * 4096))
        yield sim.timeout(1_000.0)
        client.handle.refuse_after_ns = 30_000.0
        refused = False
        try:
            yield from client.write(8192, b"b" * 4096)
        except RuntimeError:
            refused = True
        status = yield first
        return status, refused, len(client._pending)

    out, _, _ = compare(script)
    assert out["result"] == (0, True, 0)
    assert not out["collector_alive"]
    assert len(out["completions"]) == 1


@pytest.mark.parametrize("flap", [False, True])
def test_accelerator_collector_parks_identically(flap):
    """vAccel's collector uses the same park; with ``flap`` its CQ link
    goes down while the second job runs and comes back after the
    job's CQE landed."""
    def run(client_cls):
        sim = Simulator(seed=5)
        pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=2,
                                    mhd_capacity=1 << 27))
        acc = Accelerator(sim, "acc0", device_id=20,
                          spec=AcceleratorSpec(fixed_ns=50_000.0))
        acc.attach(pod.host("h0"))
        acc.start()
        client = client_cls(sim, pod.host("h1"), LocalDeviceHandle(acc),
                            pod, "h0")
        done = []
        complete = client._complete

        def record(entry):
            done.append((sim.now, entry.index))
            complete(entry)

        client._complete = record

        def flapper():
            yield sim.timeout(10_000.0)
            mhd = pod.route(client._cq_addr())[0]
            link = pod.mhds[mhd].link_of("h1")
            link.fail()
            yield sim.timeout(60_000.0)
            link.restore()

        def script():
            yield from client.setup()
            outs = []
            for i in range(3):
                if flap and i == 1:
                    sim.spawn(flapper())
                out = yield from client.run_job(KERNEL_COMPRESS,
                                                bytes([i]) * 2048)
                outs.append(out)
                yield sim.timeout(7_777.7)
            return outs

        proc = sim.spawn(script())
        sim.run(until=100e6)
        assert proc.processed
        acc.stop()
        sim.run()
        links = [(link.line_ops, link.bytes_read) for mhd in pod.mhds
                 for link in mhd.links]
        return proc.value, done, links, sim.events_processed

    parked = run(RemoteAcceleratorClient)
    polled = run(PollingAcceleratorClient)
    assert parked[:3] == polled[:3]
    assert len(parked[1]) == 3
    assert parked[3] < polled[3]


# ------------------------------------------------------------ PollPark itself


def line_poller(sim, memsys, addr, poll_ns, park, found):
    """Poll one uncached line until its first byte is set."""
    while True:
        try:
            raw = yield from memsys.read_span(addr, 16, uncached=True)
        except LinkDownError:
            raw = None
        if raw is not None and raw[0]:
            found.append(sim.now)
            return
        if park is None:
            yield sim.timeout(poll_ns)
        else:
            yield from park.wait(addr, raw, poll_ns)


def poll_for_landing(land_ns, parked, nudge_ns=None, start_ns=10_000.3,
                     poll_ns=2_000.0):
    """When a poller on h1 sees a DMA write landing at ``land_ns``.

    The landing is scheduled 50 ns ahead, as a posted store's or DMA's
    final step is: a grid point it ties with was scheduled earlier.  A
    write of other bytes of the line at ``nudge_ns`` wakes a parked
    poller without ending its wait.
    """
    sim = Simulator(seed=1)
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=2, mhd_capacity=1 << 27))
    addr = pod.allocate(4096, owners=["h0", "h1"]).range.base + 64 * 5
    memsys = pod.host("h1")
    found = []

    def writer():
        if nudge_ns is not None:
            yield sim.timeout(nudge_ns)
            pod.pool_write(addr + 1, b"\x02")
        yield sim.timeout(land_ns - 50.0 - sim.now)
        yield sim.timeout(50.0)
        pod.pool_write(addr, b"\x01" * 16)

    def poller():
        yield sim.timeout(start_ns)
        park = PollPark(memsys) if parked else None
        yield from line_poller(sim, memsys, addr, poll_ns, park, found)

    sim.spawn(writer())
    sim.spawn(poller())
    sim.run()
    link = pod.mhds[pod.route(addr)[0]].link_of("h1")
    return found, link.line_ops, link.bytes_read, sim.events_processed


def grid(start_ns, step_ns, poll_ns, n):
    """The polling loop's issue instants, by its own float additions."""
    points = [start_ns]
    while len(points) <= n:
        points.append((points[-1] + step_ns) + poll_ns)
    return points


def test_park_matches_polling_for_every_landing_phase():
    timings = PodConfig().timings
    step = timings.cpu_issue_ns + timings.cxl_load_ns
    points = grid(10_000.3, step, 2_000.0, 12)
    lands = [points[8] + k * 61.7 for k in range(40)]
    lands += [points[9], points[9] + step, points[9] + 1e-9]
    for land in lands:
        # Parked from the first poll, or woken (nudged) to poll at
        # points[8], so early landings arrive mid-read.
        for nudge in (None, points[8] - 500.0):
            parked = poll_for_landing(land, True, nudge)
            polled = poll_for_landing(land, False, nudge)
            assert parked[:3] == polled[:3], (land, nudge)
            assert parked[3] < polled[3], (land, nudge)


def test_tie_rule_a_change_on_a_grid_point_is_seen_at_the_next():
    timings = PodConfig().timings
    step = timings.cpu_issue_ns + timings.cxl_load_ns
    points = grid(10_000.3, step, 2_000.0, 12)
    found, *_ = poll_for_landing(points[6], True)
    assert found == [points[7] + step]
    found, *_ = poll_for_landing(points[6] + 1e-6, True)
    assert found == [points[7] + step]
    found, *_ = poll_for_landing(points[6] - 1e-6, True)
    assert found == [points[6] + step]


def own_store_seen_at(parked, store_ns):
    """When h1's poller sees an NT store h1 itself commits to its line."""
    sim = Simulator(seed=1)
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=2, mhd_capacity=1 << 27))
    addr = pod.allocate(4096, owners=["h1"]).range.base
    memsys = pod.host("h1")
    found = []

    def storer():
        yield sim.timeout(store_ns)
        yield from memsys.store_line_nt(addr, b"\x01" * 64)

    park = PollPark(memsys) if parked else None
    sim.spawn(line_poller(sim, memsys, addr, 2_000.0, park, found))
    sim.spawn(storer())
    sim.run()
    return found


@pytest.mark.parametrize("store_ns", [8_000.0 + k * 150.0 for k in range(16)])
def test_wake_on_a_store_this_host_commits(store_ns):
    """The poller's own NT store is visible to its next poll (store
    forwarding) before it lands: the commit itself wakes the park."""
    assert own_store_seen_at(True, store_ns) == own_store_seen_at(
        False, store_ns)
