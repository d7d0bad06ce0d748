"""Watchdog failover while the client host's links are down.

The failover's SQ write then raises ``LinkDownError``.  The watchdog
must treat that like an owner it cannot resolve yet: the ops stay
journaled, the watchdog lives, and a later tick's failover completes
every op exactly once after the links come back.
"""

from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.proxy import LocalDeviceHandle
from repro.datapath.vaccel import RemoteAcceleratorClient
from repro.datapath.vssd import RemoteSsdClient
from repro.pcie.accelerator import KERNEL_COMPRESS, Accelerator, AcceleratorSpec
from repro.pcie.ssd import Ssd
from repro.sim import Simulator

TIMEOUT_NS = 20_000_000.0


class LeasedHandle(LocalDeviceHandle):
    """Local MMIO that the watchdog treats as a leased remote device."""

    is_remote = True


def fail_over_into_down_links(device, client_cls, submit, n_ops, **kw):
    """Post ``n_ops`` 4 KiB ops, fail both of h1's links, let the
    watchdog time them out and fail over, then restore the links."""
    sim = device.sim
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=2, mhd_capacity=1 << 27))
    device.attach(pod.host("h0"))
    device.start()
    client = client_cls(sim, pod.host("h1"), LeasedHandle(device), pod,
                        "h0", op_timeout_ns=TIMEOUT_NS,
                        hedge_deadline_ns=TIMEOUT_NS, **kw)
    links = [mhd.link_of("h1") for mhd in pod.mhds]
    seen = {}

    def script():
        yield from client.setup()
        ops = [sim.spawn(submit(client, i)) for i in range(n_ops)]
        yield sim.timeout(1_000.0)
        for link in links:
            link.fail()
        yield sim.timeout(2.0 * TIMEOUT_NS)
        seen.update(failovers=client.failovers, pending=len(client._pending),
                    watchdog_alive=client._watchdog_proc.is_alive)
        for link in links:
            link.restore()
        for op in ops:
            yield op
        return [op.value for op in ops]

    proc = sim.spawn(script())
    sim.run()
    device.stop()
    sim.run()
    assert seen == {"failovers": 1, "pending": n_ops, "watchdog_alive": True}
    assert (client.ops_completed, client.failovers) == (n_ops, 2)
    assert not client._pending
    return proc.value


def test_vssd_watchdog_survives_a_failover_into_down_links():
    """Two writes: the first resubmission raises, and the second op
    stays journaled although it was never posted."""
    statuses = fail_over_into_down_links(
        Ssd(Simulator(seed=5), "ssd0", device_id=10), RemoteSsdClient,
        lambda client, i: client.write(i * 8192, b"d" * 4096), 2,
        n_entries=256)
    assert statuses == [0, 0]


def test_vaccel_watchdog_survives_a_failover_into_down_links():
    accel = Accelerator(Simulator(seed=5), "acc0", device_id=20,
                        spec=AcceleratorSpec(fixed_ns=50_000.0))
    [out] = fail_over_into_down_links(
        accel, RemoteAcceleratorClient,
        lambda client, _i: client.run_job(KERNEL_COMPRESS, b"j" * 4096), 1)
    assert isinstance(out, bytes) and out
