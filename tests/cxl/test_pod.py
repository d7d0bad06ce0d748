"""Unit tests for pods, MHDs, and pool address routing."""

import random

import pytest

from repro.cxl.address import CACHELINE_BYTES
from repro.cxl.allocator import AllocationError
from repro.cxl.device import PoisonedMemoryError
from repro.cxl.mhd import (
    MhdFailedError, MhdPortExhausted, MultiHeadedDevice,
)
from repro.cxl.pod import (
    POOL_BASE, CxlPod, PartialPoolWriteError, PodConfig,
)
from repro.sim import Simulator


def small_pod(n_hosts=4, n_mhds=2):
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(
        n_hosts=n_hosts, n_mhds=n_mhds, mhd_capacity=1 << 26,
    ))
    return sim, pod


def test_pod_creates_hosts_and_links():
    _sim, pod = small_pod(n_hosts=4, n_mhds=3)
    assert pod.host_ids == ["h0", "h1", "h2", "h3"]
    for host_id in pod.host_ids:
        memsys = pod.host(host_id)
        assert len(memsys.port.links) == 3


def test_unknown_host_rejected():
    _sim, pod = small_pod()
    with pytest.raises(KeyError):
        pod.host("h99")


def test_pool_capacity_is_sum_of_mhds():
    _sim, pod = small_pod(n_mhds=2)
    assert pod.config.pool_capacity == 2 << 26


def test_route_interleaves_across_mhds():
    _sim, pod = small_pod(n_mhds=2)
    # Block 0 (first 256B) -> mhd0, block 1 -> mhd1, block 2 -> mhd0@256...
    idx0, _m0, dev0 = pod.route(POOL_BASE)
    idx1, _m1, dev1 = pod.route(POOL_BASE + 256)
    idx2, _m2, dev2 = pod.route(POOL_BASE + 512)
    assert (idx0, dev0) == (0, 0)
    assert (idx1, dev1) == (1, 0)
    assert (idx2, dev2) == (0, 256)


def test_route_is_a_bijection_onto_device_space():
    _sim, pod = small_pod(n_mhds=3)
    seen = set()
    for offset in range(0, 3 * 1024, 64):
        idx, _media, dev = pod.route(POOL_BASE + offset)
        key = (idx, dev)
        assert key not in seen
        seen.add(key)


def test_pool_read_write_roundtrip_across_mhd_boundary():
    _sim, pod = small_pod(n_mhds=2)
    payload = bytes(i % 256 for i in range(1024))  # spans 4 interleave blocks
    addr = POOL_BASE + 128
    pod.pool_write(addr, payload)
    assert pod.pool_read(addr, 1024) == payload
    # The data must actually be split across both MHDs.
    assert pod.mhds[0].memory.resident_bytes > 0
    assert pod.mhds[1].memory.resident_bytes > 0


def test_pool_span_out_of_bounds_rejected():
    _sim, pod = small_pod()
    with pytest.raises(ValueError):
        pod.pool_read(POOL_BASE + pod.config.pool_capacity - 10, 20)


def test_allocate_returns_pod_global_addresses():
    _sim, pod = small_pod()
    alloc = pod.allocate(4096, owners=["h0"])
    assert alloc.range.base >= POOL_BASE
    pod.free(alloc)
    with pytest.raises(ValueError):
        pod.free(alloc)


def test_allocations_visible_to_all_owners():
    sim, pod = small_pod()
    alloc = pod.allocate(4096, owners=["h0", "h1"], label="shared")
    pod.pool_write(alloc.range.base, b"ping")
    assert pod.pool_read(alloc.range.base, 4) == b"ping"


def test_mhd_port_exhaustion():
    sim = Simulator()
    mhd = MultiHeadedDevice(sim, 1 << 20, n_ports=2)
    mhd.connect("a")
    mhd.connect("b")
    with pytest.raises(MhdPortExhausted):
        mhd.connect("c")


def test_mhd_duplicate_connect_rejected():
    sim = Simulator()
    mhd = MultiHeadedDevice(sim, 1 << 20, n_ports=2)
    mhd.connect("a")
    with pytest.raises(ValueError):
        mhd.connect("a")


def test_mhd_disconnect_frees_port():
    sim = Simulator()
    mhd = MultiHeadedDevice(sim, 1 << 20, n_ports=1)
    mhd.connect("a")
    mhd.disconnect("a")
    mhd.connect("b")
    assert mhd.connected_hosts == ["b"]
    with pytest.raises(KeyError):
        mhd.link_of("a")


def test_mhd_port_count_limit():
    sim = Simulator()
    with pytest.raises(ValueError):
        MultiHeadedDevice(sim, 1 << 20, n_ports=21)


def test_pod_config_validation():
    with pytest.raises(ValueError):
        PodConfig(n_hosts=0)
    with pytest.raises(ValueError):
        PodConfig(n_mhds=0)
    with pytest.raises(ValueError):
        PodConfig(ras_bytes_per_mhd=100)  # not interleave-aligned
    with pytest.raises(ValueError):
        PodConfig(mhd_capacity=1 << 26, ras_bytes_per_mhd=1 << 26)


# -- memory RAS: direct windows, confined allocation, failure domains -----


def test_ras_window_addresses_route_direct():
    _sim, pod = small_pod(n_mhds=2)
    cfg = pod.config
    for mhd_idx in range(2):
        addr = pod.ras_probe_addr(mhd_idx)
        idx, _media, dev = pod.route(addr)
        assert idx == mhd_idx
        assert dev == cfg.direct_offset
        # The window's last byte stays on the same device.
        idx_end, _m, dev_end = pod.route(
            addr + cfg.ras_window_bytes - 1)
        assert idx_end == mhd_idx
        assert dev_end == cfg.mhd_capacity - 1


def test_confined_allocations_round_robin_across_mhds():
    _sim, pod = small_pod(n_mhds=2)
    a = pod.allocate_confined(4096, owners=["h0"], label="a")
    b = pod.allocate_confined(4096, owners=["h0"], label="b")
    c = pod.allocate_confined(4096, owners=["h0"], label="c")
    domains = [pod.mhd_of(x.range.base) for x in (a, b, c)]
    assert domains == [0, 1, 0]
    assert pod.allocation_mhds(a) == {0}
    assert pod.allocation_mhds(b) == {1}
    # Interleaved allocations span every failure domain.
    inter = pod.allocate(4096, owners=["h0"])
    assert pod.allocation_mhds(inter) == {0, 1}


def test_confined_roundtrip_and_free():
    _sim, pod = small_pod(n_mhds=2)
    alloc = pod.allocate_confined(4096, owners=["h0"], label="ring")
    pod.pool_write(alloc.range.base, b"confined-bytes")
    assert pod.pool_read(alloc.range.base, 14) == b"confined-bytes"
    # Only the confining device holds the bytes.
    assert pod.mhds[0].memory.resident_bytes > 0
    assert pod.mhds[1].memory.resident_bytes == 0
    assert [entry[2] for entry in pod.ras_allocations()] == ["ring"]
    pod.free(alloc)
    assert pod.ras_allocations() == []


def test_confined_span_may_not_cross_windows():
    _sim, pod = small_pod(n_mhds=2)
    addr = pod.ras_probe_addr(0) + pod.ras_window_bytes - 64
    with pytest.raises(ValueError):
        pod.pool_read(addr, 128)


def test_failed_mhd_fails_reads_before_any_byte_moves():
    _sim, pod = small_pod(n_mhds=2)
    payload = bytes(1024)
    pod.pool_write(POOL_BASE, payload)
    pod.fail_mhd(1)
    with pytest.raises(MhdFailedError):
        pod.pool_read(POOL_BASE, 1024)  # stripe touches mhd1
    pod.repair_mhd(1)
    assert pod.pool_read(POOL_BASE, 1024) == payload


def test_failed_mhd_makes_interleaved_write_atomic():
    """A stripe write to a pod with a dead MHD writes zero bytes."""
    _sim, pod = small_pod(n_mhds=2)
    pod.fail_mhd(1)
    before = pod.mhds[0].memory.resident_bytes
    with pytest.raises(MhdFailedError):
        pod.pool_write(POOL_BASE, bytes(range(256)) * 4)
    assert pod.mhds[0].memory.resident_bytes == before


def test_partial_write_error_reports_torn_extent():
    """Defensive mid-loop failure surfaces as an explicit torn write."""
    _sim, pod = small_pod(n_mhds=2)
    original_check = pod.mhds[1].check_alive
    calls = {"n": 0}

    def check_then_die():
        # The 1024 B stripe puts two chunks on mhd1, so the pre-write
        # health check probes it twice; die on the first in-loop check.
        calls["n"] += 1
        if calls["n"] > 2:
            pod.mhds[1].failed = True
        original_check()

    pod.mhds[1].check_alive = check_then_die
    with pytest.raises(PartialPoolWriteError) as err:
        pod.pool_write(POOL_BASE, bytes(1024))
    assert 0 < err.value.written < err.value.total == 1024


def test_allocation_falls_back_to_confined_when_mhd_down():
    _sim, pod = small_pod(n_mhds=2)
    pod.fail_mhd(0)
    alloc = pod.allocate(4096, owners=["h0"])
    assert pod.mhd_of(alloc.range.base) == 1  # confined to the survivor
    pod.pool_write(alloc.range.base, b"degraded-but-alive")
    assert pod.pool_read(alloc.range.base, 18) == b"degraded-but-alive"
    pod.repair_mhd(0)
    pod.fail_mhd(1)
    pod.fail_mhd(0)
    with pytest.raises(AllocationError):
        pod.allocate(4096, owners=["h0"])


def test_poison_routes_through_pool_address():
    _sim, pod = small_pod(n_mhds=2)
    alloc = pod.allocate_confined(4096, owners=["h0"])
    pod.pool_write(alloc.range.base, bytes(128))
    pod.poison(alloc.range.base, n_lines=2)
    with pytest.raises(PoisonedMemoryError):
        pod.pool_read(alloc.range.base, 64)
    with pytest.raises(PoisonedMemoryError):
        pod.pool_read(alloc.range.base + 64, 64)
    counters = pod.ras_counters()
    assert counters["poisons_injected"] == 2
    assert counters["poison_reads"] == 2
    # Overwriting scrubs: the accounting identity holds.
    pod.pool_write(alloc.range.base, bytes(128))
    counters = pod.ras_counters()
    assert counters["poisons_injected"] == (
        counters["poisons_scrubbed"] + counters["poisoned_resident"]
    )
    assert counters["poisoned_resident"] == 0


def test_ras_counters_track_mhd_failures():
    _sim, pod = small_pod(n_mhds=2)
    pod.fail_mhd(0)
    assert pod.ras_counters()["mhds_down"] == 1
    assert pod.healthy_mhds == [1]
    pod.repair_mhd(0)
    assert pod.ras_counters()["mhds_down"] == 0
    assert pod.ras_counters()["mhd_failures"] == 1


def _per_line_scrub(pod):
    """Reference allocation scrub: route and clear every 64 B line."""
    def scrub(rng):
        for addr in range(rng.base, rng.end, CACHELINE_BYTES):
            _idx, media, dev_addr = pod.route(addr)
            media._require_aligned(dev_addr)
            media._check(dev_addr)
            media._scrub(dev_addr)
            media._lines.pop(dev_addr, None)
    return scrub


def _media_state(pod):
    return [
        (dict(m._lines), set(m.poisoned_lines), m.poisons_injected,
         m.poisons_scrubbed)
        for m in (mhd.memory for mhd in pod.mhds)
    ]


@pytest.mark.parametrize("gran", [256, 384])
@pytest.mark.parametrize("n_mhds", [1, 2, 3, 4])
def test_range_scrub_matches_the_per_line_scrub(n_mhds, gran):
    """Interleaved allocations starting and ending mid-granule, and
    confined ones, over media pre-seeded with resident and poisoned lines
    inside each allocation and just outside it on both sides: one
    ``clear_range`` per MHD leaves every device exactly as the per-line
    scrub does."""
    rng = random.Random(n_mhds * 1000 + gran)
    config = PodConfig(n_hosts=1, n_mhds=n_mhds, mhd_capacity=gran * 512,
                       interleave_bytes=gran, ras_bytes_per_mhd=gran * 64)
    ref = CxlPod(Simulator(), config)
    ref._scrub_on_allocate = _per_line_scrub(ref)
    new = CxlPod(Simulator(), config)
    calls = []
    walks = set()

    def counting(media):
        clear_range = media.clear_range

        def wrapped(lo, hi):
            calls.append(media)
            for held in (media._lines, media.poisoned_lines):
                walks.add((hi - lo) // CACHELINE_BYTES <= len(held))
            clear_range(lo, hi)
        return wrapped

    for mhd in new.mhds:
        mhd.memory.clear_range = counting(mhd.memory)

    def seed(pod, ops):
        for idx, dev_addr, data, poison in ops:
            media = pod.mhds[idx].memory
            media.write_line(dev_addr, data)
            if poison:
                media.poison(dev_addr)

    live = []
    mid_granule = 0
    for _round in range(24):
        confined = rng.random() < 0.3
        size = CACHELINE_BYTES * rng.randint(1, 3 * gran * n_mhds // 64)
        where = rng.randrange(n_mhds) if confined else None
        # Find where the allocation will land, then seed it and its edges.
        probe = ref.allocate(size, ["h0"], mhd_index=where)
        ref.free(probe)
        lines = {}
        for addr in range(probe.range.base, probe.range.end,
                          CACHELINE_BYTES):
            idx, _media, dev_addr = ref.route(addr)
            lines.setdefault(idx, []).append(dev_addr)
        density = rng.choice([0.05, 0.5, 0.95])
        ops = []
        for idx, devs in lines.items():
            top = ref.mhds[idx].memory.capacity
            inside = [d for d in devs if rng.random() < density]
            edges = [d for d in (min(devs) - CACHELINE_BYTES,
                                 max(devs) + CACHELINE_BYTES)
                     if 0 <= d < top]
            for dev_addr in inside + edges:
                ops.append((idx, dev_addr, bytes([rng.randrange(1, 256)]) * 64,
                            dev_addr in edges or rng.random() < 0.5))
        if rng.random() < 0.5:
            # Background residency anywhere on the devices: a resident
            # set larger than the range makes the scrub walk the range.
            for idx in range(n_mhds):
                for _ in range(rng.randrange(64)):
                    dev_addr = CACHELINE_BYTES * rng.randrange(
                        config.mhd_capacity // CACHELINE_BYTES)
                    ops.append((idx, dev_addr, b"\x01" * 64, False))
        seed(ref, ops)
        seed(new, ops)
        before = len(calls)
        got = new.allocate(size, ["h0"], mhd_index=where)
        want = ref.allocate(size, ["h0"], mhd_index=where)
        assert got.range == want.range == probe.range
        assert len(calls) - before <= n_mhds
        assert _media_state(new) == _media_state(ref)
        for m in (mhd.memory for mhd in new.mhds):
            assert m.poisons_injected == (
                m.poisons_scrubbed + m.poisoned_resident)
        live.append((got, want))
        mid_granule += where is None and bool(
            got.range.base % gran and got.range.end % gran)
        if rng.random() < 0.4:
            got, want = live.pop(rng.randrange(len(live)))
            new.free(got)
            ref.free(want)
    assert mid_granule > 0
    counters = new.ras_counters()
    assert counters["poisons_scrubbed"] > 0
    assert counters["poisoned_resident"] > 0  # the edges kept their poison
    assert walks == {True, False}  # walked ranges and walked sets
