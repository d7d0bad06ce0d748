"""Unit tests for the host memory system: timing, caching, DMA, staleness.

The central test here is the *staleness hazard*: without software
coherence, a host that cached a pool line keeps seeing the old value after
another host rewrites it — the exact problem §4.1 says the datapath must
handle in software.
"""

import random
from collections import OrderedDict

import pytest

from repro.cxl.address import CACHELINE_BYTES, line_range
from repro.cxl.cache import CpuCache
from repro.cxl.link import LinkDownError
from repro.cxl.params import DEFAULT_TIMINGS
from repro.cxl.pod import POOL_BASE, CxlPod, PodConfig
from repro.sim import Simulator

LINE_A = b"A" * 64
LINE_B = b"B" * 64


@pytest.fixture()
def pod():
    sim = Simulator()
    return sim, CxlPod(sim, PodConfig(
        n_hosts=2, n_mhds=2, mhd_capacity=1 << 26,
    ))


def run(sim, gen):
    proc = sim.spawn(gen)
    sim.run(until=proc)
    sim.run()  # drain delayed write-visibility processes
    return proc.value


def test_local_load_faster_than_pool_load(pod):
    sim, pod = pod

    def local(mem):
        t0 = sim.now
        yield from mem.load_line(0)
        return sim.now - t0

    def pooled(mem):
        t0 = sim.now
        yield from mem.load_line(POOL_BASE)
        return sim.now - t0

    mem = pod.host("h0")
    t_local = run(sim, local(mem))
    mem.cache.drop_clean(0)
    t_pool = run(sim, pooled(mem))
    ratio = (t_pool - DEFAULT_TIMINGS.cpu_issue_ns) / (
        t_local - DEFAULT_TIMINGS.cpu_issue_ns)
    assert ratio == pytest.approx(DEFAULT_TIMINGS.cxl_latency_multiplier)


def test_cache_hit_avoids_link(pod):
    sim, pod = pod
    mem = pod.host("h0")

    def proc(mem):
        yield from mem.load_line(POOL_BASE)   # miss: fills cache
        t0 = sim.now
        yield from mem.load_line(POOL_BASE)   # hit
        return sim.now - t0

    t_hit = run(sim, proc(mem))
    assert t_hit == pytest.approx(
        DEFAULT_TIMINGS.cpu_issue_ns + DEFAULT_TIMINGS.cache_hit_ns
    )


def test_nt_store_visible_to_other_host(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")

    def writer(mem):
        yield from mem.store_line_nt(POOL_BASE, LINE_A)

    def reader(mem):
        yield sim.timeout(1000.0)
        data = yield from mem.load_line(POOL_BASE)
        return data

    sim.spawn(writer(h0))
    p = sim.spawn(reader(h1))
    sim.run()
    assert p.value == LINE_A


def test_nt_store_over_a_down_link_leaves_no_store_buffer_entry(pod):
    """A store that raises never landed, so the host must not forward
    it: after restore its own uncached load sees the device's line."""
    sim, pod = pod
    h1 = pod.host("h1")
    link = pod.mhds[pod.route(POOL_BASE)[0]].link_of("h1")
    link.fail()
    store = sim.spawn(h1.store_line_nt(POOL_BASE, b"\x07" * 64))
    with pytest.raises(LinkDownError):
        sim.run(until=store)
    link.restore()
    assert not h1._store_buffer
    assert run(sim, h1.load_line_uncached(POOL_BASE)) == bytes(64)


def test_temporal_store_invisible_to_other_host_stale_hazard(pod):
    """THE hazard: temporal stores sit dirty in the writer's cache and the
    pool (hence every other host) keeps the stale value."""
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")

    def writer(mem):
        yield from mem.store_line(POOL_BASE, LINE_A)  # cached, dirty

    def reader(mem):
        yield sim.timeout(5000.0)
        data = yield from mem.load_line(POOL_BASE)
        return data

    sim.spawn(writer(h0))
    p = sim.spawn(reader(h1))
    sim.run()
    assert p.value == bytes(64)  # h1 sees zeros, not LINE_A: stale!


def test_cached_reader_misses_remote_update_until_invalidate(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")
    results = {}

    def reader(mem):
        first = yield from mem.load_line(POOL_BASE)   # caches zeros
        yield sim.timeout(5000.0)                      # h0 publishes LINE_A
        second = yield from mem.load_line(POOL_BASE)  # stale hit!
        yield from mem.invalidate_line(POOL_BASE)
        third = yield from mem.load_line(POOL_BASE)   # fresh after inval
        results.update(first=first, second=second, third=third)

    def writer(mem):
        yield sim.timeout(1000.0)
        yield from mem.store_line_nt(POOL_BASE, LINE_A)

    sim.spawn(reader(h1))
    sim.spawn(writer(h0))
    sim.run()
    assert results["first"] == bytes(64)
    assert results["second"] == bytes(64)  # stale cached copy
    assert results["third"] == LINE_A      # fresh after invalidate


def test_flush_publishes_dirty_line(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")

    def writer(mem):
        yield from mem.store_line(POOL_BASE, LINE_B)
        yield from mem.flush_line(POOL_BASE)

    def reader(mem):
        yield sim.timeout(5000.0)
        data = yield from mem.load_line_uncached(POOL_BASE)
        return data

    sim.spawn(writer(h0))
    p = sim.spawn(reader(h1))
    sim.run()
    assert p.value == LINE_B


def test_span_roundtrip_through_cache(pod):
    sim, pod = pod
    mem = pod.host("h0")
    payload = bytes(i % 253 for i in range(300))

    def proc(mem):
        yield from mem.write_span(POOL_BASE + 30, payload)
        data = yield from mem.read_span(POOL_BASE + 30, len(payload))
        return data

    assert run(sim, proc(mem)) == payload


def test_dma_write_visible_to_remote_uncached_reader(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")
    payload = bytes(range(256))

    def dma(mem):
        yield from mem.dma_write(POOL_BASE, payload)

    def reader(mem):
        yield sim.timeout(100_000.0)
        data = yield from mem.read_span(POOL_BASE, 256, uncached=True)
        return data

    sim.spawn(dma(h0))
    p = sim.spawn(reader(h1))
    sim.run()
    assert p.value == payload


def test_dma_write_snoops_local_cache(pod):
    sim, pod = pod
    h0 = pod.host("h0")

    def proc(mem):
        first = yield from mem.load_line(POOL_BASE)      # caches zeros
        yield from mem.dma_write(POOL_BASE, LINE_A)      # local DMA snoop
        second = yield from mem.load_line(POOL_BASE)     # must be fresh
        return first, second

    first, second = run(sim, proc(h0))
    assert first == bytes(64)
    assert second == LINE_A


def test_dma_read_sees_local_dirty_lines(pod):
    sim, pod = pod
    h0 = pod.host("h0")

    def proc(mem):
        yield from mem.store_line(POOL_BASE, LINE_B)   # dirty in cache only
        data = yield from mem.dma_read(POOL_BASE, 64)  # local DMA snoops
        return data

    assert run(sim, proc(h0)) == LINE_B


def test_dma_read_does_not_see_remote_dirty_lines(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")
    out = {}

    def remote_writer(mem):
        yield from mem.store_line(POOL_BASE, LINE_B)  # dirty on h1

    def local_dma(mem):
        yield sim.timeout(5000.0)
        data = yield from mem.dma_read(POOL_BASE, 64)
        out["data"] = data

    sim.spawn(remote_writer(h1))
    sim.spawn(local_dma(h0))
    sim.run()
    assert out["data"] == bytes(64)  # h1's dirty line is invisible to h0 DMA


def test_pool_dma_uses_all_links_in_parallel(pod):
    sim, pod = pod
    h0 = pod.host("h0")
    size = 1 << 20  # 1 MiB split across 2 x8 links

    def dma(mem):
        t0 = sim.now
        yield from mem.dma_write(POOL_BASE, bytes(size))
        return sim.now - t0

    elapsed = run(sim, dma(h0))
    one_link = size / 30.0
    two_links = (size / 2) / 30.0
    # Must be near the two-link time, far below the single-link time.
    assert elapsed < one_link * 0.75
    assert elapsed > two_links * 0.9
    assert h0.port.links[0].bytes_written > 0
    assert h0.port.links[1].bytes_written > 0


def test_local_dram_dma_roundtrip(pod):
    sim, pod = pod
    h0 = pod.host("h0")
    payload = b"local-buffer-data" * 3

    def proc(mem):
        yield from mem.dma_write(4096, payload)
        data = yield from mem.dma_read(4096, len(payload))
        return data

    assert run(sim, proc(h0)) == payload


def test_granule_route_memo_agrees_with_the_pod_map():
    """One memo entry per interleave granule must route every line of it
    exactly as ``CxlPod.route`` does, in the striped region and across
    the RAS windows, including lines looked up after a granule's first."""
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=3, mhd_capacity=384 << 12,
                                interleave_bytes=384,
                                ras_bytes_per_mhd=384 * 64))
    mem = pod.host("h0")
    top = pod.pool_range.size
    offsets = list(range(0, 8192, 64))
    offsets += [pod.interleaved_capacity + d for d in range(-1024, 1024, 64)]
    offsets += [top - 2048 + d for d in range(0, 2048, 64)]
    for offset in offsets + offsets[::-1]:
        addr = POOL_BASE + offset
        mhd, media, shift, link = mem._route_cached(addr)
        idx, want_media, want_dev = pod.route(addr)
        assert (mhd, media, addr + shift, link) == (
            pod.mhds[idx], want_media, want_dev, mem.port.links[idx])
    assert len(mem._route_cache) < len(set(offsets))


def _snapshot_overlay(mem, addr, size, device_bytes):
    """Reference snoop: overlay a whole-cache snapshot of the dirty lines,
    then the store buffer, onto the device bytes (the O(cache) form)."""
    dirty = {a: d for a, (d, flag) in mem.cache._lines.items() if flag}
    data = bytearray(device_bytes)
    if dirty or mem._store_buffer:
        for base in line_range(addr, size):
            buffered = mem._store_buffer.get(base)
            line = dirty.get(base, buffered[1] if buffered else None)
            if line is None:
                continue
            start = max(addr, base)
            end = min(addr + size, base + CACHELINE_BYTES)
            data[start - addr:end - addr] = line[start - base:end - base]
    return bytes(data)


def _device_bytes(mem, addr, size):
    if mem._is_pool(addr):
        return mem.pod.pool_read(addr, size)
    return mem.port.local_dram.read(addr, size)


def _cache_state(mem):
    cache = mem.cache
    return cache.hits, cache.misses, cache.writebacks, list(cache._lines)


@pytest.mark.parametrize("seed", range(6))
def test_per_line_dma_snoop_matches_the_snapshot_overlay(seed):
    """Random cache/store-buffer states on two hosts: every DMA read,
    pool or local, returns exactly what the whole-cache snapshot overlay
    returns at the same instant, and leaves the cache's hit/miss/
    write-back counts and LRU order as they were."""
    rng = random.Random(seed)
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=2, mhd_capacity=1 << 26))
    hosts = [pod.host("h0"), pod.host("h1")]
    for mem in hosts:
        mem.cache = CpuCache(mem.host_id, capacity_lines=6)
    for idx in range(2):
        # Fail-slow media stretch NT-store visibility (not DMA transfers),
        # so pool store-buffer entries are still pending at DMA snoops.
        pod.slow_mhd(idx, 20.0)
    lines = 24
    bases = [POOL_BASE, 4096]
    seen = dict.fromkeys(["dirty", "buffered", "both", "remote", "full",
                          "reads"], 0)

    def line_addr():
        return rng.choice(bases) + CACHELINE_BYTES * rng.randrange(lines)

    def payload():
        return bytes(rng.randrange(256) for _ in range(CACHELINE_BYTES))

    def driver():
        for _ in range(300):
            mem = rng.choice(hosts)
            op = rng.randrange(8)
            if op == 0:
                yield from mem.store_line(line_addr(), payload())
            elif op == 1:
                yield from mem.load_line(line_addr())
            elif op == 2:
                yield from mem.flush_line(line_addr())
            elif op == 3:
                yield from mem.store_line_nt(line_addr(), payload())
            elif op == 4:
                yield from mem.invalidate_line(line_addr())
            elif op == 5:
                addr = line_addr() + rng.randrange(CACHELINE_BYTES)
                yield from mem.dma_write(addr, payload()[:rng.randint(1, 64)])
            else:
                base = rng.choice(bases)
                addr = base + rng.randrange(lines * CACHELINE_BYTES - 200)
                size = rng.randint(1, 200)
                if rng.random() < 0.5:
                    # An NT store into the span, still in flight at the
                    # snoop (it may also shadow a dirty cached line).
                    hit = rng.choice(line_range(addr, size))
                    yield from mem.store_line_nt(hit, payload())
                    if rng.random() < 0.5:
                        yield from mem.store_line(hit, payload())
                before = _cache_state(mem)
                data = yield from mem.dma_read(addr, size)
                # dma_read returned in this same step: nothing else ran.
                want = _snapshot_overlay(
                    mem, addr, size, _device_bytes(mem, addr, size))
                assert data == want
                assert _cache_state(mem) == before
                span = set(line_range(addr, size))
                dirty = {a for a in span if mem.cache.is_dirty(a)}
                buffered = span & set(mem._store_buffer)
                seen["reads"] += 1
                seen["dirty"] += bool(dirty)
                seen["buffered"] += bool(buffered)
                seen["both"] += bool(dirty & buffered)
                other = hosts[1 - hosts.index(mem)]
                seen["remote"] += any(other.cache.is_dirty(a) for a in span)
                seen["full"] += len(mem.cache) == mem.cache.capacity_lines

    run(sim, driver())
    # The random states really exercised both overlay sources, their
    # precedence, lines dirty on the other host, and a full cache.
    assert seen["reads"] > 50
    assert all(seen.values()), seen


class _NoScanLines(OrderedDict):
    """Cache storage that refuses any whole-cache walk."""

    def __iter__(self):
        raise AssertionError("whole-cache scan")

    def items(self):
        raise AssertionError("whole-cache scan")

    def values(self):
        raise AssertionError("whole-cache scan")


def test_dma_read_snoop_never_walks_the_whole_cache(pod):
    sim, pod = pod
    h0 = pod.host("h0")

    def proc(mem):
        for i in range(8):
            yield from mem.load_line(POOL_BASE + 4096 + 64 * i)  # clean
        mem.cache._lines = _NoScanLines(mem.cache._lines)
        yield from mem.store_line(POOL_BASE + 64, LINE_B)        # dirty
        yield from mem.store_line_nt(POOL_BASE + 128, LINE_A)    # buffered
        data = yield from mem.dma_read(POOL_BASE + 32, 160)
        return data

    data = run(sim, proc(h0))
    assert data == bytes(32) + LINE_B + LINE_A
    with pytest.raises(AssertionError, match="whole-cache scan"):
        _snapshot_overlay(h0, POOL_BASE, 64, bytes(64))
