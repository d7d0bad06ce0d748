"""Remote accelerator client: soft accelerator disaggregation (§5).

Submits jobs to an accelerator attached to another pod host: job
descriptors and input data go into shared CXL pool memory, the job
doorbell is forwarded over the ring channel, and results are read back
from the accelerator's output region in the pool.

Failover mirrors :mod:`repro.datapath.vssd`: jobs are journaled
client-side until their completion is observed, completions the dying
owner already wrote are harvested from pool memory, and only unfinished
jobs are resubmitted against the successor.  Each journal entry pins the
*output* address of the generation it ran under — the successor gets a
fresh output region, so a result produced by the previous owner must be
read from the previous region.
"""

from __future__ import annotations

import dataclasses

from repro.channel.rpc import RpcError
from repro.cxl.link import LinkDownError
from repro.cxl.memsys import PollPark
from repro.cxl.params import HEDGE_DEADLINE_NS, HEDGE_STREAK_LIMIT
from repro.datapath.placement import BufferPlacement, DriverMemory
from repro.datapath.proxy import (
    DeviceGoneError,
    DeviceWithdrawnError,
    FenceSignals,
)
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.obs.trace import add_phase_ns
from repro.pcie.accelerator import Accelerator
from repro.pcie.rings import (
    COMPLETION_BYTES,
    CompletionEntry,
    Descriptor,
    DESCRIPTOR_BYTES,
    seq_for_pass,
)


@dataclasses.dataclass
class _PendingJob:
    """Journal entry for one in-flight job (see ``_PendingOp`` in vssd).

    ``out_addr`` is rebased on every resubmission: whichever owner runs
    the job writes its result into that owner's output region.
    """

    order: int
    index: int
    desc: Descriptor
    out_addr: int
    waiter: object
    submitted_ns: float
    #: The caller's job span: a failover resubmission posts under it, so
    #: the successor-side events join the original job's trace.
    span: object = None


class RemoteAcceleratorClient:
    """Offload jobs to a pooled accelerator."""

    def __init__(self, sim, memsys, handle, pod, owner_host: str,
                 n_entries: int = 64, max_job_bytes: int = 64 << 10,
                 name: str = "vaccel",
                 op_timeout_ns: float = 200_000_000.0,
                 hedge_deadline_ns: float = HEDGE_DEADLINE_NS,
                 budget=None):
        self.sim = sim
        self.memsys = memsys
        self.handle = handle
        self.n_entries = n_entries
        self.max_job_bytes = max_job_bytes
        self.name = name
        self.op_timeout_ns = op_timeout_ns
        #: Per-client-host retry budget (optional): hedges draw from it
        #: softly, failover replays drain it unconditionally, and every
        #: completion deposits the goodput dividend.  Jobs are too
        #: coarse-grained to AIMD-pace — the budget alone bounds this
        #: client's recovery-traffic amplification.
        self.budget = budget
        #: A job older than this but younger than the op timeout is in
        #: the gray band: the owner looks alive-but-slow, so the
        #: watchdog hedges (re-rings the journaled doorbell) instead of
        #: tearing the queues down (see ``RemoteSsdClient``).
        self.hedge_deadline_ns = hedge_deadline_ns
        self.mem = DriverMemory(
            memsys, pod, BufferPlacement.CXL,
            owners=sorted({memsys.host_id, owner_host}),
            label=name,
        )
        self.generation = 0
        self.ring_base = self.mem.alloc(n_entries * DESCRIPTOR_BYTES, "jobs")
        self.cq_base = self.mem.alloc(n_entries * COMPLETION_BYTES, "cq")
        self.in_base = self.mem.alloc(n_entries * max_job_bytes, "inputs")
        self.out_base = self.mem.alloc(n_entries * 4096, "outputs")
        self._tail = 0
        self._cq_head = 0
        self._configured = False
        # Concurrent-submitter support (mirrors RemoteSsdClient): jobs
        # complete out of order across the accelerator's contexts, so
        # waiters are matched by submission index, and doorbells only
        # expose contiguously-written job descriptors.
        self._pending: dict[int, _PendingJob] = {}
        self._order = 0
        self._collector = None
        # Where the collector sleeps between completions.
        self._cq_park = PollPark(memsys)
        self._watchdog_proc = None
        self._failing_over = None
        self._kick_pending = False
        self._kick_streak = 0
        self._ring_written: set[int] = set()
        self._ring_ready = 0
        self.ops_submitted = 0
        self.ops_completed = 0
        self.failovers = 0
        self.resubmitted = 0
        self.fence_kicks = 0
        self.op_timeouts = 0
        self.hedges = 0
        self._hedge_streak = 0
        self._subscribe_fence_signals()

    def setup(self):
        """Process: reset queue state and configure the accelerator's
        rings to our pool memory (driver takeover semantics)."""
        yield from self.handle.write_register(Accelerator.REG_RESET, 1)
        yield from self.handle.write_register(
            Accelerator.REG_JOB_RING, self.ring_base
        )
        yield from self.handle.write_register(
            Accelerator.REG_CQ_RING, self.cq_base
        )
        yield from self.handle.write_register(
            Accelerator.REG_OUT_BASE, self.out_base
        )
        self._configured = True

    def run_job(self, kernel: int, data: bytes):
        """Process: run one job; returns the result bytes.

        Safe for concurrent submitters: each job owns a distinct input
        slot and completions are matched by submission index.
        """
        if not self._configured:
            raise RuntimeError(f"{self.name}: call setup() first")
        if len(data) > self.max_job_bytes:
            raise ValueError(
                f"job of {len(data)} B exceeds max {self.max_job_bytes} B"
            )
        if self._tail - self._cq_head >= self.n_entries:
            raise RuntimeError(f"{self.name}: job ring full")
        index = self._tail
        self._tail += 1
        span = _obs.TRACER.begin(
            "vaccel.job", self.sim.now,
            track=f"{self.memsys.host_id}/vaccel", cat="io",
            args={"kernel": kernel, "bytes": len(data)},
        )
        try:
            slot = index % self.n_entries
            in_addr = self.in_base + slot * self.max_job_bytes
            t_link = self.sim.now
            yield from self.mem.write(in_addr, data)
            add_phase_ns(span, "ph_link_ns", self.sim.now - t_link)
            desc = Descriptor(in_addr, len(data), flags=kernel)
            comp, op = yield from self._submit(index, desc, parent=span)
            if comp.status != CompletionEntry.STATUS_OK:
                raise IOError(
                    f"{self.name}: job failed (status={comp.status})"
                )
            t_link = self.sim.now
            result = yield from self.mem.read(
                op.out_addr, min(comp.length, 4096)
            )
            add_phase_ns(span, "ph_link_ns", self.sim.now - t_link)
        finally:
            _obs.TRACER.end(span, self.sim.now)
        return result

    def run_jobs(self, jobs):
        """Process: run several jobs, ringing the doorbell once.

        ``jobs`` is a sequence of ``(kernel, data)`` pairs; returns the
        result bytes per job, in submission order.  Every input buffer
        and job descriptor is written first, then one fence orders the
        batch and one forwarded doorbell exposes all descriptors.  Jobs
        are journaled individually, so failover mid-batch resubmits
        only the unfinished ones.
        """
        if not self._configured:
            raise RuntimeError(f"{self.name}: call setup() first")
        jobs = list(jobs)
        for _kernel, data in jobs:
            if len(data) > self.max_job_bytes:
                raise ValueError(
                    f"job of {len(data)} B exceeds max "
                    f"{self.max_job_bytes} B"
                )
        if not jobs:
            return []
        if self._tail - self._cq_head + len(jobs) > self.n_entries:
            raise RuntimeError(f"{self.name}: job ring full")
        # Reserve the whole batch synchronously (no yield between the
        # depth check and the reservation): concurrent submitters can
        # neither oversubscribe the ring nor interleave into the batch's
        # contiguous index range.
        first = self._tail
        self._tail += len(jobs)
        span = _obs.TRACER.begin(
            "vaccel.job_burst", self.sim.now,
            track=f"{self.memsys.host_id}/vaccel", cat="io",
            args={"n": len(jobs)},
        )
        ops: list[_PendingJob] = []
        try:
            gen = self.generation
            try:
                t_link = self.sim.now
                for offset, (kernel, data) in enumerate(jobs):
                    index = first + offset
                    slot = index % self.n_entries
                    in_addr = self.in_base + slot * self.max_job_bytes
                    yield from self.mem.write(in_addr, data)
                    desc = Descriptor(in_addr, len(data), flags=kernel)
                    waiter = self.sim.event(
                        name=f"{self.name}.job{index}"
                    )
                    op = _PendingJob(
                        order=self._order, index=index, desc=desc,
                        out_addr=self.out_base + slot * 4096,
                        waiter=waiter, submitted_ns=self.sim.now,
                        span=span,
                    )
                    self._order += 1
                    # Journal before posting (see _submit): a failover
                    # racing the batch resubmits from the journal.
                    self._pending[index % (1 << 16)] = op
                    self.ops_submitted += 1
                    ops.append(op)
                add_phase_ns(span, "ph_link_ns", self.sim.now - t_link)
                t_queue = self.sim.now
                for op in ops:
                    desc_addr = (self.ring_base
                                 + (op.index % self.n_entries)
                                 * DESCRIPTOR_BYTES)
                    yield from self.mem.write(desc_addr, op.desc.encode())
                # One fence for the whole batch, then one doorbell.
                yield from self.mem.fence()
                add_phase_ns(span, "ph_queueing_ns",
                             self.sim.now - t_queue)
            except BaseException:
                # The caller observes this failure, so none of the batch
                # is in flight: deregister or the daemons would idle.
                for op in ops:
                    self._unjournal(op.index % (1 << 16))
                if gen == self.generation:
                    if self._tail == first + len(jobs):
                        # No later reservation: unwind the whole batch
                        # so the doorbell frontier never sees it.
                        self._tail = first
                    else:
                        # Concurrent submitters reserved past us: the
                        # abandoned indices must be neutralized or
                        # _ring_ready could never advance past them and
                        # later doorbells would expose nothing new.
                        self.sim.spawn(
                            self._neutralize_abandoned(
                                first, len(jobs), gen
                            ),
                            name=f"{self.name}.neutralize",
                        )
                raise
            if gen == self.generation:
                for op in ops:
                    self._ring_written.add(op.index)
                while self._ring_ready in self._ring_written:
                    self._ring_written.remove(self._ring_ready)
                    self._ring_ready += 1
                try:
                    yield from self.handle.ring_doorbell(
                        0, self._ring_ready, parent=span
                    )
                except (RpcError, LinkDownError, DeviceGoneError):
                    pass
            self._ensure_daemons()
            results = []
            for op in ops:
                t_device = self.sim.now
                comp = yield op.waiter
                add_phase_ns(span, "ph_device_ns",
                             self.sim.now - t_device)
                if comp.status != CompletionEntry.STATUS_OK:
                    raise IOError(
                        f"{self.name}: job failed (status={comp.status})"
                    )
                t_link = self.sim.now
                result = yield from self.mem.read(
                    op.out_addr, min(comp.length, 4096)
                )
                add_phase_ns(span, "ph_link_ns", self.sim.now - t_link)
                results.append(result)
            return results
        finally:
            _obs.TRACER.end(span, self.sim.now)

    # -- failover ------------------------------------------------------------

    def failover(self, new_handle=None):
        """Process: re-establish the accelerator mid-job.

        Same protocol as ``RemoteSsdClient.failover``: serialized, drain
        the old CQ, adopt/re-resolve the handle, fresh per-generation
        ring/input/output regions, resubmit unfinished jobs in order.
        """
        if self._failing_over is not None:
            yield self._failing_over
            return
        done = self.sim.event(name=f"{self.name}.failover")
        self._failing_over = done
        span = _obs.TRACER.begin(
            f"{self.name}.failover", self.sim.now,
            track=f"{self.memsys.host_id}/vaccel", cat="lease",
            args={"pending": len(self._pending),
                  "generation": self.generation + 1},
        )
        try:
            self.failovers += 1
            _obs.METRICS.counter(_names.VACCEL_FAILOVERS).inc()
            self.generation += 1
            self._cq_park.wake()
            gen = self.generation
            yield from self._drain_cq()
            if new_handle is not None:
                self.handle = new_handle
            else:
                self.handle.refresh()
            self._subscribe_fence_signals()
            self.ring_base = self.mem.alloc(
                self.n_entries * DESCRIPTOR_BYTES, f"jobs.g{gen}")
            self.cq_base = self.mem.alloc(
                self.n_entries * COMPLETION_BYTES, f"cq.g{gen}")
            self.in_base = self.mem.alloc(
                self.n_entries * self.max_job_bytes, f"inputs.g{gen}")
            self.out_base = self.mem.alloc(
                self.n_entries * 4096, f"outputs.g{gen}")
            self._tail = 0
            self._cq_head = 0
            self._cq_park.wake()    # the collector polls the new CQ now
            self._ring_written = set()
            self._ring_ready = 0
            self._kick_streak = 0
            self._hedge_streak = 0
            yield from self._setup_with_retry()
            jobs = sorted(self._pending.values(), key=lambda op: op.order)
            self._pending = {}
            unreachable = None
            for op in jobs:
                index = self._tail
                self._tail += 1
                op.index = index
                op.submitted_ns = self.sim.now
                op.out_addr = (self.out_base
                               + (index % self.n_entries) * 4096)
                self._pending[index % (1 << 16)] = op
                if unreachable is not None:
                    continue
                try:
                    yield from self._post(index, op.desc,
                                          parent=op.span or span)
                except LinkDownError as exc:
                    # This host cannot reach the new ring: journal the
                    # rest unposted; the watchdog retries the failover.
                    unreachable = exc
            if unreachable is not None:
                raise unreachable
            self.resubmitted += len(jobs)
            if jobs:
                _obs.METRICS.counter(_names.VACCEL_RESUBMITTED).inc(len(jobs))
                if self.budget is not None:
                    # Correctness traffic: never refused, but accounted,
                    # so hedges/retries stand down behind the replay.
                    self.budget.spend_forced(float(len(jobs)))
            self._ensure_daemons()
        finally:
            self._failing_over = None
            if not done.triggered:
                done.succeed()
            _obs.TRACER.end(span, self.sim.now)

    def _drain_cq(self):
        """Process: harvest results the previous owner already wrote."""
        yield self.sim.timeout(2_000.0)
        while self._pending:
            expect = seq_for_pass(self._cq_head // self.n_entries)
            try:
                raw = yield from self.mem.read(self._cq_addr(),
                                               COMPLETION_BYTES)
            except LinkDownError:
                break  # unreadable now: the journal resubmits the rest
            entry = CompletionEntry.decode(raw)
            if entry.seq != expect:
                break
            self._cq_head += 1
            self._complete(entry)

    def _setup_with_retry(self, max_attempts: int = 50,
                          backoff_ns: float = 5_000_000.0):
        last = None
        for _attempt in range(max_attempts):
            try:
                yield from self.setup()
                return
            except DeviceWithdrawnError:
                raise
            except (RpcError, LinkDownError, DeviceGoneError) as exc:
                last = exc
                self.handle.refresh()
                yield self.sim.timeout(backoff_ns)
        raise RuntimeError(
            f"{self.name}: could not re-establish device after failover"
        ) from last

    def _subscribe_fence_signals(self) -> None:
        endpoint = getattr(self.handle, "endpoint", None)
        if endpoint is None:
            return
        FenceSignals.attach(endpoint).subscribe(
            self.handle.device_id, self._on_fence_nack
        )

    def _on_fence_nack(self, msg) -> None:
        if (msg.device_id != self.handle.device_id
                or self._kick_pending
                or self._failing_over is not None
                or not self._pending
                or self._kick_streak >= 8):
            return
        self._kick_pending = True
        self.sim.spawn(self._fence_kick(), name=f"{self.name}.kick")

    def _fence_kick(self, delay_ns: float = 1_000_000.0):
        try:
            yield self.sim.timeout(delay_ns)
            if self._failing_over is not None or not self._pending:
                return
            self._kick_streak += 1
            self.fence_kicks += 1
            _obs.METRICS.counter(_names.VACCEL_FENCE_KICKS).inc()
            self.handle.refresh()
            yield from self.handle.ring_doorbell(0, self._ring_ready)
        except (RpcError, LinkDownError, DeviceGoneError):
            pass
        finally:
            self._kick_pending = False

    # -- internals -----------------------------------------------------------

    def _submit(self, index: int, desc: Descriptor, parent=None):
        waiter = self.sim.event(name=f"{self.name}.job{index}")
        op = _PendingJob(
            order=self._order, index=index, desc=desc,
            out_addr=self.out_base + (index % self.n_entries) * 4096,
            waiter=waiter, submitted_ns=self.sim.now, span=parent,
        )
        self._order += 1
        self._pending[index % (1 << 16)] = op
        self.ops_submitted += 1
        try:
            yield from self._post(index, desc, parent=parent)
        except BaseException:
            # The caller observes this failure, so the job is not in
            # flight: deregister it or the daemons would idle forever.
            self._unjournal(index % (1 << 16))
            raise
        self._ensure_daemons()
        t_device = self.sim.now
        comp = yield waiter
        add_phase_ns(op.span, "ph_device_ns", self.sim.now - t_device)
        return comp, op

    def _post(self, index: int, desc: Descriptor, parent=None):
        """Process: write one job descriptor and ring the job doorbell."""
        gen = self.generation
        desc_addr = (self.ring_base
                     + (index % self.n_entries) * DESCRIPTOR_BYTES)
        t_queue = self.sim.now
        yield from self.mem.write(desc_addr, desc.encode())
        yield from self.mem.fence()
        if parent is not None and hasattr(parent, "set"):
            add_phase_ns(parent, "ph_queueing_ns", self.sim.now - t_queue)
        if gen != self.generation:
            return
        self._ring_written.add(index)
        while self._ring_ready in self._ring_written:
            self._ring_written.remove(self._ring_ready)
            self._ring_ready += 1
        try:
            yield from self.handle.ring_doorbell(0, self._ring_ready,
                                                 parent=parent)
        except (RpcError, LinkDownError, DeviceGoneError):
            pass

    def _neutralize_abandoned(self, first: int, count: int, gen: int):
        """Process: unwedge the doorbell frontier after a failed burst.

        The failed burst's indices were reserved but never entered
        ``_ring_written``, so ``_ring_ready`` would stall at ``first``
        forever while later submitters' jobs sit unexposed.  Fill the
        abandoned descriptor slots with a zero-length identity job —
        the accelerator completes it without side effects and the
        collector ignores the unknown index — then advance the frontier
        and re-ring so the stalled jobs become visible.  Best effort:
        if the link is still down, the op-timeout watchdog's failover
        remains the backstop.
        """
        noop = Descriptor(self.in_base, 0, flags=0).encode()
        try:
            for index in range(first, first + count):
                if gen != self.generation:
                    return  # failover rebuilt the ring; nothing to fix
                desc_addr = (self.ring_base
                             + (index % self.n_entries) * DESCRIPTOR_BYTES)
                yield from self.mem.write(desc_addr, noop)
            yield from self.mem.fence()
        except (RpcError, LinkDownError):
            return
        if gen != self.generation:
            return
        for index in range(first, first + count):
            self._ring_written.add(index)
        advanced = False
        while self._ring_ready in self._ring_written:
            self._ring_written.remove(self._ring_ready)
            self._ring_ready += 1
            advanced = True
        if advanced and self._pending:
            try:
                yield from self.handle.ring_doorbell(0, self._ring_ready)
            except (RpcError, LinkDownError, DeviceGoneError):
                pass

    def _ensure_daemons(self) -> None:
        if self._collector is None or not self._collector.is_alive:
            self._collector = self.sim.spawn(
                self._collect(), name=f"{self.name}.collector"
            )
        if self._watchdog_proc is None or not self._watchdog_proc.is_alive:
            self._watchdog_proc = self.sim.spawn(
                self._watchdog(), name=f"{self.name}.watchdog",
            )

    def _unjournal(self, key: int):
        """Drop one journal entry; emptying the journal wakes a parked
        collector so it exits on its poll grid."""
        op = self._pending.pop(key, None)
        if not self._pending:
            self._cq_park.wake()
        return op

    def _cq_addr(self) -> int:
        """Address of the CQ entry the collector expects next."""
        return (self.cq_base
                + (self._cq_head % self.n_entries) * COMPLETION_BYTES)

    def _complete(self, entry: CompletionEntry) -> None:
        op = self._unjournal(entry.index)
        if op is not None and not op.waiter.triggered:
            self.ops_completed += 1
            self._kick_streak = 0
            self._hedge_streak = 0
            if self.budget is not None:
                self.budget.on_success()
            op.waiter.succeed(entry)

    def _collect(self, poll_ns: float = 1_000.0):
        """Drain CQ entries and wake the matching waiters (parked
        between completions, like ``RemoteSsdClient``'s collector)."""
        while self._pending:
            gen = self.generation
            expect = seq_for_pass(self._cq_head // self.n_entries)
            addr = self._cq_addr()
            try:
                raw = yield from self.mem.read(addr, COMPLETION_BYTES)
            except LinkDownError:
                raw = None
            if gen != self.generation:
                continue
            if raw is not None:
                entry = CompletionEntry.decode(raw)
                if entry.seq == expect:
                    self._cq_head += 1
                    self._complete(entry)
                    continue
            if self._pending and addr == self._cq_addr():
                yield from self._cq_park.wait(addr, raw, poll_ns)
            else:
                yield self.sim.timeout(poll_ns)

    def _watchdog(self, poll_ns: float = 10_000_000.0):
        while self._pending:
            yield self.sim.timeout(poll_ns)
            if (not self._pending
                    or self._failing_over is not None
                    or not self.handle.is_remote):
                continue
            stalled = min(self._pending.values(),
                          key=lambda op: op.submitted_ns)
            age = self.sim.now - stalled.submitted_ns
            if age <= self.hedge_deadline_ns:
                continue
            if age <= self.op_timeout_ns:
                # Gray band: hedge the doorbell instead of failing over
                # (idempotent — max() doorbells + server op-id journal).
                if self._hedge_streak >= HEDGE_STREAK_LIMIT:
                    continue
                if (self.budget is not None
                        and not self.budget.try_spend_hedge(1.0)):
                    continue  # budget low: hedges stand down first
                self._hedge_streak += 1
                self.hedges += 1
                _obs.METRICS.counter(_names.VACCEL_HEDGES).inc()
                # Bill the hedge's transit to the stalled job's trace so
                # the attributor surfaces it under the hedge phase.
                hspan = _obs.TRACER.begin(
                    "vaccel.hedge", self.sim.now,
                    track=f"{self.memsys.host_id}/vaccel", cat="io",
                    parent=stalled.span,
                    args={"age_ns": age},
                )
                try:
                    self.handle.refresh()
                    yield from self.handle.ring_doorbell(0, self._ring_ready)
                except (RpcError, LinkDownError, DeviceGoneError):
                    pass
                finally:
                    _obs.TRACER.end(hspan, self.sim.now)
                continue
            self.op_timeouts += 1
            _obs.METRICS.counter(_names.VACCEL_OP_TIMEOUTS).inc()
            if _obs.RECORDER.enabled:
                # A stalled job crossing the timeout is exactly the
                # post-mortem moment the flight recorder exists for.
                _obs.RECORDER.trip(
                    "watchdog_op_timeout", self.sim.now,
                    detail=(f"client={self.name} age_ns={age:.0f} "
                            f"pending={len(self._pending)}"),
                )
            try:
                yield from self.failover()
            except (RuntimeError, LinkDownError):
                continue  # owner or new queues unreachable; retry next tick
