"""Remote SSD client: drive an SSD attached to another pod host.

Demonstrates §4's device-compatibility claim: the same SQ/CQ protocol the
local NVMe driver uses works across hosts once (i) the queues and data
buffers live in shared CXL pool memory and (ii) the SQ doorbell is
forwarded over a ring channel.  Flash latency (tens of µs) dwarfs both the
CXL access premium and the ~600 ns doorbell forwarding cost, which is why
the paper treats SSDs as the easy case.

Failover (§4.2): every submitted command is journaled client-side until
its completion is observed.  When the owner host dies mid-I/O the client
(a) harvests completions the dying owner already wrote — the CQ lives in
pool memory, which outlives the owner — then (b) re-establishes fresh
queues against the successor and resubmits only the still-unfinished
commands.  Callers blocked inside :meth:`write`/:meth:`read` never see
the handover: their completion event fires exactly once, from whichever
owner finished the command.
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
from repro.pcie.rings import (
    COMPLETION_BYTES,
    CompletionEntry,
    seq_for_pass,
)
from repro.pcie.ssd import NVME_COMMAND_BYTES, NvmeCommand, Ssd


@dataclasses.dataclass
class _PendingOp:
    """Client-side journal entry for one in-flight command.

    ``order`` is fixed at first submission so failover can resubmit in
    the original order; ``index`` is remapped onto the successor's fresh
    submission queue.  The waiter is the caller's completion event — it
    survives any number of failovers and fires exactly once.
    """

    order: int
    index: int
    cmd: NvmeCommand
    waiter: object
    submitted_ns: float
    #: The caller's op span: a failover resubmission posts under it, so
    #: the successor-side events join the original I/O's trace.
    span: object = None
    #: Whether this op holds an AIMD pacer slot (released exactly once,
    #: at completion or when the op is de-journaled).
    paced: bool = False


class RemoteSsdClient:
    """Block-level read/write against a pooled SSD."""

    def __init__(self, sim, memsys, handle, pod, owner_host: str,
                 n_entries: int = 64, max_io_bytes: int = 128 << 10,
                 name: str = "vssd",
                 op_timeout_ns: float = 200_000_000.0,
                 hedge_deadline_ns: float = HEDGE_DEADLINE_NS,
                 budget=None, pacer=None):
        self.sim = sim
        self.memsys = memsys
        self.handle = handle
        self.n_entries = n_entries
        self.max_io_bytes = max_io_bytes
        self.name = name
        self.op_timeout_ns = op_timeout_ns
        # Overload control (both optional; None = pre-overload behavior).
        # ``budget`` is the per-client-host retry budget: hedges draw
        # from it softly, failover replays drain it unconditionally, and
        # every completion deposits the goodput dividend.  ``pacer`` is
        # the AIMD window fed by occupancy piggybacked on CQ entries;
        # submissions wait for a window slot *before* journaling, so a
        # paced-out op never leaves a journal entry behind.
        self.budget = budget
        self.pacer = pacer
        # Deadline hedging: an op older than this (but younger than the
        # full op timeout) gets its doorbell re-rung with a refreshed
        # token.  Doorbells are max()-semantics MMIO and forwarded ops
        # carry journal-dedup'd op ids, so a hedge can never duplicate
        # work — the cost of hedging a gray (slow-but-alive) owner is one
        # extra channel message.
        self.hedge_deadline_ns = hedge_deadline_ns
        # Queues and data buffers must be visible to the SSD's host, so
        # they always live in the pool, owned by both ends.
        self.mem = DriverMemory(
            memsys, pod, BufferPlacement.CXL,
            owners=sorted({memsys.host_id, owner_host}),
            label=name,
        )
        self.generation = 0
        self.sq_base = self.mem.alloc(n_entries * NVME_COMMAND_BYTES, "sq")
        self.cq_base = self.mem.alloc(n_entries * COMPLETION_BYTES, "cq")
        self.buf_base = self.mem.alloc(n_entries * max_io_bytes, "buffers")
        self._tail = 0
        self._cq_head = 0
        self._configured = False
        # Concurrency support: completions arrive in *completion* order
        # (the SSD's flash channels run commands in parallel), so waiters
        # are matched by submission index via an on-demand collector.
        self._pending: dict[int, _PendingOp] = {}
        self._order = 0
        self._collector = None
        # Where the collector sleeps between completions.
        self._cq_park = PollPark(memsys)
        self._watchdog_proc = None
        self._failing_over = None
        self._kick_pending = False
        self._kick_streak = 0
        # Doorbell frontier: only contiguously-written SQ entries may be
        # exposed to the device, or a fast second submitter could make
        # the SSD fetch a slot its neighbour is still writing.
        self._sq_written: set[int] = set()
        self._sq_ready = 0
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
        """Process: reset the SSD's queue state and point its queue
        registers at our pool queues (what a driver does on takeover)."""
        yield from self.handle.write_register(Ssd.REG_RESET, 1)
        yield from self.handle.write_register(Ssd.REG_SQ_RING, self.sq_base)
        yield from self.handle.write_register(Ssd.REG_CQ_RING, self.cq_base)
        self._configured = True

    # -- block I/O -----------------------------------------------------------

    def write(self, lba: int, data: bytes):
        """Process: write ``data`` at ``lba``; returns completion status.

        Safe to call from multiple processes concurrently: each command
        gets its own buffer slot and completions are matched by index.
        """
        if len(data) > self.max_io_bytes:
            raise ValueError(
                f"I/O of {len(data)} B exceeds max {self.max_io_bytes} B"
            )
        span = _obs.TRACER.begin(
            "vssd.write", self.sim.now,
            track=f"{self.memsys.host_id}/vssd", cat="io",
            args={"lba": lba, "bytes": len(data)},
        )
        try:
            # Pace *before* reserving (like write_burst): a paced-out
            # submitter holding an SQ slot would wedge the doorbell
            # frontier behind its unwritten entry, while its window slot
            # waits on completions that can only come from entries past
            # the wedge — deadlock until the op-timeout watchdog fails
            # over.
            t_pace = self.sim.now
            paced = yield from self._pace()
            add_phase_ns(span, "ph_pacing_ns", self.sim.now - t_pace)
            try:
                index = self._reserve()
            except BaseException:
                self._release_pacing(paced)
                raise
            buf = (self.buf_base
                   + (index % self.n_entries) * self.max_io_bytes)
            try:
                t_link = self.sim.now
                yield from self.mem.write(buf, data)
                add_phase_ns(span, "ph_link_ns", self.sim.now - t_link)
            except BaseException:
                self._release_pacing(paced)
                raise
            status = yield from self._submit(index, NvmeCommand(
                NvmeCommand.OP_WRITE, len(data), lba=lba, buffer_addr=buf,
            ), parent=span, paced=paced)
        finally:
            _obs.TRACER.end(span, self.sim.now)
        return status.status

    def write_burst(self, ios):
        """Process: submit several writes, ringing the doorbell once.

        ``ios`` is a sequence of ``(lba, data)`` pairs; returns their
        completion statuses in submission order.  All data buffers and
        SQ entries are written first, then one fence orders the batch
        and one forwarded doorbell exposes every command — N descriptors
        per channel message instead of one, exactly how a real NVMe
        driver submits a queue-depth burst.  The batch must fit the free
        SQ depth (checked before anything is reserved, like ``run_jobs``
        on the accelerator client); each command is journaled
        individually, so failover mid-burst resubmits only the
        unfinished ones.
        """
        if not self._configured:
            raise RuntimeError(f"{self.name}: call setup() first")
        ios = list(ios)
        for _lba, data in ios:
            if len(data) > self.max_io_bytes:
                raise ValueError(
                    f"I/O of {len(data)} B exceeds max "
                    f"{self.max_io_bytes} B"
                )
        if not ios:
            return []
        span = _obs.TRACER.begin(
            "vssd.write_burst", self.sim.now,
            track=f"{self.memsys.host_id}/vssd", cat="io",
            args={"n": len(ios)},
        )
        try:
            # Pace the whole batch before reserving anything: window
            # slots are claimed up front so none of the batch is
            # journaled (or even depth-checked) while the pod is
            # pushing back.
            batch_paced = False
            if self.pacer is not None:
                t_pace = self.sim.now
                for _ in ios:
                    yield from self.pacer.wait_for_slot(self.sim)
                    self.pacer.acquire()
                batch_paced = True
                add_phase_ns(span, "ph_pacing_ns", self.sim.now - t_pace)
            if self._tail - self._cq_head + len(ios) > self.n_entries:
                if batch_paced:
                    for _ in ios:
                        self.pacer.release()
                raise RuntimeError(
                    f"{self.name}: burst of {len(ios)} exceeds free "
                    f"submission-queue depth "
                    f"({self.n_entries - (self._tail - self._cq_head)} "
                    f"free)"
                )
            # Reserve the whole batch synchronously: no yield separates
            # the depth check from the reservation, so a concurrent
            # submitter can neither oversubscribe the queue nor
            # interleave into the batch's contiguous index range.
            first = self._tail
            self._tail += len(ios)
            ops: list[_PendingOp] = []
            gen = self.generation
            try:
                t_link = self.sim.now
                for offset, (lba, data) in enumerate(ios):
                    index = first + offset
                    buf = (self.buf_base
                           + (index % self.n_entries) * self.max_io_bytes)
                    yield from self.mem.write(buf, data)
                    cmd = NvmeCommand(
                        NvmeCommand.OP_WRITE, len(data),
                        lba=lba, buffer_addr=buf,
                    )
                    waiter = self.sim.event(
                        name=f"{self.name}.cmd{index}"
                    )
                    op = _PendingOp(
                        order=self._order, index=index, cmd=cmd,
                        waiter=waiter, submitted_ns=self.sim.now,
                        span=span, paced=batch_paced,
                    )
                    self._order += 1
                    # Journal before posting, like _submit: a failover
                    # racing the burst resubmits from the journal.
                    self._pending[index % (1 << 16)] = op
                    self.ops_submitted += 1
                    ops.append(op)
                add_phase_ns(span, "ph_link_ns", self.sim.now - t_link)
                t_queue = self.sim.now
                for op in ops:
                    sq_addr = (self.sq_base
                               + (op.index % self.n_entries)
                               * NVME_COMMAND_BYTES)
                    yield from self.mem.write(sq_addr, op.cmd.encode())
                # One fence orders every buffer and SQ entry of the
                # batch before the single doorbell below exposes them.
                yield from self.mem.fence()
                add_phase_ns(span, "ph_queueing_ns",
                             self.sim.now - t_queue)
            except BaseException:
                # The caller observes this failure, so none of the batch
                # is in flight: deregister or the daemons would idle.
                for op in ops:
                    self._unjournal(op.index % (1 << 16))
                    self._release_slot(op)
                if batch_paced:
                    # Slots claimed for ios that never became ops.
                    for _ in range(len(ios) - len(ops)):
                        self.pacer.release()
                if gen == self.generation:
                    if self._tail == first + len(ios):
                        # No later reservation: the whole batch unwinds
                        # and the doorbell frontier never sees it.
                        self._tail = first
                    else:
                        # Concurrent submitters reserved past us, so the
                        # abandoned indices must be neutralized or
                        # _sq_ready could never advance past them and
                        # every later doorbell would expose nothing new.
                        self.sim.spawn(
                            self._neutralize_abandoned(
                                first, len(ios), gen
                            ),
                            name=f"{self.name}.neutralize",
                        )
                raise
            if gen == self.generation:
                for op in ops:
                    self._sq_written.add(op.index)
                while self._sq_ready in self._sq_written:
                    self._sq_written.remove(self._sq_ready)
                    self._sq_ready += 1
                try:
                    yield from self.handle.ring_doorbell(
                        0, self._sq_ready, parent=span
                    )
                except (RpcError, LinkDownError, DeviceGoneError):
                    # Ops stay journaled; the watchdog (or the pool's
                    # migration hook) recovers them on the successor.
                    pass
            self._ensure_daemons()
            statuses = []
            t_device = self.sim.now
            for op in ops:
                comp = yield op.waiter
                statuses.append(comp.status)
            add_phase_ns(span, "ph_device_ns", self.sim.now - t_device)
            return statuses
        finally:
            _obs.TRACER.end(span, self.sim.now)

    def read(self, lba: int, length: int):
        """Process: read ``length`` bytes at ``lba``; returns the bytes."""
        if length > self.max_io_bytes:
            raise ValueError(
                f"I/O of {length} B exceeds max {self.max_io_bytes} B"
            )
        span = _obs.TRACER.begin(
            "vssd.read", self.sim.now,
            track=f"{self.memsys.host_id}/vssd", cat="io",
            args={"lba": lba, "bytes": length},
        )
        try:
            t_pace = self.sim.now
            paced = yield from self._pace()   # before _reserve; see write
            add_phase_ns(span, "ph_pacing_ns", self.sim.now - t_pace)
            try:
                index = self._reserve()
            except BaseException:
                self._release_pacing(paced)
                raise
            buf = (self.buf_base
                   + (index % self.n_entries) * self.max_io_bytes)
            comp = yield from self._submit(index, NvmeCommand(
                NvmeCommand.OP_READ, length, lba=lba, buffer_addr=buf,
            ), parent=span, paced=paced)
            if comp.status != CompletionEntry.STATUS_OK:
                raise IOError(
                    f"{self.name}: read failed (status={comp.status})"
                )
            t_link = self.sim.now
            data = yield from self.mem.read(buf, length)
            add_phase_ns(span, "ph_link_ns", self.sim.now - t_link)
        finally:
            _obs.TRACER.end(span, self.sim.now)
        return data

    def flush(self):
        """Process: durability barrier."""
        span = _obs.TRACER.begin(
            "vssd.flush", self.sim.now,
            track=f"{self.memsys.host_id}/vssd", cat="io",
        )
        try:
            t_pace = self.sim.now
            paced = yield from self._pace()   # before _reserve; see write
            add_phase_ns(span, "ph_pacing_ns", self.sim.now - t_pace)
            try:
                index = self._reserve()
            except BaseException:
                self._release_pacing(paced)
                raise
            comp = yield from self._submit(index, NvmeCommand(
                NvmeCommand.OP_FLUSH, 0, lba=0, buffer_addr=0,
            ), parent=span, paced=paced)
        finally:
            _obs.TRACER.end(span, self.sim.now)
        return comp.status

    # -- failover ------------------------------------------------------------

    def failover(self, new_handle=None):
        """Process: re-establish the device relationship mid-I/O.

        Serialized: a second caller (the pool's migration hook racing the
        op-timeout watchdog) waits for the in-flight handover instead of
        starting another.  Steps: harvest completions the previous owner
        already wrote, adopt the new handle (or re-resolve through the
        old one), carve fresh per-generation queue/buffer regions — the
        successor starts from a clean SQ, so pre-crash entries can never
        re-execute — then resubmit the still-unfinished commands in
        their original order.  Old buffer addresses remain valid pool
        memory, so resubmission copies no data.
        """
        if self._failing_over is not None:
            yield self._failing_over
            return
        done = self.sim.event(name=f"{self.name}.failover")
        self._failing_over = done
        span = _obs.TRACER.begin(
            f"{self.name}.failover", self.sim.now,
            track=f"{self.memsys.host_id}/vssd", cat="lease",
            args={"pending": len(self._pending),
                  "generation": self.generation + 1},
        )
        try:
            self.failovers += 1
            _obs.METRICS.counter(_names.VSSD_FAILOVERS).inc()
            # Invalidate in-flight posts and the collector's view of the
            # old queues before anything else touches shared state.
            self.generation += 1
            self._cq_park.wake()
            gen = self.generation
            yield from self._drain_cq()
            if new_handle is not None:
                self.handle = new_handle
            else:
                self.handle.refresh()
            self._subscribe_fence_signals()
            self.sq_base = self.mem.alloc(
                self.n_entries * NVME_COMMAND_BYTES, f"sq.g{gen}")
            self.cq_base = self.mem.alloc(
                self.n_entries * COMPLETION_BYTES, f"cq.g{gen}")
            self.buf_base = self.mem.alloc(
                self.n_entries * self.max_io_bytes, f"buffers.g{gen}")
            self._tail = 0
            self._cq_head = 0
            self._cq_park.wake()    # the collector polls the new CQ now
            self._sq_written = set()
            self._sq_ready = 0
            self._kick_streak = 0
            self._hedge_streak = 0
            yield from self._setup_with_retry()
            ops = sorted(self._pending.values(), key=lambda op: op.order)
            self._pending = {}
            unreachable = None
            for op in ops:
                index = self._tail
                self._tail += 1
                op.index = index
                op.submitted_ns = self.sim.now
                self._pending[index % (1 << 16)] = op
                if unreachable is not None:
                    continue
                try:
                    yield from self._post(index, op.cmd,
                                          parent=op.span or span)
                except LinkDownError as exc:
                    # This host cannot reach the new SQ: journal the
                    # rest unposted; the watchdog retries the failover.
                    unreachable = exc
            if unreachable is not None:
                raise unreachable
            self.resubmitted += len(ops)
            if ops:
                _obs.METRICS.counter(_names.VSSD_RESUBMITTED).inc(len(ops))
                if self.budget is not None:
                    # Replays are correctness traffic: never refused,
                    # but they drain the budget so discretionary
                    # retries and hedges stand down behind them.
                    self.budget.spend_forced(float(len(ops)))
            self._ensure_daemons()
        finally:
            self._failing_over = None
            if not done.triggered:
                done.succeed()
            _obs.TRACER.end(span, self.sim.now)

    def _drain_cq(self):
        """Process: harvest completions the previous owner already wrote.

        Any command the device finished before dying is observably
        complete; claiming it here — instead of resubmitting it — is
        what keeps failover duplicate-free.
        """
        yield self.sim.timeout(2_000.0)  # let in-flight CQ writes land
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
        """Process: run :meth:`setup` against whichever owner currently
        holds the lease, re-resolving between attempts.

        Transport loss and fences are expected while ownership settles;
        a withdrawn assignment is not recoverable here and propagates.
        """
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
        """A posted doorbell was fenced: the token rotated under us."""
        if (msg.device_id != self.handle.device_id
                or self._kick_pending
                or self._failing_over is not None
                or not self._pending
                or self._kick_streak >= 8):
            return
        self._kick_pending = True
        self.sim.spawn(self._fence_kick(), name=f"{self.name}.kick")

    def _fence_kick(self, delay_ns: float = 1_000_000.0):
        """Process: re-ring the doorbell with a refreshed token.

        Covers the transient case where the *same* owner re-acquired the
        lease under a new token: device state is intact, only the
        doorbell was dropped.  Bounded by ``_kick_streak`` (reset on any
        completion) so a genuinely-moved device falls through to the
        watchdog instead of kicking forever.
        """
        try:
            yield self.sim.timeout(delay_ns)
            if self._failing_over is not None or not self._pending:
                return
            self._kick_streak += 1
            self.fence_kicks += 1
            _obs.METRICS.counter(_names.VSSD_FENCE_KICKS).inc()
            self.handle.refresh()
            yield from self.handle.ring_doorbell(0, self._sq_ready)
        except (RpcError, LinkDownError, DeviceGoneError):
            pass
        finally:
            self._kick_pending = False

    # -- internals -----------------------------------------------------------

    def _reserve(self) -> int:
        """Synchronously reserve the next submission index."""
        if not self._configured:
            raise RuntimeError(f"{self.name}: call setup() first")
        if self._tail - self._cq_head >= self.n_entries:
            raise RuntimeError(
                f"{self.name}: submission queue full "
                f"({self.n_entries} outstanding commands)"
            )
        index = self._tail
        self._tail += 1
        return index

    def _submit(self, index: int, cmd: NvmeCommand, parent=None,
                paced: bool = False):
        # The caller paced (and only then reserved ``index``) before
        # entering here, so a window refusal never holds an SQ slot; any
        # budget refusal below still happens before the journal entry
        # exists, so an op refused here leaves nothing for failover to
        # replay (the journal-before-post invariant's converse).
        waiter = self.sim.event(name=f"{self.name}.cmd{index}")
        op = _PendingOp(order=self._order, index=index, cmd=cmd,
                        waiter=waiter, submitted_ns=self.sim.now,
                        span=parent, paced=paced)
        self._order += 1
        # Journal before posting: a failover racing this submission will
        # resubmit the op on the successor even if the post below never
        # reached the dying owner.
        self._pending[index % (1 << 16)] = op
        self.ops_submitted += 1
        try:
            yield from self._post(index, cmd, parent=parent)
        except BaseException:
            # The caller observes this failure, so the op is not in
            # flight: deregister it or the daemons would idle forever.
            # This covers typed overload refusals (OverloadError,
            # RetryBudgetExhausted) exactly like transport errors: a
            # budget-denied post must de-journal its op id, or failover
            # would replay an op whose caller already saw it fail.
            self._unjournal(index % (1 << 16))
            self._release_slot(op)
            raise
        self._ensure_daemons()
        t_device = self.sim.now
        comp = yield waiter
        add_phase_ns(op.span, "ph_device_ns", self.sim.now - t_device)
        return comp

    def _pace(self):
        """Process: wait for an AIMD window slot and claim it."""
        if self.pacer is None:
            return False
        yield from self.pacer.wait_for_slot(self.sim)
        self.pacer.acquire()
        return True

    def _release_slot(self, op: _PendingOp) -> None:
        """Return ``op``'s pacer slot exactly once."""
        if op.paced:
            op.paced = False
            if self.pacer is not None:
                self.pacer.release()

    def _release_pacing(self, paced: bool) -> None:
        """Return a pacer slot claimed before an op object existed."""
        if paced and self.pacer is not None:
            self.pacer.release()

    def _post(self, index: int, cmd: NvmeCommand, parent=None):
        """Process: write one SQ entry and expose it via the doorbell."""
        gen = self.generation
        sq_addr = (self.sq_base
                   + (index % self.n_entries) * NVME_COMMAND_BYTES)
        t_queue = self.sim.now
        yield from self.mem.write(sq_addr, cmd.encode())
        yield from self.mem.fence()
        if parent is not None and hasattr(parent, "set"):
            add_phase_ns(parent, "ph_queueing_ns", self.sim.now - t_queue)
        if gen != self.generation:
            return  # superseded mid-post; failover resubmits from journal
        self._sq_written.add(index)
        while self._sq_ready in self._sq_written:
            self._sq_written.remove(self._sq_ready)
            self._sq_ready += 1
        try:
            yield from self.handle.ring_doorbell(0, self._sq_ready,
                                                 parent=parent)
        except (RpcError, LinkDownError, DeviceGoneError):
            # The op stays journaled; the watchdog (or the pool's
            # migration hook) recovers it on the successor.
            pass

    def _neutralize_abandoned(self, first: int, count: int, gen: int):
        """Process: unwedge the doorbell frontier after a failed burst.

        The failed burst's indices were reserved but never entered
        ``_sq_written``, so ``_sq_ready`` would stall at ``first``
        forever while later submitters' commands sit unexposed.  Fill
        the abandoned SQ slots with a reserved-opcode command — the SSD
        completes it as STATUS_ERROR without touching media, and the
        collector ignores the unknown index — then advance the frontier
        and re-ring so the stalled commands become visible.  Best
        effort: if the link is still down, the op-timeout watchdog's
        failover remains the backstop.
        """
        noop = NvmeCommand(0, 0, lba=0, buffer_addr=0).encode()
        try:
            for index in range(first, first + count):
                if gen != self.generation:
                    return  # failover rebuilt the queues; nothing to fix
                sq_addr = (self.sq_base
                           + (index % self.n_entries) * NVME_COMMAND_BYTES)
                yield from self.mem.write(sq_addr, noop)
            yield from self.mem.fence()
        except (RpcError, LinkDownError):
            return
        if gen != self.generation:
            return
        for index in range(first, first + count):
            self._sq_written.add(index)
        advanced = False
        while self._sq_ready in self._sq_written:
            self._sq_written.remove(self._sq_ready)
            self._sq_ready += 1
            advanced = True
        if advanced and self._pending:
            try:
                yield from self.handle.ring_doorbell(0, self._sq_ready)
            except (RpcError, LinkDownError, DeviceGoneError):
                pass

    def _ensure_daemons(self) -> None:
        if self._collector is None or not self._collector.is_alive:
            self._collector = self.sim.spawn(
                self._collect_completions(),
                name=f"{self.name}.collector",
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
            self._release_slot(op)
            if self.pacer is not None:
                # Devices piggyback SQ occupancy in the spare ``value``
                # field; fold it into the AIMD window.
                self.pacer.on_ack(entry.value, self.sim.now)
            if self.budget is not None:
                self.budget.on_success()
            op.waiter.succeed(entry)

    def _collect_completions(self, poll_ns: float = 2_000.0):
        """Drain CQ entries and wake the matching waiters.

        Runs only while commands are outstanding, then exits.  Polls the
        CQ every ``poll_ns`` after an empty poll, parked in between
        (:class:`PollPark`); a poll over a down link counts as empty.
        """
        while self._pending:
            gen = self.generation
            expect = seq_for_pass(self._cq_head // self.n_entries)
            addr = self._cq_addr()
            try:
                raw = yield from self.mem.read(addr, COMPLETION_BYTES)
            except LinkDownError:
                raw = None
            if gen != self.generation:
                continue  # failover swapped the queues under this read
            if raw is not None:
                entry = CompletionEntry.decode(raw)
                if entry.seq == expect:
                    self._cq_head += 1
                    self._complete(entry)
                    continue
            if self._pending and addr == self._cq_addr():
                yield from self._cq_park.wait(addr, raw, poll_ns)
            else:
                # The journal or the queues changed under the read.
                yield self.sim.timeout(poll_ns)

    def _watchdog(self, poll_ns: float = 10_000_000.0):
        """Process: detect a dead owner by stalled completions.

        The lease layer usually migrates the device (and the pool then
        calls :meth:`failover`) before this fires; the watchdog is the
        backstop for doorbells lost without any fence nack.

        Between the hedge deadline and the op timeout sits the *gray*
        band: the owner is alive but slow, so destroying the queues via
        failover would only add recovery latency.  There the watchdog
        hedges instead — it re-rings the SQ doorbell at the current
        frontier.  Doorbells carry max() semantics and every command is
        journaled server-side by op id, so a hedge that races the
        original delivery is absorbed without duplicating work; the
        streak bound keeps a permanently wedged owner from being hedged
        forever instead of failed over.
        """
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
                if self._hedge_streak >= HEDGE_STREAK_LIMIT:
                    continue  # hedges aren't landing; wait for timeout
                if (self.budget is not None
                        and not self.budget.try_spend_hedge(1.0)):
                    continue  # budget low: hedges stand down first
                self._hedge_streak += 1
                self.hedges += 1
                _obs.METRICS.counter(_names.VSSD_HEDGES).inc()
                # Bill the hedge's transit to the stalled op's trace so
                # the attributor surfaces it under the hedge phase.
                hspan = _obs.TRACER.begin(
                    "vssd.hedge", self.sim.now,
                    track=f"{self.memsys.host_id}/vssd", cat="io",
                    parent=stalled.span,
                    args={"age_ns": age},
                )
                try:
                    self.handle.refresh()
                    yield from self.handle.ring_doorbell(0, self._sq_ready)
                except (RpcError, LinkDownError, DeviceGoneError):
                    pass
                finally:
                    _obs.TRACER.end(hspan, self.sim.now)
                continue
            self.op_timeouts += 1
            _obs.METRICS.counter(_names.VSSD_OP_TIMEOUTS).inc()
            if _obs.RECORDER.enabled:
                # A stalled op crossing the timeout is exactly the
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
