"""The memory controller.

The controller owns the DRAM device, the demand request queues, the FR-FCFS
scheduler, periodic refresh, and all read-disturbance management on the
controller side:

* it hosts controller-side mitigation mechanisms (PRFM / Graphene / Hydra /
  PARA / ABACuS) and serves their preventive refreshes and RFM requests, and
* it implements the PRAC back-off protocol: after observing the ``alert_n``
  signal it may keep serving requests for the window of normal traffic
  (tABOACT), then it precharges all banks and issues RFM commands -- a fixed
  number for PRAC (recovery period), or for as long as the device keeps the
  back-off asserted for Chronus.

The controller issues at most one DRAM command per cycle (single command
bus).  ``tick`` returns whether a command was issued plus the next cycle at
which ticking again may issue a command or change controller state; the
system simulator sleeps the controller until then.

The wake contract (the event-horizon engine).  The controller owns command
readiness -- after an idle tick *and* after an issue:

* after an idle tick the hint (:meth:`next_event_cycle`) covers every event
  source that can unblock the controller: per-bank command readiness,
  rank-level tRRD/tFAW release, the earliest periodic-refresh due cycle (a
  time skip must never jump past a tREFI boundary), the back-off recovery
  deadline, and the readiness of banks with pending preventive refreshes or
  RFMs;
* after an issue the hint is the same exact hint unless something could
  issue at ``cycle + 1`` (see :meth:`_post_issue_hint`), in which case it
  is ``cycle + 1``;
* an enqueue lowers ``_wake_cycle`` (the cycle the router next ticks this
  controller) to the new request's bank readiness, or forces a tick in the
  same cycle when the request could issue at once or flips the write-drain
  flag.

The reference for all of this is the cycle-stepped ``strict_tick`` run
loop (:class:`~repro.system.simulator.SystemSimulator`), which ticks every
controller on every cycle and ignores the hints.

In-flight read completions are not controller events: the
:class:`~repro.controller.router.ChannelRouter` retires them
(:meth:`MemoryController.retire_reads`) and the run loop wakes for them.  A
hint that fires early merely costs a wasted wake; a hint that fires late
would silently change simulated behaviour, which the strict-tick determinism
harness guards against.

Demand queues are bucketed per bank and maintained incrementally on
enqueue/dequeue, so neither the FR-FCFS scan, the first-ready fallback, nor
the wake-hint computation ever rescans a flat queue per candidate.  Bank
readiness is read from the device's structure-of-arrays timing plane
(:mod:`repro.dram.timing_plane`), never from bank objects.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.controller.address_mapping import AddressMapping
from repro.controller.request import MemoryRequest, RequestType
from repro.controller.scheduler import FrFcfsCapScheduler
from repro.core.mitigation import ControllerMitigation
from repro.dram.device import DramDevice
from repro.dram.refresh import RefreshScheduler

#: Sentinel "no event" hint.
FAR_FUTURE = 1 << 62

#: Arrival-order sort key of the demand candidate scan, hoisted so the
#: per-issue hot path does not build a closure per call.
_BY_REQUEST_ID = operator.attrgetter("request_id")

#: Hoisted enum member: the enqueue path tests the request type by identity
#: instead of through the ``is_read`` property.
_READ = RequestType.READ

#: Queued buckets (read plus write) above which the post-issue hint skips
#: its guards and demand rescan and returns ``cycle + 1``.  With that much
#: queued demand a bank is almost always ready: on the paper's four-core
#: Fig. 8 mix only 0.2-1.4% of post-issue hints taken past 10 queued
#: buckets were exact, so the rescan cost more than the ticks it saved.
_EXACT_HINT_MAX_BUCKETS = 16


@dataclass(slots=True)
class ControllerStats:
    """Aggregate statistics exported after a simulation."""

    reads_served: int = 0
    writes_served: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    refreshes: int = 0
    rfms: int = 0
    backoffs_observed: int = 0
    preventive_refresh_rows: int = 0
    total_read_latency: int = 0

    def average_read_latency(self) -> float:
        if self.reads_served == 0:
            return 0.0
        return self.total_read_latency / self.reads_served


class MemoryController:
    """A single-channel DDR5 memory controller.

    Multi-channel systems instantiate one controller per channel behind a
    :class:`~repro.controller.router.ChannelRouter`; each controller owns its
    own device, queues, scheduler, refresh state and back-off protocol.
    """

    def __init__(
        self,
        device: DramDevice,
        mapping: AddressMapping,
        mechanism: Optional[ControllerMitigation] = None,
        read_queue_size: int = 64,
        write_queue_size: int = 64,
        scheduler_cap: int = 4,
        write_drain_high: int = 48,
        write_drain_low: int = 16,
    ) -> None:
        self.device = device
        self.mapping = mapping
        self.mechanism = mechanism
        self.timing = device.timing
        self.organization = device.organization
        self.read_queue_size = read_queue_size
        self.write_queue_size = write_queue_size
        self.scheduler = FrFcfsCapScheduler(cap=scheduler_cap)
        self.refresh = RefreshScheduler(self.organization.ranks, self.timing)
        self.write_drain_high = write_drain_high
        self.write_drain_low = write_drain_low
        # The on-die mechanism, cached: the back-off probe runs every tick
        # and must not chase device attributes for mechanisms that live on
        # the controller side (where it is None).
        self._on_die = device.mitigation

        # The demand queues live *only* as per-bank FIFO buckets, maintained
        # incrementally on enqueue/dequeue (empty buckets are pruned); the
        # flat per-type occupancy is a pair of counters.
        self._read_buckets: Dict[int, List[MemoryRequest]] = {}
        self._write_buckets: Dict[int, List[MemoryRequest]] = {}
        self._read_count = 0
        self._write_count = 0
        # Queued demand requests (read + write) per rank, for O(1)
        # refresh-postponing decisions.
        self._rank_demand: List[int] = [0] * self.organization.ranks
        self._banks_per_rank = self.organization.banks_per_rank
        self._all_banks: List[int] = list(range(self.organization.total_banks))
        # Issued reads awaiting their data, in completion order (issue cycle
        # + a constant).  The ChannelRouter retires them (retire_reads) and
        # reads the head's completion cycle as a run-loop event; like
        # ``_completed`` below, the name is part of the hot-path contract.
        self._inflight_reads: List[MemoryRequest] = []
        # Completed-but-undrained requests.  The ChannelRouter reads this
        # attribute directly (a truthiness check per channel per tick) to
        # skip the drain call when empty -- treat the name as part of the
        # hot-path contract.
        self._completed: List[MemoryRequest] = []
        self._draining_writes = False
        # The next cycle the ChannelRouter must tick this controller: the
        # router stores each tick's hint here and ``enqueue`` lowers it
        # (-1 forces a tick in the current cycle).
        self._wake_cycle = -1

        # Back-off protocol state.
        self._rfm_due_cycle: Optional[int] = None
        self._in_recovery = False

        # Incremental wake-hint caches (each may be early, never late):
        #
        # * ``_demand_hint``, the demand-section minimum.  Its inputs (bucket
        #   membership, bank/rank readiness) only change on an enqueue or an
        #   issued command.  ``enqueue`` folds the new request's bank
        #   readiness into it (the other banks' readiness is unchanged, so
        #   the min stays exact), an issue drops it, and
        #   ``_post_issue_hint`` re-caches it when its rescan finds no ready
        #   bank.  A cached value that fell into the past forces a
        #   recompute.
        # * ``_refresh_scan_hint``, the refresh-pending bank scan, whose
        #   inputs only change on refresh accrual, an enqueue that raises a
        #   rank's demand (which can only *remove* scan events -- an early
        #   hint is a wasted wake, never a behaviour change) or an issued
        #   command.
        # * ``_mech_scan_hint``, the mechanism-pending scan.  Its inputs --
        #   the mechanism's pending sets and bank readiness -- change only on
        #   an issued command; pruning of stale pending entries can only
        #   *remove* events.
        self._demand_hint: Optional[int] = None
        self._refresh_scan_hint: Optional[int] = None
        self._mech_scan_hint: Optional[int] = None

        self.stats = ControllerStats()

        # The timing plane's memoryview twins, hoisted onto the controller:
        # the kernels index these once per register access, and caching
        # them here turns every ``device.timing_plane.next_*_mv`` chain into
        # a single attribute hop.  Safe because the plane identity is fixed
        # for the device's lifetime and its buffers never reallocate.
        plane = device.timing_plane
        self._mv_open_row = plane.open_row_mv
        self._mv_next_act = plane.next_act_mv
        self._mv_next_pre = plane.next_pre_mv
        self._mv_next_rd = plane.next_rd_mv
        self._mv_next_wr = plane.next_wr_mv

    # ------------------------------------------------------------------ #
    # Interface used by the cores / system simulator
    # ------------------------------------------------------------------ #
    def can_accept(self, request_type: RequestType) -> bool:
        """True if the corresponding queue has space."""
        if request_type is RequestType.READ:
            return self._read_count < self.read_queue_size
        return self._write_count < self.write_queue_size

    def enqueue(self, request: MemoryRequest) -> bool:
        """Decode and enqueue a demand request.  Returns False if full.

        Requests already decoded upstream (the multi-channel
        :class:`~repro.controller.router.ChannelRouter` decodes once to pick
        the channel) are enqueued as-is.  ``_wake_cycle`` drops to the new
        request's bank readiness (a bank ready now thus gets its tick in
        this cycle), or to -1 when the arrival flips the write-drain flag.
        """
        is_read = request.request_type is _READ
        if is_read:
            if self._read_count >= self.read_queue_size:
                return False
            self._read_count += 1
            buckets = self._read_buckets
        else:
            if self._write_count >= self.write_queue_size:
                return False
            self._write_count += 1
            buckets = self._write_buckets
        if request.dram is None:
            request.dram = self.mapping.decode(request.address)
            request.bank_id = request.dram.flat_bank(self.organization)
        bank_id = request.bank_id
        bucket = buckets.get(bank_id)
        if bucket is None:
            buckets[bank_id] = [request]
        else:
            bucket.append(request)
        rank = bank_id // self._banks_per_rank
        self._rank_demand[rank] += 1
        # Readiness of the enqueued bank (the per-bank body of
        # _demand_ready_cycle, folded with min over its streams).
        if self._mv_open_row[bank_id] < 0:
            ready = self._mv_next_act[bank_id]
            state = self.device._ranks[rank]
            rank_ready = state.last_act_cycle + self.timing.tRRD
            if rank_ready > ready:
                ready = rank_ready
            window = state.act_window
            if len(window) == window.maxlen:
                rank_ready = window[0] + self.timing.tFAW
                if rank_ready > ready:
                    ready = rank_ready
        else:
            ready = (
                self._mv_next_rd[bank_id] if is_read else self._mv_next_wr[bank_id]
            )
            pre = self._mv_next_pre[bank_id]
            if pre < ready:
                ready = pre
        # Only the enqueued bank gained a readiness event, so fold it into
        # the cached minimum.  A value at or below the current cycle makes
        # the hint stale, which forces a recompute at its next use.
        hint = self._demand_hint
        if hint is not None and ready < hint:
            self._demand_hint = ready
        # Write-drain hysteresis: the flag is evaluated per tick, so counts
        # on which it would flip must meet a tick before they change again.
        writes = self._write_count
        if self._draining_writes:
            flips = writes <= self.write_drain_low and (
                self._read_count or not writes
            )
        else:
            flips = writes >= self.write_drain_high or (
                writes and not self._read_count
            )
        if flips:
            self._wake_cycle = -1
        elif ready < self._wake_cycle:
            self._wake_cycle = ready
        return True

    def _dequeue(self, request: MemoryRequest, is_read: bool) -> None:
        """Remove a serviced request from the bucket structures."""
        if is_read:
            self._read_count -= 1
            buckets = self._read_buckets
        else:
            self._write_count -= 1
            buckets = self._write_buckets
        bucket = buckets[request.bank_id]
        bucket.remove(request)
        if not bucket:
            del buckets[request.bank_id]
        self._rank_demand[request.bank_id // self._banks_per_rank] -= 1

    def drain_completed(self) -> List[MemoryRequest]:
        """Return (and clear) the requests completed since the last call.

        When nothing completed, the (empty) live list is returned without
        detaching it -- callers only iterate the result before their next
        drain, so the aliasing is unobservable and the per-call allocation
        disappears from the idle path.
        """
        completed = self._completed
        if not completed:
            return completed
        self._completed = []
        return completed

    def pending_requests(self) -> int:
        """Demand requests still queued or in flight."""
        return self._read_count + self._write_count + len(self._inflight_reads)

    # ------------------------------------------------------------------ #
    # Main per-cycle entry point
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> Tuple[bool, int]:
        """Attempt to issue one DRAM command at ``cycle``.

        Returns ``(issued, next_hint)`` where ``next_hint`` is the earliest
        future cycle at which calling ``tick`` again may issue a command or
        change controller state (see the module docstring for the wake
        contract after an issue).  Read completions are not included: the
        router retires them.
        """
        # Prologue with the O(1) guards inlined (this runs every busy
        # cycle): refresh accrual off-boundary and the back-off probe
        # without an on-die mechanism are no-ops that must not cost a call
        # each.
        refresh = self.refresh
        if cycle >= refresh._next_accrual:
            refresh.tick(cycle)
            # Accrual changes pending counts / urgency: the cached
            # refresh-pending bank scan is void.
            self._refresh_scan_hint = None
        if self._rfm_due_cycle is None and not self._in_recovery:
            on_die = self._on_die
            if on_die is not None and on_die.backoff_asserted():
                self.stats.backoffs_observed += 1
                self._rfm_due_cycle = (
                    cycle + self.timing.tBackOffLatency + self.timing.tABOACT
                )

        issued = self._service_backoff(cycle)
        if not issued and not self._backoff_blocks_traffic(cycle):
            # Guards inlined: each service stage is only entered when its
            # work queue is non-empty (this tick runs every busy cycle).
            mechanism = self.mechanism
            issued = (
                bool(self.refresh.ranks_needing_refresh())
                and self._service_refresh(cycle)
            )
            if not issued and mechanism is not None:
                issued = self._service_prfm(cycle) or (
                    mechanism.has_pending_refreshes()
                    and self._service_preventive(cycle)
                )
            if not issued:
                issued = self._service_demand(cycle)
        if issued:
            # Any command changes bank/rank readiness: drop the cached scans
            # (the post-issue hint recomputes the demand minimum).
            self._demand_hint = None
            self._refresh_scan_hint = None
            self._mech_scan_hint = None
            return True, self._post_issue_hint(cycle)
        return False, self._next_event_hint(cycle)

    def next_event_cycle(self, cycle: int) -> int:
        """Earliest future cycle at which this controller may make progress.

        Public alias of the wake hint ``tick`` returns, for callers that
        need the hint without attempting to issue.  Not a pure getter: it
        accrues refresh debt up to ``cycle`` first (the hint is only precise
        with an up-to-date due cycle), exactly as ``tick`` would.
        """
        self.refresh.tick(cycle)
        self._refresh_scan_hint = None
        return self._next_event_hint(cycle)

    def _backoff_blocks_traffic(self, cycle: int) -> bool:
        """True once the window of normal traffic after a back-off has ended.

        While the recovery period is pending or in progress the controller
        must not issue demand commands: new activations would both delay the
        mandated RFM commands and re-open banks that the recovery needs
        precharged.
        """
        if self._in_recovery:
            return True
        return self._rfm_due_cycle is not None and cycle >= self._rfm_due_cycle

    # ------------------------------------------------------------------ #
    # Back-off (alert_n) handling
    # ------------------------------------------------------------------ #
    def _service_backoff(self, cycle: int) -> bool:
        """Handle the recovery period of the back-off protocol."""
        if not self._in_recovery:
            if self._rfm_due_cycle is None or cycle < self._rfm_due_cycle:
                return False
            self._in_recovery = True

        open_row = self._mv_open_row
        all_banks = self._all_banks
        # All banks must be precharged before an all-bank RFM can be issued;
        # stop at the first open bank in id order.
        for bank_id in all_banks:
            if open_row[bank_id] >= 0:
                if cycle >= self._mv_next_pre[bank_id]:
                    self._precharge(bank_id, cycle)
                    return True
                return False
        if not self.device.can_rfm(all_banks, cycle):
            return False
        refreshed = self.device.rfm(all_banks, cycle)
        self.stats.rfms += 1
        self.stats.preventive_refresh_rows += refreshed
        if not self.device.wants_more_rfm():
            self._in_recovery = False
            self._rfm_due_cycle = None
        return True

    def _precharge(self, bank_id: int, cycle: int) -> None:
        """Issue a PRE and reset the bank's column-over-row streak.

        Every row closure goes through here: the scheduler's reordering
        budget belongs to the open row, so closing it (for a demand
        conflict, a periodic refresh, an RFM or back-off recovery) resets
        the bank's hit streak.
        """
        self.device.precharge(bank_id, cycle)
        self.scheduler.on_row_closed(bank_id)

    # ------------------------------------------------------------------ #
    # Periodic refresh
    # ------------------------------------------------------------------ #
    def _service_refresh(self, cycle: int) -> bool:
        """Issue (or prepare) a periodic REF for the first actionable rank."""
        pending_ranks = self.refresh.ranks_needing_refresh()
        device = self.device
        open_row = self._mv_open_row
        next_pre = self._mv_next_pre
        urgent_ranks = self.refresh.urgent_ranks()
        for rank in pending_ranks:
            urgent = rank in urgent_ranks
            if not urgent:
                # Postpone the REF (DDR5 allows up to four postponements)
                # unless the rank is completely idle, in which case refresh
                # opportunistically.
                if self._rank_demand[rank]:
                    continue
                if device.can_refresh(rank, cycle):
                    device.refresh(rank, cycle)
                    self.refresh.refresh_issued(rank)
                    self.stats.refreshes += 1
                    return True
                continue
            # Urgent: new activations to this rank are blocked (see
            # _serve_request); close its open banks (first ready one in id
            # order), then refresh.
            any_open = False
            for bank_id in device.banks_in_rank(rank):
                if open_row[bank_id] >= 0:
                    any_open = True
                    if cycle >= next_pre[bank_id]:
                        self._precharge(bank_id, cycle)
                        return True
            if any_open:
                continue
            if device.can_refresh(rank, cycle):
                device.refresh(rank, cycle)
                self.refresh.refresh_issued(rank)
                self.stats.refreshes += 1
                return True
        return False

    # ------------------------------------------------------------------ #
    # Controller-side mechanism servicing
    # ------------------------------------------------------------------ #
    def _service_prfm(self, cycle: int) -> bool:
        """Serve the mechanism's per-bank RFM requests (PRFM)."""
        mechanism = self.mechanism
        if mechanism is None:
            return False
        pending = mechanism.rfm_pending_banks()
        if not pending:
            return False
        open_row = self._mv_open_row
        for bank_id in pending:
            if open_row[bank_id] >= 0:
                if cycle >= self._mv_next_pre[bank_id]:
                    self._precharge(bank_id, cycle)
                    return True
                continue
            if cycle >= self._mv_next_act[bank_id]:
                refreshed = self.device.rfm([bank_id], cycle)
                mechanism.acknowledge_rfm(
                    bank_id,
                    cycle,
                    on_die_refreshed=(
                        refreshed if self.device.mitigation is not None else None
                    ),
                )
                self.stats.rfms += 1
                self.stats.preventive_refresh_rows += mechanism.victim_rows_per_aggressor
                return True
        return False

    def _service_preventive(self, cycle: int) -> bool:
        """Serve the mechanism's queued preventive victim refreshes."""
        mechanism = self.mechanism
        if mechanism is None or not mechanism.has_pending_refreshes():
            return False
        open_row = self._mv_open_row
        # Direct key iteration over the pruned pending dict (hot-path
        # contract): safe because the dict is only mutated on a served
        # refresh, which returns out of the loop immediately.
        for bank_id in mechanism._pending:
            if open_row[bank_id] >= 0:
                if cycle >= self._mv_next_pre[bank_id]:
                    self._precharge(bank_id, cycle)
                    return True
                continue
            if cycle >= self._mv_next_act[bank_id]:
                refresh = mechanism.pop_refresh(bank_id, cycle)
                if refresh is None:
                    continue
                self.device.victim_refresh(bank_id, refresh.num_rows, cycle)
                self.stats.preventive_refresh_rows += refresh.num_rows
                return True
        return False

    # ------------------------------------------------------------------ #
    # Demand request servicing (FR-FCFS + Cap)
    # ------------------------------------------------------------------ #
    def _active_queue_is_reads(self) -> bool:
        """Write-drain hysteresis: pick the queue type to serve this tick."""
        if self._draining_writes:
            if self._write_count <= self.write_drain_low:
                self._draining_writes = False
        if not self._draining_writes:
            if self._write_count >= self.write_drain_high or (
                not self._read_count and self._write_count
            ):
                self._draining_writes = True
        return not (self._draining_writes and self._write_count)

    def _service_demand(self, cycle: int) -> bool:
        """Serve one demand request: the FR-FCFS+Cap pick, else first-ready."""
        is_read = self._active_queue_is_reads()
        if is_read:
            if not self._read_count:
                return False
            buckets = self._read_buckets
        else:
            buckets = self._write_buckets
        open_rows = self._mv_open_row
        request = self.scheduler.choose_from_buckets(buckets, open_rows)
        if request is not None and self._serve_request(
            request, is_read, buckets, cycle
        ):
            return True
        # First-ready fallback: try any request whose next command is legal.
        # Per bank only three requests can differ in outcome -- the bucket
        # head, the oldest row hit and the oldest row conflict (legality of a
        # column command or a precharge does not depend on which queued
        # request triggers it) -- so trying those in global FCFS order is
        # equivalent to a full-queue rescan.  Candidates whose bank timing
        # already rules the command out are dropped here (pure pre-filter:
        # _serve_request would reject them identically).
        col_mv = self._mv_next_rd if is_read else self._mv_next_wr
        act_mv = self._mv_next_act
        pre_mv = self._mv_next_pre
        candidates: List[MemoryRequest] = []
        for bank_id, bucket in buckets.items():
            open_row = open_rows[bank_id]
            head = bucket[0]
            if open_row < 0:
                if cycle >= act_mv[bank_id]:
                    candidates.append(head)
                continue
            head_is_hit = head.dram.row == open_row
            second: Optional[MemoryRequest] = None
            for r in bucket:
                if (r.dram.row == open_row) != head_is_hit:
                    second = r
                    break
            hit_ready = cycle >= col_mv[bank_id]
            pre_ready = cycle >= pre_mv[bank_id]
            if head_is_hit:
                if hit_ready:
                    candidates.append(head)
                if second is not None and pre_ready:
                    candidates.append(second)
            else:
                if pre_ready:
                    candidates.append(head)
                if second is not None and hit_ready:
                    candidates.append(second)
        candidates.sort(key=_BY_REQUEST_ID)
        for request in candidates:
            if self._serve_request(request, is_read, buckets, cycle):
                return True
        return False

    def _serve_request(
        self,
        request: MemoryRequest,
        is_read: bool,
        buckets: Dict[int, List[MemoryRequest]],
        cycle: int,
    ) -> bool:
        """Issue the next command ``request`` needs, if it is legal now."""
        bank_id = request.bank_id
        open_row = self._mv_open_row[bank_id]
        target_row = request.dram.row

        if open_row >= 0:
            if open_row == target_row:
                hit = request.row_hit if request.row_hit is not None else True
                if is_read:
                    if cycle >= self._mv_next_rd[bank_id]:
                        ready = self.device.read(bank_id, cycle)
                        self._complete_column(
                            request, is_read, cycle, ready, row_hit=hit
                        )
                        return True
                elif cycle >= self._mv_next_wr[bank_id]:
                    done = self.device.write(bank_id, cycle)
                    self._complete_column(request, is_read, cycle, done, row_hit=hit)
                    return True
                return False
            if self._preserve_open_row(bank_id, open_row, buckets):
                # A pending request still targets the open row and the
                # column-over-row reordering cap has not been exhausted, so
                # the conflicting request must wait (FR-FCFS row-hit-first).
                return False
            if cycle >= self._mv_next_pre[bank_id]:
                self._precharge(bank_id, cycle)
                self.stats.row_conflicts += 1
                request.row_hit = False
                # The older row-conflict request finally makes progress, so
                # the bank's column-over-row reordering budget resets.
                self.scheduler.on_scheduled(request, was_row_hit=False)
                return True
            return False

        rank = bank_id // self._banks_per_rank
        # Cached urgent set (runs per ACT-candidate serve; almost always
        # the shared empty tuple, so the probe is one containment check).
        if rank in self.refresh.urgent_ranks():
            # The rank must drain for an overdue periodic refresh first.
            return False
        if cycle >= self._mv_next_act[bank_id] and self.device._rank_act_allowed(
            rank, cycle
        ):
            self.device.activate(bank_id, target_row, cycle)
            self.stats.row_misses += 1
            request.row_hit = False
            if self.mechanism is not None:
                self.mechanism.on_activate(bank_id, target_row, cycle)
            return True
        return False

    def _preserve_open_row(
        self,
        bank_id: int,
        open_row: int,
        buckets: Dict[int, List[MemoryRequest]],
    ) -> bool:
        """True if the open row should be kept open for a pending row hit."""
        if self.scheduler.cap_reached(bank_id):
            return False
        bucket = buckets.get(bank_id)
        if not bucket:
            return False
        for request in bucket:
            if request.dram.row == open_row:
                return True
        return False

    def _complete_column(
        self,
        request: MemoryRequest,
        is_read: bool,
        cycle: int,
        completion: int,
        row_hit: bool,
    ) -> None:
        request.issued_cycle = cycle
        request.completion_cycle = completion
        request.row_hit = row_hit
        self._dequeue(request, is_read)
        self.scheduler.on_scheduled(request, row_hit)
        if row_hit:
            self.stats.row_hits += 1
        if is_read:
            self.stats.reads_served += 1
            self.stats.total_read_latency += completion - request.arrival_cycle
            self._inflight_reads.append(request)
        else:
            self.stats.writes_served += 1
            self._completed.append(request)

    def retire_reads(self, cycle: int) -> None:
        """Move the in-flight reads whose data arrived by ``cycle`` to the
        completed list (the next :meth:`drain_completed` returns them).

        The :class:`~repro.controller.router.ChannelRouter` calls this before
        each tick; read completions are run-loop events, not controller wake
        reasons.
        """
        reads = self._inflight_reads
        # Read completions are issue cycle + a constant (tCL + tBL), so the
        # list is ordered by completion: checking the head suffices.
        if not reads or reads[0].completion_cycle > cycle:
            return
        still_waiting = []
        completed = self._completed
        for request in reads:
            if request.completion_cycle <= cycle:
                completed.append(request)
            else:
                still_waiting.append(request)
        self._inflight_reads = still_waiting

    # ------------------------------------------------------------------ #
    # Wake hints (the event horizon)
    # ------------------------------------------------------------------ #
    def _next_event_hint(self, cycle: int) -> int:
        """Earliest future cycle at which ``tick`` may do useful work.

        Every event source is covered, so the system simulator may advance
        time to exactly this cycle without changing simulated behaviour
        (hints may be conservative -- early -- but never late; the
        strict-tick determinism harness pins this).  The bank-readiness
        scans index the plane's memoryview twins; the demand,
        refresh-pending and mechanism-pending scans are cached (see
        ``__init__``).
        """
        best = FAR_FUTURE
        open_row = self._mv_open_row
        next_pre = self._mv_next_pre
        next_act = self._mv_next_act

        # Periodic refresh: a skip must never jump past a tREFI boundary,
        # otherwise REFs would silently be postponed beyond the DDR5 limit.
        due = self.refresh.next_due_cycle()
        if cycle < due < best:
            best = due

        # Back-off recovery deadline (mitigation recovery window).
        rfm_due = self._rfm_due_cycle
        if rfm_due is not None and not self._in_recovery and cycle < rfm_due < best:
            best = rfm_due

        if self._in_recovery:
            # Recovery needs every bank precharged, then an all-bank RFM.
            for bank_id in self._all_banks:
                ready = (
                    next_pre[bank_id]
                    if open_row[bank_id] >= 0
                    else next_act[bank_id]
                )
                if cycle < ready < best:
                    best = ready
        else:
            scan = self._refresh_scan_hint
            if scan is not None and scan > cycle:
                if scan < best:
                    best = scan
            else:
                scan = FAR_FUTURE
                pending_ranks = self.refresh.ranks_needing_refresh()
                if pending_ranks:
                    rank_demand = self._rank_demand
                    urgent_ranks = self.refresh.urgent_ranks()
                    device = self.device
                    for rank in pending_ranks:
                        # A postponed REF is only actionable when urgent or
                        # when the rank is idle; otherwise the next refresh
                        # event is the accrual boundary already covered.
                        if rank not in urgent_ranks and rank_demand[rank]:
                            continue
                        for bank_id in device.banks_in_rank(rank):
                            ready = (
                                next_pre[bank_id]
                                if open_row[bank_id] >= 0
                                else next_act[bank_id]
                            )
                            if cycle < ready < scan:
                                scan = ready
                self._refresh_scan_hint = scan
                if scan < best:
                    best = scan

        # Demand requests, bucketed per bank.  Both queues contribute: the
        # write queue may become the active queue as soon as it drains.  A
        # cached value at or below the current cycle is stale by definition
        # and forces a recompute.
        demand = self._demand_hint
        if demand is None or demand <= cycle:
            demand = self._demand_ready_cycle(cycle)
            self._demand_hint = demand
        if cycle < demand < best:
            best = demand

        mechanism = self.mechanism
        if mechanism is not None:
            mech = self._mech_scan_hint
            if mech is None or mech <= cycle:
                mech = FAR_FUTURE
                for bank_id in mechanism._pending:
                    ready = (
                        next_pre[bank_id]
                        if open_row[bank_id] >= 0
                        else next_act[bank_id]
                    )
                    if cycle < ready < mech:
                        mech = ready
                for bank_id in mechanism.rfm_pending_banks():
                    ready = (
                        next_pre[bank_id]
                        if open_row[bank_id] >= 0
                        else next_act[bank_id]
                    )
                    if cycle < ready < mech:
                        mech = ready
                self._mech_scan_hint = mech
            if mech < best:
                best = mech

        return best

    def _demand_ready_cycle(
        self, cycle: int, stop_when_ready: bool = False
    ) -> int:
        """Earliest strictly-future readiness event of any queued demand.

        Walks only the queued buckets.  Rank-level ACT readiness (tRRD /
        tFAW) is inlined.  For open banks both the column-command and the
        precharge release are included without scanning the bucket for
        actual hits/conflicts: hints may be early (a wasted wake is a no-op
        tick), never late.  Streams already due are excluded from the
        returned minimum, unless ``stop_when_ready`` is set: then the walk
        returns ``cycle`` at the first due stream (the post-issue hint only
        needs to know that a bank may issue at the next cycle).
        """
        best = FAR_FUTURE
        next_act = self._mv_next_act
        next_pre = self._mv_next_pre
        open_row = self._mv_open_row
        banks_per_rank = self._banks_per_rank
        rank_states = self.device._ranks
        tRRD = self.timing.tRRD
        tFAW = self.timing.tFAW
        for buckets, col in (
            (self._read_buckets, self._mv_next_rd),
            (self._write_buckets, self._mv_next_wr),
        ):
            for bank_id in buckets:
                if open_row[bank_id] < 0:
                    ready = next_act[bank_id]
                    state = rank_states[bank_id // banks_per_rank]
                    rank_ready = state.last_act_cycle + tRRD
                    if rank_ready > ready:
                        ready = rank_ready
                    window = state.act_window
                    if len(window) == window.maxlen:
                        faw_ready = window[0] + tFAW
                        if faw_ready > ready:
                            ready = faw_ready
                    later = FAR_FUTURE
                else:
                    # An open bank has two streams: the column command and
                    # the precharge release.
                    ready = col[bank_id]
                    later = next_pre[bank_id]
                    if later < ready:
                        ready, later = later, ready
                if ready <= cycle:
                    if stop_when_ready:
                        return cycle
                    if cycle < later < best:
                        best = later
                elif ready < best:
                    best = ready
        return best

    def _post_issue_hint(self, cycle: int) -> int:
        """Exact wake hint after a command issued at ``cycle``.

        The idle hint assumes every command that was legal at ``cycle`` was
        tried and blocked; after an issue that does not hold (the command
        bus was taken), so the controller must tick at ``cycle + 1``
        whenever anything could issue or change state then:

        * more than ``_EXACT_HINT_MAX_BUCKETS`` banks hold queued demand (one
          is almost surely ready; the rescan would not pay for itself);
        * back-off recovery is in progress, or an asserted back-off has not
          been probed yet (the probe stamps the RFM deadline with its cycle);
        * a periodic refresh is actionable: urgent, or owed by an idle rank;
        * the mitigation mechanism has pending preventive refreshes or RFMs;
        * the write-drain flag would flip on the current queue counts (the
          hysteresis is evaluated once per tick, from that tick's counts);
        * a queued bank is ready now.

        Otherwise nothing can happen before the earliest strictly-future
        event: the refresh due cycle, the back-off deadline or a queued
        bank's readiness (the refresh and mechanism scans of the idle hint
        are empty here).
        """
        after = cycle + 1
        if self._in_recovery or (
            len(self._read_buckets) + len(self._write_buckets)
            > _EXACT_HINT_MAX_BUCKETS
        ):
            return after
        rfm_due = self._rfm_due_cycle
        if rfm_due is None:
            on_die = self._on_die
            if on_die is not None and on_die.backoff_asserted():
                return after
        refresh = self.refresh
        pending_ranks = refresh._pending_ranks
        if pending_ranks is None:
            pending_ranks = refresh.ranks_needing_refresh()
        if pending_ranks:
            urgent_ranks = refresh.urgent_ranks()
            rank_demand = self._rank_demand
            for rank in pending_ranks:
                if rank in urgent_ranks or not rank_demand[rank]:
                    return after
        mechanism = self.mechanism
        if mechanism is not None and (
            mechanism._pending or mechanism.rfm_pending_banks()
        ):
            return after
        writes = self._write_count
        if self._draining_writes:
            if writes <= self.write_drain_low and (self._read_count or not writes):
                return after
        elif writes >= self.write_drain_high or (writes and not self._read_count):
            return after
        demand = self._demand_ready_cycle(cycle, True)
        if demand <= cycle:
            return after
        self._demand_hint = demand
        # The prologue accrued refresh up to ``cycle``, so the due cycle is
        # strictly in the future; so is a pending back-off deadline (the
        # recovery starts in the tick that reaches it).
        best = refresh._next_accrual
        if rfm_due is not None and rfm_due < best:
            best = rfm_due
        if demand < best:
            best = demand
        return best
