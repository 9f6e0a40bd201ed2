"""Tests for the memory controller (end-to-end command sequencing)."""

import pytest

from repro.controller.address_mapping import mop_mapping
from repro.controller.controller import MemoryController
from repro.controller.router import ChannelRouter
from repro.controller.request import MemoryRequest, RequestType
from repro.core.graphene import Graphene
from repro.core.mitigation import PreventiveRefresh
from repro.core.prac import PRAC
from repro.core.prfm import PRFM
from repro.dram.device import DramDevice
from repro.dram.organization import DramOrganization
from repro.dram.timing import ddr5_3200an


ORG = DramOrganization(ranks=1, bankgroups=2, banks_per_group=2, rows=512, columns=32)


def make_controller(mechanism=None, on_die=None, timing=None):
    device = DramDevice(ORG, timing or ddr5_3200an(), mitigation=on_die)
    controller = MemoryController(device, mop_mapping(ORG), mechanism=mechanism)
    return controller, device


def read_request(address, core=0, cycle=0):
    return MemoryRequest(address=address, request_type=RequestType.READ,
                         core_id=core, arrival_cycle=cycle)


def run_until_complete(controller, max_cycles=100_000):
    """Tick the controller until all queued demand requests complete.

    The controller is driven through a one-channel router, which retires
    in-flight reads and wakes for their completions.
    """
    router = ChannelRouter(controller.mapping, [controller])
    completed = []
    cycle = 0
    while controller.pending_requests() and cycle < max_cycles:
        issued, hint = router.tick(cycle)
        completed.extend(router.drain_completed())
        cycle = cycle + 1 if issued else max(cycle + 1, min(hint, cycle + 10_000))
    return completed, cycle


class TestDemandServicing:
    def test_single_read_completes(self):
        controller, device = make_controller()
        request = read_request(0x1000)
        assert controller.enqueue(request)
        completed, _ = run_until_complete(controller)
        assert request in completed
        assert request.completion_cycle is not None
        assert controller.stats.reads_served == 1
        assert device.command_counts["ACT"] == 1
        assert device.command_counts["RD"] == 1

    def test_row_hit_faster_than_row_conflict(self):
        t = ddr5_3200an()
        # Two reads to the same row: the second is a row hit.
        controller, _ = make_controller()
        a = read_request(0x0)
        b = read_request(0x40)  # next cache line, same row under MOP
        controller.enqueue(a)
        controller.enqueue(b)
        run_until_complete(controller)
        assert controller.stats.row_hits >= 1
        assert b.completion_cycle - a.completion_cycle < t.tRC

    def test_conflicting_reads_both_complete(self):
        controller, _ = make_controller()
        mapping = controller.mapping
        # Same bank, different rows.
        from repro.dram.organization import DramAddress

        first = read_request(mapping.encode(DramAddress(0, 0, 0, 0, 10, 0)))
        second = read_request(mapping.encode(DramAddress(0, 0, 0, 0, 11, 0)))
        controller.enqueue(first)
        controller.enqueue(second)
        completed, _ = run_until_complete(controller)
        assert len(completed) == 2
        assert controller.stats.row_conflicts >= 1

    def test_write_completes_and_counts(self):
        controller, device = make_controller()
        write = MemoryRequest(address=0x2000, request_type=RequestType.WRITE,
                              core_id=0, arrival_cycle=0)
        controller.enqueue(write)
        completed, _ = run_until_complete(controller)
        assert write in completed
        assert device.command_counts["WR"] == 1
        assert controller.stats.writes_served == 1

    def test_queue_capacity_enforced(self):
        controller, _ = make_controller()
        controller.read_queue_size = 2
        assert controller.enqueue(read_request(0x0))
        assert controller.enqueue(read_request(0x1000))
        assert not controller.enqueue(read_request(0x2000))
        assert not controller.can_accept(RequestType.READ)

    def test_decoded_coordinates_attached(self):
        controller, _ = make_controller()
        request = read_request(0x12340)
        controller.enqueue(request)
        assert request.dram is not None
        assert 0 <= request.bank_id < ORG.total_banks


class TestRefreshHandling:
    def test_urgent_refresh_eventually_issued(self):
        controller, device = make_controller()
        timing = device.timing
        cycle = 0
        horizon = timing.tREFI * 6
        while cycle < horizon:
            issued, hint = controller.tick(cycle)
            cycle = cycle + 1 if issued else max(cycle + 1, min(hint, cycle + timing.tREFI))
        assert controller.stats.refreshes >= 1
        assert device.command_counts["REF"] >= 1

    def test_idle_rank_refreshes_opportunistically(self):
        controller, device = make_controller()
        timing = device.timing
        controller.refresh.tick(timing.tREFI + 1)
        issued, _ = controller.tick(timing.tREFI + 1)
        assert issued
        assert device.command_counts["REF"] == 1


class TestPrfmIntegration:
    def test_rfm_issued_after_threshold_activations(self):
        prfm = PRFM(nrh=1024, num_banks=ORG.total_banks, rfm_threshold=2)
        controller, device = make_controller(mechanism=prfm)
        from repro.dram.organization import DramAddress

        mapping = controller.mapping
        for row in range(4):
            controller.enqueue(read_request(mapping.encode(DramAddress(0, 0, 0, 0, row, 0))))
        run_until_complete(controller)
        assert device.command_counts["RFM"] >= 1
        assert controller.stats.rfms >= 1


class TestPreventiveRefreshIntegration:
    def test_queued_refresh_serviced_as_vrr(self):
        graphene = Graphene(nrh=64, num_banks=ORG.total_banks, table_entries=8)
        controller, device = make_controller(mechanism=graphene)
        graphene.queue_refresh(PreventiveRefresh(bank_id=1, aggressor_row=5, num_rows=4))
        cycle = 0
        while graphene.total_pending_rows() and cycle < 10_000:
            issued, hint = controller.tick(cycle)
            cycle = cycle + 1 if issued else max(cycle + 1, min(hint, cycle + 1000))
        assert device.command_counts["VRR"] == 4
        assert controller.stats.preventive_refresh_rows == 4


class TestBackoffIntegration:
    def test_prac_backoff_triggers_rfm_recovery(self):
        prac = PRAC(nrh=1024, num_banks=ORG.total_banks, nbo=1, nref=2)
        timing = ddr5_3200an(prac=True)
        controller, device = make_controller(on_die=prac, timing=timing)
        # Two conflicting reads force a precharge, which increments the PRAC
        # counter of the first row and (with NBO = 1) asserts the back-off.
        from repro.dram.organization import DramAddress

        mapping = controller.mapping
        controller.enqueue(read_request(mapping.encode(DramAddress(0, 0, 0, 0, 10, 0))))
        controller.enqueue(read_request(mapping.encode(DramAddress(0, 0, 0, 0, 11, 0))))
        router = ChannelRouter(mapping, [controller])
        cycle = 0
        while (controller.pending_requests() or device.backoff_asserted()
               or controller._in_recovery or controller._rfm_due_cycle is not None):
            issued, hint = router.tick(cycle)
            router.drain_completed()
            cycle = cycle + 1 if issued else max(cycle + 1, min(hint, cycle + 1000))
            if cycle > 50_000:
                pytest.fail("back-off recovery did not finish")
        assert controller.stats.backoffs_observed == 1
        assert controller.stats.rfms == prac.nref
        assert device.command_counts["RFM"] == prac.nref
        assert not device.backoff_asserted()

    def test_backoff_blocks_demand_after_window(self):
        prac = PRAC(nrh=1024, num_banks=ORG.total_banks, nbo=1, nref=1)
        timing = ddr5_3200an(prac=True)
        controller, device = make_controller(on_die=prac, timing=timing)
        controller._rfm_due_cycle = 100
        assert not controller._backoff_blocks_traffic(50)
        assert controller._backoff_blocks_traffic(100)
        controller._rfm_due_cycle = None
        controller._in_recovery = True
        assert controller._backoff_blocks_traffic(0)
