"""Virtual shared memory: runtime, protocol, and end-to-end behaviour."""

from __future__ import annotations

import pytest

from repro import DeliveryFailed, FaultPlan, Workbench, generic_multicomputer
from repro.faults import LinkFault, TransportConfig
from repro.operations import MemType
from repro.vsm import SharedRegion, VSMConfig, VSMModel

from tests.test_faults import drop_plan


def machine(n=4):
    return generic_multicomputer("mesh", (n, 1) if n > 1 else (1, 1))


def run(program, n=4, vsm_config=None):
    model = VSMModel(machine(n), vsm_config)
    result = model.run_application(program)
    return model, result


class TestBasics:
    def test_no_explicit_communication_needed(self):
        """The whole point: sharing without any send/recv annotation."""
        def program(ctx):
            region = SharedRegion(ctx, "a", 256, page_bytes=512)
            if ctx.node_id == 0:
                for i in range(256):
                    region.write(i)
            ctx.barrier()
            region.read(255 if ctx.node_id else 0)

        model, result = run(program)
        assert result.faults > 0
        assert result.vsm["pages_transferred"] > 0
        assert result.total_cycles > 0

    def test_local_hits_are_free_of_faults(self):
        def program(ctx):
            region = SharedRegion(ctx, "b", 64, page_bytes=512)
            if ctx.node_id == 0:
                region.write(0)            # one write fault
                for i in range(64):
                    region.write(i)        # all same page: no new faults
                    region.read(i)

        model, result = run(program)
        assert result.vsm["write_faults"] == 1
        assert result.vsm["read_faults"] == 0

    def test_accesses_feed_the_computational_model(self):
        """Shared reads/writes emit load/store operations (cache-visible)."""
        def program(ctx):
            region = SharedRegion(ctx, "c", 32, page_bytes=512)
            if ctx.node_id == 0:
                for i in range(32):
                    region.write(i)

        model, result = run(program)
        node0 = result.node_summaries[0]
        assert node0["cpu"]["op_counts"].get("store", 0) == 32

    def test_write_then_remote_read_transfers_page(self):
        def program(ctx):
            region = SharedRegion(ctx, "d", 16, page_bytes=256)
            if ctx.node_id == 0:
                region.write(0)
            ctx.barrier()
            if ctx.node_id == 1:
                region.read(0)

        model, result = run(program, n=2)
        assert result.vsm["read_faults"] == 1
        # Owner 0 supplied the page to reader 1.
        assert model.protocol.copyset_of("d", 0) >= {0, 1}

    def test_remote_write_invalidates_readers(self):
        def program(ctx):
            region = SharedRegion(ctx, "e", 16, page_bytes=256)
            region.read(0)                  # everyone becomes a reader
            ctx.barrier()
            if ctx.node_id == 3:
                region.write(0)             # invalidates the other three
            ctx.barrier()
            if ctx.node_id == 0:
                region.read(0)              # must re-fault

        model, result = run(program)
        assert result.vsm["invalidations"] >= 3
        assert model.protocol.owner_of("e", 0) == 3 or \
            model.protocol.copyset_of("e", 0) >= {0}
        # Node 0's re-read after the invalidation faulted again.
        assert result.vsm["read_faults"] >= 5


class TestProtocolState:
    def test_ownership_migrates_to_writer(self):
        def program(ctx):
            region = SharedRegion(ctx, "f", 16, page_bytes=256)
            if ctx.node_id == 2:
                region.write(0)

        model, _ = run(program)
        assert model.protocol.owner_of("f", 0) == 2
        assert model.protocol.copyset_of("f", 0) == {2}

    def test_round_robin_homes(self):
        model = VSMModel(machine(4))
        assert [model.protocol.home_of("x", p) for p in range(6)] == \
            [0, 1, 2, 3, 0, 1]

    def test_home_node_fault_is_cheap(self):
        """A fault on a page homed+owned locally needs no messages."""
        def program(ctx):
            region = SharedRegion(ctx, "g", 16, page_bytes=256)
            if ctx.node_id == 0:
                region.read(0)      # page 0 homes at node 0

        model, result = run(program)
        assert result.vsm["read_faults"] == 1
        assert result.vsm["control_messages"] == 0
        assert result.vsm["pages_transferred"] == 0


class TestConfig:
    def test_fault_overhead_visible(self):
        def program(ctx):
            region = SharedRegion(ctx, "h", 16, page_bytes=256)
            if ctx.node_id == 0:
                region.read(0)

        _, cheap = run(program, vsm_config=VSMConfig(
            fault_overhead_cycles=0.0))
        _, costly = run(program, vsm_config=VSMConfig(
            fault_overhead_cycles=10_000.0))
        assert costly.total_cycles >= cheap.total_cycles + 10_000.0

    def test_bad_config(self):
        with pytest.raises(ValueError):
            VSMConfig(request_bytes=0).validate()
        with pytest.raises(ValueError):
            VSMConfig(handler_cycles=-1).validate()

    def test_multi_cpu_rejected(self):
        from repro import smp_node
        with pytest.raises(ValueError, match="single-CPU"):
            VSMModel(smp_node(2))


class TestRuntimeErrors:
    def test_out_of_bounds(self):
        def program(ctx):
            region = SharedRegion(ctx, "i", 8, page_bytes=256)
            region.read(8)

        with pytest.raises(Exception, match="out of bounds"):
            run(program, n=2)

    def test_bad_geometry(self):
        def program(ctx):
            SharedRegion(ctx, "j", 0)

        with pytest.raises(Exception, match="n_elements"):
            run(program, n=2)

    def test_bad_page_size(self):
        def program(ctx):
            SharedRegion(ctx, "k", 8, page_bytes=100)

        with pytest.raises(Exception, match="power"):
            run(program, n=2)

    def test_recording_vsm_program_rejected(self):
        from repro.apps import ThreadedApplication
        from repro.tracegen import TraceGenerationError

        def program(ctx):
            region = SharedRegion(ctx, "l", 16, page_bytes=256)
            region.read(0)

        with pytest.raises(TraceGenerationError, match="recordable"):
            ThreadedApplication(program, 2).record()


class TestSharingPatterns:
    def test_false_sharing_costs_faults(self):
        """Two writers on one page ping-pong it; on separate pages they
        fault once each."""
        def make_program(stride):
            def program(ctx):
                region = SharedRegion(ctx, f"fs{stride}", 1024,
                                      MemType.FLOAT64, page_bytes=1024)
                idx = ctx.node_id * stride
                for _ in range(4):
                    region.write(idx)
                    ctx.barrier()
            return program

        # stride 1: both indices on page 0 (false sharing).
        _, shared = run(make_program(1), n=2)
        # stride 128: 128*8 = 1024 bytes apart -> separate pages.
        _, private = run(make_program(128), n=2)
        assert shared.vsm["write_faults"] > private.vsm["write_faults"]
        assert private.vsm["write_faults"] == 2

    def test_producer_consumer_round_trips(self):
        def program(ctx):
            region = SharedRegion(ctx, "pc", 64, page_bytes=512)
            for round_ in range(3):
                if ctx.node_id == 0:
                    region.write(0)
                ctx.barrier()
                if ctx.node_id == 1:
                    region.read(0)
                ctx.barrier()

        _, result = run(program, n=2)
        # Every round: producer re-faults for write (reader held a copy),
        # consumer re-faults for read.
        assert result.vsm["write_faults"] == 3
        assert result.vsm["read_faults"] == 3

    def test_determinism(self):
        def program(ctx):
            region = SharedRegion(ctx, "det", 128, page_bytes=512)
            for i in range(0, 128, 8):
                if i % 16 == 0 and ctx.node_id == 0:
                    region.write(i)
                elif ctx.node_id == 1:
                    region.read(min(i, 127))
                ctx.barrier()

        _, a = run(program, n=2)
        _, b = run(program, n=2)
        assert a.total_cycles == b.total_cycles
        assert a.vsm["faults"] == b.vsm["faults"]


class TestFaults:
    """``Workbench(machine, faults=plan).run_vsm`` applies the plan, and
    protocol messages ride the reliable transport like NIC traffic."""

    @staticmethod
    def program(ctx):
        region = SharedRegion(ctx, "a", 256, page_bytes=512)
        if ctx.node_id == 0:
            for i in range(256):
                region.write(i)
        ctx.barrier()
        region.read(255 if ctx.node_id else 0)

    def test_empty_plan_is_identical_to_none(self):
        plain = Workbench(machine()).run_vsm(self.program)
        empty = Workbench(machine(), faults=FaultPlan()).run_vsm(self.program)
        assert empty.summary() == plain.summary()
        assert plain.comm.fault_summary is None

    def test_drop_plan_drops_yet_delivers_every_message(self):
        plain = Workbench(machine()).run_vsm(self.program)
        lossy = Workbench(machine(), faults=drop_plan(0.3)) \
            .run_vsm(self.program)
        faults = lossy.comm.fault_summary
        assert faults["dropped"] > 0
        assert faults["transport"]["delivered"] \
            == plain.comm.messages_delivered
        assert faults["transport"]["delivery_failed"] == 0
        assert lossy.faults == plain.faults
        assert lossy.total_cycles > plain.total_cycles

    def test_dead_links_fail_the_waiting_protocol_with_the_message(self):
        plan = FaultPlan(
            seed=1, link_faults=[LinkFault(drop_prob=1.0)],
            transport=TransportConfig(timeout_cycles=1_000.0,
                                      backoff_factor=1.0, max_retries=1))
        with pytest.raises(DeliveryFailed, match="undeliverable after 2"):
            Workbench(machine(), faults=plan).run_vsm(self.program)
