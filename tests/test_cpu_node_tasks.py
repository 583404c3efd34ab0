"""CPU cost model, single-node template, and task extraction (Fig 2)."""

from __future__ import annotations

import pytest

from repro.compmodel import (
    CPU,
    SingleNodeModel,
    TaskExtractionStats,
    extract_tasks,
)
from repro.config import (
    CacheConfig,
    CacheLevelConfig,
    CPUConfig,
    NodeConfig,
)
from repro.operations import (ArithType,
                              MemType,
                              OpCode,
                              add,
                              branch,
                              call,
                              compute,
                              div,
                              ifetch,
                              load,
                              load_const,
                              mul,
                              recv,
                              ret,
                              send,
                              sub)


class TestCPUCosts:
    def cpu(self) -> CPU:
        cfg = CPUConfig(
            add_cycles={ArithType.INT: 1.0, ArithType.FLOAT: 2.0,
                        ArithType.DOUBLE: 3.0},
            sub_cycles={ArithType.INT: 1.0, ArithType.FLOAT: 2.0,
                        ArithType.DOUBLE: 3.0},
            mul_cycles={ArithType.INT: 4.0, ArithType.FLOAT: 5.0,
                        ArithType.DOUBLE: 6.0},
            div_cycles={ArithType.INT: 20.0, ArithType.FLOAT: 21.0,
                        ArithType.DOUBLE: 22.0},
            loadc_cycles=1.5, branch_cycles=2.5, call_cycles=3.5,
            ret_cycles=4.5, load_issue_cycles=1.0, store_issue_cycles=1.0)
        return CPU(cfg, None)

    @pytest.mark.parametrize("op,expected", [
        (add(ArithType.INT), 1.0), (add(ArithType.DOUBLE), 3.0),
        (sub(ArithType.FLOAT), 2.0), (mul(ArithType.INT), 4.0),
        (div(ArithType.DOUBLE), 22.0), (load_const(), 1.5),
        (branch(0), 2.5), (call(0), 3.5), (ret(0), 4.5),
    ])
    def test_fixed_costs(self, op, expected):
        assert self.cpu().op_cycles(op) == expected

    def test_load_without_memsys_costs_issue_only(self):
        assert self.cpu().op_cycles(load(MemType.INT32, 0)) == 1.0

    def test_comm_op_rejected(self):
        with pytest.raises(ValueError, match="communication"):
            self.cpu().op_cycles(send(64, 1))
        with pytest.raises(ValueError):
            self.cpu().op_cycles(compute(5))

    def test_execute_accumulates(self):
        cpu = self.cpu()
        total = cpu.execute([add(), add(), mul()])
        assert total == pytest.approx(6.0)
        assert cpu.stats.instructions == 3
        assert cpu.stats.cycles == pytest.approx(6.0)

    def test_seconds(self):
        cpu = self.cpu()
        cpu.execute([add()] * 100)
        assert cpu.seconds == pytest.approx(100 / cpu.cfg.clock_hz)

    def test_stats_summary(self):
        cpu = self.cpu()
        cpu.execute([load(MemType.INT32, 0), ifetch(4), add()])
        s = cpu.stats.summary()
        assert s["memory_accesses"] == 1
        assert s["ifetches"] == 1
        assert s["op_counts"]["add"] == 1


class TestSingleNodeModel:
    def node(self) -> SingleNodeModel:
        cfg = NodeConfig(cache_levels=[CacheLevelConfig(data=CacheConfig(
            size_bytes=1024, line_bytes=32, associativity=2))])
        return SingleNodeModel(cfg)

    def test_run_trace(self):
        node = self.node()
        result = node.run_trace([ifetch(0x400000), load(MemType.FLOAT64, 0),
                                 add(ArithType.DOUBLE)])
        assert result.instructions == 3
        assert result.cycles > 3
        assert result.cpi == pytest.approx(result.cycles / 3)
        assert result.seconds == pytest.approx(
            result.cycles / node.cfg.cpu.clock_hz)

    def test_rejects_comm_ops(self):
        with pytest.raises(ValueError, match="extract_tasks"):
            self.node().run_trace([send(64, 1)])

    def test_rejects_multi_cpu(self):
        cfg = NodeConfig(n_cpus=2,
                         cache_levels=[CacheLevelConfig(data=CacheConfig())])
        with pytest.raises(ValueError, match="SMP"):
            SingleNodeModel(cfg)

    def test_reset_cools_caches(self):
        node = self.node()
        warm = node.run_trace([load(MemType.FLOAT64, 0)] * 2)
        node.reset()
        cold = node.run_trace([load(MemType.FLOAT64, 0)])
        assert cold.cycles > warm.cycles / 2   # cold miss vs mostly hits

    def test_caches_warm_across_calls(self):
        node = self.node()
        first = node.run_trace([load(MemType.FLOAT64, 0)])
        second = node.run_trace([load(MemType.FLOAT64, 0)])
        assert second.cycles < first.cycles


class TestExtractTasks:
    def node(self) -> SingleNodeModel:
        return SingleNodeModel(NodeConfig(cache_levels=[]))

    def test_collapses_runs(self):
        node = self.node()
        mixed = [add(), add(), send(64, 1), add(), recv(1), add()]
        out = list(extract_tasks(node, mixed))
        codes = [op.code for op in out]
        assert codes == [OpCode.COMPUTE, OpCode.SEND, OpCode.COMPUTE,
                         OpCode.RECV, OpCode.COMPUTE]

    def test_durations_match_cpu_costs(self):
        node = self.node()
        mixed = [add(), mul(), send(64, 1)]
        out = list(extract_tasks(node, mixed))
        expected = (node.cfg.cpu.add_cycles[ArithType.INT]
                    + node.cfg.cpu.mul_cycles[ArithType.INT])
        assert out[0].duration == pytest.approx(expected)

    def test_no_leading_zero_task(self):
        node = self.node()
        out = list(extract_tasks(node, [send(64, 1), add()]))
        assert [op.code for op in out] == [OpCode.SEND, OpCode.COMPUTE]

    def test_comm_only_passes_through(self):
        node = self.node()
        ops = [send(64, 1), recv(1)]
        assert list(extract_tasks(node, ops)) == ops

    def test_empty(self):
        assert list(extract_tasks(self.node(), [])) == []

    def test_stats(self):
        node = self.node()
        stats = TaskExtractionStats()
        list(extract_tasks(node, [add(), send(64, 1), add(), add()], stats))
        assert stats.computational_ops == 3
        assert stats.communication_ops == 1
        assert stats.tasks_emitted == 2
        assert stats.total_task_cycles == pytest.approx(3.0)
        assert stats.summary()["mean_task_cycles"] == pytest.approx(1.5)

    def test_lazy_over_generator(self):
        """Extraction must not run ahead of the source generator."""
        node = self.node()
        pulled = []

        def source():
            for i, op in enumerate([add(), send(64, 1), add()]):
                pulled.append(i)
                yield op

        gen = extract_tasks(node, source())
        first = next(gen)
        assert first.code is OpCode.COMPUTE
        # To emit the task it had to see the send (ops 0 and 1), not op 2.
        assert pulled == [0, 1]
