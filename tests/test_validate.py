"""Trace validation: structural checks and communication matching.

The per-trace structure (``TR001``–``TR003``) and the per-pair
send/recv counts (``TR004``) of :func:`repro.check.check_traces`; the
deadlock rules and the rest of the analyzer are in ``test_check.py``.
"""

from __future__ import annotations

from repro.check import check_traces
from repro.check.trace_passes import (communication_matrix,
                                     structural_diagnostics)
from repro.operations import (MemType,
                              Operation,
                              OpCode,
                              Trace,
                              TraceSet,
                              arecv,
                              asend,
                              compute,
                              recv,
                              send)


def rules(trace: Trace, n_nodes=None) -> list[str]:
    return [d.rule for d in structural_diagnostics(trace, n_nodes)]


def error_rules(ts: TraceSet) -> list[str]:
    return [d.rule for d in check_traces(ts).errors]


class TestValidateTrace:
    def test_valid_trace_passes(self):
        assert rules(Trace(0, [send(64, 1), recv(1), compute(10)]),
                     n_nodes=2) == []

    def test_self_communication_rejected(self):
        (diag,) = structural_diagnostics(Trace(0, [send(64, 0)]), 2)
        assert diag.rule == "TR002"
        assert "self-communication" in diag.message

    def test_peer_out_of_range(self):
        (diag,) = structural_diagnostics(Trace(0, [recv(5)]), 2)
        assert diag.rule == "TR003"
        assert "out of range" in diag.message

    def test_negative_peer(self):
        assert rules(Trace(0, [recv(-1)])) == ["TR003"]

    def test_negative_address(self):
        bad = Operation(OpCode.LOAD, int(MemType.INT32), -8)
        (diag,) = structural_diagnostics(Trace(0, [bad]), None)
        assert diag.rule == "TR001"
        assert "negative address" in diag.message

    def test_no_n_nodes_skips_range_check(self):
        assert rules(Trace(0, [send(64, 99)])) == []   # range unknown: OK


class TestValidateTraceSet:
    def test_matched_set_passes(self):
        ts = TraceSet.from_lists([
            [send(64, 1)],
            [recv(0), asend(32, 0)],
        ])
        # node 0 must also receive node 1's asend for matching:
        assert error_rules(ts) == ["TR004"]
        ts = TraceSet.from_lists([
            [send(64, 1), arecv(1)],
            [recv(0), asend(32, 0)],
        ])
        assert check_traces(ts).ok

    def test_unmatched_send_detected(self):
        ts = TraceSet.from_lists([[send(64, 1)], []])
        assert error_rules(ts) == ["TR004"]
        assert "unmatched" in check_traces(ts).errors[0].message

    def test_unmatched_recv_detected(self):
        ts = TraceSet.from_lists([[], [recv(0)]])
        assert error_rules(ts) == ["TR004"]
        assert "unmatched" in check_traces(ts).errors[0].message

    def test_check_matched_false_skips(self):
        # The structural contract alone does not look at matching.
        ts = TraceSet.from_lists([[send(64, 1)], []])
        assert [rules(t, len(ts)) for t in ts] == [[], []]


class TestCommunicationMatrix:
    def test_counts(self):
        ts = TraceSet.from_lists([
            [send(64, 1), send(64, 1), recv(1)],
            [recv(0), recv(0), send(8, 0)],
        ])
        sends, recvs = communication_matrix(ts)
        assert sends[0][1] == 2
        assert recvs[0][1] == 2
        assert sends[1][0] == 1
        assert recvs[1][0] == 1
        assert sends[0][0] == 0
