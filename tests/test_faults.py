"""Fault injection: plans, injector, reliable transport, metamorphics.

The companion differential harness (``test_faults_differential.py``)
proves the *absence* of faults changes nothing; this suite proves their
*presence* behaves as specified: deterministic per-link fault streams,
counted retransmissions, degraded-routing fallback, typed delivery
failure — plus the metamorphic properties (same seed ⇒ identical run,
higher drop probability ⇒ never fewer retransmissions).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import pingpong_task_traces
from repro.commmodel.message import Message, reset_message_ids
from repro.commmodel.network import MultiNodeModel
from repro.config import ConfigError
from repro.faults import (
    DeliveryFailed,
    DownWindow,
    FaultInjector,
    FaultPlan,
    LinkFault,
    NodeWindow,
    TransportConfig,
    as_fault_plan,
)
from repro.machines.presets import generic_multicomputer
from repro.parallel.pool import _mp_context
from repro.pearl import Simulator
from repro.topology import mesh
from tests.reference_kernel import KERNELS, kernel_stack


# ---------------------------------------------------------------------------
# Shared recipes (module level: they also run inside forked workers)
# ---------------------------------------------------------------------------

def drop_plan(p: float = 0.2, *, seed: int = 11, corrupt: float = 0.0,
              max_retries: int = 200, timeout: float = 50_000.0,
              backoff: float = 1.0) -> FaultPlan:
    """A uniform drop plan with a retry budget generous enough that
    pingpong always completes (the metamorphic tests depend on it)."""
    return FaultPlan(
        seed=seed,
        link_faults=[LinkFault(drop_prob=p, corrupt_prob=corrupt)],
        transport=TransportConfig(timeout_cycles=timeout,
                                  backoff_factor=backoff,
                                  max_retries=max_retries))


def run_pingpong(plan, *, b: int = 1, size: int = 64, repeats: int = 2):
    """Deterministic faulted pingpong on the 2x2 mesh.

    ``b=1`` keeps the 0<->1 exchange on a single link each way, which
    the monotonicity property needs (every attempt consumes the same
    number of RNG draws from the same per-link streams).
    """
    reset_message_ids()
    machine = generic_multicomputer("mesh", (2, 2))
    model = MultiNodeModel(machine, faults=plan)
    result = model.run(list(pingpong_task_traces(
        model.n_nodes, size=size, repeats=repeats, b=b)))
    return model, result


def faulted_metrics() -> dict:
    """Fault counters of one fixed faulted run (cross-process identity)."""
    model, result = run_pingpong(drop_plan(0.4, seed=0), repeats=3)
    return {
        "summary": result.fault_summary,
        "log": model.transport.delivery_log,
        "cycles": result.total_cycles,
    }


def _one_packet(src: int = 0, dst: int = 1):
    msg = Message(src, dst, 16, synchronous=False)
    return msg.split(64, 4)[0]


# ---------------------------------------------------------------------------
# FaultPlan: validation, serialization, digest
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_roundtrip_dict_and_json(self):
        plan = FaultPlan(
            name="demo", seed=3,
            link_faults=[LinkFault(0.1, 0.05, src=0, dst=1)],
            link_down=[DownWindow(10.0, 20.0, src=2)],
            nic_stalls=[NodeWindow(0.0, 5.0, node=1)],
            node_pauses=[NodeWindow(1.0, 2.0)],
            transport=TransportConfig(timeout_cycles=99.0, max_retries=7))
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_save_load(self, tmp_path):
        plan = drop_plan(0.25)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        # The file is plain JSON, editable by hand.
        assert json.loads(path.read_text())["seed"] == plan.seed

    def test_load_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            FaultPlan.load(tmp_path / "nope.json")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown fault-plan"):
            FaultPlan.from_dict({"seed": 1, "links": []})

    @pytest.mark.parametrize("bad, match", [
        (FaultPlan(link_faults=[LinkFault(drop_prob=1.5)]), "not in"),
        (FaultPlan(link_faults=[LinkFault(corrupt_prob=-0.1)]), "not in"),
        (FaultPlan(link_faults=[LinkFault(0.7, 0.6)]), "exceeds"),
        (FaultPlan(link_down=[DownWindow(5.0, 1.0)]), "interval"),
        (FaultPlan(nic_stalls=[NodeWindow(-1.0, 1.0)]), "interval"),
        (FaultPlan(transport=TransportConfig(timeout_cycles=0.0)),
         "timeout_cycles"),
        (FaultPlan(transport=TransportConfig(backoff_factor=0.5)),
         "backoff_factor"),
        (FaultPlan(transport=TransportConfig(max_retries=-1)),
         "max_retries"),
    ])
    def test_validate_rejects_bad_plans(self, bad, match):
        with pytest.raises(ConfigError, match=match):
            bad.validate()

    def test_is_empty(self):
        assert FaultPlan().is_empty()
        # Zero-probability rules and zero-width windows inject nothing.
        assert FaultPlan(link_faults=[LinkFault(0.0, 0.0)],
                         link_down=[DownWindow(5.0, 5.0)]).is_empty()
        assert not FaultPlan(link_faults=[LinkFault(0.1)]).is_empty()
        assert not FaultPlan(link_down=[DownWindow(0.0, 1.0)]).is_empty()

    def test_digest_excludes_name_tracks_content(self):
        a = drop_plan(0.2)
        b = drop_plan(0.2)
        b.name = "relabelled"
        assert a.digest() == b.digest()
        assert a.digest() != drop_plan(0.21).digest()
        assert a.digest() != drop_plan(0.2, seed=12).digest()

    def test_scaled(self):
        plan = FaultPlan(name="base",
                         link_faults=[LinkFault(0.3, 0.4)])
        double = plan.scaled(2.0)
        assert double.link_faults[0].drop_prob == pytest.approx(0.6)
        # Joint clamp: corrupt takes at most the remainder (1 - 0.6),
        # not its independently-clamped 0.8 — the pair must stay a
        # valid one-draw outcome partition.
        assert double.link_faults[0].corrupt_prob == pytest.approx(0.4)
        double.validate()
        assert plan.scaled(4.0).link_faults[0].drop_prob == 1.0  # clamped
        assert plan.scaled(4.0).link_faults[0].corrupt_prob == 0.0
        assert plan.link_faults[0].drop_prob == 0.3       # original intact
        assert double.name == "basex2"
        with pytest.raises(ConfigError):
            plan.scaled(-1.0)

    def test_scaled_joint_clamp_boundary(self):
        """Regression: independent clamping let drop + corrupt exceed
        1.0 (e.g. (0.3, 0.4) x 2 -> 0.6 + 0.8 = 1.4), which
        ``validate`` rejects and which would corrupt the one-uniform-
        draw outcome partition.  The joint clamp saturates drop first
        and keeps every rung valid and drop-monotone in the factor."""
        plan = FaultPlan(link_faults=[LinkFault(0.3, 0.4)])
        factors = [0.0, 0.5, 1.0, 10 / 7, 2.0, 7 / 3, 10 / 3, 4.0, 100.0]
        prev_drop = -1.0
        for f in factors:
            rung = plan.scaled(f)
            rung.validate()                      # sum <= 1.0 always
            rule = (rung.link_faults or [LinkFault()])[0]
            assert rule.drop_prob + rule.corrupt_prob <= 1.0 + 1e-12
            assert rule.drop_prob >= prev_drop   # monotone in factor
            prev_drop = rule.drop_prob
        # Exactly at the boundary factor the pair sums to 1.0.
        edge = plan.scaled(10 / 7).link_faults[0]
        assert edge.drop_prob + edge.corrupt_prob == pytest.approx(1.0)

    def test_scaled_zero_clears_windows(self):
        """Regression: ``scaled(0)`` used to zero the probabilities but
        keep down/stall/pause windows active, so the "baseline" rung of
        a severity ladder still injected faults and its cache key
        diverged from the fault-free row."""
        plan = FaultPlan(
            seed=5,
            link_faults=[LinkFault(0.2, 0.1)],
            link_down=[DownWindow(0.0, 1_000.0)],
            nic_stalls=[NodeWindow(0.0, 500.0, node=1)],
            node_pauses=[NodeWindow(10.0, 20.0)])
        rung = plan.scaled(0)
        assert rung.is_empty()
        assert as_fault_plan(rung) is None
        # Non-fault content survives: seed and transport budget.
        assert rung.seed == plan.seed
        assert rung.transport == plan.transport
        # The original plan is untouched.
        assert plan.link_down and plan.nic_stalls and plan.node_pauses

    def test_as_fault_plan_forms(self, tmp_path):
        assert as_fault_plan(None) is None
        assert as_fault_plan(FaultPlan()) is None          # empty -> None
        plan = drop_plan(0.2)
        assert as_fault_plan(plan) is plan
        assert as_fault_plan(plan.to_dict()) == plan
        path = tmp_path / "p.json"
        plan.save(path)
        assert as_fault_plan(str(path)) == plan
        assert as_fault_plan(path) == plan
        with pytest.raises(ConfigError, match="cannot interpret"):
            as_fault_plan(42)

    def test_as_fault_plan_validates(self):
        with pytest.raises(ConfigError):
            as_fault_plan(FaultPlan(link_faults=[LinkFault(2.0)]))


# ---------------------------------------------------------------------------
# FaultInjector unit behaviour
# ---------------------------------------------------------------------------

def make_injector(plan: FaultPlan) -> FaultInjector:
    return FaultInjector(plan, mesh(2, 2), Simulator())


class TestInjector:
    def test_crossing_stream_is_deterministic(self):
        plan = drop_plan(0.5, seed=9)
        verdicts = []
        for _ in range(2):
            inj = make_injector(plan)
            pkt = _one_packet()
            verdicts.append([inj.crossing(0, 1, pkt) for _ in range(64)])
        assert verdicts[0] == verdicts[1]
        assert "drop" in verdicts[0] and "ok" in verdicts[0]

    def test_streams_are_per_link(self):
        inj = make_injector(drop_plan(0.5, seed=9))
        pkt = _one_packet()
        a = [inj.crossing(0, 1, pkt) for _ in range(32)]
        b = [inj.crossing(1, 0, pkt) for _ in range(32)]
        assert a != b  # independent streams, not one shared sequence

    def test_zero_probability_links_consume_no_draws(self):
        plan = FaultPlan(seed=1,
                         link_faults=[LinkFault(0.9, src=0, dst=1)],
                         link_down=[DownWindow(0.0, 1.0)])
        inj = make_injector(plan)
        pkt = _one_packet(2, 3)
        assert all(inj.crossing(2, 3, pkt) == "ok" for _ in range(16))
        assert (2, 3) not in inj._rngs     # no RNG was ever built
        assert inj.dropped == 0

    def test_last_matching_rule_wins(self):
        plan = FaultPlan(link_faults=[
            LinkFault(drop_prob=1.0),                 # wildcard: always drop
            LinkFault(drop_prob=0.0, src=0, dst=1),   # override one link
        ])
        inj = make_injector(plan)
        assert inj._link_probs(0, 1) == (0.0, 0.0)
        assert inj._link_probs(1, 0) == (1.0, 0.0)

    def test_crossing_corrupt_marks_message(self):
        plan = FaultPlan(seed=1,
                         link_faults=[LinkFault(0.0, 1.0)])  # always corrupt
        inj = make_injector(plan)
        pkt = _one_packet()
        assert inj.crossing(0, 1, pkt) == "corrupt"
        assert pkt.message.corrupted
        assert inj.corrupted == 1 and inj.dropped == 0

    def test_down_delay_windows(self):
        plan = FaultPlan(link_down=[DownWindow(100.0, 200.0, src=0, dst=1),
                                    DownWindow(150.0, 300.0, src=0, dst=1)])
        inj = make_injector(plan)
        assert inj.down_delay(0, 1, 50.0) == 0.0
        assert inj.down_delay(0, 1, 120.0) == 80.0    # second not active yet
        assert inj.down_delay(0, 1, 160.0) == 140.0   # overlap: max end wins
        assert inj.down_delay(0, 1, 250.0) == 50.0
        assert inj.down_delay(0, 1, 300.0) == 0.0
        assert inj.down_delay(1, 0, 120.0) == 0.0     # other link is up

    def test_stall_generator_yields_window_remainder(self):
        plan = FaultPlan(nic_stalls=[NodeWindow(0.0, 100.0, node=2)])
        inj = make_injector(plan)
        gen = inj.stall(2)
        assert next(gen) == 100.0
        gen.close()
        assert inj.summary()["nic_stalls"] == 1
        assert inj.summary()["nic_stall_cycles"] == 100.0
        # A node outside the window is not stalled at all.
        with pytest.raises(StopIteration):
            next(inj.stall(0))

    def test_suspect_links(self):
        plan = FaultPlan(
            link_faults=[LinkFault(drop_prob=1.0, src=0, dst=1)],
            link_down=[DownWindow(10.0, 20.0, src=2, dst=3)])
        inj = make_injector(plan)
        assert inj.suspect_links(15.0) == {(0, 1), (2, 3)}
        assert inj.suspect_links(25.0) == {(0, 1)}


# ---------------------------------------------------------------------------
# End-to-end: transport over a lossy network
# ---------------------------------------------------------------------------

class TestTransportEndToEnd:
    def test_lossy_run_delivers_with_counted_retries(self):
        model, result = run_pingpong(drop_plan(0.4, seed=0), repeats=3)
        t = result.fault_summary["transport"]
        assert t["delivered"] == 6                # 3 repeats x 2 directions
        assert t["delivery_failed"] == 0
        assert result.fault_summary["dropped"] > 0
        assert t["retransmissions"] > 0
        assert result.retransmissions == t["retransmissions"]
        # Every delivery is logged, in delivery order.
        times = [entry[3] for entry in model.transport.delivery_log]
        assert len(times) == 6 and times == sorted(times)
        # Attempts reconcile: one initial attempt per delivery + retries.
        assert t["attempts"] == t["delivered"] + t["retransmissions"]

    def test_fault_free_transport_is_invisible_in_outcome(self):
        plan = drop_plan(0.0)
        plan.link_down = [DownWindow(0.0, 1.0)]   # non-empty, injects ~0
        model, result = run_pingpong(plan)
        t = result.fault_summary["transport"]
        assert t["delivered"] == 4 and t["retransmissions"] == 0
        assert result.delivery_failures == 0

    def test_down_window_delays_but_never_loses(self):
        plan = FaultPlan(link_down=[DownWindow(0.0, 5_000.0)])
        model, result = run_pingpong(plan)
        assert result.fault_summary["down_waits"] > 0
        assert result.fault_summary["transport"]["delivered"] == 4
        _model, baseline = run_pingpong(drop_plan(0.0, corrupt=0.0,
                                                  max_retries=0))
        assert result.total_cycles > baseline.total_cycles

    def test_corruption_is_discarded_and_resent(self):
        plan = drop_plan(0.0, seed=2)
        plan.link_faults = [LinkFault(drop_prob=0.0, corrupt_prob=0.5)]
        model, result = run_pingpong(plan)
        t = result.fault_summary["transport"]
        assert t["delivered"] == 4
        assert t["corrupt_discards"] > 0
        # A corrupt copy never reaches the application: each logical
        # message records exactly one app-level delivery latency, even
        # though the engine carried more physical copies.
        assert result.message_latency.count == 4
        assert result.messages_delivered > 4

    def test_node_pause_stops_the_operation_stream(self):
        plan = FaultPlan(node_pauses=[NodeWindow(0.0, 10_000.0, node=0)])
        _model, result = run_pingpong(plan)
        assert result.fault_summary["node_pauses"] >= 1
        assert result.total_cycles >= 10_000.0

    def test_nic_stall_counts_and_delays(self):
        plan = FaultPlan(nic_stalls=[NodeWindow(0.0, 3_000.0, node=0)])
        _model, result = run_pingpong(plan)
        assert result.fault_summary["nic_stalls"] >= 1
        # The first send reaches the NIC partway into the window (send
        # overhead runs first), so the stall covers the remainder.
        assert 0.0 < result.fault_summary["nic_stall_cycles"] <= 3_000.0

    def test_degraded_routing_rescues_a_dead_link(self):
        plan = FaultPlan(
            seed=1,
            link_faults=[LinkFault(drop_prob=1.0, src=0, dst=1)],
            transport=TransportConfig(timeout_cycles=5_000.0,
                                      backoff_factor=1.0, max_retries=1))
        model, result = run_pingpong(plan, repeats=1)
        t = result.fault_summary["transport"]
        assert t["fallbacks"] >= 1
        assert t["delivered"] == 2
        assert t["delivery_failed"] == 0

    def test_delivery_failed_raises_with_partial_result(self):
        plan = FaultPlan(
            seed=1,
            link_faults=[LinkFault(drop_prob=1.0)],   # every link is dead
            transport=TransportConfig(timeout_cycles=1_000.0,
                                      backoff_factor=1.0, max_retries=1))
        reset_message_ids()
        machine = generic_multicomputer("mesh", (2, 2))
        model = MultiNodeModel(machine, faults=plan)
        traces = pingpong_task_traces(model.n_nodes, size=64, repeats=1, b=1)
        with pytest.raises(DeliveryFailed) as excinfo:
            model.run(list(traces))
        err = excinfo.value
        assert (err.src, err.dst) == (0, 1)
        assert err.attempts == 2                   # 1 + max_retries, no route
        assert err.result is not None              # partial CommResult
        assert err.result.fault_summary["transport"]["delivery_failed"] == 1
        assert model.transport.failures[0]["dst"] == 1

    def test_transport_disabled_drops_are_silent_loss(self):
        # Without the transport a dropped packet is simply gone; the
        # waiting receiver deadlocks — the raw lossy network is usable
        # only through the reliable layer (which is the point).
        from repro.pearl import DeadlockError
        plan = FaultPlan(seed=1, link_faults=[LinkFault(drop_prob=1.0)],
                         transport=TransportConfig(enabled=False))
        reset_message_ids()
        machine = generic_multicomputer("mesh", (2, 2))
        model = MultiNodeModel(machine, faults=plan)
        assert model.transport is None
        traces = pingpong_task_traces(model.n_nodes, size=64, repeats=1, b=1)
        with pytest.raises(DeadlockError):
            model.run(list(traces))
        assert model.injector.dropped > 0


# ---------------------------------------------------------------------------
# Metamorphic properties
# ---------------------------------------------------------------------------

class TestMetamorphic:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           p=st.floats(0.05, 0.5))
    def test_same_seed_same_plan_identical_run(self, seed, p):
        """seed+plan fully determine retries, delivery order, timing."""
        runs = [run_pingpong(drop_plan(p, seed=seed)) for _ in range(2)]
        (m1, r1), (m2, r2) = runs
        assert r1.fault_summary == r2.fault_summary
        assert m1.transport.delivery_log == m2.transport.delivery_log
        assert r1.total_cycles == r2.total_cycles
        assert r1.events_executed == r2.events_executed

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           probs=st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 0.6)))
    def test_raising_drop_probability_is_monotone(self, seed, probs):
        """More loss can only mean more retransmissions, never fewer.

        One uniform draw decides each crossing and the per-link streams
        depend only on (plan seed, link), so raising ``drop_prob`` turns
        some deliveries into drops and no drop back into a delivery.
        Single-hop pingpong keeps draws-per-attempt constant, making the
        whole-run comparison valid.
        """
        lo, hi = sorted(probs)
        _m_lo, r_lo = run_pingpong(drop_plan(lo, seed=seed))
        _m_hi, r_hi = run_pingpong(drop_plan(hi, seed=seed))

        def dropped(result):
            # p == 0.0 normalizes to no plan at all: no fault summary.
            return (result.fault_summary or {}).get("dropped", 0)

        assert r_hi.retransmissions >= r_lo.retransmissions
        assert dropped(r_hi) >= dropped(r_lo)
        assert r_hi.total_cycles >= r_lo.total_cycles

    def test_scaled_zero_equals_fault_free(self):
        plan = drop_plan(0.4)
        assert as_fault_plan(plan.scaled(0.0)) is None

    @pytest.mark.parametrize("kernel", ["seed", "fast"])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           p=st.floats(0.02, 0.25),
           factors=st.lists(st.floats(0.0, 2.4), min_size=2, max_size=3))
    def test_severity_ladder_is_monotone(self, kernel, seed, p, factors):
        """``[plan.scaled(f) for f in ladder]`` is monotone end to end,
        clamp region included, under both kernel dispatchers.

        The rung family covers the whole severity axis: factor 0 (the
        normalized-away baseline), drawn intermediate factors, and a
        factor large enough to clamp ``drop_prob`` to 1.0 (the joint
        clamp zeroes ``corrupt_prob`` there; the dead wire is rescued
        by degraded routing).  The fault rule covers one directed link
        only, so every rung's draws come from one RNG stream and the
        prefix argument from ``test_raising_drop_probability_is_
        monotone`` applies: dropped and retransmissions never decrease
        with severity, delivered messages never increase.
        """
        base = FaultPlan(
            seed=seed,
            link_faults=[LinkFault(drop_prob=p, corrupt_prob=0.1,
                                   src=0, dst=1)],
            transport=TransportConfig(timeout_cycles=50_000.0,
                                      backoff_factor=1.0,
                                      max_retries=200))
        ladder = [0.0, *sorted(factors), 1e6]       # 1e6: clamped rung
        rungs = [base.scaled(f) for f in ladder]
        assert rungs[-1].link_faults[0].drop_prob == 1.0
        assert rungs[-1].link_faults[0].corrupt_prob == 0.0
        rows = []
        with kernel_stack(kernel):
            for rung in rungs:
                model, result = run_pingpong(as_fault_plan(rung))
                assert type(model.sim) is KERNELS[kernel]
                summary = result.fault_summary or {}
                transport = summary.get("transport", {})
                rows.append({
                    "dropped": summary.get("dropped", 0),
                    "retransmissions": result.retransmissions,
                    "delivered": transport.get(
                        "delivered", result.messages_delivered),
                    "failed": result.delivery_failures,
                })
        for lo, hi in zip(rows, rows[1:]):
            assert hi["dropped"] >= lo["dropped"]
            assert hi["retransmissions"] >= lo["retransmissions"]
            assert hi["delivered"] <= lo["delivered"]
        assert all(row["failed"] == 0 for row in rows)
        # The clamped rung really lost traffic and really recovered.
        assert rows[-1]["dropped"] > rows[0]["dropped"]


# ---------------------------------------------------------------------------
# Cross-process reproducibility
# ---------------------------------------------------------------------------

class TestCrossProcess:
    def test_identical_counters_across_processes(self):
        """The same plan produces bit-identical fault counters in
        freshly forked interpreters (the sweep-pool guarantee)."""
        local = faulted_metrics()
        ctx = _mp_context()
        if ctx is None:  # pragma: no cover - non-POSIX platforms
            pytest.skip("no fork start method on this platform")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            remote = [f.result()
                      for f in [pool.submit(faulted_metrics)
                                for _ in range(2)]]
        assert remote[0] == local
        assert remote[1] == local
