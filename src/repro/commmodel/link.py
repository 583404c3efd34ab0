"""Communication links — the physical channels between routers.

Each unidirectional link has a bandwidth (bytes per cycle), a wire
latency (cycles per hop), and one kernel resource per virtual channel
for contention.  Utilization and traffic statistics feed the analysis
tools and the F3b network-sweep benchmark.
"""

from __future__ import annotations

from ..config import NetworkConfig
from ..pearl import Resource, Simulator

__all__ = ["Link"]


class Link:
    """One unidirectional link with ``n_vcs`` virtual channels."""

    __slots__ = ("sim", "src", "dst", "bandwidth", "latency", "vcs",
                 "packets", "bytes_moved", "busy_cycles")

    def __init__(self, sim: Simulator, src: int, dst: int,
                 cfg: NetworkConfig, n_vcs: int = 1,
                 bandwidth_scale: float = 1.0) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        # Fat links (fat-tree upper levels) carry a capacity multiplier.
        self.bandwidth = cfg.link_bandwidth * bandwidth_scale
        self.latency = cfg.link_latency
        self.vcs = [Resource(sim, 1, f"link{src}->{dst}/vc{i}")
                    for i in range(n_vcs)]
        self.packets = 0
        self.bytes_moved = 0
        self.busy_cycles = 0.0

    def transfer_cycles(self, nbytes: int) -> float:
        """Serialization time for ``nbytes`` at this link's bandwidth."""
        return nbytes / self.bandwidth

    def account(self, nbytes: int, busy: float) -> None:
        """Record one packet's traffic (called by the switching engine)."""
        self.packets += 1
        self.bytes_moved += nbytes
        self.busy_cycles += busy

    def cross_faults(self, injector, pkt):
        """Consult the fault injector for one packet crossing this link.

        Generator (``yield from`` inside a switching-engine transfer
        process): waits out any down window first — the wire is dead,
        the packet is not — then draws the drop/corrupt verdict for
        this crossing.  Returns ``"ok"``, ``"drop"``, or ``"corrupt"``.
        """
        sim = self.sim
        while True:
            delay = injector.down_delay(self.src, self.dst, sim.now)
            if delay <= 0.0:
                break
            injector.record_down_wait(self.src, self.dst, delay, pkt)
            yield delay
        return injector.crossing(self.src, self.dst, pkt)

    def utilization(self, horizon: float) -> float:
        """Busy fraction over ``horizon`` cycles."""
        return self.busy_cycles / horizon if horizon > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Link {self.src}->{self.dst} pkts={self.packets} "
                f"bytes={self.bytes_moved}>")
