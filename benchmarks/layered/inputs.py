"""Every input the benchmark feeds the program, generated from ``--seed``.

The same seed gives the same inputs; the program under test sees only
what this module returns.  The seed picks the stochastic generators'
seeds, the sweep runner's seed, and the order of the service clients'
requests.  It never changes *how much* work an op holds (sizes, point
counts and round counts are fixed here), so runs with different seeds
measure the same load and their timings are comparable.

Sizes are about a third of the ones sketched in ISSUE.md: an op has to
be short enough that a 20 s window holds a few dozen of them, or the
medians the driver compares are too noisy on a two-core sandbox.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator

__all__ = ["DETAILED", "SERVICE", "SWEEP", "TASKLEVEL", "derive",
           "service_requests", "sweep_axes"]

ENGINES = ("store_and_forward", "virtual_cut_through", "wormhole")

#: detailed_mix: three instrumented apps on t805_grid(4,4) plus one
#: instruction-level stochastic run on t805_grid(2,2)
DETAILED = {
    "grid": (4, 4), "matmul_n": 16, "jacobi_grid": 32,
    "jacobi_iterations": 2, "fft_points_per_node": 64,
    "stochastic_grid": (2, 2), "stochastic_ops_per_node": 5000,
}

#: tasklevel_comm: pre-generated task-level traces on a 4x4 mesh
TASKLEVEL = {
    "dims": (4, 4), "alltoall_block_bytes": 2048, "alltoall_rounds": 1,
    "pingpong_bytes": 4096, "pingpong_repeats": 50, "stencil_rounds": 50,
}

#: sweep_cold / sweep_warm: the CLI's stencil runner over generic-mesh.
#: A stochastic trace's event count moves by +-10 % with its seed, so
#: sweep_cold cycles through ``cold_seeds`` runner seeds, one per op:
#: every run then times the same mixture of op sizes whatever --seed
#: is.  sweep_warm only reads rows, whose cost does not depend on them.
SWEEP = {
    "preset": "generic-mesh", "workload": "stencil",
    "cold_rounds": 4, "cold_seeds": 8, "warm_rounds": 10,
    "cold_bandwidths": (1.0, 4.0, 16.0),
    "warm_bandwidths": (1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
    "cold_packets": (64, 256), "warm_packets": (64, 128, 256, 512),
}

#: service_jobs: one job is a 16-point sweep.  A 4-point warm job
#: finishes within a GIL hand-off of the client's first status poll, so
#: whether it costs 3 ms or a whole 0.2 s poll interval is a coin toss
#: that makes ops/s bistable; 16 cache reads settle it on the slow side.
SERVICE = {
    "preset": "generic-mesh", "workload": "stencil", "rounds": 4,
    "axes": ("network.link_bandwidth=1,2,4,8,16,32,64,128",
             "network.switching=store_and_forward,wormhole"),
    "points": 8 * 2, "clients": 2, "server_workers": 2,
}


def derive(seed: int, label: str) -> int:
    """A stable 31-bit sub-seed of ``seed`` for the input named ``label``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def sweep_axes(warm: bool) -> list[tuple[str, list]]:
    """``(dotted path, values)`` per axis; cold is 18 points, warm 72."""
    key = "warm" if warm else "cold"
    return [("network.link_bandwidth", list(SWEEP[f"{key}_bandwidths"])),
            ("network.packet_bytes", list(SWEEP[f"{key}_packets"])),
            ("network.switching", list(ENGINES))]


def service_requests(seed: int, client: int) -> Iterator[tuple[dict, bool]]:
    """Client ``client``'s endless request stream: ``(request, warm)``.

    Even ops submit a stochastic seed the server has never seen (cold);
    odd ops repeat one of this client's own earlier requests (warm),
    which one being drawn from an RNG seeded by ``--seed``.
    """
    rng = random.Random(derive(seed, f"service-order-{client}"))
    base = derive(seed, f"service-cold-{client}")
    sent: list[dict] = []
    while True:
        request = {
            "kind": "sweep", "preset": SERVICE["preset"],
            "axes": list(SERVICE["axes"]), "workload": SERVICE["workload"],
            "rounds": SERVICE["rounds"], "seed": base + len(sent),
            "tenant": f"tenant{client}",
        }
        sent.append(request)
        yield request, False
        yield dict(rng.choice(sent)), True
