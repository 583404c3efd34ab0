"""Mermaid reproduction — an architecture workbench for multicomputers.

A from-scratch Python reproduction of the Mermaid simulation environment
(Pimentel & Hertzberger, "An Architecture Workbench for Multicomputers",
IPPS 1997): execution-driven multicomputer simulation at the level of
abstract machine instructions, with a fast task-level prototyping mode,
parameterized single-node (CPU/cache/bus/memory) and multi-node
(router/link/topology) architecture templates, stochastic and
annotation-based trace generators, and shared-memory / hybrid
architecture support.

Quick start::

    from repro import Workbench, t805_grid
    from repro.apps import make_pingpong

    wb = Workbench(t805_grid(2, 2))
    result = wb.run_hybrid(make_pingpong(size=4096))
    print(result.total_cycles, result.comm.message_latency.mean)

Package map, lowest layer first (see DESIGN.md for the full
inventory).  A package imports only from the layers below its own, an
order ``tests/test_layers.py`` pins:

1. :mod:`repro.store` (the one on-disk entry store under every cache),
   :mod:`repro.diagnostics` (rule catalogue, ``Diagnostic``/``Report``),
   :mod:`repro.operations` (abstract machine instructions, Table 1),
   :mod:`repro.pearl` (discrete-event simulation kernel)
2. :mod:`repro.config` (machine parameterization: every knob),
   :mod:`repro.observe` (event tracing, Chrome export, metric registry),
   :mod:`repro.tracegen` (stochastic generator, annotation translator)
3. :mod:`repro.compmodel` (single-node computational model),
   :mod:`repro.topology` (interconnect topologies)
4. :mod:`repro.commmodel` (multi-node communication model)
5. :mod:`repro.analysis` (slowdown, timelines, statistics, reports),
   :mod:`repro.apps` (instrumentation API, reference workloads),
   :mod:`repro.check` (static analyzer ``repro check``, sanitizer),
   :mod:`repro.faults` (deterministic fault injection, reliable
   transport), :mod:`repro.hybrid` (the hybrid co-simulation),
   :mod:`repro.machines` (presets, calibration),
   :mod:`repro.sharedmem` (SMP nodes and SMP clusters)
6. :mod:`repro.parallel` (parallel sweeps, result cache, job
   executors), :mod:`repro.vsm` (virtual shared memory)
7. :mod:`repro.bounds` (static performance bounds, ``repro bound``),
   :mod:`repro.chaos` (fault-sweep campaigns with SLO verdicts),
   :mod:`repro.verify` (schedule-space verification, ``repro verify``)
8. :mod:`repro.core` (the Workbench facade, sweeps, records)
9. :mod:`repro.plans` (presets; the job-kind table both front doors read)
10. :mod:`repro.service` (HTTP job server: ``repro serve`` /
    ``submit`` / ``status`` / ``fetch``)
11. :mod:`repro.experiments` (the paper's evaluation, ``repro reproduce``)
12. :mod:`repro.cli` (the ``repro`` command line)

The names below resolve on first use (PEP 562), so ``import
repro.pearl`` loads the kernel and nothing above it.
"""

import importlib
from typing import Any

__version__ = "1.0.0"

#: public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("BusConfig", "CPUConfig", "CacheConfig", "CacheLevelConfig",
         "MachineConfig", "MemoryConfig", "NetworkConfig", "NodeConfig",
         "TopologyConfig"), "repro.config"),
    **dict.fromkeys(("Diagnostic", "Report", "Severity"),
                    "repro.diagnostics"),
    **dict.fromkeys(
        ("CheckError", "DeterminismSanitizer", "check_description",
         "check_machine", "check_traces"), "repro.check"),
    **dict.fromkeys(("CampaignSpec", "ChaosResult", "run_campaign"),
                    "repro.chaos"),
    **dict.fromkeys(("Sweep", "vary_machine"), "repro.core.experiment"),
    "Workbench": "repro.core.workbench",
    **dict.fromkeys(("DeliveryFailed", "FaultPlan"), "repro.faults"),
    **dict.fromkeys(("MetricRegistry", "Tracer"), "repro.observe"),
    **dict.fromkeys(
        ("Executor", "InProcessExecutor", "JobSpec", "LocalAsyncExecutor",
         "ParallelSweepRunner", "ResultCache"), "repro.parallel"),
    **dict.fromkeys(
        ("generic_multicomputer", "powerpc601_node", "smp_node",
         "t805_grid"), "repro.machines.presets"),
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
