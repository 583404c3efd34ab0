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

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.pearl`      — discrete-event simulation kernel
* :mod:`repro.operations` — abstract machine instructions (Table 1)
* :mod:`repro.tracegen`   — stochastic generator, annotation translator
* :mod:`repro.compmodel`  — single-node computational model
* :mod:`repro.commmodel`  — multi-node communication model
* :mod:`repro.topology`   — interconnect topologies
* :mod:`repro.hybrid`     — the hybrid (accurate-mode) co-simulation
* :mod:`repro.sharedmem`  — SMP nodes and SMP clusters
* :mod:`repro.machines`   — presets (T805 grid, PowerPC 601) + calibration
* :mod:`repro.apps`       — instrumentation API + reference workloads
* :mod:`repro.analysis`   — slowdown, timelines, statistics, reports
* :mod:`repro.core`       — configuration, Workbench facade, experiments
* :mod:`repro.parallel`   — parallel sweep execution, result caching,
  backend-agnostic job executors
* :mod:`repro.service`    — HTTP job server (simulation as a
  service: ``repro serve`` / ``submit`` / ``status`` / ``fetch``)
* :mod:`repro.faults`     — deterministic fault injection + reliable transport
* :mod:`repro.chaos`      — fault-sweep campaigns with SLO verdicts
* :mod:`repro.check`      — static analyzer (``repro check``) + sanitizer
* :mod:`repro.observe`    — event tracing (Chrome export) + metric registry
"""

from .core.config import (
    BusConfig,
    CPUConfig,
    CacheConfig,
    CacheLevelConfig,
    MachineConfig,
    MemoryConfig,
    NetworkConfig,
    NodeConfig,
    TopologyConfig,
)
from .check import (
    CheckError,
    DeterminismSanitizer,
    Diagnostic,
    Report,
    Severity,
    check_description,
    check_machine,
    check_traces,
)
from .chaos import CampaignSpec, ChaosResult, run_campaign
from .core.experiment import Sweep, vary_machine
from .faults import DeliveryFailed, FaultPlan
from .core.workbench import Workbench
from .observe import MetricRegistry, Tracer
from .parallel import (
    Executor,
    InProcessExecutor,
    JobSpec,
    LocalAsyncExecutor,
    ParallelSweepRunner,
    ResultCache,
)
from .machines.presets import (
    generic_multicomputer,
    powerpc601_node,
    smp_node,
    t805_grid,
)

__version__ = "1.0.0"

__all__ = [
    "BusConfig", "CPUConfig", "CacheConfig", "CacheLevelConfig",
    "CampaignSpec", "ChaosResult",
    "CheckError", "DeliveryFailed", "DeterminismSanitizer", "Diagnostic",
    "Executor", "FaultPlan", "InProcessExecutor", "JobSpec",
    "LocalAsyncExecutor", "MachineConfig",
    "MemoryConfig", "MetricRegistry", "NetworkConfig", "NodeConfig",
    "ParallelSweepRunner", "Report", "ResultCache", "Severity", "Sweep",
    "TopologyConfig", "Tracer",
    "Workbench", "__version__", "check_description", "check_machine",
    "check_traces", "generic_multicomputer", "powerpc601_node",
    "run_campaign", "smp_node", "t805_grid", "vary_machine",
]
