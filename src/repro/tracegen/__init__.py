"""``repro.tracegen`` — trace generation (application → architecture).

The two Mermaid trace generators and their machinery:

* :class:`StochasticGenerator` — synthetic traces from probabilistic
  application descriptions (fast prototyping);
* :class:`AnnotationTranslator` + :class:`VariableDescriptorTable` —
  on-the-fly translation of program annotations (accurate modelling);
* :class:`NodeThread` / :class:`InterleavedStream` — the threaded,
  physical-time-interleaved execution that keeps multiprocessor traces
  valid under simulator control.
"""

from .annotate import AnnotationTranslator
from .descriptions import (
    CommunicationBehaviour,
    InstructionMix,
    MemoryBehaviour,
    StochasticAppDescription,
)
from .presets import (
    WORKLOAD_CLASSES,
    comm_bound_class,
    dense_linear_algebra_class,
    irregular_class,
    stencil_class,
    stochastic_task_traces,
    sweep_workload_id,
    traces_from_workload_id,
    workload_description,
)
from .stochastic import StochasticGenerator
from .threads import (
    FunctionalExecutor,
    InterleavedStream,
    NodeThread,
    ThreadKilled,
    TraceGenerationError,
)
from .vdt import (
    TargetABI,
    VarDescriptor,
    VariableDescriptorTable,
    VarKind,
    VDTError,
)

__all__ = [
    "AnnotationTranslator", "CommunicationBehaviour", "FunctionalExecutor",
    "InstructionMix", "InterleavedStream", "MemoryBehaviour", "NodeThread",
    "StochasticAppDescription", "StochasticGenerator", "TargetABI",
    "WORKLOAD_CLASSES", "comm_bound_class", "dense_linear_algebra_class",
    "irregular_class", "stencil_class", "stochastic_task_traces",
    "sweep_workload_id", "traces_from_workload_id", "workload_description",
    "ThreadKilled", "TraceGenerationError", "VDTError", "VarDescriptor",
    "VariableDescriptorTable", "VarKind",
]
