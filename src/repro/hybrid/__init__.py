"""``repro.hybrid`` — the hybrid model (Fig 2): accurate co-simulation.

Replicated single-node computational models feed computational tasks
and communication operations to the multi-node communication model,
with execution-driven trace generation interleaved into the same event
kernel (physical-time interleaving).

:func:`make_node_pipeline` is the one node pipeline of every
execution-driven and trace-driven hybrid run (computational model,
task extraction, the communication model's node driver); a layer that
adds global events of its own, such as :mod:`repro.vsm`'s page faults,
registers a handler with the network instead of driving the nodes
itself.
"""

from .model import HybridModel, HybridResult
from .scheduler import make_node_pipeline, stream_hooks

__all__ = ["HybridModel", "HybridResult", "make_node_pipeline",
           "stream_hooks"]
