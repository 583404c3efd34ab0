"""``repro.vsm`` — virtual shared memory over the multicomputer.

The paper's stated future work (Section 5.1): "we will use a virtual
shared memory in the future to hide all explicit communication."  This
package implements it: a page-based, write-invalidate VSM (IVY-style
fixed distributed manager) whose page faults are global events of the
execution-driven simulation — shared reads/writes in the instrumented
program, message traffic in the simulated machine, no explicit
send/recv at the application level.

:class:`VSMModel` is the hybrid model (:mod:`repro.hybrid`) plus a
:class:`VSMProtocol`: nodes run the hybrid pipeline, and a page fault
reaches the communication model's node driver like a message does,
which hands it to the protocol (so a node pause holds it back too).
"""

from .model import VSMModel, VSMResult
from .protocol import VSMConfig, VSMProtocol, VSMStats
from .runtime import SharedRegion, VSMFault, VSMRuntimeError

__all__ = [
    "SharedRegion", "VSMConfig", "VSMFault", "VSMModel", "VSMProtocol",
    "VSMResult", "VSMRuntimeError", "VSMStats",
]
