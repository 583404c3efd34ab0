"""The application-instrumentation API (Section 5).

An instrumented Mermaid application is an ordinary program whose source
has been annotated with calls describing its memory, computational and
communication behaviour.  In this reproduction an application is a
Python function

    def program(ctx: NodeContext) -> None: ...

executed once per node in its own node thread; the :class:`NodeContext`
is the annotation library bound to that thread.  Annotations are
architecture-independent — "they only have to be made once, after which
they can be used to evaluate a wide range of architectures".

Because the host program is real Python, all control flow is evaluated
by the host ("the trace generator evaluates loop and branch-conditions")
and messages may carry real payloads so programs can make data-dependent
decisions; the simulator itself never sees data, only operations.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable, Optional, Sequence

from ..operations.ops import arecv as _arecv_op
from ..operations.ops import asend as _asend_op
from ..operations.ops import recv as _recv_op
from ..operations.ops import send as _send_op
from ..operations.optypes import ArithType, MemType
from ..tracegen.annotate import AnnotationTranslator
from ..tracegen.threads import FunctionalExecutor, InterleavedStream, NodeThread
from ..tracegen.vdt import TargetABI, VarDescriptor

__all__ = ["NodeContext", "ThreadedApplication", "as_application"]


#: (id(code), f_lasti) -> (code, (filename, lineno)): one entry per
#: static call instruction, process-wide, because the line of an
#: instruction is a pure function of its code.  The entry holds the code
#: object, so its id is never reused while the key exists.
_SITES: dict = {}


def _resolve_site(frame) -> tuple:
    """The memo-miss path: a frame's line number is computed by walking
    its code's line table, too slow to pay per annotation."""
    return (frame.f_code.co_filename, frame.f_lineno)


def _caller_site(depth: int = 2):
    """Static code site (filename, lineno) of the annotation call.

    Memoised per call instruction: annotations on one source line share
    one site, as they always have, and each line is resolved once.
    """
    frame = sys._getframe(depth)
    code = frame.f_code
    key = (id(code), frame.f_lasti)
    entry = _SITES.get(key)
    if entry is None:
        entry = _SITES[key] = (code, _resolve_site(frame))
    return entry[1]


class NodeContext:
    """The annotation library bound to one node's trace thread.

    Computational annotations feed the annotation translator (and thus
    the VDT and virtual PC); communication annotations are *global
    events*: they suspend the thread until the simulator has completed
    the operation in simulated time.
    """

    def __init__(self, thread: NodeThread, n_nodes: int,
                 abi: Optional[TargetABI] = None) -> None:
        self._thread = thread
        self.node_id = thread.node_id
        self.n_nodes = n_nodes
        self.translator = AnnotationTranslator(thread.emit, abi)

    # -- variable declarations -------------------------------------------

    def global_var(self, name: str, mem_type: MemType = MemType.FLOAT64,
                   n: int = 1) -> VarDescriptor:
        """Declare a global (data-segment) variable or array."""
        return self.translator.declare_global(name, mem_type, n)

    def local_var(self, name: str, mem_type: MemType = MemType.FLOAT64,
                  n: int = 1) -> VarDescriptor:
        """Declare a local (stack/register) variable or array."""
        return self.translator.declare_local(name, mem_type, n)

    def argument(self, name: str, mem_type: MemType = MemType.FLOAT64,
                 n: int = 1) -> VarDescriptor:
        """Declare a function argument."""
        return self.translator.declare_argument(name, mem_type, n)

    # -- computational annotations -----------------------------------------

    def read(self, var: VarDescriptor, index: int = 0) -> None:
        """Annotate a use of ``var[index]``."""
        self.translator.read(var, index, site=_caller_site())

    def write(self, var: VarDescriptor, index: int = 0) -> None:
        """Annotate an assignment to ``var[index]``."""
        self.translator.write(var, index, site=_caller_site())

    def const(self, mem_type: MemType = MemType.INT32) -> None:
        """Annotate an immediate-constant load."""
        self.translator.const(mem_type, site=_caller_site())

    def add(self, arith_type: ArithType = ArithType.INT,
            count: int = 1) -> None:
        self.translator.arith("add", arith_type, count, site=_caller_site())

    def sub(self, arith_type: ArithType = ArithType.INT,
            count: int = 1) -> None:
        self.translator.arith("sub", arith_type, count, site=_caller_site())

    def mul(self, arith_type: ArithType = ArithType.INT,
            count: int = 1) -> None:
        self.translator.arith("mul", arith_type, count, site=_caller_site())

    def div(self, arith_type: ArithType = ArithType.INT,
            count: int = 1) -> None:
        self.translator.arith("div", arith_type, count, site=_caller_site())

    def flops(self, n: int, kind: str = "mul",
              arith_type: ArithType = ArithType.DOUBLE) -> None:
        """Annotate ``n`` floating-point operations at one site."""
        self.translator.arith(kind, arith_type, n, site=_caller_site())

    def loop(self, iterable: Iterable) -> Iterable:
        """Iterate while annotating the loop back-edge.

        Every iteration after the first emits the taken branch back to
        the loop head, giving the recurring instruction-fetch addresses
        of Section 3.3::

            for i in ctx.loop(range(n)):
                ...
        """
        site = _caller_site()
        first = True
        for item in iterable:
            if not first:
                self.translator.branch(site=site)
            first = False
            yield item

    def function(self, fn: Callable) -> Callable:
        """Decorator: annotate ``fn`` as a procedure (call/ret + VDT scope).

        ::

            @ctx.function
            def body(x):
                ...
        """
        site = (fn.__code__.co_filename, fn.__code__.co_firstlineno)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.translator.call(site=site)
            try:
                return fn(*args, **kwargs)
            finally:
                self.translator.ret(site=site)
        wrapper.__name__ = getattr(fn, "__name__", "annotated")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- communication annotations (global events) ----------------------------

    def send(self, dest: int, nbytes: int, payload: Any = None) -> None:
        """Synchronous send: blocks (in simulated time) until delivered."""
        self._thread.global_event(_send_op(nbytes, dest), payload)

    def recv(self, source: int) -> Any:
        """Synchronous receive; returns the sender's payload."""
        return self._thread.global_event(_recv_op(source))

    def asend(self, dest: int, nbytes: int, payload: Any = None) -> None:
        """Asynchronous send: continues after the software overhead."""
        self._thread.global_event(_asend_op(nbytes, dest), payload)

    def arecv(self, source: int) -> Any:
        """Asynchronous receive; returns a payload or None (not arrived)."""
        return self._thread.global_event(_arecv_op(source))

    def recv_any(self, sources: Optional[Iterable[int]] = None
                 ) -> tuple[int, Any]:
        """Receive from whichever of ``sources`` sends first (occam ALT).

        Defaults to all other nodes.  Returns ``(source, payload)``.
        An extension beyond Table 1 — see
        :class:`repro.commmodel.RecvAnyEvent`.
        """
        from ..commmodel.nic import RecvAnyEvent
        if sources is None:
            sources = [n for n in range(self.n_nodes) if n != self.node_id]
        return self._thread.global_event(RecvAnyEvent(sources))

    # -- collective helpers (built from point-to-point, SPMD style) --------

    def barrier(self, tag_bytes: int = 4) -> None:
        """A central-coordinator barrier over all nodes."""
        if self.n_nodes == 1:
            return
        if self.node_id == 0:
            for peer in range(1, self.n_nodes):
                self.recv(peer)
            for peer in range(1, self.n_nodes):
                self.send(peer, tag_bytes)
        else:
            self.send(0, tag_bytes)
            self.recv(0)

    def broadcast(self, root: int, nbytes: int, payload: Any = None) -> Any:
        """Binomial-tree broadcast; returns the payload on every node."""
        n, me = self.n_nodes, self.node_id
        if n == 1:
            return payload
        rel = (me - root) % n
        value = payload
        mask = 1
        while mask < n:
            if rel & mask:
                value = self.recv((me - mask) % n)
                break
            mask <<= 1
        # Forward to children: ranks rel+m for each m below our own bit.
        mask >>= 1
        while mask > 0:
            if rel + mask < n:
                self.send((me + mask) % n, nbytes, value)
            mask >>= 1
        return value

    def reduce_to_root(self, root: int, nbytes: int,
                       value: float = 0.0,
                       op: Callable[[Any, Any], Any] = None) -> Any:
        """Flat reduction to ``root`` (children send, root combines)."""
        if op is None:
            op = lambda a, b: (a or 0) + (b or 0)
        if self.n_nodes == 1:
            return value
        if self.node_id == root:
            acc = value
            for peer in range(self.n_nodes):
                if peer != root:
                    acc = op(acc, self.recv(peer))
            return acc
        self.send(root, nbytes, value)
        return None

    def scatter(self, root: int, nbytes_each: int,
                values: Optional[Sequence[Any]] = None) -> Any:
        """Root sends one block (and payload) to every other node;
        returns this node's element."""
        if self.n_nodes == 1:
            return values[0] if values else None
        if self.node_id == root:
            if values is not None and len(values) != self.n_nodes:
                raise ValueError(
                    f"scatter needs {self.n_nodes} values, got {len(values)}")
            for peer in range(self.n_nodes):
                if peer != root:
                    self.send(peer, nbytes_each,
                              values[peer] if values else None)
            return values[root] if values else None
        return self.recv(root)

    def gather(self, root: int, nbytes_each: int,
               value: Any = None) -> Optional[list]:
        """Every node sends its block to root; root returns the list."""
        if self.n_nodes == 1:
            return [value]
        if self.node_id == root:
            out: list = [None] * self.n_nodes
            out[root] = value
            for peer in range(self.n_nodes):
                if peer != root:
                    out[peer] = self.recv(peer)
            return out
        self.send(root, nbytes_each, value)
        return None

    def allgather(self, nbytes_each: int, value: Any = None) -> list:
        """Ring allgather: n-1 shifted rounds; returns all values."""
        n, me = self.n_nodes, self.node_id
        out: list = [None] * n
        out[me] = value
        if n == 1:
            return out
        carry = value
        carry_src = me
        right, left = (me + 1) % n, (me - 1) % n
        for _ in range(n - 1):
            if me % 2 == 0:
                self.send(right, nbytes_each, (carry_src, carry))
                carry_src, carry = self.recv(left)
            else:
                incoming = self.recv(left)
                self.send(right, nbytes_each, (carry_src, carry))
                carry_src, carry = incoming
            out[carry_src] = carry
        return out


class ThreadedApplication:
    """An instrumented program ready to drive a simulation.

    ``program`` runs once per node (SPMD); pass a list of callables for
    MPMD.  :meth:`streams` yields the per-node interleaved operation
    streams for execution-driven simulation; :meth:`record` executes the
    program logically and returns static traces (trace-file mode).
    """

    def __init__(self, program, n_nodes: int,
                 abi: Optional[TargetABI] = None) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if callable(program):
            programs: Sequence[Callable] = [program] * n_nodes
        else:
            programs = list(program)
            if len(programs) != n_nodes:
                raise ValueError(
                    f"got {len(programs)} programs for {n_nodes} nodes")
        self.n_nodes = n_nodes
        self.abi = abi
        self._programs = programs

    def _bodies(self):
        def make_body(fn):
            def body(thread: NodeThread) -> None:
                fn(NodeContext(thread, self.n_nodes, self.abi))
            return body
        return [make_body(fn) for fn in self._programs]

    def streams(self) -> list[InterleavedStream]:
        """Fresh per-node interleaved operation streams (one use each)."""
        return [InterleavedStream(NodeThread(i, body))
                for i, body in enumerate(self._bodies())]

    def record(self):
        """Execute logically (no timing) and return the static TraceSet."""
        return FunctionalExecutor(self._bodies()).record()


def as_application(application, n_nodes: int):
    """``application``, with a ``program(ctx)`` callable wrapped into a
    :class:`ThreadedApplication` run SPMD on ``n_nodes`` nodes: the
    one place every execution-driven entry point accepts a bare
    program."""
    if callable(application) and not isinstance(application,
                                                ThreadedApplication):
        return ThreadedApplication(application, n_nodes)
    return application
