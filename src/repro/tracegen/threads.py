"""Node threads and physical-time interleaving (Section 3.1).

"To produce the multiple operation traces that are needed for
simulation, both trace generators model concurrent execution by means of
threads ...  Each thread accounts for the behaviour of one processor (or
node) within the parallel machine.  Whenever a thread encounters a
global event, it is suspended until explicitly resumed by the
simulator."

A :class:`NodeThread` runs one node's instrumented program in a real OS
thread under *strict handoff*: exactly one of (simulator, node thread)
executes at any moment, so trace generation is deterministic.  The
thread runs freely while emitting computational operations (local
instructions cannot be affected by other processors) and suspends at
every global event — a communication operation — until the simulator has
completed that event in simulated time.  The resulting multiprocessor
trace "is exactly the one that would be observed if the application was
actually executed on the target machine".

:class:`InterleavedStream` adapts a suspended/resumed thread to the
operation-iterator interface the architecture models consume, and
:class:`FunctionalExecutor` runs a threaded program *without* any
architecture timing (matching communication logically) — used for trace
recording and tests.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Optional

from ..operations.ops import OpCode, Operation
from ..operations.trace import Trace, TraceSet

__all__ = ["NodeThread", "InterleavedStream", "FunctionalExecutor",
           "ThreadKilled", "TraceGenerationError"]

#: Handoff timeout (seconds).  Generous; only trips on a genuine hang.
_HANDOFF_TIMEOUT = 300.0


class ThreadKilled(BaseException):
    """Raised inside a node thread when the generator is shut down.

    Derives from BaseException so instrumented programs cannot
    accidentally swallow it with ``except Exception``.
    """


class TraceGenerationError(RuntimeError):
    """A node thread misbehaved (crashed, hung, or deadlocked)."""


class NodeThread:
    """One node's trace-generating thread with strict handoff.

    ``body`` is called (in the OS thread) with this NodeThread; it emits
    computational operations via :attr:`emit`, which never suspends, and
    suspends at global events via :meth:`global_event`.  The simulator
    side drives it with :meth:`advance` and reads :attr:`buffer` /
    :attr:`pending_op`.
    """

    def __init__(self, node_id: int,
                 body: Callable[["NodeThread"], None]) -> None:
        self.node_id = node_id
        self._body = body
        self._cond = threading.Condition()
        self._turn = "main"             # "main" | "thread"
        self.state = "new"              # new|running|suspended|finished|failed
        # The buffer is never rebound: ``emit`` is its bound C-level
        # append, the one sink every annotation writes through.
        self.buffer: deque[Operation] = deque()
        self.emit: Callable[[Operation], None] = self.buffer.append
        self.pending_op: Optional[Operation] = None
        self.pending_payload: Any = None
        self._resume_value: Any = None
        self._exc: Optional[BaseException] = None
        self._kill = False
        self._thread = threading.Thread(
            target=self._run, name=f"node-thread-{node_id}", daemon=True)

    # -- thread side --------------------------------------------------------

    def _run(self) -> None:
        with self._cond:
            while self._turn != "thread":
                self._cond.wait()
        try:
            self._body(self)
        except ThreadKilled:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to main side
            self._exc = exc
        with self._cond:
            self.state = "failed" if self._exc is not None else "finished"
            self._turn = "main"
            self._cond.notify_all()

    def global_event(self, op: Operation, payload: Any = None) -> Any:
        """Suspend at a global event until the simulator resumes us.

        Returns the value posted by the simulator (for receives, the
        delivered message payload).

        Accepts Table-1 communication operations or any other object
        that declares ``is_global_event`` (e.g. the VSM layer's page
        faults).
        """
        if not getattr(op, "is_global_event", False):
            raise ValueError(f"{op!r} is not a global event")
        with self._cond:
            self.pending_op = op
            self.pending_payload = payload
            self.state = "suspended"
            self._turn = "main"
            self._cond.notify_all()
            while self._turn != "thread":
                if not self._cond.wait(timeout=_HANDOFF_TIMEOUT):
                    raise ThreadKilled()
            if self._kill:
                raise ThreadKilled()
            self.state = "running"
            value = self._resume_value
            self._resume_value = None
            return value

    # -- simulator side -------------------------------------------------------

    def advance(self, resume_value: Any = None) -> None:
        """Start or resume the thread; block until it suspends or finishes."""
        with self._cond:
            if self.state in ("finished", "failed"):
                raise TraceGenerationError(
                    f"node thread {self.node_id} already {self.state}")
            if self.state == "new":
                self.state = "running"
                self._thread.start()
            else:
                self.pending_op = None
                self.pending_payload = None
            self._resume_value = resume_value
            self._turn = "thread"
            self._cond.notify_all()
            while self._turn != "main":
                if not self._cond.wait(timeout=_HANDOFF_TIMEOUT):
                    raise TraceGenerationError(
                        f"node thread {self.node_id} hung (no handoff in "
                        f"{_HANDOFF_TIMEOUT}s)")
        if self.state == "failed":
            raise TraceGenerationError(
                f"node thread {self.node_id} raised "
                f"{type(self._exc).__name__}: {self._exc}") from self._exc

    def close(self) -> None:
        """Kill a suspended thread (simulation aborted early)."""
        with self._cond:
            if self.state not in ("suspended", "running"):
                return
            self._kill = True
            self._turn = "thread"
            self._cond.notify_all()
        self._thread.join(timeout=10.0)

    @property
    def done(self) -> bool:
        return self.state in ("finished", "failed")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NodeThread {self.node_id} {self.state}>"


class InterleavedStream:
    """Iterator view of a :class:`NodeThread` for the architecture models.

    Yields buffered computational operations, then the pending global
    event exactly once; the *next* ``next()`` after the event resumes the
    thread — i.e. the thread only continues once the simulator has
    finished the event in simulated time (physical-time interleaving).
    Use :meth:`post_result` before that ``next()`` to hand a received
    payload back to the program.
    """

    def __init__(self, thread: NodeThread) -> None:
        self.thread = thread
        self.node = thread.node_id
        self._event_delivered = False
        self._result: Any = None

    def post_result(self, value: Any) -> None:
        """Set the value the suspended thread's global event returns."""
        self._result = value

    def __iter__(self) -> "InterleavedStream":
        return self

    def __next__(self) -> Operation:
        thread = self.thread
        while True:
            if thread.buffer:
                return thread.buffer.popleft()
            if thread.pending_op is not None and not self._event_delivered:
                self._event_delivered = True
                return thread.pending_op
            if thread.done:
                raise StopIteration
            # Either fresh start, or the simulator finished the delivered
            # global event: resume the thread (with any posted result).
            value, self._result = self._result, None
            self._event_delivered = False
            thread.advance(value)

    def chunks(self):
        """Bulk-pull iterator: whole buffered stretches as sequences.

        The thread is suspended whenever the simulator side runs, so
        everything in the buffer already exists — draining it in one
        go cannot run generation ahead of a global event.  Yields each
        buffered stretch as a list, then the pending global event as a
        one-element tuple, with exactly the resume/:meth:`post_result`
        protocol of ``__next__``.  Consuming the flattened chunks is
        equivalent to iterating the stream op by op.
        """
        thread = self.thread
        buffer = thread.buffer
        while True:
            if buffer:
                ops = list(buffer)
                buffer.clear()
                yield ops
            elif thread.pending_op is not None and not self._event_delivered:
                self._event_delivered = True
                yield (thread.pending_op,)
            elif thread.done:
                return
            else:
                value, self._result = self._result, None
                self._event_delivered = False
                thread.advance(value)

    def close(self) -> None:
        self.thread.close()


class FunctionalExecutor:
    """Executes a threaded program logically, with no architecture timing.

    Communication is matched directly between threads (FIFO per ordered
    pair, payloads transferred; sends complete immediately as if
    infinitely buffered), so the executor can *record* complete traces
    for workloads whose control flow does not depend on message timing —
    the paper's trace-file mode.  Detects logical communication deadlock
    (every unfinished thread waiting on a receive with no sender).
    """

    def __init__(self, bodies: list[Callable[[NodeThread], None]]) -> None:
        self.threads = [NodeThread(i, body) for i, body in enumerate(bodies)]
        self.n = len(bodies)

    def record(self) -> TraceSet:
        """Run all threads to completion; returns the full trace set."""
        n = self.n
        threads = self.threads
        traces: list[list[Operation]] = [[] for _ in range(n)]
        # payloads[src][dst]: FIFO of sent payloads awaiting a receive.
        payloads: dict[tuple[int, int], deque] = {}
        # waiting[node] = (acceptable-source set, wants_src_tag) or None.
        waiting: dict[int, Optional[tuple]] = {i: None for i in range(n)}
        runnable = deque(range(n))
        resume_values: dict[int, Any] = {}

        try:
            while runnable:
                node = runnable.popleft()
                thread = threads[node]
                thread.advance(resume_values.pop(node, None))
                traces[node].extend(thread.buffer)
                thread.buffer.clear()
                if thread.done:
                    self._unblock_waiters(waiting, payloads, runnable,
                                          resume_values)
                    continue
                op = thread.pending_op
                traces[node].append(op)
                if op.code in (OpCode.SEND, OpCode.ASEND):
                    key = (node, op.peer)
                    payloads.setdefault(key, deque()).append(
                        thread.pending_payload)
                    runnable.append(node)   # buffered send: never blocks here
                    self._unblock_waiters(waiting, payloads, runnable,
                                          resume_values)
                elif op.code in (OpCode.RECV, OpCode.ARECV):
                    queue = payloads.get((op.peer, node))
                    if queue:
                        resume_values[node] = queue.popleft()
                        runnable.append(node)
                    elif op.code is OpCode.ARECV:
                        # Non-blocking: nothing arrived yet; resume with None.
                        resume_values[node] = None
                        runnable.append(node)
                    else:
                        waiting[node] = (frozenset({op.peer}), False)
                elif getattr(op, "sources", None) is not None:
                    # recv_any extension: take from the lowest-numbered
                    # source with a pending payload, else block on all.
                    for src in sorted(op.sources):
                        queue = payloads.get((src, node))
                        if queue:
                            resume_values[node] = (src, queue.popleft())
                            runnable.append(node)
                            break
                    else:
                        waiting[node] = (frozenset(op.sources), True)
                else:
                    raise TraceGenerationError(
                        f"node {node}: global event {op!r} is not "
                        "recordable (VSM faults and other model-level "
                        "events need a live simulation, not trace-file "
                        "mode)")
            unfinished = [t.node_id for t in threads if not t.done]
            if unfinished:
                raise TraceGenerationError(
                    f"communication deadlock while recording: nodes "
                    f"{unfinished} blocked on receives with no matching "
                    "sends")
        finally:
            for t in threads:
                t.close()
        return TraceSet([Trace(i, ops) for i, ops in enumerate(traces)])

    @staticmethod
    def _unblock_waiters(waiting: dict, payloads: dict, runnable: deque,
                         resume_values: dict) -> None:
        for node, entry in list(waiting.items()):
            if entry is None:
                continue
            sources, wants_tag = entry
            for src in sorted(sources):
                queue = payloads.get((src, node))
                if queue:
                    value = queue.popleft()
                    resume_values[node] = (src, value) if wants_tag \
                        else value
                    waiting[node] = None
                    runnable.append(node)
                    break
