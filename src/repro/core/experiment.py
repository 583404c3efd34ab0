"""Design-space experiments: parameter sweeps over machine configs.

The workbench's purpose is "the evaluation of a wide range of
architectural design tradeoffs"; a :class:`Sweep` varies one or more
machine parameters across values, runs the same workload on each
variant, and collects metric rows for the report/benchmark layer.
"""

from __future__ import annotations

import copy
import functools
import itertools
from typing import Any, Callable, Iterable, Sequence

from ..config import MachineConfig

__all__ = ["Sweep", "vary_machine"]

Mutator = Callable[[MachineConfig, Any], None]
Runner = Callable[[MachineConfig], dict]


def vary_machine(base: MachineConfig, mutator: Mutator,
                 values: Iterable[Any]) -> list[MachineConfig]:
    """One machine variant per value; the base config is never mutated.

    ``mutator(machine, value)`` edits the deep-copied variant in place;
    each variant is re-validated.
    """
    variants = []
    for value in values:
        machine = copy.deepcopy(base)
        mutator(machine, value)
        machine.validate()
        variants.append(machine)
    return variants


class _AxisSetter:
    """Picklable axis mutator: set one ``dotted.path`` of the config."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __call__(self, machine: MachineConfig, value: Any) -> None:
        *parents, leaf = self.path.split(".")
        target = functools.reduce(getattr, parents, machine)
        getattr(target, leaf)          # a typo must not grow a new field
        setattr(target, leaf, value)


class Sweep:
    """A one-or-more-axis parameter sweep.

    ::

        sweep = Sweep(base_machine)
        sweep.axis("l1_kib", set_l1_size, [8, 16, 32, 64])
        rows = sweep.run(lambda m: {"cycles": wb(m).run_...})
    """

    def __init__(self, base: MachineConfig, label: str = "") -> None:
        base.validate()
        self.base = base
        self.label = label or base.name
        self._axes: list[tuple[str, Mutator, Sequence[Any]]] = []

    def axis(self, name: str, mutator: Mutator,
             values: Sequence[Any]) -> "Sweep":
        """Add a sweep axis (axes combine as a cross product).

        A name may appear once: a second axis on it would overwrite
        the first one's values at every point.
        """
        if not values:
            raise ValueError(f"axis {name!r} has no values")
        if any(name == axis_name for axis_name, _, _ in self._axes):
            raise ValueError(f"axis {name!r} is already in the sweep")
        self._axes.append((name, mutator, list(values)))
        return self

    def points(self, validate: bool = True) -> list[tuple[dict,
                                                          MachineConfig]]:
        """All (coordinates, machine-variant) pairs of the cross product.

        The first axis varies slowest.  Each variant is one deep copy of
        the base with every axis's mutator applied in axis order.
        ``validate=True`` (the default) raises on the first invalid
        variant; :meth:`run` passes ``False`` because the job it
        submits pre-flights every variant it has to simulate, so one
        sick config becomes an error row, not an aborted sweep.
        """
        names = [name for name, _, _ in self._axes]
        points = []
        for combo in itertools.product(*(values
                                         for _, _, values in self._axes)):
            machine = copy.deepcopy(self.base)
            for (_, mutator, _), value in zip(self._axes, combo):
                mutator(machine, value)
            points.append((dict(zip(names, combo)), machine))
        if validate:
            for _, machine in points:
                machine.validate()
        return points

    def run(self, runner: Runner, *, workers: int | None = None,
            cache: Any = None, workload_id: str | None = None,
            on_error: str = "capture", progress: Any = None,
            timing: bool = False, faults: Any = None,
            executor: Any = None) -> list[dict]:
        """Run ``runner(machine) -> metrics`` at every point.

        Returns one row per point: sweep coordinates merged with the
        runner's metric dict.  Rows always come back in point order.
        They run as one job (:func:`repro.parallel.run_cached_sweep`),
        which statically analyzes every variant it has no cached row
        for before the pool sees it: a failing one is a ``CheckError:
        ...`` row in milliseconds, not a crash mid-simulation.

        ``workers``
            fan the points out over that many worker processes
            (``None``/1 = serial, in-process).  The Pearl kernel is
            deterministic, so parallel rows are identical to serial
            ones (``tests/test_parallel_sweep.py`` asserts this).  A
            variant that kills its worker process is retried on a fresh
            one, then reported as a ``WorkerCrashed`` error row — the
            sweep and the calling process survive it.
        ``cache``
            a :class:`repro.parallel.ResultCache` (or a directory
            path) keyed by ``(machine, workload id, code version)``;
            variants with a cached row are not simulated again.
        ``workload_id``
            cache-key component naming the workload; defaults to the
            runner's qualified name.
        ``on_error``
            ``"capture"`` (default) turns a variant failure (at
            pre-flight or at run time) into a ``{**coords, "error":
            "Type: msg"}`` row so one sick config cannot lose the rest
            of an overnight sweep; ``"raise"`` aborts with
            :class:`repro.parallel.SweepVariantError`.
        ``progress``
            ``progress(done, total, row)`` callback fired as each row
            resolves: hits and pre-flight failures in point order
            during the scan, then executed variants.
        ``timing``
            add a nondeterministic ``wall_time_s`` column to executed
            rows (opt-in; see
            :meth:`repro.parallel.ParallelSweepRunner.run`).
        ``faults``
            a :class:`repro.faults.FaultPlan` (or plan dict / path to a
            plan JSON file) applied to every variant, **or a sequence
            of plans** — fault severity then becomes the outermost
            sweep axis: the plan x point product runs as one job
            (``progress`` counts over all of it, pre-flight runs once
            per point) and rows gain a leading ``faults`` coordinate
            (the plan's name, or ``planN``).  The runner must accept a
            ``faults=`` keyword (forward it to ``Workbench``/
            ``MultiNodeModel``); cache keys incorporate the plan
            digest, so faulty rows never collide with fault-free ones.
            Empty plans are normalized away and behave exactly like
            ``faults=None``.
        ``executor``
            a :class:`repro.parallel.Executor` to submit the points to
            as a job — e.g. a shared one with its own time budget.
            Mutually exclusive with ``workers`` (the executor names its
            own size).  Either way the variants run on the process's
            pool: forked on the first miss and reused until the process
            exits, so code patched in the parent after the fork is not
            seen by the workers.
        """
        from ..faults import as_fault_plan
        from ..parallel import ParallelSweepRunner
        if isinstance(faults, (list, tuple)):
            plans = [as_fault_plan(item) for item in faults]
            labels = [{"faults": plan.name if plan is not None and plan.name
                       else f"plan{i}"} for i, plan in enumerate(plans)]
        else:
            plans, labels = [as_fault_plan(faults)], [{}]
        # The plan x point product, plan-major: one job, whatever the
        # number of plans; the plans share each point's machine.
        points = self.points(validate=False)
        product = [({**label, **coords}, machine, plan)
                   for label, plan in zip(labels, plans)
                   for coords, machine in points]
        if workers is None and executor is None:
            workers = 1               # a bare Sweep.run is serial
        pool = ParallelSweepRunner(workers=workers, cache=cache,
                                   executor=executor)
        return pool.run(runner, product, workload_id=workload_id,
                        on_error=on_error, progress=progress, timing=timing)
