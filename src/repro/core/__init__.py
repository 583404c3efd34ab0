"""``repro.core`` — the workbench facade and experiments.

The paper's primary contribution packaged for use: the top-level
:class:`~repro.core.workbench.Workbench` covering every simulation
mode, parameter sweeps (:class:`~repro.core.experiment.Sweep`), and
persistable experiment records (:mod:`~repro.core.results`).  Machine
parameterization is the leaf module :mod:`repro.config`.
"""
