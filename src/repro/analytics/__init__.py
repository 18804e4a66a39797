"""Operational data analytics (the "Analyze" layer of Fig. 1).

Lightweight, online-first analytics chosen to match the paper's Section IV
guidance: *"focus should be on careful selection of efficient models and
modeling parameters that fit HPC data"* rather than large models.  Every
estimator here is streaming or cheap to refit, exposes its uncertainty,
and is deterministic given its inputs.

Import from the submodules: ``forecast`` (time-to-completion, the
Scheduler case and E3/E9/E12), ``anomaly`` (the rolling z-score of E1),
``misconfig`` (the rules of the Misconfiguration case), ``similarity``
(run history), ``models`` (the E9 model-size ablation) and
``streaming`` (the estimators they share).  The package re-exports
nothing, so a loop loads only the modules it uses.
"""
