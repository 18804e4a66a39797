"""Shared benchmark helpers.

Every benchmark regenerates one experiment of the README's experiment
list (the table in ``repro.experiments.runner``; ``repro list``), asserts
the *shape* the paper predicts (who wins, by roughly what factor), and
prints the result table (visible with ``pytest -s`` or in the captured
output block of a failure).
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Time one full scenario execution and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
