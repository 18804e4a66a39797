"""Model experiments: forecaster ablation (D1) and the Section IV
small-vs-large model claim (experiment E9).
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.analytics.forecast import forecaster_names, make_forecaster
from repro.analytics.models import BatchPolynomialModel, RecursiveLeastSquares
from repro.sim import RngRegistry


def _synthetic_run(rng: np.random.Generator, *, n_markers: int = 120, dt: float = 30.0):
    """A synthetic progress trace with a mid-run slowdown and noise.

    Returns (times, steps, true_completion_time, total_steps).
    """
    rate1 = float(rng.uniform(1.0, 3.0))
    rate2 = rate1 * float(rng.uniform(0.4, 0.8))  # slowdown phase
    switch = int(n_markers * 0.5)
    times, steps = [], []
    step = 0.0
    for i in range(n_markers):
        t = i * dt
        rate = rate1 if i < switch else rate2
        step += rate * dt * float(rng.normal(1.0, 0.05))
        times.append(t)
        steps.append(step)
    total_steps = steps[-1] * 1.5  # forecast target beyond observed data
    remaining = total_steps - steps[-1]
    true_completion = times[-1] + remaining / rate2
    return times, steps, true_completion, total_steps


def run_forecaster_comparison(*, seed: int = 0, n_runs: int = 30) -> List[Dict[str, float]]:
    """Per-forecaster ETA accuracy and cost on drifting progress traces."""
    rngs = RngRegistry(seed=seed)
    rows = []
    for name in forecaster_names():
        errors = []
        widths = []
        t_fit = 0.0
        for run_idx in range(n_runs):
            rng = rngs.fork("trace", run_idx)
            times, steps, true_eta, total = _synthetic_run(rng)
            fc = make_forecaster(name)
            t0 = time.perf_counter()
            for t, s in zip(times, steps):
                fc.update(t, s)
            result = fc.forecast(times[-1], total)
            t_fit += time.perf_counter() - t0
            if result is None:
                continue
            errors.append(abs(result.eta - true_eta) / max(1.0, true_eta - times[-1]))
            widths.append(result.interval_width)
        rows.append(
            {
                "forecaster": name,
                "rel_eta_error": float(np.mean(errors)) if errors else float("nan"),
                "interval_width_s": float(np.mean(widths)) if widths else float("nan"),
                "cost_ms_per_run": t_fit / n_runs * 1e3,
                "n_ok": float(len(errors)),
            }
        )
    return rows


def run_model_ablation(
    *,
    seed: int = 0,
    n_samples: int = 1500,
    drift_at: int = 750,
) -> List[Dict[str, float]]:
    """RLS-with-forgetting vs. batch heavyweight model under drift (E9).

    The stream is ``y = a·x + b`` whose coefficients change at
    ``drift_at``; models are scored on rolling one-step-ahead error and
    per-update wall time.
    """
    rng = RngRegistry(seed=seed).stream("ablation")
    models = {
        "rls-forgetting (small, continual)": RecursiveLeastSquares(1, forgetting=0.98),
        "rls-no-forgetting (small, frozen)": RecursiveLeastSquares(1, forgetting=1.0),
        "batch-poly-8 (large, refit-always)": BatchPolynomialModel(),
    }
    if not 0 < drift_at < n_samples:
        raise ValueError("drift_at must fall inside the stream")
    xs = rng.uniform(0.0, 10.0, size=n_samples)
    noise = rng.normal(0.0, 0.3, size=n_samples)
    # score only the settled second half of each regime
    pre_window = (drift_at // 2, drift_at)
    post_window = (drift_at + (n_samples - drift_at) // 2, n_samples)
    rows = []
    for name, model in models.items():
        post_drift_err: List[float] = []
        pre_drift_err: List[float] = []
        t_update = 0.0
        for i in range(n_samples):
            a, b = (2.0, 1.0) if i < drift_at else (-1.0, 8.0)
            x, y = float(xs[i]), a * float(xs[i]) + b + float(noise[i])
            pred = model.predict([x])
            if pred is not None:
                err = abs(pred - y)
                if pre_window[0] < i < pre_window[1]:
                    pre_drift_err.append(err)
                elif post_window[0] < i:
                    post_drift_err.append(err)
            t0 = time.perf_counter()
            model.update([x], y)
            t_update += time.perf_counter() - t0
        rows.append(
            {
                "model": name,
                "params": float(model.param_count),
                "pre_drift_mae": float(np.mean(pre_drift_err)) if pre_drift_err else float("nan"),
                "post_drift_mae": float(np.mean(post_drift_err)) if post_drift_err else float("nan"),
                "update_us": t_update / n_samples * 1e6,
            }
        )
    return rows
