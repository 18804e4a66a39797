"""Job similarity over run history.

The Scheduler case requires "a strategy ... to map the application to a
set of measurements of behavioral characteristics to enable comparison
against past and future runs".  :class:`RunHistory` stores completed-run
records with feature vectors and answers k-nearest-neighbour queries in
z-score-normalized feature space; its runtime predictions seed the Plan
phase's prior Knowledge ("might have to be inferred from similar jobs
with different input decks").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class JobRecord:
    """One completed run: identity, features, and outcome."""

    job_id: str
    app_name: str
    features: Mapping[str, float]
    runtime_s: float
    succeeded: bool = True
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.runtime_s < 0:
            raise ValueError("runtime_s must be >= 0")


@dataclass(frozen=True)
class Neighbor:
    """A nearest-neighbour match with its feature-space distance."""

    record: JobRecord
    distance: float


class RunHistory:
    """Store of job records with normalized k-NN lookup.

    Feature vectors may be ragged (different keys per record); queries use
    the intersection of the query's keys and the store's known keys, with
    missing values treated as the feature mean (zero after normalization).
    """

    def __init__(self) -> None:
        self._records: List[JobRecord] = []

    def add(self, record: JobRecord) -> None:
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def records(self, app_name: Optional[str] = None) -> List[JobRecord]:
        if app_name is None:
            return list(self._records)
        return [r for r in self._records if r.app_name == app_name]

    def feature_keys(self) -> List[str]:
        keys: set[str] = set()
        for r in self._records:
            keys.update(r.features)
        return sorted(keys)

    def _matrix(self, records: List[JobRecord], keys: List[str]) -> np.ndarray:
        mat = np.full((len(records), len(keys)), np.nan)
        for i, r in enumerate(records):
            for j, k in enumerate(keys):
                if k in r.features:
                    mat[i, j] = float(r.features[k])
        return mat

    def nearest(
        self,
        query: Mapping[str, float],
        k: int = 5,
        app_name: Optional[str] = None,
    ) -> List[Neighbor]:
        """The ``k`` most similar historical runs (normalized Euclidean)."""
        if k <= 0:
            raise ValueError("k must be positive")
        records = self.records(app_name)
        if not records:
            return []
        keys = self.feature_keys()
        if not keys:
            return []
        mat = self._matrix(records, keys)
        mean = np.nanmean(mat, axis=0)
        std = np.nanstd(mat, axis=0)
        std[~np.isfinite(std) | (std == 0)] = 1.0
        mean[~np.isfinite(mean)] = 0.0
        norm = (np.where(np.isnan(mat), mean, mat) - mean) / std
        q = np.array(
            [(float(query[key]) - mean[j]) / std[j] if key in query else 0.0 for j, key in enumerate(keys)]
        )
        dists = np.sqrt(np.sum((norm - q) ** 2, axis=1))
        order = np.argsort(dists, kind="stable")[:k]
        return [Neighbor(records[i], float(dists[i])) for i in order]

    def predict_runtime(
        self,
        query: Mapping[str, float],
        k: int = 5,
        app_name: Optional[str] = None,
    ) -> Optional[Tuple[float, float]]:
        """Inverse-distance-weighted runtime estimate ``(mean, spread)``.

        ``spread`` is the weighted std of neighbour runtimes — the
        uncertainty a Planner should respect.  ``None`` without history.
        """
        neighbors = self.nearest(query, k=k, app_name=app_name)
        neighbors = [n for n in neighbors if n.record.succeeded]
        if not neighbors:
            return None
        weights = np.array([1.0 / (1.0 + n.distance) for n in neighbors])
        runtimes = np.array([n.record.runtime_s for n in neighbors])
        weights /= weights.sum()
        mean = float(np.sum(weights * runtimes))
        spread = float(np.sqrt(np.sum(weights * (runtimes - mean) ** 2)))
        return mean, spread
