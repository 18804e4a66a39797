"""Declarative query model for the metric serving layer.

A :class:`MetricQuery` names *what* to compute — metric, label
selection, time range, bin step, aggregator, and grouping — and leaves
*how* (raw scan vs. rollup tier, caching) to the engine.  Queries have a
canonical compact string form::

    mean(node_cpu_util{node=~"n0.*"}[300s] by 30s) group by (node)

which :func:`repro.query.parser.parse_query` round-trips.

Semantics (shared by the engine and the brute-force reference):

* **Selection** — series of ``metric`` whose labels satisfy every
  matcher (``=``, ``!=``, ``=~``, ``!~``; regexes are fully anchored).
* **Grouping** — matching series partition by their ``group_by`` label
  values (missing label → ``""``); empty ``group_by`` pools everything
  into one output series.
* **Range queries** (``step_s`` set) use half-open bins aligned to the
  absolute time grid: bin ``k`` covers ``[k·step, (k+1)·step)`` and the
  evaluated window is every bin overlapping ``[t0, t1]``.  Grid
  alignment is what makes rollup-tier serving exact.
* **Instant queries** (``step_s`` unset) aggregate the inclusive window
  ``[t0, t1]`` into a single value stamped at ``t0``.
* **Aggregation** pools samples across the group's series (``mean``,
  ``sum``, ``min``, ``max``, ``count``, ``last``, ``p50/p95/p99``), or
  for ``rate`` sums per-series counter-reset-aware increase rates.
* Empty bins and sample-less groups are dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, FrozenSet, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.query.kernels import ALL_AGGS
from repro.telemetry.metric import SeriesKey

if TYPE_CHECKING:
    from repro.telemetry.tsdb import LabelIndex

#: Every aggregator a query may name (kernel aggs plus counter rate).
QUERY_AGGS = ALL_AGGS + ("rate",)

_MATCH_OPS = ("=", "!=", "=~", "!~")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: a regex that is really just ``lit1|lit2|...`` — no metacharacters
_LITERAL_ALT_RE = re.compile(r"[A-Za-z0-9_:-]+(?:\|[A-Za-z0-9_:-]+)*\Z")


@lru_cache(maxsize=4096)
def _literal_alternates(pattern: str) -> Optional[FrozenSet[str]]:
    """The alternate set of a pure literal alternation, else ``None``.

    Selection regexes from watch fleets are overwhelmingly literal
    alternations of member names; fullmatch against one is exactly set
    membership, which turns the per-series regex engine call into a
    hash lookup."""
    if _LITERAL_ALT_RE.match(pattern):
        return frozenset(pattern.split("|"))
    return None


@dataclass(frozen=True)
class LabelMatcher:
    """One label constraint: ``name op "value"``."""

    name: str
    op: str
    value: str

    def __post_init__(self) -> None:
        if self.op not in _MATCH_OPS:
            raise ValueError(f"unknown matcher op {self.op!r}; choose from {_MATCH_OPS}")
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid label name {self.name!r}")
        if self.op in ("=~", "!~"):
            try:
                re.compile(self.value)
            except re.error as exc:
                raise ValueError(f"invalid regex {self.value!r}: {exc}") from None

    def matches(self, label_value: Optional[str]) -> bool:
        """Test one series' label value (``None`` = label absent → "")."""
        actual = label_value if label_value is not None else ""
        if self.op == "=":
            return actual == self.value
        if self.op == "!=":
            return actual != self.value
        alts = _literal_alternates(self.value)
        if alts is not None:
            matched = actual in alts
        else:
            matched = re.fullmatch(self.value, actual) is not None
        return matched if self.op == "=~" else not matched

    def accepts(self, code_of: Mapping[str, int]) -> Tuple[List[int], bool]:
        """:meth:`matches` over a label's distinct values at once.

        ``code_of`` maps every value the label takes (absent → ``""``) to
        its code; returns ``(codes, negated)`` — a series matches when
        its code is among ``codes``, or is not if ``negated``.  Equality
        and literal alternations are dict lookups, any other regex one
        compiled ``fullmatch`` per distinct value.
        """
        if self.op in ("=", "!="):
            wanted: Iterable[str] = (self.value,)
        else:
            wanted = _literal_alternates(self.value)
        if wanted is not None:
            codes = [code_of[value] for value in wanted if value in code_of]
        else:
            fullmatch = re.compile(self.value).fullmatch
            codes = [code for value, code in code_of.items() if fullmatch(value)]
        return codes, self.op in ("!=", "!~")

    def __str__(self) -> str:
        return f'{self.name}{self.op}"{self.value}"'


@dataclass(frozen=True)
class MetricQuery:
    """A declarative metric query (see module docstring for semantics)."""

    metric: str
    agg: str = "mean"
    matchers: Tuple[LabelMatcher, ...] = ()
    range_s: Optional[float] = None  # window length; None = full retention
    step_s: Optional[float] = None  # bin width; None = instant query
    group_by: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.metric):
            raise ValueError(f"invalid metric name {self.metric!r}")
        if self.agg not in QUERY_AGGS:
            raise ValueError(f"unknown aggregator {self.agg!r}; choose from {sorted(QUERY_AGGS)}")
        if self.range_s is not None and self.range_s <= 0:
            raise ValueError("range_s must be positive")
        if self.step_s is not None and self.step_s <= 0:
            raise ValueError("step_s must be positive")
        for name in self.group_by:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid group_by label {name!r}")

    def __hash__(self) -> int:
        # memoised: a loop's query is a key of the plan, cache, shape and
        # standing lookups of every read, and its fields never change
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.metric, self.agg, self.matchers, self.range_s, self.step_s,
                      self.group_by))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # string hashes are salted per process: never ship the memo
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    # ----------------------------------------------------------- selection
    def matches(self, key: SeriesKey) -> bool:
        """Whether one series key satisfies metric name and all matchers."""
        if key.metric != self.metric:
            return False
        return all(m.matches(key.label(m.name)) for m in self.matchers)

    def positions(self, index: "LabelIndex") -> np.ndarray:
        """Ascending positions in ``index`` — this metric's — of the
        series satisfying all matchers: :meth:`matches` per distinct
        label value instead of per key.  The first positive matcher
        narrows through the postings, the others filter what is left."""
        pos: Optional[np.ndarray] = None
        filters = []
        for m in self.matchers:
            column = index.column(m.name)
            codes, negated = m.accepts(column.code_of)
            if pos is None and not negated:
                pos = column.positions(codes)
            else:
                ok = np.full(len(column.values), negated)
                ok[codes] = not negated
                filters.append((column.codes, ok))
        if pos is None:
            pos = np.arange(len(index.keys))
        for codes, ok in filters:
            pos = pos[ok[codes[pos]]]
        return pos

    def group_key(self, key: SeriesKey) -> Tuple[Tuple[str, str], ...]:
        """The output-series identity of one input series."""
        return tuple((name, key.label(name) or "") for name in self.group_by)

    # ---------------------------------------------------------- canonical
    def to_expr(self) -> str:
        """Canonical compact string form (parses back to an equal query)."""
        sel = self.metric
        if self.matchers:
            sel += "{" + ",".join(str(m) for m in self.matchers) + "}"
        if self.range_s is not None:
            sel += f"[{_fmt_seconds(self.range_s)}]"
        if self.step_s is not None:
            sel += f" by {_fmt_seconds(self.step_s)}"
        expr = f"{self.agg}({sel})"
        if self.group_by:
            expr += " group by (" + ",".join(self.group_by) + ")"
        return expr

    def __str__(self) -> str:
        return self.to_expr()


def _fmt_seconds(seconds: float) -> str:
    """Render a duration compactly (``90.0`` → ``"90s"``)."""
    if seconds == int(seconds):
        return f"{int(seconds)}s"
    return f"{seconds}s"
