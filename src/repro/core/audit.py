"""Audit trail with explanations.

Trust (methodology question iv) and the human-on-the-loop pattern
(Section IV) both require that every autonomous decision leaves an
explainable record: what was decided, when, why, and with what
confidence.  ``AuditTrail`` is that record.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional


@dataclass(frozen=True)
class AuditEvent:
    """One audited decision or notification."""

    time: float
    loop: str
    phase: str  # "plan" | "execute" | "notify" | "veto" | ...
    message: str
    data: Mapping[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable one-liner for operator consoles."""
        return f"[t={self.time:.1f}] {self.loop}/{self.phase}: {self.message}"


class AuditTrail:
    """Append-only audit log with simple filtering."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: oldest first; a full trail evicts its oldest event in O(1)
        self.events: Deque[AuditEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def record(
        self,
        time: float,
        loop: str,
        phase: str,
        message: str,
        data: Optional[Mapping[str, Any]] = None,
    ) -> AuditEvent:
        event = AuditEvent(time, loop, phase, message, dict(data or {}))
        if len(self.events) == self.capacity:
            self.dropped += 1  # the append below pushes the oldest out
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def by_phase(self, phase: str) -> List[AuditEvent]:
        return [e for e in self.events if e.phase == phase]

    def since(self, t: float) -> List[AuditEvent]:
        return [e for e in self.events if e.time >= t]

    def tail(self, n: int = 10) -> List[AuditEvent]:
        return list(self.events)[-n:]

    def flight_dumps(self) -> List[AuditEvent]:
        """Events that carry a flight-recorder dump reference.

        Fleet interventions (``restart_loop`` / ``quarantine_loop``)
        attach the id of the span-ring snapshot taken at the moment of
        the decision (see :mod:`repro.obs.flight`); this surfaces them
        so an operator can go from "what was done" to "what led to it".
        """
        return [e for e in self.events if "flight_dump" in e.data]

    def stats(self) -> Dict[str, float]:
        return {"events": float(len(self.events)), "dropped": float(self.dropped)}
