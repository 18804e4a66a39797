"""Parallel-filesystem substrate (Lustre-like).

Models the managed system of the paper's OST and I/O-QoS use cases:
object storage targets (OSTs) with health states, striped files, a
shared-bandwidth contention model, and token-bucket QoS shaping per
tenant.

The actuator surface matches the paper: per-OST health is observable
through achieved-bandwidth telemetry, files can be closed and re-opened
on different OSTs (``restripe``), and QoS parameters are adjustable at
run time.
"""

from repro.storage.ost import OST, OstState
from repro.storage.qos import QoSManager, TokenBucket
from repro.storage.filesystem import ParallelFileSystem, StripedFile, Transfer
from repro.storage.client import AppIoClient, PeriodicWriter

__all__ = [
    "AppIoClient",
    "OST",
    "OstState",
    "ParallelFileSystem",
    "PeriodicWriter",
    "QoSManager",
    "StripedFile",
    "TokenBucket",
    "Transfer",
]
