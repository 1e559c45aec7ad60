"""Reliability subsystem for long partitioned runs.

FireAxe's flagship result — an RTL bug caught three billion cycles into
a 5-FPGA run — lives or dies by the plumbing around the simulation:
links hiccup, hosts stall, and lost progress on a multi-day run is lost
wall-clock time.  This package makes partitioned runs survivable and
lets degraded links be studied as an experiment axis:

* :mod:`~repro.reliability.checkpoint` — capture/restore a whole
  :class:`~repro.harness.partitioned.PartitionedSimulation` (LI-BDN and
  FAME-5 channel state, timing cursors, credit queues) to a versioned
  on-disk format,
* :mod:`~repro.reliability.faults` — seeded deterministic injection of
  token drops, bit corruption, latency spikes, and link flaps beneath
  any transport model,
* :mod:`~repro.reliability.link` — a CRC + sequence-number + ack/retry
  link layer whose recoveries are priced through the timing overlay, so
  faults degrade the achieved rate instead of the results,
* :mod:`~repro.reliability.supervisor` — periodic checkpoints, progress
  heartbeats, and rollback/resume around a full run.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    capture_state,
    load_checkpoint,
    restore_checkpoint,
    restore_state,
    save_checkpoint,
)
from .faults import (
    AttemptOutcome,
    FaultInjector,
    FaultSpec,
    FaultyTransport,
    corrupt_word,
    word_crc,
)
from .link import (
    ReliableLinkConfig,
    ReliableLinkLayer,
    harden_links,
    inject_faults,
)
from .supervisor import (
    InjectedCrash,
    RunSupervisor,
    SupervisorEvent,
    SupervisorReport,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "capture_state",
    "restore_state",
    "save_checkpoint",
    "load_checkpoint",
    "restore_checkpoint",
    "FaultSpec",
    "FaultInjector",
    "FaultyTransport",
    "AttemptOutcome",
    "word_crc",
    "corrupt_word",
    "ReliableLinkConfig",
    "ReliableLinkLayer",
    "harden_links",
    "inject_faults",
    "RunSupervisor",
    "SupervisorReport",
    "SupervisorEvent",
    "InjectedCrash",
]
