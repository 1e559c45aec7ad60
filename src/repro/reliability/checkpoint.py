"""Checkpoint/restore of a whole :class:`PartitionedSimulation`, and
the one statement of *which partition owns which state*.

Everything that determines the rest of a partitioned run is owned by
exactly one partition; :func:`partition_state` /
:func:`load_partition_state` are the only place that rule is written:

* the partition's own timing cursor (``busy_until``), FMR span
  accumulators and LI-BDN host state — simulator signals/memories/
  cycle, channel queues, fire-FSM flags, outbox — for plain and FAME-5
  hosts alike,
* the **transmit side** of every link it sources: ``tokens`` /
  ``next_free`` / ``busy_ns``, the reliable-link layer (sequence
  numbers, stats), the switch fabric the link departs through, and
  the credit-read cursor ``consume_base`` (how far this link's credit
  lookups have trimmed its destination's consume-time queue — only a
  channel's sole feeder trims, so the cursor is that link's),
* the **receive side** of every link it terminates (``depth_hist``)
  and, for every channel it holds, the pending arrival times, the
  consume-time (credit return) queue and the recorded output tokens,
* its slice of an enabled telemetry session.

A checkpoint is a header (format, version, topology fingerprint), that
state for every partition, and the run totals; a process-backend worker
fragment (:mod:`repro.parallel.worker`) is that state for the one
partition the worker ran.  Both land through
:func:`load_partition_state`, so a field added here is captured,
restored, shipped and merged — or none of them.

The on-disk format is versioned JSON (layout version 2; version 1
documents are refused by the version check).  :func:`restore_state`
validates a topology fingerprint so a checkpoint can only land on a
structurally identical simulation — the intended flow is to rebuild
the simulation from the same design in a fresh process, then restore.
Token sources are *not* captured: they are pure functions of the
target cycle and are rebuilt with the simulation.  Fault schedules
replay identically after restore because they are derived from
``(seed, link, seq, attempt)``, not from RNG state.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Union

from ..errors import CheckpointError
from ..firrtl.fingerprint import elaboration_fingerprint
from ..harness.partitioned import PartitionedSimulation

CHECKPOINT_FORMAT = "fireaxe-repro-partitioned-checkpoint"
CHECKPOINT_VERSION = 2

#: transmit-side cursors of a link / its switch, saved by attribute
_LINK_CURSORS = ("tokens", "next_free", "busy_ns")
_SWITCH_CURSORS = ("next_free", "tokens")


def _topology(sim: PartitionedSimulation) -> dict:
    return {
        "partitions": {
            name: {
                "units": [prefix for prefix, _ in p.units],
                # elaborated-RTL digest per unit: a checkpoint may only
                # land on the same flattened design, not merely one
                # with matching channel names
                "rtl": [elaboration_fingerprint(unit.sim.elab)
                        for _, unit in p.units],
                "in_channels": sorted(p.channel_names("in")),
                "out_channels": sorted(p.channel_names("out")),
            }
            for name, p in sim.partitions.items()
        },
        "links": [[list(l.src), list(l.dst)] for l in sim.links],
        "channel_capacity": sim.channel_capacity,
    }


def _copy_tokens(tokens) -> list:
    return [dict(token) for token in tokens]


def partition_state(sim: PartitionedSimulation, name: str) -> dict:
    """The JSON-serializable state partition ``name`` owns (the
    ownership rule is the module docstring's)."""
    part = sim.partitions[name]

    def held(table, copy=list) -> dict:
        return {chan: copy(values)
                for (holder, chan), values in table.items()
                if holder == name}

    links_tx, links_rx = {}, {}
    for index, link in enumerate(sim.links):
        if link.src[0] == name:
            entry = {f: getattr(link, f) for f in _LINK_CURSORS}
            entry["reliability"] = (
                link.reliability.state_dict()
                if link.reliability is not None else None)
            switch = link.hooks.switch
            entry["switch"] = (
                {f: getattr(switch, f) for f in _SWITCH_CURSORS}
                if switch is not None else None)
            entry["consume_base"] = sim._consume_base.get(link.dst, 0)
            links_tx[str(index)] = entry
        if link.dst[0] == name:
            links_rx[str(index)] = {
                "depth_hist": {str(depth): count for depth, count
                               in link.depth_hist.items()}}
    state = {
        "busy_until": part.busy_until,
        "spans": part.hooks.spans.as_dict(),
        "host": part.host.state_dict(),
        "links_tx": links_tx,
        "links_rx": links_rx,
        "arrivals": held(sim._arrivals),
        "consume_times": held(sim._consume_times),
        "output_log": held(sim.output_log, _copy_tokens),
    }
    if sim.telemetry.enabled:
        state["telemetry"] = sim.telemetry.state_dict(name)
    return state


def load_partition_state(sim: PartitionedSimulation, name: str,
                         state: dict) -> None:
    """Overlay a :func:`partition_state` snapshot of ``name`` onto
    ``sim``, replacing everything that partition owns and nothing
    else — queues, envs and histograms wholesale, so the compiled
    plane bound to the old ones is dropped here (DESIGN "The compiled
    step plane")."""
    sim._plane = None
    part = sim.partitions[name]
    part.busy_until = state["busy_until"]
    part.host.load_state_dict(state["host"])
    spans = part.hooks.spans
    spans.reset()
    for component, ns in state["spans"].items():
        setattr(spans, f"{component}_ns", ns)
    for index, entry in state["links_tx"].items():
        link = sim.links[int(index)]
        for field in _LINK_CURSORS:
            setattr(link, field, entry[field])
        if entry["reliability"] is not None:
            if link.reliability is None:
                raise CheckpointError(
                    f"saved state expects a reliable link layer on "
                    f"{link.key}; harden the links before restoring")
            link.reliability.load_state_dict(entry["reliability"])
        switch = link.hooks.switch
        if (entry["switch"] is None) != (switch is None):
            raise CheckpointError(
                f"saved state and simulation disagree about a switch "
                f"fabric on {link.key}")
        if switch is not None:
            for field in _SWITCH_CURSORS:
                setattr(switch, field, entry["switch"][field])
        sim._consume_base[link.dst] = entry["consume_base"]
    for index, entry in state["links_rx"].items():
        sim.links[int(index)].depth_hist = {
            int(depth): count
            for depth, count in entry["depth_hist"].items()}
    for key, table, make in (
            ("arrivals", sim._arrivals, deque),
            ("consume_times", sim._consume_times, deque),
            ("output_log", sim.output_log, _copy_tokens)):
        for stale in [k for k in table if k[0] == name]:
            del table[stale]
        for chan, values in state[key].items():
            table[(name, chan)] = make(values)
    if "telemetry" in state and sim.telemetry.enabled:
        sim.telemetry.merge_worker(name, state["telemetry"])


def capture_state(sim: PartitionedSimulation) -> dict:
    """Snapshot ``sim`` into a JSON-serializable dict."""
    state = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "topology": _topology(sim),
        "partitions": {name: partition_state(sim, name)
                       for name in sim.partitions},
        "total_tokens": sim.total_tokens,
        "dropped_tokens": sim.dropped_tokens,
    }
    if sim.telemetry.enabled:
        # the session-wide remainder; loading it also clears anything
        # sampled past the checkpoint before the partition slices land
        state["telemetry"] = {
            "sampler": {"interval": sim.telemetry.sample_every}}
    return state


def restore_state(sim: PartitionedSimulation, state: dict) -> None:
    """Load a :func:`capture_state` snapshot onto a freshly built,
    structurally identical simulation."""
    if state.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a partitioned-simulation checkpoint "
            f"(format={state.get('format')!r})")
    if state.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {state.get('version')} unsupported "
            f"(this build reads version {CHECKPOINT_VERSION})")
    if state["topology"] != _topology(sim):
        raise CheckpointError(
            "checkpoint topology does not match this simulation "
            "(different partitions, channels, links, or capacity)")
    if "telemetry" in state and sim.telemetry.enabled:
        sim.telemetry.load_state_dict(state["telemetry"])
    for name, part_state in state["partitions"].items():
        load_partition_state(sim, name, part_state)
    sim.total_tokens = state["total_tokens"]
    sim.dropped_tokens = state["dropped_tokens"]


def write_checkpoint(state: dict, path: Union[str, Path]) -> Path:
    """Write an already captured ``state`` to ``path`` as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(state))
    tmp.replace(path)  # atomic: a crash mid-write never truncates
    return path


def save_checkpoint(sim: PartitionedSimulation,
                    path: Union[str, Path]) -> Path:
    """Capture ``sim`` and write it to ``path`` as JSON."""
    return write_checkpoint(capture_state(sim), path)


def load_checkpoint(path: Union[str, Path]) -> dict:
    """Read and structurally validate a checkpoint file."""
    try:
        state = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
    if not isinstance(state, dict) \
            or state.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path} is not a partitioned-simulation checkpoint")
    return state


def restore_checkpoint(sim: PartitionedSimulation,
                       path: Union[str, Path]) -> None:
    """Load ``path`` and restore it onto ``sim``."""
    restore_state(sim, load_checkpoint(path))
