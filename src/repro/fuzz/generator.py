"""Seeded random target generator — the scenario mill's front half.

A :class:`Scenario` is the unit of fuzzing: one (circuit,
partition-spec, input-program, seed) tuple, fully determined by
``(seed, index, shape, params, cycles)`` and JSON round-trippable.
:func:`scenario_config` turns it into a normalized job config — the
one description a job has (``repro.service.executor``) — which is what
the oracles run, what a repro file stores, and what the service can
take as a job.

Determinism contract (enforced by tests/fuzz/test_generator.py):

* ``generate_scenario(seed, index)`` draws every choice from
  ``random.Random(f"{seed}/{index}")`` — no global RNG, no ambient
  state,
* ``build_scenario_circuit(scenario)`` uses **no RNG at all**: the
  circuit is a pure function of ``shape`` + ``params``, so shrinking a
  scenario only requires editing ``params``,
* ``derive_spec(scenario)`` re-derives the partition spec from
  ``random.Random(f"{seed}/{index}/spec")`` clamped to the current
  ``params`` — a shrunk scenario (fewer lanes, fewer tiles) always has
  a valid spec without storing one,
* ``scenario_config(scenario)`` is a pure function of the scenario:
  the printed circuit, the derived spec, the transport, the cycle count
  and the seeded fault schedule,
* identical scenarios produce byte-identical circuits across processes
  and ``PYTHONHASHSEED`` values
  (:func:`~repro.firrtl.fingerprint.circuit_fingerprint` pins this).

Shapes compose the existing target builders: ready-valid pipelines and
fan-out forks from ``targets/primitives.py``, ring/torus NoC SoCs and
the star/rocket multi-tile SoCs from ``targets/soc.py``, and the
width-parametric boundary pair of the Fig. 11/12 sweeps.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..fireripper import EXACT, FAST
from ..firrtl import ModuleBuilder, make_circuit, print_circuit
from ..firrtl.circuit import Circuit, Module
from ..targets.primitives import (
    make_queue,
    make_rv_consumer,
    make_rv_producer,
)
from ..targets.soc import (
    make_ring_noc_soc,
    make_rocket_like_soc,
    make_star_soc,
    make_torus_noc_soc,
    make_wide_pair,
)

SCENARIO_FORMAT = "fireaxe-repro-fuzz-scenario"
SCENARIO_VERSION = 1

#: the ``executor.TRANSPORTS`` names a scenario prices its links through
#: (functional results are transport-independent; the timing overlay
#: is not)
_TRANSPORT_CHOICES = ("pcie", "qsfp")

ALL_SHAPES = ("pipeline", "ring", "torus", "star", "widepair", "rocket")


@dataclass(frozen=True)
class GeneratorKnobs:
    """User-facing bounds on what the mill generates."""

    shapes: Tuple[str, ...] = ALL_SHAPES
    max_lanes: int = 3
    max_stages: int = 3
    max_width: int = 32
    max_queue_depth: int = 4
    max_tiles: int = 4
    max_messages: int = 4
    min_cycles: int = 48
    max_cycles: int = 200
    #: upper bound on extracted partition groups per scenario
    max_groups: int = 3

    def __post_init__(self):
        unknown = set(self.shapes) - set(ALL_SHAPES)
        if unknown:
            raise ReproError(
                f"unknown fuzz shapes {sorted(unknown)}; "
                f"pick from {list(ALL_SHAPES)}")
        if not self.shapes:
            raise ReproError("at least one fuzz shape is required")


@dataclass
class Scenario:
    """One fully-determined fuzz scenario."""

    seed: int
    index: int
    shape: str
    params: Dict[str, object]
    cycles: int

    def to_dict(self) -> dict:
        return {
            "format": SCENARIO_FORMAT,
            "version": SCENARIO_VERSION,
            "seed": self.seed,
            "index": self.index,
            "shape": self.shape,
            "params": self.params,
            "cycles": self.cycles,
        }

    @staticmethod
    def from_dict(payload: dict) -> "Scenario":
        if payload.get("format") != SCENARIO_FORMAT:
            raise ReproError(
                f"not a fuzz scenario (format={payload.get('format')!r})")
        if payload.get("version") != SCENARIO_VERSION:
            raise ReproError(
                f"fuzz scenario version {payload.get('version')} "
                f"unsupported (this build reads {SCENARIO_VERSION})")
        return Scenario(seed=payload["seed"], index=payload["index"],
                        shape=payload["shape"],
                        params=dict(payload["params"]),
                        cycles=payload["cycles"])

    @property
    def fingerprint(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def clone(self, **param_updates) -> "Scenario":
        params = json.loads(json.dumps(self.params))
        params.update(param_updates)
        return Scenario(self.seed, self.index, self.shape, params,
                        self.cycles)


# --------------------------------------------------------------------------
# parameter sampling
# --------------------------------------------------------------------------


def _sample_lane(rng: random.Random, knobs: GeneratorKnobs) -> dict:
    width = rng.choice([4, 8, 12, 16, 24, knobs.max_width])
    width = min(width, knobs.max_width)
    n_stages = rng.randint(1, knobs.max_stages)
    depths = [rng.randint(1, knobs.max_queue_depth)
              for _ in range(n_stages)]
    return {
        "width": width,
        "depths": depths,
        "count": rng.randint(2, 10),
        "stall_mask": rng.choice([0, 0, 1, 3]),
    }


def _sample_pipeline(rng: random.Random, knobs: GeneratorKnobs) -> dict:
    lanes = rng.randint(1, knobs.max_lanes)
    uniform = lanes > 1 and rng.random() < 0.5
    if uniform:
        proto = _sample_lane(rng, knobs)
        lane_params = [dict(proto) for _ in range(lanes)]
    else:
        lane_params = [_sample_lane(rng, knobs) for _ in range(lanes)]
    # fan-out (one producer broadcast to every lane) needs equal widths
    fanout = uniform and rng.random() < 0.5
    return {
        "lanes": lane_params,
        "uniform": uniform,
        "fanout": fanout,
        "block": rng.random() < 0.5,
    }


def _sample_fault(rng: random.Random) -> dict:
    """Small, recoverable fault rates for the survivability oracle."""
    return {
        "drop_rate": rng.choice([0.0, 0.01, 0.03]),
        "corrupt_rate": rng.choice([0.0, 0.01, 0.02]),
        "spike_rate": rng.choice([0.0, 0.02]),
    }


def _sample_noc(rng: random.Random, knobs: GeneratorKnobs) -> dict:
    return {"n_tiles": rng.randint(2, knobs.max_tiles),
            "messages": rng.randint(1, knobs.max_messages)}


def _sample_widepair(rng: random.Random, knobs: GeneratorKnobs) -> dict:
    return {"width": rng.choice([8, 16, 24, 32, 48, 64]),
            "comb": rng.random() < 0.4}


def _sample_rocket(rng: random.Random, knobs: GeneratorKnobs) -> dict:
    return {"boot_loops": rng.randint(3, 20),
            "messages": rng.randint(2, 8)}


_SAMPLERS = {
    "pipeline": _sample_pipeline,
    "ring": _sample_noc,
    "torus": _sample_noc,
    "star": _sample_noc,
    "widepair": _sample_widepair,
    "rocket": _sample_rocket,
}


def generate_scenario(seed: int, index: int,
                      knobs: Optional[GeneratorKnobs] = None) -> Scenario:
    """Draw one scenario from the mill; pure function of its inputs."""
    knobs = knobs or GeneratorKnobs()
    rng = random.Random(f"{seed}/{index}")
    shape = rng.choice(sorted(knobs.shapes))
    params = _SAMPLERS[shape](rng, knobs)
    # every shape then draws how its links are priced and faulted
    params.update(transport=rng.choice(_TRANSPORT_CHOICES),
                  fault=_sample_fault(rng), max_groups=knobs.max_groups)
    cycles = rng.randint(knobs.min_cycles, knobs.max_cycles)
    return Scenario(seed=seed, index=index, shape=shape, params=params,
                    cycles=cycles)


# --------------------------------------------------------------------------
# circuit construction (no RNG below this line)
# --------------------------------------------------------------------------


def _make_stage_block(width: int, depths: Sequence[int],
                      name: str) -> Tuple[Module, List[Module]]:
    """A hierarchy wrapper: ``depths`` chained queues behind one
    ready-valid ``in``/``out`` pair, so partition paths can reach
    *inside* a lane (``l0blk.q1``)."""
    b = ModuleBuilder(name)
    inp = b.rv_input("in", width)
    outp = b.rv_output("out", width)
    lib: List[Module] = []
    handles = []
    for j, depth in enumerate(depths):
        q = make_queue(width, depth=depth)
        lib.append(q)
        handles.append(b.inst(f"q{j}", q))
    first = handles[0]
    b.connect(first["enq_valid"], inp.valid)
    b.connect(first["enq_bits"], inp.bits)
    b.connect(inp.ready, first["enq_ready"])
    for j in range(1, len(handles)):
        up, down = handles[j - 1], handles[j]
        b.connect(down["enq_valid"], up["deq_valid"])
        b.connect(down["enq_bits"], up["deq_bits"])
        b.connect(up["deq_ready"], down["enq_ready"])
    last = handles[-1]
    b.connect(outp.valid, last["deq_valid"])
    b.connect(outp.bits, last["deq_bits"])
    b.connect(last["deq_ready"], outp.ready)
    return b.build(), lib


def _build_pipeline(params: dict) -> Circuit:
    lanes: List[dict] = params["lanes"]
    fanout = params["fanout"]
    block = params["block"]
    b = ModuleBuilder("FuzzPipelineTop")
    done = b.output("done", 1)
    library: List[Module] = []

    shared_src = None
    if fanout:
        width = lanes[0]["width"]
        count = lanes[0]["count"]
        pmod = make_rv_producer(width, count)
        library.append(pmod)
        shared_src = b.inst("src", pmod)

    lane_done = []
    lane_in_ready = []
    lane_in = []  # (valid_target, bits_target) of each lane's head
    for i, lane in enumerate(lanes):
        width, count = lane["width"], lane["count"]
        if block:
            bmod, blib = _make_stage_block(
                width, lane["depths"],
                f"FuzzBlock_w{width}_" +
                "d".join(str(d) for d in lane["depths"]))
            library.append(bmod)
            library.extend(blib)
            stage_handles = [b.inst(f"l{i}blk", bmod)]
            head = (stage_handles[0], "in_valid", "in_bits", "in_ready")
            tail = (stage_handles[0], "out_valid", "out_bits",
                    "out_ready")
        else:
            stage_handles = []
            for j, depth in enumerate(lane["depths"]):
                q = make_queue(width, depth=depth)
                library.append(q)
                stage_handles.append(b.inst(f"l{i}q{j}", q))
            for j in range(1, len(stage_handles)):
                up, down = stage_handles[j - 1], stage_handles[j]
                b.connect(down["enq_valid"], up["deq_valid"])
                b.connect(down["enq_bits"], up["deq_bits"])
                b.connect(up["deq_ready"], down["enq_ready"])
            head = (stage_handles[0], "enq_valid", "enq_bits",
                    "enq_ready")
            tail = (stage_handles[-1], "deq_valid", "deq_bits",
                    "deq_ready")

        cmod = make_rv_consumer(width, stall_mask=lane["stall_mask"])
        library.append(cmod)
        sink = b.inst(f"l{i}sink", cmod)
        th, tv, tb, tr = tail[0], tail[1], tail[2], tail[3]
        b.connect(sink["in_valid"], th[tv])
        b.connect(sink["in_bits"], th[tb])
        b.connect(th[tr], sink["in_ready"])
        b.connect(b.output(f"sum{i}", 32), sink["sum"])
        lane_done.append(sink["received"].read().eq(count))

        hh, hv, hb, hr = head[0], head[1], head[2], head[3]
        if fanout:
            lane_in_ready.append(hh[hr].read())
            lane_in.append((hh, hv, hb))
        else:
            pmod = make_rv_producer(width, count)
            library.append(pmod)
            src = b.inst(f"l{i}src", pmod)
            b.connect(hh[hv], src["out_valid"])
            b.connect(hh[hb], src["out_bits"])
            b.connect(src["out_ready"], hh[hr])

    if fanout:
        all_ready = lane_in_ready[0]
        for r in lane_in_ready[1:]:
            all_ready = all_ready & r
        b.connect(shared_src["out_ready"], all_ready)
        for hh, hv, hb in lane_in:
            b.connect(hh[hv],
                      shared_src["out_valid"].read() & all_ready)
            b.connect(hh[hb], shared_src["out_bits"])

    done_sig = lane_done[0]
    for term in lane_done[1:]:
        done_sig = done_sig & term
    b.connect(done, done_sig)
    return make_circuit(b.build(), library)


def build_scenario_circuit(scenario: Scenario) -> Circuit:
    """The scenario's target RTL; a pure function of shape + params."""
    params = scenario.params
    if scenario.shape == "pipeline":
        return _build_pipeline(params)
    if scenario.shape == "ring":
        return make_ring_noc_soc(params["n_tiles"],
                                 messages_per_tile=params["messages"])
    if scenario.shape == "torus":
        return make_torus_noc_soc(params["n_tiles"],
                                  messages_per_tile=params["messages"])
    if scenario.shape == "star":
        return make_star_soc(params["n_tiles"],
                             messages_per_tile=params["messages"])
    if scenario.shape == "widepair":
        return make_wide_pair(params["width"],
                              comb_boundary=params["comb"])
    if scenario.shape == "rocket":
        return make_rocket_like_soc(boot_loops=params["boot_loops"],
                                    messages=params["messages"])
    raise ReproError(f"unknown fuzz shape {scenario.shape!r}")


# --------------------------------------------------------------------------
# partition-spec derivation
# --------------------------------------------------------------------------


def _pipeline_units(params: dict) -> List[List[str]]:
    """Per-lane candidate instance paths, source to sink."""
    units = []
    for i, lane in enumerate(params["lanes"]):
        row = []
        if not params["fanout"]:
            row.append(f"l{i}src")
        if params["block"]:
            row.append(f"l{i}blk")
        else:
            row.extend(f"l{i}q{j}" for j in range(len(lane["depths"])))
        row.append(f"l{i}sink")
        units.append(row)
    return units


def _derive_pipeline_spec(rng: random.Random, params: dict) -> dict:
    lanes = _pipeline_units(params)
    max_groups = min(params.get("max_groups", 3), len(lanes) * 2)
    n_groups = rng.randint(1, max(1, max_groups))
    groups: List[List[str]] = []
    used: set = set()
    whole_lane_groups = []
    for gi in range(n_groups):
        free_lanes = [i for i in range(len(lanes))
                      if not any(p in used for p in lanes[i])]
        if not free_lanes:
            break
        li = rng.choice(free_lanes)
        row = lanes[li]
        style = rng.choice(["lane", "tail", "stage"])
        if style == "lane" and len(row) <= 4:
            paths = list(row)
            whole_lane_groups.append((gi, li))
        elif style == "tail":
            cut = rng.randint(1, len(row) - 1)
            paths = row[cut:]
        else:
            paths = [rng.choice(row)]
        used.update(paths)
        groups.append(paths)
    spec: Dict[str, object] = {
        "mode": rng.choice([EXACT, EXACT, FAST]),
        "extract": groups,
    }
    # FAME-5 merge: only whole-lane groups of identical lanes qualify
    if (params["uniform"] and not params["fanout"]
            and len(whole_lane_groups) >= 2 and rng.random() < 0.5
            and spec["mode"] == EXACT):
        spec["fame5"] = {
            "m0": [f"fpga{gi}" for gi, _ in whole_lane_groups]}
    return spec


def _derive_noc_spec(rng: random.Random, params: dict) -> dict:
    """Contiguous, disjoint router-index groups (hub router stays in
    the base partition)."""
    n_tiles = params["n_tiles"]
    n_groups = rng.randint(1, min(2, params.get("max_groups", 3),
                                  n_tiles))
    indices = list(range(n_tiles))
    groups = []
    cursor = 0
    for _ in range(n_groups):
        if cursor >= n_tiles:
            break
        size = rng.randint(1, min(2, n_tiles - cursor))
        start = rng.randint(cursor, n_tiles - size)
        groups.append(indices[start:start + size])
        cursor = start + size
    return {"mode": rng.choice([EXACT, FAST]), "noc": groups}


def _derive_star_spec(rng: random.Random, params: dict) -> dict:
    n_tiles = params["n_tiles"]
    max_groups = min(params.get("max_groups", 3), n_tiles)
    n_groups = rng.randint(1, max_groups)
    tiles = sorted(rng.sample(range(n_tiles), n_groups))
    spec: Dict[str, object] = {
        "mode": EXACT,
        "extract": [[f"tile{i}"] for i in tiles],
    }
    if n_groups >= 2 and rng.random() < 0.5:
        spec["fame5"] = {"m0": [f"fpga{gi}" for gi in range(n_groups)]}
    return spec


def _derive_widepair_spec(rng: random.Random, params: dict) -> dict:
    mode = EXACT if params["comb"] else rng.choice([EXACT, FAST])
    return {"mode": mode, "extract": [["right"]]}


def _derive_rocket_spec(rng: random.Random, params: dict) -> dict:
    return {"mode": rng.choice([EXACT, FAST]),
            "extract": [["rockettile"]]}


_SPEC_DERIVERS = {
    "pipeline": _derive_pipeline_spec,
    "ring": _derive_noc_spec,
    "torus": _derive_noc_spec,
    "star": _derive_star_spec,
    "widepair": _derive_widepair_spec,
    "rocket": _derive_rocket_spec,
}


def derive_spec(scenario: Scenario) -> dict:
    """The scenario's partition spec in job-config terms: ``mode``,
    ``extract`` or ``noc``, and an optional ``fame5`` merge.

    Deterministic: drawn from ``Random(f"{seed}/{index}/spec")`` and
    clamped to the current params, so shrinking params keeps the spec
    valid without persisting it.
    """
    rng = random.Random(f"{scenario.seed}/{scenario.index}/spec")
    return _SPEC_DERIVERS[scenario.shape](rng, scenario.params)


def num_partitions(scenario: Scenario) -> int:
    """Extracted groups plus the base partition (before FAME-5
    merging) — the "tile count" the shrinker minimizes."""
    desc = derive_spec(scenario)
    return len(desc.get("noc") or desc["extract"]) + 1


def scenario_config(scenario: Scenario) -> dict:
    """The scenario as a normalized ``simulate`` job config.

    ``faults`` carries the scenario's seeded schedule (seed
    ``seed * 1_000_003 + index``) and is absent when every rate is
    zero; the faults oracle hardens links over it, the others run the
    config without it.
    """
    # imported here: see ``oracle._executor``
    from ..service.executor import normalize_config
    config = {
        "kind": "simulate",
        "circuit_text": print_circuit(build_scenario_circuit(scenario)),
        **derive_spec(scenario),
        "transport": scenario.params["transport"],
        "cycles": scenario.cycles,
    }
    fault = scenario.params.get("fault") or {}
    if any(fault.values()):
        config["faults"] = {
            "seed": scenario.seed * 1_000_003 + scenario.index, **fault}
    return normalize_config(config)


# --------------------------------------------------------------------------
# shrinking candidates (used by fuzz.shrink)
# --------------------------------------------------------------------------


def _shrunk_lane(lane: dict) -> Iterator[dict]:
    if len(lane["depths"]) > 1:
        yield {**lane, "depths": lane["depths"][:-1]}
    if lane["width"] > 4:
        yield {**lane, "width": max(4, lane["width"] // 2)}
    if lane["count"] > 1:
        yield {**lane, "count": max(1, lane["count"] // 2)}
    if lane["stall_mask"]:
        yield {**lane, "stall_mask": 0}


def shrink_candidates(scenario: Scenario) -> Iterator[Scenario]:
    """Strictly-smaller variants of ``scenario``, most aggressive
    first.  Every candidate is itself a valid scenario."""
    params = scenario.params
    if params.get("max_groups", 1) > 1:
        yield scenario.clone(max_groups=1)
    if scenario.shape == "pipeline":
        lanes = params["lanes"]
        if len(lanes) > 1:
            yield scenario.clone(lanes=lanes[:-1],
                                 fanout=False)
        for i, lane in enumerate(lanes):
            for smaller in _shrunk_lane(lane):
                new_lanes = list(lanes)
                new_lanes[i] = smaller
                yield scenario.clone(lanes=new_lanes, uniform=False,
                                     fanout=False)
        if params["fanout"]:
            yield scenario.clone(fanout=False)
        if params["block"]:
            yield scenario.clone(block=False)
    elif scenario.shape in ("ring", "torus", "star"):
        if params["n_tiles"] > 2:
            yield scenario.clone(n_tiles=params["n_tiles"] - 1)
        if params["messages"] > 1:
            yield scenario.clone(messages=params["messages"] // 2 or 1)
    elif scenario.shape == "widepair":
        if params["width"] > 8:
            yield scenario.clone(width=max(8, params["width"] // 2))
        if params["comb"]:
            yield scenario.clone(comb=False)
    elif scenario.shape == "rocket":
        if params["boot_loops"] > 1:
            yield scenario.clone(
                boot_loops=max(1, params["boot_loops"] // 2))
        if params["messages"] > 2:
            yield scenario.clone(
                messages=max(2, params["messages"] // 2))
    if scenario.cycles > 24:
        shorter = scenario.clone()
        shorter.cycles = max(24, scenario.cycles // 2)
        yield shorter
