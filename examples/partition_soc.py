#!/usr/bin/env python3
"""NoC-partition-mode: split a multicore ring SoC across FPGAs by
router indices (the Sec. V-A workflow at example scale).

A six-core ring-NoC SoC (TinyCore tiles streaming to a hub over a
credit-based NoC) is split across three FPGAs by listing router indices —
FireRipper automatically collects the protocol converters and tiles
hanging off each router group, exactly as Fig. 4 describes.

Run:  python examples/partition_soc.py
"""

from repro.fireripper import FAST, FireRipper, NoCPartitionSpec, PartitionSpec
from repro.harness import MonolithicSimulation
from repro.platform import QSFP_AURORA, XILINX_U250
from repro.targets.soc import make_ring_noc_soc

N_TILES = 6
MESSAGES = 4


def main():
    circuit = make_ring_noc_soc(N_TILES, messages_per_tile=MESSAGES)
    stats = circuit.stats()
    print(f"ring SoC: {N_TILES} tiles + hub, "
          f"{stats['modules']} modules, {stats['registers']} registers, "
          f"{stats['memories']} memories")

    mono = MonolithicSimulation(circuit)
    ref = mono.run_until("done", 1, max_cycles=50_000)
    expected = N_TILES * sum(range(1, MESSAGES + 1))
    print(f"monolithic: done at cycle {ref.target_cycles}, "
          f"hub checksum {mono.sim.peek('result')} (expected {expected})")

    # split by router indices: routers 0-2 on one FPGA, 3-5 on another,
    # the hub router and SoC subsystem stay on the base FPGA
    spec = PartitionSpec(mode=FAST,
                         noc=NoCPartitionSpec.make([[0, 1, 2],
                                                    [3, 4, 5]]))
    design = FireRipper(spec).compile(circuit)

    print("\nautomatically selected partition groups:")
    for group, members in sorted(design.extracted.group_members.items()):
        print(f"  {group}: {', '.join(sorted(members))}")
    print()
    print(design.report(XILINX_U250, QSFP_AURORA, 30.0).to_text())

    sim = design.build_simulation(QSFP_AURORA, host_freq_mhz=30.0,
                                  record_outputs=True)

    def stop(s):
        log = s.output_log.get(("base", "io_out"), [])
        return bool(log) and log[-1]["done"] == 1

    result = sim.run(50_000, stop=stop)
    log = sim.output_log[("base", "io_out")]
    done_cycle = next(i for i, t in enumerate(log) if t["done"])
    print(f"\npartitioned across {len(design.partitions)} FPGAs: "
          f"done at cycle {done_cycle}, checksum {log[-1]['result']}, "
          f"rate {result.rate_mhz:.2f} MHz")
    assert log[-1]["result"] == expected


if __name__ == "__main__":
    main()
