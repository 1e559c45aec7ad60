#!/usr/bin/env python3
"""Quickstart: build a design, partition it with FireRipper, co-simulate.

This walks the paper's core flow end to end on a small SoC:

1. author a target design in the FIRRTL-like IR (a producer-consumer
   pair over a ready-valid link),
2. simulate it monolithically (the FireSim baseline),
3. partition the consumer onto its own "FPGA" with FireRipper in both
   exact-mode and fast-mode,
4. co-simulate over the QSFP transport and compare cycle counts and
   achieved simulation rates.

Run:  python examples/quickstart.py
"""

from repro.firrtl import ModuleBuilder, make_circuit
from repro.fireripper import EXACT, FAST, FireRipper, PartitionGroup, PartitionSpec
from repro.harness import MonolithicSimulation
from repro.platform import QSFP_AURORA, XILINX_U250
from repro.targets import make_rv_consumer, make_rv_producer


def build_design():
    """A producer streaming 30 values to a checksum consumer."""
    producer = make_rv_producer(16, count=30)
    consumer = make_rv_consumer(16, stall_mask=1)  # consumer stalls 50%
    b = ModuleBuilder("QuickstartSoC")
    done = b.output("done", 1)
    checksum = b.output("checksum", 32)
    p = b.inst("producer", producer)
    c = b.inst("consumer", consumer)
    b.connect(c["in_valid"], p["out_valid"])
    b.connect(c["in_bits"], p["out_bits"])
    b.connect(p["out_ready"], c["in_ready"])
    b.connect(done, p["done"])
    b.connect(checksum, c["sum"])
    return make_circuit(b.build(), [producer, consumer])


def main():
    circuit = build_design()
    print(f"design: {circuit.top} with modules {sorted(circuit.modules)}")

    # 1. monolithic baseline
    mono = MonolithicSimulation(circuit, host_freq_mhz=30.0)
    ref = mono.run_until("done", 1)
    print(f"\nmonolithic: done after {ref.target_cycles} cycles, "
          f"checksum={mono.sim.peek('checksum')} "
          f"(rate: {ref.rate_hz / 1e6:.0f} MHz — one FPGA, FMR ~ 1)")

    # 2. partition the consumer out, both modes
    for mode in (EXACT, FAST):
        spec = PartitionSpec(mode=mode, groups=[
            PartitionGroup.make("fpga1", ["consumer"])])
        design = FireRipper(spec).compile(circuit)
        print(f"\n--- {mode}-mode ---")
        print(design.report(XILINX_U250, QSFP_AURORA, 30.0).to_text())

        sim = design.build_simulation(QSFP_AURORA, host_freq_mhz=30.0,
                                      record_outputs=True)

        def stop(s):
            log = s.output_log.get(("base", "io_out"), [])
            return bool(log) and log[-1]["done"] == 1

        sim.run(10_000, stop=stop)
        log = sim.output_log[("base", "io_out")]
        done_cycle = next(i for i, t in enumerate(log) if t["done"])
        # the producer finishes first; run a little longer so the
        # consumer drains the queue tail
        result = sim.run(done_cycle + 40)
        log = sim.output_log[("base", "io_out")]
        checksum = log[-1]["checksum"]
        err = abs(done_cycle - ref.target_cycles) / ref.target_cycles
        print(f"partitioned: done at cycle {done_cycle} "
              f"(cycle error {err:.2%}), checksum={checksum}, "
              f"simulation rate {result.rate_mhz:.2f} MHz, "
              f"{result.tokens_transferred} tokens crossed the link")
        assert checksum == sum(range(1, 31))


if __name__ == "__main__":
    main()
