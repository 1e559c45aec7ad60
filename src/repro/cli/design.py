"""The design before it runs: ``report``, ``partition``,
``autopartition`` and ``jit``."""

from __future__ import annotations

from pathlib import Path

from ..fireripper import auto_partition
from ..firrtl import parse_circuit, print_circuit
from ..platform import XILINX_U250
from ..service import executor
from .common import TRANSPORTS, job, job_config, spec


def cmd_report(args) -> int:
    config = job_config(args)
    report = executor.compile_design(config).report(
        XILINX_U250, TRANSPORTS[config["transport"]], config["freq"])
    print(report.to_text())
    return 0


def cmd_partition(args) -> int:
    design = executor.compile_design(job_config(args))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in design.partitions.items():
        path = out_dir / f"{name}.fir"
        path.write_text(print_circuit(part))
        print(f"wrote {path}")
    return 0


def cmd_autopartition(args) -> int:
    circuit = parse_circuit(Path(args.circuit).read_text())
    result = auto_partition(circuit, n_fpgas=args.fpgas, mode=args.mode,
                            keep_in_base=args.keep or [])
    print(result.to_text())
    return 0


def cmd_jit(args) -> int:
    from ..harness.stepjit import generate_sources, stepjit_enabled

    sim = executor.build_simulation(job_config(args), record_outputs=True)
    enabled = stepjit_enabled(sim)
    print(f"step-plane JIT: {'enabled' if enabled else 'disabled'} "
          f"(REPRO_STEPJIT)")
    for name, (src, reason) in generate_sources(sim).items():
        if src is None:
            print(f"{name}: interpreted — {reason}")
            continue
        lines = len(src.splitlines())
        print(f"{name}: compiled, {lines} lines")
        kernels = [(prefix + unit.name, kernel)
                   for prefix, unit in sim.partitions[name].units
                   for fns in getattr(unit.sim.elab, "kernels", {}).values()
                   for kernel in fns if kernel is not None]
        for _, kernel in kernels:
            st = kernel._stepjit_stats
            printed = st["cone"] - st["aliases"] - st["inlined"]
            print(f"  kernel {st['kernel']}: {st['cone']} cone assigns -> "
                  f"{printed} printed ({st['aliases']} aliases folded, "
                  f"{st['inlined']} nodes inlined), {st['masks_elided']} "
                  f"masks elided, {st['statements']} statements")
        if args.dump:
            print(src)
            for label, kernel in kernels:
                print(f"# kernel for {label}")
                print(kernel._stepjit_source)
    return 0


def register(subs) -> None:
    p = subs.add_parser("report", parents=job(),
                        help="compile, then print interface widths, U250 fit "
                             "and the expected rate over --transport at "
                             "--freq")
    p.set_defaults(fn=cmd_report)

    p = subs.add_parser("partition", parents=[spec()],
                        help="write per-FPGA circuit files")
    p.add_argument("--out", default="partitions", help="output directory")
    p.set_defaults(fn=cmd_partition)

    p = subs.add_parser("autopartition",
                        help="search for partition boundaries")
    p.add_argument("circuit")
    p.add_argument("--fpgas", type=int, default=2)
    p.add_argument("--mode", choices=["exact", "fast"], default="exact")
    p.add_argument("--keep", action="append", metavar="INSTANCE",
                   help="pin an instance to the base partition")
    p.set_defaults(fn=cmd_autopartition)

    p = subs.add_parser(
        "jit", parents=job(),
        help="explain/dump the compiled step plane for a design")
    p.add_argument("--dump", action="store_true",
                   help="print the generated step-function and RTL-kernel "
                        "sources")
    p.set_defaults(fn=cmd_jit)
