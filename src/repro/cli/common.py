"""What the noun modules share: one argparse parent per fact, the
``args`` -> normalized job config step, and two status lines.

A job is described once — the normalized config of
:func:`repro.service.executor.normalize_config` — and every verb that
builds a simulation parses its flags into that config
(:func:`job_config`) and builds through
``executor.build_simulation(config, **sinks)``.

Each fact is a *function* returning a fresh parent parser: argparse
shares a parent's actions with every child, so one verb's
``set_defaults(cycles=200)`` would otherwise move every verb's default.
"""

from __future__ import annotations

from argparse import ArgumentParser

from ..service.executor import (
    FARM_DEFAULTS,
    SIMULATE_DEFAULTS as JOB,
    TRANSPORTS,
    normalize_config,
)


def spec(required=True):
    """Which circuit, cut where, in which mode (optional for ``trace``
    and ``submit``, which have a spelling without a circuit)."""
    p = ArgumentParser(add_help=False)
    p.add_argument("circuit", nargs=None if required else "?",
                   help="circuit file in the textual IR")
    p.add_argument("--extract", action="append", required=required,
                   metavar="PATHS", help="comma-separated instance paths "
                                         "for one FPGA (repeatable)")
    p.add_argument("--mode", choices=["exact", "fast"], default=JOB["mode"])
    return p


def link():
    p = ArgumentParser(add_help=False)
    p.add_argument("--transport", choices=TRANSPORTS,
                   default=JOB["transport"])
    p.add_argument("--freq", type=float, default=JOB["freq"],
                   help="bitstream frequency in MHz")
    return p


def job(required=True):
    """The parents of a verb that builds a simulation."""
    return [spec(required), link()]


def cycles():
    p = ArgumentParser(add_help=False)
    p.add_argument("--cycles", type=int, default=JOB["cycles"])
    return p


def backend():
    p = ArgumentParser(add_help=False)
    p.add_argument("--backend", choices=["auto", "inproc", "process"],
                   default=JOB["backend"],
                   help="'process' runs one OS worker per partition "
                        "(default: auto, honouring REPRO_BACKEND)")
    return p


def server():
    p = ArgumentParser(add_help=False)
    p.add_argument("--server", default="127.0.0.1", metavar="HOST[:PORT]",
                   help="service endpoint (default: 127.0.0.1:8642)")
    return p


def runs_dir():
    p = ArgumentParser(add_help=False)
    p.add_argument("--runs-dir", default="results/runs",
                   help="run registry directory (default: %(default)s)")
    return p


def placement():
    p = ArgumentParser(add_help=False)
    p.add_argument("--hosts", required=True,
                   help="farm host manifest (examples/farm_hosts.json)")
    p.add_argument("--colocate", action="append", metavar="PART,PART[,...]",
                   help="partitions that must share a host (repeatable)")
    return p


def supervision():
    p = ArgumentParser(add_help=False)
    p.add_argument("--checkpoint-every", type=int,
                   default=FARM_DEFAULTS["checkpoint_every"],
                   help="target cycles between supervisor checkpoints")
    p.add_argument("--max-rollbacks", type=int, default=3)
    return p


#: the ``args`` attributes that are job-config keys of the same name
_JOB_FACTS = ("circuit", "extract", "mode", "transport", "freq", "cycles",
              "backend")


def raw_job(args, kind="simulate", **more) -> dict:
    """The job config ``args`` spells, before normalisation: only the
    facts the verb's parser declares (the rest are defaults, filled
    once, by :func:`normalize_config`)."""
    raw = {"kind": kind, **more}
    raw.update((key, getattr(args, key)) for key in _JOB_FACTS
               if hasattr(args, key))
    return raw


def job_config(args, kind="simulate", **more) -> dict:
    return normalize_config(raw_job(args, kind, **more))


def print_step_plane(sim) -> None:
    """How much of the run the compiled step plane carried — the first
    thing to read when a run is slower than expected."""
    report = sim.last_jit_report
    compiled = sum(v.startswith("compiled") for v in report.values())
    print(f"step plane: {compiled}/{len(report)} partition(s) "
          f"compiled ('repro jit' explains the rest)")


def print_live(payload: dict) -> None:
    """One line of an in-flight run's live status."""
    frontier = payload.get("frontier_cycle", 0)
    target = payload.get("target_cycles")
    progress = (f" / {target} ({frontier / target * 100.0:.1f}%)"
                if target else "")
    print(f"[{payload.get('backend', '?')}] "
          f"cycle {frontier}{progress}  "
          f"rate {payload.get('rate_hz', 0.0) / 1e3:.2f} kHz  "
          f"{payload.get('status', '?')}")
