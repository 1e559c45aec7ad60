"""The scenario mill: seeded random targets + differential fuzzing.

Closes the loop the paper's validation section opens: instead of a
handful of hand-written targets, a seeded generator emits arbitrary
valid partitioned designs (pipelines, NoC SoCs, FAME-5 star SoCs,
width-parametric pairs), and differential oracles require every
execution backend, partitioning mode, checkpoint round-trip, and
hardened faulty link to agree on the result.  Failures are shrunk to
minimal replayable JSON repros and kept in a corpus.  A scenario is a
normalized job config (:func:`scenario_config`), built through
``repro.service.executor`` like every other job.
"""

from .generator import (
    ALL_SHAPES,
    GeneratorKnobs,
    Scenario,
    build_scenario_circuit,
    derive_spec,
    generate_scenario,
    num_partitions,
    scenario_config,
    shrink_candidates,
)
from .oracle import (
    BACKENDS,
    ORACLES,
    check_checkpoint,
    check_engine,
    check_fastmode,
    check_faults,
    check_identity,
    functional_digest,
    run_oracles,
)
from .shrink import ShrinkResult, probe, shrink
from .campaign import (
    CampaignReport,
    FuzzConfig,
    ScenarioOutcome,
    list_corpus,
    load_repro,
    replay,
    run_campaign,
    save_repro,
)

__all__ = [
    "ALL_SHAPES",
    "GeneratorKnobs",
    "Scenario",
    "generate_scenario",
    "build_scenario_circuit",
    "derive_spec",
    "num_partitions",
    "scenario_config",
    "shrink_candidates",
    "BACKENDS",
    "ORACLES",
    "run_oracles",
    "check_identity",
    "check_fastmode",
    "check_checkpoint",
    "check_faults",
    "check_engine",
    "functional_digest",
    "shrink",
    "probe",
    "ShrinkResult",
    "FuzzConfig",
    "CampaignReport",
    "ScenarioOutcome",
    "run_campaign",
    "replay",
    "save_repro",
    "load_repro",
    "list_corpus",
]
