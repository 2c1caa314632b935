"""Differential soak testing: the correctness campaign behind every
"bit-identical" claim.

The paper's guarantee is that the logs capture *all* nondeterminism; this
subsystem turns that into a continuously-testable property, and is the
repository's one equivalence check. A campaign fans random racy programs
(:mod:`repro.workloads.fuzz`) across worker processes, runs each seed
through a lattice of implementation variants (decode cache, coherence
fabric, checkpoints, telemetry, store-buffer and scheduler shapes) and
its recording modes, and fails on any divergence between runs that must
agree — then delta-debugs failing seeds down to minimal reproducers and
writes triage artifacts. The same checks run over the bench programs at
scale 1 (:func:`~.differential.bench_subject`) in tier-1.

See ``docs/TESTING.md`` for the campaign semantics and the lattice.
"""

from .campaign import (
    CampaignReport,
    SeedVerdict,
    SoakOptions,
    run_campaign,
    run_case,
    run_seed,
)
from .differential import SeedFailure, outcome_digest
from .shrink import ShrinkResult, ddmin, shrink_case
from .triage import (
    load_artifact,
    repro_command,
    rerun_artifact,
    write_artifact,
)
from .variants import BASELINE, Variant, matrix_variants

__all__ = [
    "BASELINE",
    "CampaignReport",
    "SeedFailure",
    "SeedVerdict",
    "ShrinkResult",
    "SoakOptions",
    "Variant",
    "ddmin",
    "load_artifact",
    "matrix_variants",
    "outcome_digest",
    "repro_command",
    "rerun_artifact",
    "run_campaign",
    "run_case",
    "run_seed",
    "shrink_case",
    "write_artifact",
]
