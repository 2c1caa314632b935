"""The parallel campaign runner.

A campaign maps seeds onto fully-deterministic verdicts: each seed's
result depends only on ``(seed, options)``, never on worker count or
scheduling, so ``--jobs 1`` and ``--jobs 8`` produce identical reports
(the property the determinism tests pin). Fan-out is a
``multiprocessing`` pool: one process per worker, results streamed back
in seed order; ``jobs=1`` runs serially in-process, which is what the
test suite uses.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Callable

from ..telemetry import NULL_TELEMETRY, Telemetry
from ..workloads.fuzz import FuzzCase, generate_case
from .differential import SeedFailure, run_case_checks
from .shrink import ShrinkResult, shrink_case
from .variants import matrix_variants


@dataclass(frozen=True)
class SoakOptions:
    """Everything that parameterizes a campaign besides the seed range.

    ``inject="decode-cache"`` perturbs the ``decode-off`` variant's
    program — the harness's own end-to-end self-test; it requires
    ``matrix`` since that variant only runs there.

    ``flight_window`` > 0 makes triage re-record each failing seed under
    an N-epoch flight ring and package the window as a crash bundle
    beside the artifact (the soak-oracle-divergence capture trigger).
    """

    matrix: bool = False
    shrink: bool = False
    inject: str | None = None
    max_shrink_evals: int = 200
    flight_window: int = 0

    def __post_init__(self) -> None:
        if self.inject not in (None, "decode-cache"):
            raise ValueError(f"unknown injection {self.inject!r}; the one "
                             "fault is 'decode-cache'")
        if self.flight_window < 0:
            raise ValueError("flight_window must be >= 0")


@dataclass
class SeedVerdict:
    """One seed's full differential outcome."""

    seed: int
    failures: list[SeedFailure] = field(default_factory=list)
    shrunk: ShrinkResult | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class CampaignReport:
    """Aggregate of a campaign; ``verdicts`` is ordered by seed."""

    runs: int = 0
    verified: int = 0
    verdicts: list[SeedVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verified == self.runs and all(
            verdict.ok for verdict in self.verdicts)

    @property
    def failing(self) -> list[SeedVerdict]:
        return [verdict for verdict in self.verdicts if not verdict.ok]


def run_case(case: FuzzCase, options: SoakOptions) -> list[SeedFailure]:
    """All differential checks for one explicit case."""
    return run_case_checks(
        case, matrix_variants() if options.matrix else (),
        inject=options.inject)


def run_seed(seed: int, options: SoakOptions) -> SeedVerdict:
    """Generate the seed's case, run every check, shrink on failure."""
    case = generate_case(seed)
    failures = run_case(case, options)
    verdict = SeedVerdict(seed=seed, failures=failures)
    if failures and options.shrink:
        verdict.shrunk = shrink_case(
            case, lambda candidate: bool(run_case(candidate, options)),
            max_evals=options.max_shrink_evals)
    return verdict


def _worker(job: tuple[int, SoakOptions]) -> SeedVerdict:
    seed, options = job
    return run_seed(seed, options)


def run_campaign(count: int, base_seed: int = 0, jobs: int = 1,
                 options: SoakOptions | None = None,
                 telemetry: Telemetry | None = None,
                 progress: Callable[[SeedVerdict], None] | None = None,
                 ) -> CampaignReport:
    """Run ``count`` seeds starting at ``base_seed`` across ``jobs``
    worker processes. ``progress`` (if given) sees each verdict as it
    lands, in seed order."""
    options = options or SoakOptions()
    telemetry = telemetry or NULL_TELEMETRY
    seeds = range(base_seed, base_seed + count)
    report = CampaignReport()

    if telemetry.enabled:
        telemetry.tracer.instant(
            "soak.campaign.start", cat="soak",
            args={"count": count, "base_seed": base_seed, "jobs": jobs,
                  "matrix": options.matrix, "shrink": options.shrink})
        telemetry.metrics.gauge("soak.jobs").set(jobs)

    def consume(verdict: SeedVerdict) -> None:
        report.runs += 1
        report.verdicts.append(verdict)
        if verdict.ok:
            report.verified += 1
        if telemetry.enabled:
            metrics = telemetry.metrics
            metrics.counter("soak.seeds").inc()
            if not verdict.ok:
                metrics.counter("soak.failed_seeds").inc()
                for failure in verdict.failures:
                    metrics.counter(f"soak.failures.{failure.kind}").inc()
                telemetry.tracer.instant(
                    "soak.seed.failed", cat="soak",
                    args={"seed": verdict.seed,
                          "failures": [f.headline()
                                       for f in verdict.failures]})
            if verdict.shrunk is not None:
                metrics.counter("soak.shrink_evals").inc(
                    verdict.shrunk.evals)
                metrics.histogram("soak.shrunk_ops").observe(
                    verdict.shrunk.ops_after)
        if progress is not None:
            progress(verdict)

    if jobs <= 1 or count <= 1:
        for seed in seeds:
            consume(run_seed(seed, options))
    else:
        pool_size = min(jobs, count)
        with multiprocessing.Pool(processes=pool_size) as pool:
            for verdict in pool.imap(
                    _worker, [(seed, options) for seed in seeds]):
                consume(verdict)

    if telemetry.enabled:
        telemetry.tracer.instant(
            "soak.campaign.end", cat="soak",
            args={"runs": report.runs, "verified": report.verified})
    return report
