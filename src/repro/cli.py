"""Command-line interface: ``quickrec`` (or ``python -m repro``).

Subcommands::

    quickrec list                         # available workloads
    quickrec record fft -o /tmp/rec       # record a workload to disk
    quickrec record fft --trace t.json    # ... with a Perfetto-loadable trace
    quickrec record fft -o /tmp/rec --checkpoint-every 64   # + checkpoints
    quickrec stats fft                    # record + replay, metrics tables
    quickrec replay /tmp/rec              # replay + verify a saved recording
    quickrec replay /tmp/rec --jobs 4     # parallel interval replay
    quickrec replay /tmp/rec --until 100  # O(interval) seek to a position
    quickrec inspect /tmp/rec --at 100    # thread states at a position
    quickrec roundtrip fft radix          # record, replay, verify in memory
    quickrec overhead fft --seed 3        # native / hw / full cycle compare
    quickrec info /tmp/rec                # recording summary (--json too)
    quickrec timeline /tmp/rec            # per-thread interleaving timeline
    quickrec analyze /tmp/rec             # HB graph + data-race forensics
    quickrec analyze /tmp/rec --at 40 --until 120 --trace races.json
    quickrec debug /tmp/rec --watch counter   # replay until a word changes
    quickrec bench-all --quick            # simulation-rate perf trajectory

Exit codes: 0 success, 1 library error (:class:`~repro.errors.ReproError`
or a failed verification), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__, session, workloads
from .analysis import chunks as chunk_analysis
from .perf import bench
from .analysis.report import render_kv, render_metrics, render_table
from .capo.input_log import VERSION as INPUT_LOG_VERSION
from .capo.recording import (CHECKPOINTS_NAME, CHUNKS_COMPRESSED_NAME,
                             FLIGHT_META_KEY, INPUT_NAME, PROGRAM_NAME,
                             Recording)
from .config import COHERENCE_MODELS, DEFAULT_CONFIG, SimConfig
from .errors import ReproError
from .telemetry import Telemetry

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=None,
                        help="thread count (default: workload default)")
    parser.add_argument("--scale", type=int, default=1,
                        help="problem-size multiplier")
    parser.add_argument("--seed", type=int, default=0,
                        help="interleaving seed")
    parser.add_argument("--policy", default="random",
                        choices=("random", "rr", "bursty"))


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [(w.name, w.category, w.default_threads, w.description)
            for _name, w in sorted(workloads.REGISTRY.items())]
    print(render_table(("name", "kind", "threads", "description"), rows,
                       title="available workloads"))
    return 0


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--coherence", default=None,
                        choices=COHERENCE_MODELS,
                        help="coherence fabric (default: snoop; directory "
                             "is bit-identical and notifies only sharers)")
    parser.add_argument("--cores", type=int, default=None, metavar="N",
                        help="machine core count (default: config default)")


def _machine_overrides(args: argparse.Namespace,
                       config: SimConfig) -> SimConfig:
    """Fold --coherence/--cores into ``config``."""
    machine = config.machine
    if getattr(args, "coherence", None) is not None:
        machine = dataclasses.replace(machine, coherence=args.coherence)
    if getattr(args, "cores", None) is not None:
        machine = dataclasses.replace(machine, num_cores=args.cores)
    if machine is not config.machine:
        config = dataclasses.replace(config, machine=machine)
    return config


def _add_flight_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--flight-window", type=int, default=0, metavar="N",
                        help="flight-recorder mode: retain only the last N "
                             "epochs of chunk/input state in a bounded ring "
                             "(0 = unbounded recording)")
    parser.add_argument("--flight-epoch", type=int, default=None, metavar="K",
                        help="chunks per flight epoch (default: "
                             f"{DEFAULT_CONFIG.capo.flight_epoch_chunks})")


def _flight_overrides(args: argparse.Namespace,
                      config: SimConfig) -> SimConfig:
    """Fold --flight-window/--flight-epoch into ``config.capo``."""
    capo = config.capo
    if getattr(args, "flight_window", 0):
        capo = dataclasses.replace(capo, flight_window=args.flight_window)
    if getattr(args, "flight_epoch", None) is not None:
        capo = dataclasses.replace(capo,
                                   flight_epoch_chunks=args.flight_epoch)
    if capo is not config.capo:
        config = dataclasses.replace(config, capo=capo)
    return config


def _flight_trigger(args: argparse.Namespace, outcome) -> str | None:
    """Why a crash bundle should be captured, or None."""
    from .flight import detect_fault
    if getattr(args, "flight_capture", False):
        return "explicit capture (--flight-capture)"
    return detect_fault(outcome)


def _record_repro(args: argparse.Namespace) -> str:
    """The copy-pasteable command that reproduces this recording run."""
    parts = [f"quickrec record {args.workload} --seed {args.seed}",
             f"--policy {args.policy}", f"--scale {args.scale}"]
    if args.threads is not None:
        parts.append(f"--threads {args.threads}")
    if args.cores is not None:
        parts.append(f"--cores {args.cores}")
    if args.coherence is not None:
        parts.append(f"--coherence {args.coherence}")
    if getattr(args, "flight_window", 0):
        parts.append(f"--flight-window {args.flight_window}")
    if getattr(args, "flight_epoch", None) is not None:
        parts.append(f"--flight-epoch {args.flight_epoch}")
    return " ".join(parts)


def _stored_sizes(directory: str | Path) -> dict[str, int]:
    """The sizes of the sections a saved bundle stores as a save writes
    them, from the files: absent sections are left out, and so is the v1
    ``input.bin`` of older bundles."""
    sizes = {}
    for name in (CHUNKS_COMPRESSED_NAME, INPUT_NAME, PROGRAM_NAME,
                 CHECKPOINTS_NAME):
        path = Path(directory) / name
        if path.is_file():
            with path.open("rb") as stream:
                if name != INPUT_NAME or \
                        stream.read(5)[4:] == bytes([INPUT_LOG_VERSION]):
                    sizes[name] = path.stat().st_size
    return sizes


def _log_sizes(recording: Recording, stored: dict[str, int]) -> dict[str, int]:
    """Each log's size in the frozen v1 serialization and in the compact
    columnar form the bundle stores, and the stored program image's;
    sizes found in ``stored`` are not encoded again."""
    return {
        "chunk log bytes (v1)": recording.chunk_log_bytes(),
        "chunk log bytes (compact)": stored.get(CHUNKS_COMPRESSED_NAME)
        or recording.chunk_log_compressed_bytes(),
        "input log bytes (v1)": recording.input_log_v1_bytes(),
        "input log bytes (compact)": stored.get(INPUT_NAME)
        or recording.input_log_bytes(),
        "program image bytes": stored.get(PROGRAM_NAME)
        or recording.program_image_bytes(),
    }


def _cmd_record(args: argparse.Namespace) -> int:
    program, inputs = workloads.build(args.workload, threads=args.threads,
                                      scale=args.scale)
    config = _flight_overrides(args, _machine_overrides(args, DEFAULT_CONFIG))
    telemetry = Telemetry(sampling=args.sampling) if args.trace else None
    outcome = session.record(program, seed=args.seed, policy=args.policy,
                             input_files=inputs, config=config,
                             telemetry=telemetry)
    recording = outcome.recording
    rows = {
        "workload": args.workload,
        "instructions": outcome.instructions,
        "chunks": len(recording.chunks),
        "input events": len(recording.events),
        **_log_sizes(recording, {}),
        "cycles": outcome.total_cycles,
    }
    if config.machine.coherence == "directory":
        bus = outcome.machine_stats["bus"]
        rows["coherence"] = "directory"
        rows["notifies sent"] = bus["notifies_sent"]
        rows["notifies saved vs broadcast"] = bus["notifies_saved"]
        sharers = bus["sharer_hist"]
        rows["sharer set sizes"] = ", ".join(
            f"{size}:{count}" for size, count in sorted(sharers.items()))
    if args.checkpoint_every:
        session.add_checkpoints(recording, args.checkpoint_every,
                                telemetry=outcome.telemetry)
        rows["checkpoints"] = len(recording.checkpoints)
        rows["checkpoint section bytes"] = recording.checkpoint_log_bytes()
    flight = recording.metadata.get(FLIGHT_META_KEY)
    if flight is not None:
        rows["flight window"] = (f"{flight['window']} epochs x "
                                 f"{flight['epoch_chunks']} chunks")
        rows["flight evictions"] = flight["evictions"]
        rows["window chunks / recorded"] = (f"{len(recording.chunks)} / "
                                            f"{flight['chunks_seen']}")
        rows["window events / recorded"] = (f"{len(recording.events)} / "
                                            f"{flight['events_seen']}")
    print(render_kv(rows, title="recorded"))
    if args.out:
        recording.save(args.out)
        print(f"saved to {args.out}")
    trigger = _flight_trigger(args, outcome)
    if flight is not None and trigger is not None:
        from .flight import write_crash_bundle
        bundle_dir = (f"{args.out}-crash" if args.out
                      else f"{args.workload}-crash")
        repro = _record_repro(args)
        bundle = write_crash_bundle(bundle_dir, recording, trigger=trigger,
                                    repro=repro)
        manifest = json.loads((bundle / "crash.json").read_text())
        replay = manifest.get("replay")
        verdict = ("(replay failed)" if replay is None
                   else "yes" if replay["ok"] else "DIVERGED")
        races = manifest.get("races")
        print(render_kv({
            "trigger": trigger,
            "replays to fault": verdict,
            "races in window": "(analyzer failed)" if races is None
                               else races,
            "bundle": str(bundle),
        }, title="crash capture"))
    elif trigger is not None:
        print(f"note: {trigger}; rerun with --flight-window to capture "
              "a crash bundle")
    if args.trace:
        outcome.telemetry.tracer.save(args.trace)
        print(f"trace written to {args.trace} "
              f"({len(outcome.telemetry.tracer)} events; open in Perfetto)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    program, inputs = workloads.build(args.workload, threads=args.threads,
                                      scale=args.scale)
    outcome = session.record(program, seed=args.seed, policy=args.policy,
                             input_files=inputs,
                             config=_flight_overrides(
                                 args, _machine_overrides(
                                     args, DEFAULT_CONFIG)),
                             telemetry=Telemetry(sampling=args.sampling))
    telemetry = outcome.telemetry
    if not args.no_replay:
        session.replay_recording(outcome.recording, telemetry=telemetry)
    if args.json:
        print(json.dumps(telemetry.snapshot(), indent=2, sort_keys=True))
        return 0
    print(render_metrics(telemetry.snapshot()))
    if args.trace:
        telemetry.tracer.save(args.trace)
        print(f"\ntrace written to {args.trace} "
              f"({len(telemetry.tracer)} events; open in Perfetto)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    recording = Recording.load(args.directory)
    if args.until is not None:
        from .replay.checkpoint import capture_state, replayer_at, \
            state_digest
        replayer = replayer_at(recording, args.until)
        nearest = recording.nearest_checkpoint(args.until)
        base = nearest.position if nearest else 0
        print(render_kv({
            "position": replayer.position,
            "restored from checkpoint":
                base if base else "(none: replayed prefix)",
            "chunks stepped": replayer.position - base,
            "state digest": state_digest(capture_state(replayer)),
        }, title=f"seek to chunk {args.until}"))
        return 0
    if args.jobs > 1:
        from .replay.parallel import replay_parallel
        result, report = replay_parallel(
            recording=recording, directory=args.directory, jobs=args.jobs)
    else:
        result, report = session.replay_recording(recording), None
    # A flight window's replay resumes the stats of its base record; the
    # rows count the window's own chunks, units and events. The result
    # digest stays cumulative, comparable with the unbounded recording's.
    from .replay.checkpoint import flight_base_state
    stats = result.stats
    base = flight_base_state(recording)
    if base is not None:
        carried = base.header["stats"]
        stats = dataclasses.replace(stats, **{
            field: value - carried.get(field, 0)
            for field, value in stats.as_dict().items()})
    ok = True
    if "final_memory_digest" in recording.metadata:
        from .replay.verify import verify_recording
        verification = verify_recording(recording, result)
        print(verification.summary())
        ok = verification.ok
    else:
        print("replayed (no verification metadata in bundle)")
    rows = {
        "chunks replayed": stats.chunks,
        "units executed": stats.units,
        "events applied": stats.events,
        "result digest": result.digest(),
    }
    if report is not None:
        rows["jobs"] = report.jobs
        rows["intervals"] = len(report.intervals)
        rows["spans"] = report.spans
        rows["checkpoints restored"] = report.restores
        rows["seams verified"] = report.seams_verified
        rows["parallel wall s"] = round(report.wall_s, 4)
        rows["speedup bound"] = round(report.speedup_bound, 2)
    print(render_kv(rows))
    return 0 if ok else 1


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    failures = 0
    for name in args.workloads:
        program, inputs = workloads.build(name, threads=args.threads,
                                          scale=args.scale)
        outcome, _replayed, report = session.record_and_replay(
            program, seed=args.seed, policy=args.policy, input_files=inputs)
        status = "ok" if report.ok else "DIVERGED"
        print(f"{name:12s} {status}  instr={outcome.instructions:,} "
              f"chunks={len(outcome.recording.chunks):,}")
        if not report.ok:
            failures += 1
            print("  " + report.summary())
    return 1 if failures else 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from .perf.overhead import measure_overhead
    rows = []
    for name in args.workloads:
        program, inputs = workloads.build(name, threads=args.threads,
                                          scale=args.scale)
        result = measure_overhead(program, seed=args.seed, policy=args.policy,
                                  input_files=inputs, name=name)
        rows.append((name, result.native.total_cycles,
                     100 * result.hw_overhead, 100 * result.full_overhead))
    print(render_table(
        ("workload", "native cycles", "hw ovh %", "full ovh %"), rows,
        title="recording overhead (cycles, identical interleavings)"))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    recording = Recording.load(args.directory)
    stored = _stored_sizes(args.directory)
    stats = chunk_analysis.chunk_size_stats(recording.chunks)
    breakdown = chunk_analysis.termination_breakdown(recording.chunks,
                                                     group_conflicts=True)
    summary = {
        "program": recording.program.name,
        "rthreads": len(recording.rthreads()),
        "chunks": stats.count,
        "mean chunk (instr)": stats.mean,
        "p90 chunk": stats.p90,
        "input events": len(recording.events),
        **_log_sizes(recording, stored),
        "checkpoints": len(recording.checkpoints),
        "checkpoint section bytes": stored.get(CHECKPOINTS_NAME)
        or recording.checkpoint_log_bytes(),
    }
    if args.json:
        print(json.dumps({"summary": summary,
                          "terminations": dict(breakdown)},
                         indent=2, sort_keys=True))
        return 0
    print(render_kv(summary, title=f"recording at {args.directory}"))
    print(render_table(("reason", "fraction"),
                       [(reason, frac) for reason, frac in breakdown.items()],
                       title="chunk terminations"))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis.timeline import render_timeline
    from .forensics import analyze_recording, export_trace, render_race_report

    recording = Recording.load(args.directory)
    report, graph = analyze_recording(
        recording, start=args.at, until=args.until,
        directory=args.directory, max_races_per_address=args.max_races)
    print(render_race_report(report))
    start, until = report.window
    window_chunks = [sc.chunk for sc in graph.schedule[start:until]]
    if window_chunks:
        print()
        print(render_timeline(window_chunks, width=args.width))
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(report.as_dict(), indent=2))
        print(f"\njson report written to {args.json}")
    if args.trace:
        tracer = export_trace(recording, report=report, graph=graph,
                              start=start, until=until)
        tracer.save(args.trace)
        print(f"trace written to {args.trace} "
              f"({len(tracer)} events; open in Perfetto)")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .replay.checkpoint import replayer_at

    recording = Recording.load(args.directory)
    position = args.at if args.at is not None else len(recording.chunks)
    replayer = replayer_at(recording, position)
    nearest = recording.nearest_checkpoint(position)
    base = nearest.position if nearest else 0
    print(render_kv({
        "position": f"{replayer.position}/{len(recording.chunks)}",
        "embedded checkpoints": len(recording.checkpoints),
        "restored from": f"checkpoint at {base}" if base
                         else "start (no earlier checkpoint)",
        "chunks stepped": replayer.position - base,
    }, title=f"replay state at chunk {position}"))
    print("\nthread states:")
    for rthread in sorted(replayer.threads):
        ctx = replayer.threads[rthread]
        status = "exited" if ctx.finished else f"pc={ctx.engine.pc}"
        print(f"  t{rthread}: {status}, retired={ctx.engine.retired:,}, "
              f"chunks={ctx.completed_chunks}, "
              f"withheld stores={len(ctx.withheld)}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .analysis.timeline import render_recording_timeline

    recording = Recording.load(args.directory)
    print(render_recording_timeline(recording, width=args.width))
    return 0


def _cmd_debug(args: argparse.Namespace) -> int:
    from .analysis.timeline import interleaving_window
    from .replay.inspect import ReplayInspector

    recording = Recording.load(args.directory)
    inspector = ReplayInspector(recording)
    if args.watch is not None:
        hit = inspector.watch_word(inspector.resolve(args.watch, args.index))
        if hit is None:
            print(f"{args.watch}[{args.index}] never changes; "
                  f"replayed {inspector.position} chunks")
            return 0
        print(f"{args.watch}[{args.index}] changed "
              f"{hit.old_value} -> {hit.new_value} in chunk "
              f"#{hit.chunk_index} (t{hit.chunk.rthread}, "
              f"ts={hit.chunk.timestamp}, {hit.chunk.reason})")
        print("\nschedule around the change:")
        print(interleaving_window(recording.chunks, hit.chunk_index))
    elif args.until_chunk is not None:
        inspector.run_to_index(args.until_chunk)
        print(f"stopped at chunk {inspector.position}/"
              f"{inspector.total_chunks}")
    else:
        inspector.run_to_end()
        print(f"replayed all {inspector.total_chunks} chunks")

    print("\nthread states:")
    for rthread in inspector.threads():
        view = inspector.thread_view(rthread)
        status = "exited" if view.finished else f"pc={view.pc}"
        print(f"  t{rthread}: {status}, retired={view.retired:,}, "
              f"chunks={view.completed_chunks}, "
              f"withheld stores={view.withheld_stores}")
    if not inspector.finished and inspector.threads():
        rthread = inspector.next_chunk().rthread
        print(f"\nnext chunk belongs to t{rthread}; code around its pc:")
        print(inspector.disassemble_at(rthread))
    return 0


def _indent(text: str, prefix: str = "    ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .soak import (
        SoakOptions,
        repro_command,
        rerun_artifact,
        run_campaign,
        write_artifact,
    )
    if args.from_artifact:
        failures, which = rerun_artifact(args.from_artifact)
        if not failures:
            print(f"{which} case no longer fails")
            return 0
        print(f"{which} case still fails ({len(failures)} checks):")
        for failure in failures:
            print("  " + failure.headline())
        return 1

    if args.inject and not args.matrix:
        print("error: --inject needs --matrix (the perturbed variant only "
              "runs there)", file=sys.stderr)
        return EXIT_USAGE
    if args.flight and not args.artifacts:
        print("error: --flight needs --artifacts (the crash bundle is "
              "written next to the triage artifact)", file=sys.stderr)
        return EXIT_USAGE

    options = SoakOptions(matrix=args.matrix, shrink=args.shrink,
                          inject=args.inject,
                          max_shrink_evals=args.max_shrink_evals,
                          flight_window=args.flight)
    telemetry = Telemetry(enabled=True) if args.trace else None
    report = run_campaign(args.count, base_seed=args.base_seed,
                          jobs=args.jobs, options=options,
                          telemetry=telemetry)

    mode = "matrix differential" if args.matrix else "record/replay/verify"
    print(f"fuzz ({mode}, jobs={args.jobs}): "
          f"{report.verified}/{report.runs} seeds verified")
    for verdict in report.failing:
        print(f"\nseed {verdict.seed}: {len(verdict.failures)} failed "
              "check(s)")
        for failure in verdict.failures:
            print(f"  [{failure.kind}] variant {failure.variant}:")
            print(_indent(failure.detail))
        if verdict.shrunk is not None:
            shrunk = verdict.shrunk
            print(f"  shrunk: {shrunk.ops_before} -> {shrunk.ops_after} ops "
                  f"in {shrunk.evals} evaluations")
        print(f"  repro: {repro_command(verdict.seed, options)}")
        if args.artifacts:
            path = write_artifact(args.artifacts, verdict, options)
            print(f"  triage artifact: {path}")
            bundle = path.parent / f"seed-{verdict.seed}-flight"
            if bundle.is_dir():
                print(f"  flight crash bundle: {bundle}")
    if args.trace:
        telemetry.tracer.save(args.trace)
        print(f"trace written to {args.trace}")
    return 0 if report.ok else 1


def _cmd_bench_all(args: argparse.Namespace) -> int:
    return bench.run(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quickrec",
        description="QuickRec reproduction: record and replay multithreaded "
                    "programs on a simulated multicore IA machine.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads").set_defaults(fn=_cmd_list)

    p_record = sub.add_parser("record", help="record one workload")
    p_record.add_argument("workload")
    p_record.add_argument("-o", "--out", default=None,
                          help="directory to save the recording bundle")
    p_record.add_argument("--trace", default=None, metavar="PATH",
                          help="write a Chrome trace-event JSON file "
                               "(open in Perfetto / chrome://tracing)")
    p_record.add_argument("--sampling", type=int, default=64,
                          help="telemetry sampling period for per-step "
                               "machine events (default 64)")
    p_record.add_argument("--checkpoint-every", type=int, default=0,
                          metavar="K",
                          help="embed a replay-state checkpoint every K "
                               "chunk-schedule positions (0 = off); "
                               "enables parallel replay and fast seek")
    p_record.add_argument("--flight-capture", action="store_true",
                          help="with --flight-window: write a crash bundle "
                               "even when the run looks clean (explicit "
                               "trigger)")
    _add_workload_args(p_record)
    _add_machine_args(p_record)
    _add_flight_args(p_record)
    p_record.set_defaults(fn=_cmd_record)

    p_stats = sub.add_parser(
        "stats", help="record (and replay) a workload with telemetry on, "
                      "then render the metrics snapshot")
    p_stats.add_argument("workload")
    p_stats.add_argument("--trace", default=None, metavar="PATH",
                         help="also write the Chrome trace-event JSON file")
    p_stats.add_argument("--sampling", type=int, default=64,
                         help="telemetry sampling period (default 64)")
    p_stats.add_argument("--no-replay", action="store_true",
                         help="skip the replay pass (record-side metrics only)")
    p_stats.add_argument("--json", action="store_true",
                         help="print the metrics snapshot as JSON instead "
                              "of tables")
    _add_workload_args(p_stats)
    _add_machine_args(p_stats)
    _add_flight_args(p_stats)
    p_stats.set_defaults(fn=_cmd_stats)

    p_replay = sub.add_parser("replay", help="replay a saved recording")
    p_replay.add_argument("directory")
    p_replay.add_argument("--jobs", type=int, default=1,
                          help="replay checkpoint intervals across N worker "
                               "processes (needs embedded checkpoints; "
                               "output is identical at any job count)")
    p_replay.add_argument("--until", type=int, default=None, metavar="CHUNK",
                          help="seek to a chunk position (O(interval) with "
                               "embedded checkpoints) instead of replaying "
                               "to the end")
    p_replay.set_defaults(fn=_cmd_replay)

    p_round = sub.add_parser("roundtrip",
                             help="record+replay+verify workloads in memory")
    p_round.add_argument("workloads", nargs="+")
    _add_workload_args(p_round)
    p_round.set_defaults(fn=_cmd_roundtrip)

    p_ovh = sub.add_parser("overhead", help="native/hw/full cycle comparison")
    p_ovh.add_argument("workloads", nargs="+")
    _add_workload_args(p_ovh)
    p_ovh.set_defaults(fn=_cmd_overhead)

    p_info = sub.add_parser("info", help="summarize a saved recording")
    p_info.add_argument("directory")
    p_info.add_argument("--json", action="store_true",
                        help="print the summary as JSON instead of tables")
    p_info.set_defaults(fn=_cmd_info)

    p_analyze = sub.add_parser(
        "analyze", help="race forensics: replay with shadowed memory, "
                        "report HB-concurrent conflicting accesses")
    p_analyze.add_argument("directory")
    p_analyze.add_argument("--at", type=int, default=0, metavar="CHUNK",
                           help="window start (chunk-schedule position; "
                                "seeks via embedded checkpoints)")
    p_analyze.add_argument("--until", type=int, default=None, metavar="CHUNK",
                           help="window end, exclusive (default: end of log)")
    p_analyze.add_argument("--json", default=None, metavar="PATH",
                           help="also write the structured report as JSON")
    p_analyze.add_argument("--trace", default=None, metavar="PATH",
                           help="also write a Chrome trace-event JSON file "
                                "of the schedule with race markers "
                                "(open in Perfetto)")
    p_analyze.add_argument("--width", type=int, default=72,
                           help="timeline width in columns (default 72)")
    p_analyze.add_argument("--max-races", type=int, default=16,
                           metavar="N",
                           help="cap reported races per word (default 16)")
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_inspect = sub.add_parser(
        "inspect", help="thread states at a chunk position (O(interval) "
                        "seek via embedded checkpoints)")
    p_inspect.add_argument("directory")
    p_inspect.add_argument("--at", type=int, default=None, metavar="CHUNK",
                           help="chunk-schedule position (default: end)")
    p_inspect.set_defaults(fn=_cmd_inspect)

    p_timeline = sub.add_parser("timeline",
                                help="per-thread interleaving timeline")
    p_timeline.add_argument("directory")
    p_timeline.add_argument("--width", type=int, default=72)
    p_timeline.set_defaults(fn=_cmd_timeline)

    p_debug = sub.add_parser(
        "debug", help="step a recording: watch a word or stop at a chunk")
    p_debug.add_argument("directory")
    p_debug.add_argument("--watch", default=None,
                         help="data symbol (or address) to watch for change")
    p_debug.add_argument("--index", type=int, default=0,
                         help="word index within the watched symbol")
    p_debug.add_argument("--until-chunk", type=int, default=None,
                         help="replay until this chunk index")
    p_debug.set_defaults(fn=_cmd_debug)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential soak: random racy programs across a "
                     "config lattice, with failure shrinking")
    p_fuzz.add_argument("--count", type=int, default=20)
    p_fuzz.add_argument("--base-seed", type=int, default=0)
    p_fuzz.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1 = in-process); "
                             "verdicts are identical at any job count")
    p_fuzz.add_argument("--matrix", action="store_true",
                        help="run each seed across the implementation-"
                             "variant lattice and fail on any divergence")
    p_fuzz.add_argument("--shrink", action="store_true",
                        help="delta-debug failing seeds to minimal "
                             "reproducers")
    p_fuzz.add_argument("--max-shrink-evals", type=int, default=200,
                        help="evaluation budget per shrink (default 200)")
    p_fuzz.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write a triage artifact per failing seed")
    p_fuzz.add_argument("--flight", type=int, default=0, metavar="N",
                        help="with --artifacts: re-record each failing seed "
                             "under an N-epoch flight ring and write a "
                             "crash bundle beside its artifact")
    p_fuzz.add_argument("--from-artifact", default=None, metavar="PATH",
                        help="re-run a triage artifact's (minimized) case "
                             "instead of a campaign")
    p_fuzz.add_argument("--inject", default=None,
                        choices=("decode-cache",),
                        help="fault-inject one variant (harness self-test; "
                             "needs --matrix)")
    p_fuzz.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace of the campaign")
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_bench = sub.add_parser(
        "bench-all", help="simulation-rate benchmarks with a perf "
                          "trajectory (appends to BENCH_simrate.json)")
    bench.add_args(p_bench)
    p_bench.set_defaults(fn=_cmd_bench_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself: 0 for --help/--version, 2 for usage errors.
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
