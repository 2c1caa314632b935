"""T4 — log bandwidth: the frozen v1 (row-packed) serializations vs the
compact columnar forms a bundle stores (the ``v2`` columns).

The rr lineage of the compact forms: fixed-width columns with per-thread
deltas, byte planes ordered by significance, a content-keyed pool for
duplicate copy payloads, one zlib stream (:mod:`repro.mrr.columnar`).
This bench measures the size of the *same* recording serialized both
ways — the compression ratio is the whole argument for the format — plus
the throughput of the page-delta checkpoint section codec and the size of
the section for the real checkpoints of ``radix``.
"""

import json
import random
import time
import zlib

from repro.analysis.logs import log_rates
from repro.analysis.report import render_table
from repro.mrr.logfmt import (
    CHECKPOINT_PAGE,
    CheckpointRecord,
    decode_checkpoints,
    encode_checkpoints,
)
from repro.replay.checkpoint import build_checkpoints

from conftest import MICROS, SPLASH, BenchSuite, publish


def test_t4_log_bandwidth(benchmark, suite: BenchSuite):
    def measure():
        return [log_rates(suite.record(name), name=name)
                for name in SPLASH + MICROS]

    rates = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for rate in rates:
        rows.append((
            rate.name,
            rate.chunk_bytes_raw,
            rate.chunk_bytes_compressed,
            f"{rate.chunk_compression_ratio:.1f}x",
            rate.input_bytes,
            rate.input_bytes_v2,
            f"{rate.input_compression_ratio:.1f}x",
        ))
    table = render_table(
        ("workload", "chunk v1 B", "chunk v2 B", "ratio",
         "input v1 B", "input v2 B", "ratio"),
        rows, title="T4: log bytes, v1 (row-packed) vs v2 (columnar)")
    publish("t4_logbandwidth", table)
    for rate in rates:
        assert rate.chunk_bytes_compressed <= rate.chunk_bytes_raw
        assert rate.input_bytes_v2 <= rate.input_bytes


def checkpoint_sequence(count: int = 16, image: int = 1 << 22,
                        seed: int = 4) -> list[CheckpointRecord]:
    """``count`` replay-state-like payloads: a JSON header that grows
    with the position in front of a 4 MiB memory image. The first image
    has 8 non-zero pages; each later one rewrites 1-5 pages."""
    rng = random.Random(seed)
    memory = bytearray(image)
    pages = image // CHECKPOINT_PAGE

    def rewrite(page: int) -> None:
        start = page * CHECKPOINT_PAGE
        memory[start:start + CHECKPOINT_PAGE] = rng.randbytes(CHECKPOINT_PAGE)

    for page in rng.sample(range(pages), 8):
        rewrite(page)
    records = []
    for index in range(count):
        if index:
            for page in rng.sample(range(pages), rng.randint(1, 5)):
                rewrite(page)
        position = 500 * (index + 1)
        header = json.dumps({"position": position,
                             "threads": ["t" * 50] * (30 + index)}).encode()
        records.append(CheckpointRecord.for_payload(
            position, len(header).to_bytes(4, "little") + header, memory,
            previous=records[-1] if records else None))
    return records


def stored_pages(records: list[CheckpointRecord]) -> list[list[bytes]]:
    """The pages each record stores: those differing from the previous
    record's page at the same index, or from zeros where there is none."""
    stored = []
    previous: tuple[bytes, ...] = ()
    for record in records:
        stored.append([page for index, page in enumerate(record.pages)
                       if page != (previous[index] if index < len(previous)
                                   else bytes(len(page)))])
        previous = record.pages
    return stored


def radix_checkpoint_row(suite: BenchSuite) -> str:
    """The section of ``radix`` x8's 16 checkpoints, as the benchmark's
    ``checkpointed`` workload records them (4 threads, seed 1). The
    synthetic images above rewrite whole pages with random bytes, so
    only real pages show what deflating a page against the page it
    replaces saves over deflating a record's pages as one stream."""
    recording = suite.record("radix", threads=4, scale=8, seed=1).recording
    records = build_checkpoints(recording,
                                every=max(1, len(recording.chunks) // 16))
    stored = stored_pages(records)
    pages = [page for record in stored for page in record]
    one_stream = sum(len(zlib.compress(b"".join(record), 6))
                     for record in stored if record)
    return (f"T4: radix x8 checkpoint section, {len(records)} records "
            f"storing {len(pages)} pages ({sum(map(len, pages)):,} B) "
            f"-> {len(encode_checkpoints(records)):,} B; the same pages "
            f"deflated one stream per record: {one_stream:,} B")


def test_t4_checkpoint_codec_throughput(benchmark, suite: BenchSuite):
    # the checkpoint section codec stores, loads and verifies 16 full
    # simulated memory images; its cost must follow the changed pages
    records = checkpoint_sequence()
    raw = sum(record.size for record in records)

    blob = benchmark(lambda: encode_checkpoints(records))
    assert decode_checkpoints(blob) == records

    start = time.perf_counter()
    encode_checkpoints(records)
    encode_s = time.perf_counter() - start
    start = time.perf_counter()
    decode_checkpoints(blob)
    decode_s = time.perf_counter() - start
    # The committed figure holds only the deterministic sizes; the host
    # timings are printed, so a suite run leaves the result unchanged.
    publish("t4_checkpoints",
            f"T4: checkpoint section, {len(records)} x "
            f"{raw / len(records) / 1e6:.1f} MB payloads -> "
            f"{len(blob) / 1e3:.0f} KB\n" + radix_checkpoint_row(suite))
    print(f"T4: checkpoint encode {encode_s * 1e3:.0f} ms "
          f"({raw / encode_s / 1e6:.0f} MB/s), decode with digest checks "
          f"{decode_s * 1e3:.0f} ms ({raw / decode_s / 1e6:.0f} MB/s)")
