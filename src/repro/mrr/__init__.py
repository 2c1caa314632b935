"""The Memory Race Recorder (MRR): QuickRec's per-core recording hardware.

One recorder per core. It maintains read/write Bloom-filter signatures over
the cache-line addresses the current chunk touched, snoops every bus
transaction for conflicts, stamps each chunk from the fabric's global order
clock, and emits packed 128-bit chunk log entries into the chunk buffer
(CBUF).

Chunk entry fields (see :mod:`repro.mrr.logfmt`): R-thread id, global
timestamp, instruction count, sub-instruction memory-operation count (for
chunks ending inside a ``rep_*`` instruction), the reordered-store-window
count (RSW — stores still in the store buffer at termination, deferred by
the replayer), and the termination reason.
"""

from .hashing import H3Hasher
from .signature import BloomSignature
from .chunk import ChunkEntry, Reason
from .logfmt import encode_chunks, decode_chunks
from .recorder import MemoryRaceRecorder
from .compression import compress_chunks, decompress_chunks

__all__ = [
    "H3Hasher",
    "BloomSignature",
    "ChunkEntry",
    "Reason",
    "encode_chunks",
    "decode_chunks",
    "MemoryRaceRecorder",
    "compress_chunks",
    "decompress_chunks",
]
