"""Compact binary trace format (``.rtrc``): the on-disk/wire form of a trace.

The JSONL trace format (:meth:`~repro.workloads.trace.MemoryTrace.to_jsonl`)
is human-inspectable but costs one ``json.loads`` per instruction to read —
that parse dominates campaign/DSE worker start-up once traces stop being
regenerated in every process.  ``.rtrc`` is the fast path: a little-endian
binary encoding with fixed-width per-instruction records that decodes through
``struct.iter_unpack`` (one C call for the whole record section) and
round-trips bit-identically against the JSONL form.

Layout (all integers little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       4     magic ``b"RTRC"``
    4       2     format version (currently 1)
    6       2     flags (reserved, must be 0)
    8       2     name length in bytes (UTF-8)
    10      2     suite length in bytes (UTF-8)
    12      8     instruction count
    20      8     dependency-pool length (number of u32 entries)
    28      28    address layout: 7 x u32 (address_bits, page_bytes,
                  line_bytes, l1_capacity_bytes, l1_associativity,
                  l1_banks, subblock_bytes)
    56      -     name bytes, then suite bytes
    ...     12*n  records: kind u8 (0 compute / 1 load / 2 store),
                  ndeps u8, size u16, address u64
    ...     4*d   dependency pool: u32 backward distances, record order

Records are fixed-width; variable-length dependency lists live in a single
trailing pool, consumed in record order (``ndeps`` entries per record).
Paths ending in ``.gz`` are transparently gzip-(de)compressed.

:func:`trace_fingerprint` derives the content hash campaign cells use to
reference ingested traces: it covers the format version, the address layout
and every instruction record — but *not* the display name or suite, so
re-registering the same instruction stream under another name dedupes to the
same stored results.
"""

from __future__ import annotations

import gzip
import hashlib
import struct
import sys
from array import array
from pathlib import Path
from typing import Tuple, Union

from repro.cpu.instruction import Instruction, InstructionKind
from repro.memory.address import AddressLayout

#: file magic of every ``.rtrc`` payload
RTRC_MAGIC = b"RTRC"

#: current format version
RTRC_VERSION = 1

_PRELUDE = struct.Struct("<4sHHHHQQ7I")
_RECORD = struct.Struct("<BBHQ")

#: order of the :class:`AddressLayout` fields inside the prelude
_LAYOUT_FIELDS = (
    "address_bits",
    "page_bytes",
    "line_bytes",
    "l1_capacity_bytes",
    "l1_associativity",
    "l1_banks",
    "subblock_bytes",
)

_KIND_CODES = {
    InstructionKind.COMPUTE: 0,
    InstructionKind.LOAD: 1,
    InstructionKind.STORE: 2,
}
_KINDS_BY_CODE = {code: kind for kind, code in _KIND_CODES.items()}


class TraceFormatError(ValueError):
    """A malformed, truncated or unsupported ``.rtrc`` payload."""


#: kind codes are 0/1/2; anything else in the kinds column is corrupt
_VALID_KINDS = b"\x00\x01\x02"

_ZERO_U32 = b"\x00\x00\x00\x00"


def _open_binary(path: Union[str, Path], mode: str):
    """Open ``path`` in binary mode, transparently gzipped for ``.gz`` names."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "b")
    return open(path, mode + "b")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _encode_body(trace) -> Tuple[bytes, bytes, bytes]:
    """The (layout, records, deps-pool) byte sections of ``trace``.

    Shared by :func:`encode_trace` and :func:`trace_fingerprint`, so the
    content hash is by construction a hash of exactly what gets written.
    """
    layout_bytes = struct.pack("<7I", *(getattr(trace.layout, name) for name in _LAYOUT_FIELDS))
    pack = _RECORD.pack
    records = bytearray()
    deps_pool = array("I")
    for instruction in trace.instructions:
        deps = instruction.deps
        ndeps = len(deps)
        size = instruction.size
        address = instruction.address or 0
        if ndeps > 0xFF or size > 0xFFFF or address > 0xFFFFFFFFFFFFFFFF:
            raise TraceFormatError(
                f"instruction {instruction.seq} of {trace.name!r} does not fit "
                f".rtrc field widths (ndeps={ndeps}, size={size}, address={address:#x})"
            )
        records += pack(_KIND_CODES[instruction.kind], ndeps, size, address)
        if deps:
            if max(deps) > 0xFFFFFFFF:
                raise TraceFormatError(
                    f"instruction {instruction.seq} of {trace.name!r} has a "
                    "dependency distance beyond 32 bits"
                )
            deps_pool.extend(deps)
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere we run
        deps_pool.byteswap()
    return layout_bytes, bytes(records), deps_pool.tobytes()


def encode_trace(trace) -> bytes:
    """Serialize ``trace`` to ``.rtrc`` bytes (see the module docstring)."""
    name_bytes = trace.name.encode("utf-8")
    suite_bytes = trace.suite.encode("utf-8")
    if len(name_bytes) > 0xFFFF or len(suite_bytes) > 0xFFFF:
        raise TraceFormatError("trace name/suite longer than 65535 UTF-8 bytes")
    layout_bytes, records, deps_bytes = _encode_body(trace)
    prelude = _PRELUDE.pack(
        RTRC_MAGIC,
        RTRC_VERSION,
        0,
        len(name_bytes),
        len(suite_bytes),
        len(trace.instructions),
        len(deps_bytes) // 4,
        *(getattr(trace.layout, name) for name in _LAYOUT_FIELDS),
    )
    return b"".join((prelude, name_bytes, suite_bytes, records, deps_bytes))


def fingerprint_sections(layout_bytes, records, deps_bytes) -> str:
    """The trace content hash, from its raw ``.rtrc`` byte sections.

    The single definition of the digest recipe: :func:`trace_fingerprint`
    feeds it the sections of an encoded :class:`MemoryTrace`, and the
    columnar view (:mod:`repro.workloads.columnar`) feeds it the very slices
    of the buffer it decoded from — so both views of the same bytes hash
    identically by construction.
    """
    digest = hashlib.sha256()
    digest.update(b"rtrc\x01")
    digest.update(layout_bytes)
    digest.update(records)
    digest.update(deps_bytes)
    return digest.hexdigest()


def trace_fingerprint(trace) -> str:
    """Content hash (sha256 hex) of a trace's instruction stream and layout.

    Stable across processes and re-encodes; independent of the display name
    and suite, so the same ingested file registered twice — even under
    different names — maps to the same hash.
    """
    layout_bytes, records, deps_bytes = _encode_body(trace)
    return fingerprint_sections(layout_bytes, records, deps_bytes)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _lift_columns(view, records_start: int, records_end: int):
    """The ``kinds``, ``ndeps`` and ``sizes`` columns of the record section.

    One strided slice per byte lane: ``kinds``/``ndeps`` are ``bytes``,
    ``sizes`` an ``array('H')`` in host byte order.
    """
    kinds = bytes(view[records_start:records_end:_RECORD.size])
    ndeps = bytes(view[records_start + 1 : records_end : _RECORD.size])
    size_lanes = bytearray(2 * len(kinds))
    size_lanes[0::2] = view[records_start + 2 : records_end : _RECORD.size]
    size_lanes[1::2] = view[records_start + 3 : records_end : _RECORD.size]
    sizes = array("H")
    sizes.frombytes(size_lanes)
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere we run
        sizes.byteswap()
    return kinds, ndeps, sizes


def _check_columns(kinds: bytes, ndeps: bytes, sizes, deps_bytes, deps_len: int) -> None:
    """Reject corrupt column content with the offending record in the message.

    Both decoders run this before building anything, so the object and the
    columnar form reject the same payloads with the same diagnostics.
    """
    invalid = kinds.translate(None, _VALID_KINDS)
    if invalid:
        index = next(i for i, code in enumerate(kinds) if code > 2)
        raise TraceFormatError(
            f"unknown .rtrc instruction kind code {kinds[index]} (record {index})"
        )
    consumed = sum(ndeps)
    if consumed != deps_len:
        raise TraceFormatError(
            f"inconsistent .rtrc dependency pool: records consume {consumed} "
            f"entries, pool holds {deps_len}"
        )
    # A zero dependency distance is corrupt (distances are positive backward
    # offsets).  Scanning for an *aligned* all-zero u32 stays at C speed: a
    # find() hit that is not itself an aligned entry can only overlap one
    # aligned candidate, which is checked and then skipped past.
    pos = deps_bytes.find(_ZERO_U32)
    while pos != -1:
        start = pos + (-pos % 4)
        if start + 4 <= len(deps_bytes) and deps_bytes[start : start + 4] == _ZERO_U32:
            raise TraceFormatError(
                f"corrupt .rtrc dependency pool: entry {start // 4} is zero "
                "(distances are positive backward offsets)"
            )
        pos = deps_bytes.find(_ZERO_U32, max(start, pos + 1))
    if 0 in sizes:
        for index, size in enumerate(sizes):
            if size == 0 and kinds[index] != 0:
                raise TraceFormatError(
                    f"corrupt .rtrc record {index}: "
                    f"{'load' if kinds[index] == 1 else 'store'} with zero size"
                )


def read_header(data: bytes) -> dict:
    """Parse and validate the prelude of an ``.rtrc`` payload.

    Returns a dictionary with ``version``, ``name``, ``suite``,
    ``instructions`` (record count), ``deps`` (pool length) and ``layout``
    (field dict) — without touching the record section, so inspecting a huge
    trace costs a header read.
    """
    if len(data) < _PRELUDE.size:
        raise TraceFormatError(
            f"truncated .rtrc header: need {_PRELUDE.size} bytes, got {len(data)}"
        )
    (magic, version, flags, name_len, suite_len, count, deps_len, *layout_values) = (
        _PRELUDE.unpack_from(data)
    )
    if magic != RTRC_MAGIC:
        raise TraceFormatError(f"not an .rtrc trace (bad magic {magic!r})")
    if version != RTRC_VERSION:
        raise TraceFormatError(
            f"unsupported .rtrc version {version} (this build reads version {RTRC_VERSION})"
        )
    if flags != 0:
        raise TraceFormatError(f"unsupported .rtrc flags {flags:#06x}")
    strings_end = _PRELUDE.size + name_len + suite_len
    if len(data) < strings_end:
        raise TraceFormatError("truncated .rtrc header: name/suite cut short")
    name = data[_PRELUDE.size : _PRELUDE.size + name_len].decode("utf-8")
    suite = data[_PRELUDE.size + name_len : strings_end].decode("utf-8")
    return {
        "version": version,
        "name": name,
        "suite": suite,
        "instructions": count,
        "deps": deps_len,
        "layout": dict(zip(_LAYOUT_FIELDS, layout_values)),
        "body_offset": strings_end,
    }


def decode_trace(data: bytes):
    """Rebuild a :class:`~repro.workloads.trace.MemoryTrace` from ``.rtrc`` bytes."""
    from repro.workloads.trace import MemoryTrace

    header = read_header(data)
    count = header["instructions"]
    deps_len = header["deps"]
    records_start = header["body_offset"]
    records_end = records_start + count * _RECORD.size
    deps_end = records_end + deps_len * 4
    if len(data) != deps_end:
        raise TraceFormatError(
            f"truncated or oversized .rtrc body: expected {deps_end} bytes "
            f"({count} records + {deps_len} deps), got {len(data)}"
        )
    view = memoryview(data)
    deps_bytes = data[records_end:deps_end]
    _check_columns(
        *_lift_columns(view, records_start, records_end), deps_bytes, deps_len
    )
    deps_pool = array("I")
    deps_pool.frombytes(deps_bytes)
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere we run
        deps_pool.byteswap()

    instructions = []
    append = instructions.append
    kinds_by_code = _KINDS_BY_CODE
    cursor = 0
    for kind_code, ndeps, size, address in _RECORD.iter_unpack(
        view[records_start:records_end]
    ):
        kind = kinds_by_code[kind_code]
        deps: Tuple[int, ...] = ()
        if ndeps:
            deps = tuple(deps_pool[cursor : cursor + ndeps])
            cursor += ndeps
        append(
            Instruction(
                kind=kind,
                address=address if kind is not InstructionKind.COMPUTE else None,
                size=size,
                deps=deps,
            )
        )
    return MemoryTrace(
        name=header["name"],
        instructions=instructions,
        suite=header["suite"],
        layout=AddressLayout(**header["layout"]),
    )


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def dump_rtrc(trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` as an ``.rtrc`` file (``.gz`` paths are compressed)."""
    path = Path(path)
    payload = encode_trace(trace)
    with _open_binary(path, "w") as handle:
        handle.write(payload)
    return path


def load_rtrc(path: Union[str, Path]):
    """Read an ``.rtrc`` file written by :func:`dump_rtrc` (gzip-aware)."""
    with _open_binary(path, "r") as handle:
        data = handle.read()
    try:
        return decode_trace(data)
    except TraceFormatError as error:
        raise TraceFormatError(f"{path}: {error}") from None
