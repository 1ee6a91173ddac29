"""Tests for the compact binary trace format (``.rtrc``)."""

import gzip
import time

import pytest

from repro.cpu.instruction import compute, load, store
from repro.workloads.binfmt import (
    RTRC_MAGIC,
    RTRC_VERSION,
    TraceFormatError,
    decode_trace,
    dump_rtrc,
    encode_trace,
    load_rtrc,
    read_header,
    trace_fingerprint,
)
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import MemoryTrace


def _sample_trace(name: str = "sample") -> MemoryTrace:
    return MemoryTrace(
        name=name,
        instructions=[
            load(0x1000),
            compute(deps=(1,)),
            store(0x1004, size=8, deps=(2,)),
            load(0x2000, size=1),
            compute(),
            store(0x2008, deps=(1, 4)),
        ],
        suite="unit",
    )


def _zero_size_payload(index: int) -> bytes:
    """The sample trace's payload with record ``index``'s size field zeroed."""
    payload = bytearray(encode_trace(_sample_trace()))
    offset = read_header(bytes(payload))["body_offset"] + 12 * index + 2
    payload[offset : offset + 2] = b"\x00\x00"
    return bytes(payload)


class TestRoundTrip:
    def test_decode_restores_every_instruction(self):
        trace = _sample_trace()
        decoded = decode_trace(encode_trace(trace))
        assert decoded.name == trace.name
        assert decoded.suite == trace.suite
        assert decoded.layout == trace.layout
        assert decoded.instructions == trace.instructions

    def test_reencode_is_bit_identical(self):
        trace = generate_trace(benchmark_profile("gzip"), 800)
        payload = encode_trace(trace)
        assert encode_trace(decode_trace(payload)) == payload

    def test_roundtrip_through_jsonl_is_bit_identical(self, tmp_path):
        """JSONL and .rtrc preserve exactly the same information."""
        trace = generate_trace(benchmark_profile("mcf"), 600)
        direct = encode_trace(trace)
        jsonl = tmp_path / "trace.jsonl"
        trace.to_jsonl(jsonl)
        assert encode_trace(MemoryTrace.from_jsonl(jsonl)) == direct
        # And the reverse direction: .rtrc -> JSONL matches JSONL directly.
        rtrc_jsonl = tmp_path / "roundtrip.jsonl"
        decode_trace(direct).to_jsonl(rtrc_jsonl)
        assert rtrc_jsonl.read_text() == jsonl.read_text()

    def test_empty_trace_roundtrips(self):
        trace = MemoryTrace(name="empty", instructions=[], suite="unit")
        decoded = decode_trace(encode_trace(trace))
        assert decoded.name == "empty"
        assert len(decoded) == 0

    def test_to_bytes_is_rtrc(self):
        trace = _sample_trace()
        payload = trace.to_bytes()
        assert payload.startswith(RTRC_MAGIC)
        assert MemoryTrace.from_bytes(payload).instructions == trace.instructions


class TestFileIO:
    def test_dump_and_load(self, tmp_path):
        trace = _sample_trace()
        path = tmp_path / "t.rtrc"
        dump_rtrc(trace, path)
        assert load_rtrc(path).instructions == trace.instructions

    def test_gzip_path_is_compressed(self, tmp_path):
        trace = generate_trace(benchmark_profile("gzip"), 400)
        plain = tmp_path / "t.rtrc"
        packed = tmp_path / "t.rtrc.gz"
        dump_rtrc(trace, plain)
        dump_rtrc(trace, packed)
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        assert load_rtrc(packed).instructions == trace.instructions

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.rtrc"
        path.write_bytes(b"RTRC")
        with pytest.raises(TraceFormatError, match="bad.rtrc"):
            load_rtrc(path)

    def test_corrupt_record_error_names_file_and_record(self, tmp_path):
        path = tmp_path / "bad.rtrc"
        path.write_bytes(_zero_size_payload(0))
        with pytest.raises(TraceFormatError, match=r"bad\.rtrc: .*record 0: load"):
            load_rtrc(path)


class TestMalformedPayloads:
    def test_truncated_header(self):
        with pytest.raises(TraceFormatError, match="truncated .rtrc header"):
            decode_trace(b"RTRC\x01\x00")

    def test_bad_magic(self):
        payload = bytearray(encode_trace(_sample_trace()))
        payload[:4] = b"NOPE"
        with pytest.raises(TraceFormatError, match="bad magic"):
            decode_trace(bytes(payload))

    def test_unsupported_version(self):
        payload = bytearray(encode_trace(_sample_trace()))
        payload[4] = RTRC_VERSION + 1
        with pytest.raises(TraceFormatError, match="unsupported .rtrc version"):
            decode_trace(bytes(payload))

    def test_truncated_records(self):
        payload = encode_trace(_sample_trace())
        with pytest.raises(TraceFormatError, match="truncated or oversized"):
            decode_trace(payload[:-5])

    def test_trailing_garbage(self):
        payload = encode_trace(_sample_trace())
        with pytest.raises(TraceFormatError, match="truncated or oversized"):
            decode_trace(payload + b"\x00\x00")

    def test_name_cut_short(self):
        payload = encode_trace(_sample_trace(name="a-rather-long-trace-name"))
        with pytest.raises(TraceFormatError, match="name/suite cut short"):
            decode_trace(payload[:58])

    def test_zero_size_record_names_the_record(self):
        payload = _zero_size_payload(3)  # the one-byte load
        with pytest.raises(TraceFormatError, match=r"record 3: load with zero size"):
            decode_trace(payload)

    def test_zero_dependency_distance_names_the_entry(self):
        payload = bytearray(encode_trace(_sample_trace()))
        # The pool holds 1, 2, 1, 4 (records 1, 2 and 5); zero entry 2.
        start = len(payload) - 4 * 2
        payload[start : start + 4] = bytes(4)
        with pytest.raises(TraceFormatError, match="entry 2 is zero"):
            decode_trace(bytes(payload))


class TestFingerprint:
    def test_stable_across_encode_decode(self):
        trace = _sample_trace()
        decoded = decode_trace(encode_trace(trace))
        assert trace_fingerprint(trace) == trace_fingerprint(decoded)

    def test_independent_of_name_and_suite(self):
        one = _sample_trace(name="one")
        two = _sample_trace(name="two")
        two.suite = "other"
        assert trace_fingerprint(one) == trace_fingerprint(two)

    def test_sensitive_to_content(self):
        base = _sample_trace()
        changed = _sample_trace()
        changed.instructions[0].address = 0x1004
        assert trace_fingerprint(base) != trace_fingerprint(changed)

    def test_method_alias(self):
        trace = _sample_trace()
        assert trace.fingerprint() == trace_fingerprint(trace)


class TestHeader:
    def test_read_header_without_body(self):
        trace = _sample_trace()
        header = read_header(encode_trace(trace))
        assert header["version"] == RTRC_VERSION
        assert header["name"] == "sample"
        assert header["suite"] == "unit"
        assert header["instructions"] == len(trace)
        assert header["layout"]["page_bytes"] == trace.layout.page_bytes


class TestDecodeSpeed:
    def test_rtrc_decodes_faster_than_jsonl(self, tmp_path):
        """The worker-payload claim: binary decode beats the JSONL parse.

        Best-of-five on a 20k-instruction trace; the observed gap is ~2.5x,
        so the bare ``<`` comparison has a wide noise margin.
        """
        trace = generate_trace(benchmark_profile("gzip"), 20_000)
        rtrc = tmp_path / "t.rtrc"
        jsonl = tmp_path / "t.jsonl"
        dump_rtrc(trace, rtrc)
        trace.to_jsonl(jsonl)

        def best_of(action, repeats=5):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                action()
                times.append(time.perf_counter() - start)
            return min(times)

        rtrc_seconds = best_of(lambda: load_rtrc(rtrc))
        jsonl_seconds = best_of(lambda: MemoryTrace.from_jsonl(jsonl))
        assert rtrc_seconds < jsonl_seconds, (
            f"rtrc decode ({rtrc_seconds * 1000:.1f} ms) should beat the "
            f"JSONL parse ({jsonl_seconds * 1000:.1f} ms)"
        )
