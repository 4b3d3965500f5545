"""Tests for the .bpt binary trace formats (BPT1 and chunked BPT2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IngestError
from repro.trace.stream import (
    BPT2Writer,
    HEADER2_SIZE,
    MAGIC,
    MAGIC2,
    TraceFormatError,
    TraceStream,
    normalize_chunk_branches,
    read_trace,
    write_trace,
    write_trace_chunked,
)
from repro.trace.trace import Trace

from conftest import trace_from_steps, trace_from_string


class TestRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        trace = trace_from_steps([(1, 2, True), (3, 4, False), (5, 6, True)])
        path = tmp_path / "t.bpt"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.bpt"
        write_trace(Trace.empty(), path)
        loaded = read_trace(path)
        assert len(loaded) == 0

    def test_large_addresses(self, tmp_path):
        trace = trace_from_steps([(2**60, 2**61, True)])
        path = tmp_path / "big.bpt"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded[0].pc == 2**60
        assert loaded[0].target == 2**61

    def test_non_multiple_of_eight_length(self, tmp_path):
        trace = trace_from_string("TNTNTNTNTNT")  # 11 outcomes
        path = tmp_path / "odd.bpt"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def test_accepts_pathlike_and_str(self, tmp_path):
        trace = trace_from_string("TN")
        path = tmp_path / "p.bpt"
        write_trace(trace, str(path))
        assert read_trace(str(path)) == trace


class TestMalformedFiles:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_trace(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bpt"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(TraceFormatError, match="truncated header"):
            read_trace(path)

    def test_truncated_columns(self, tmp_path):
        path = tmp_path / "cols.bpt"
        path.write_bytes(MAGIC + np.uint64(10).tobytes() + b"\x00" * 8)
        with pytest.raises(TraceFormatError, match="truncated address"):
            read_trace(path)

    def test_truncated_outcomes(self, tmp_path):
        trace = trace_from_string("TNTN")
        path = tmp_path / "out.bpt"
        write_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(TraceFormatError, match="truncated outcome"):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "nil.bpt"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            read_trace(path)


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**63 - 1),
            st.integers(min_value=0, max_value=2**63 - 1),
            st.booleans(),
        ),
        max_size=200,
    )
)
def test_property_round_trip_preserves_trace(tmp_path_factory, steps):
    trace = trace_from_steps(steps)
    path = tmp_path_factory.mktemp("bpt") / "prop.bpt"
    write_trace(trace, path)
    assert read_trace(path) == trace


class TestChunkSizeNormalization:
    def test_none_is_the_default_window(self):
        from repro.trace.stream import DEFAULT_CHUNK_BRANCHES

        assert normalize_chunk_branches(None) == DEFAULT_CHUNK_BRANCHES

    def test_rounds_up_to_a_multiple_of_eight(self):
        assert normalize_chunk_branches(1) == 8
        assert normalize_chunk_branches(8) == 8
        assert normalize_chunk_branches(13) == 16
        assert normalize_chunk_branches(65536) == 65536

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="chunk_branches"):
            normalize_chunk_branches(0)
        with pytest.raises(ValueError, match="chunk_branches"):
            normalize_chunk_branches(-4)


class TestBPT2RoundTrip:
    @pytest.fixture()
    def trace(self):
        rng = np.random.default_rng(3)
        n = 1000
        pcs = rng.integers(0, 64, n).astype(np.uint64) * np.uint64(4)
        return Trace(pcs, pcs + np.uint64(0x40), rng.random(n) < 0.6)

    def test_round_trip_multi_chunk(self, tmp_path, trace):
        path = tmp_path / "t2.bpt"
        write_trace_chunked(trace, path, chunk_branches=104)
        assert path.read_bytes()[:4] == MAGIC2
        assert read_trace(path) == trace

    def test_stream_chunks_tile_the_trace(self, tmp_path, trace):
        path = tmp_path / "t2.bpt"
        write_trace_chunked(trace, path, chunk_branches=104)
        stream = TraceStream.open(path)
        assert len(stream) == len(trace)
        assert stream.chunk_branches == 104
        assert stream.num_chunks == 10
        assert stream.spans()[0] == (0, 104)
        assert stream.spans()[-1] == (936, 1000)
        rebuilt = stream.whole()
        assert rebuilt == trace

    def test_chunk_random_access(self, tmp_path, trace):
        path = tmp_path / "t2.bpt"
        write_trace_chunked(trace, path, chunk_branches=104)
        stream = TraceStream.open(path)
        assert stream.chunk(3) == trace[312:416]
        with pytest.raises(IndexError, match="out of range"):
            stream.chunk(10)

    def test_streaming_digest_matches_whole_trace_digest(
        self, tmp_path, trace
    ):
        path = tmp_path / "t2.bpt"
        write_trace_chunked(trace, path, chunk_branches=104)
        assert TraceStream.open(path).digest() == trace.digest()
        assert TraceStream.from_trace(trace, 104).digest() == trace.digest()

    def test_bpt1_stream_digest_matches_too(self, tmp_path, trace):
        path = tmp_path / "t1.bpt"
        write_trace(trace, path)
        stream = TraceStream.open(path, chunk_branches=104)
        assert stream.digest() == trace.digest()
        assert stream.whole() == trace

    def test_single_short_chunk(self, tmp_path):
        trace = trace_from_string("TNTNT")
        path = tmp_path / "short.bpt"
        write_trace_chunked(trace, path, chunk_branches=64)
        stream = TraceStream.open(path)
        assert stream.num_chunks == 1
        assert stream.whole() == trace

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty2.bpt"
        write_trace_chunked(Trace.empty(), path)
        stream = TraceStream.open(path)
        assert stream.num_chunks == 0
        assert len(stream.whole()) == 0
        assert len(read_trace(path)) == 0


class TestBPT2Writer:
    def test_rejects_mismatched_columns(self, tmp_path):
        with BPT2Writer(tmp_path / "w.bpt", 8) as writer:
            with pytest.raises(ValueError, match="equal length"):
                writer.append_chunk([1, 2], [3, 4], [True])
            writer.append_chunk([1], [2], [True])

    def test_rejects_oversized_and_empty_chunks(self, tmp_path):
        with BPT2Writer(tmp_path / "w.bpt", 8) as writer:
            with pytest.raises(ValueError, match="outside"):
                writer.append_chunk([0] * 9, [0] * 9, [False] * 9)
            with pytest.raises(ValueError, match="outside"):
                writer.append_chunk([], [], [])
            writer.append_chunk([1], [2], [True])

    def test_only_the_final_chunk_may_be_short(self, tmp_path):
        writer = BPT2Writer(tmp_path / "w.bpt", 8)
        writer.append_chunk([0] * 4, [0] * 4, [False] * 4)  # short: final
        with pytest.raises(ValueError, match="final chunk"):
            writer.append_chunk([0] * 8, [0] * 8, [False] * 8)
        writer.close()

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = BPT2Writer(tmp_path / "w.bpt", 8)
        writer.append_chunk([1], [2], [True])
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            writer.append_chunk([1], [2], [True])


class TestMalformedBPT2:
    def _valid_file(self, tmp_path):
        trace = trace_from_string("TN" * 10)  # 20 branches, 3 chunks of 8
        path = tmp_path / "m2.bpt"
        write_trace_chunked(trace, path, chunk_branches=8)
        return path

    def _patch(self, path, offset, value):
        data = bytearray(path.read_bytes())
        data[offset : offset + 8] = int(value).to_bytes(8, "little")
        path.write_bytes(bytes(data))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.bpt"
        path.write_bytes(MAGIC2 + b"\x00" * (HEADER2_SIZE - 8))
        with pytest.raises(TraceFormatError, match="truncated header"):
            TraceStream.open(path)

    def test_unaligned_chunk_size_rejected(self, tmp_path):
        path = self._valid_file(tmp_path)
        self._patch(path, 16, 12)  # chunk_branches field
        with pytest.raises(TraceFormatError, match="multiple of 8"):
            TraceStream.open(path)

    def test_chunk_count_mismatch_rejected(self, tmp_path):
        # A forged branch count of 2**40 implies 2**37 chunks; it must be
        # rejected by header arithmetic, before any span list is built.
        for offset, value in ((24, 7), (8, 2**40)):  # num_chunks, n
            path = self._valid_file(tmp_path)
            self._patch(path, offset, value)
            with pytest.raises(TraceFormatError, match="chunks indexed"):
                TraceStream.open(path)

    def test_truncated_index_rejected(self, tmp_path):
        path = self._valid_file(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TraceFormatError, match="truncated chunk index"):
            TraceStream.open(path)

    def test_overrunning_chunk_offset_rejected(self, tmp_path):
        path = self._valid_file(tmp_path)
        index_offset = int.from_bytes(
            path.read_bytes()[32:40], "little"
        )
        self._patch(path, index_offset, 0)  # first chunk's offset
        with pytest.raises(TraceFormatError, match="overruns"):
            TraceStream.open(path)

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bpt"
        path.write_bytes(b"BPT9" + b"\x00" * 64)
        with pytest.raises(TraceFormatError, match="bad magic"):
            TraceStream.open(path)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        from repro.trace.stream import read_text_trace, write_text_trace

        trace = trace_from_steps([(0x100, 0x80, True), (0x104, 0x200, False)])
        path = tmp_path / "t.txt"
        write_text_trace(trace, path)
        assert read_text_trace(path) == trace

    def test_comments_and_blanks_skipped(self, tmp_path):
        from repro.trace.stream import read_text_trace

        path = tmp_path / "c.txt"
        path.write_text("# header\n\n0x10 0x20 T\n  \n0x14 0x8 N\n")
        trace = read_text_trace(path)
        assert len(trace) == 2
        assert trace[1].is_backward

    def test_outcome_spellings(self, tmp_path):
        from repro.trace.stream import read_text_trace

        path = tmp_path / "s.txt"
        path.write_text("16 32 taken\n16 32 0\n16 32 N\n16 32 1\n")
        trace = read_text_trace(path)
        assert list(trace.taken) == [True, False, False, True]

    def test_decimal_addresses(self, tmp_path):
        from repro.trace.stream import read_text_trace

        path = tmp_path / "d.txt"
        path.write_text("256 512 T\n")
        assert read_text_trace(path)[0].pc == 256

    def test_malformed_line_rejected(self, tmp_path):
        from repro.trace.stream import read_text_trace

        path = tmp_path / "m.txt"
        path.write_text("0x10\n")
        with pytest.raises(IngestError, match="expected"):
            read_text_trace(path)

    def test_bad_address_rejected(self, tmp_path):
        from repro.trace.stream import read_text_trace

        path = tmp_path / "a.txt"
        path.write_text("zork 0x20 T\n")
        with pytest.raises(IngestError, match="bad address"):
            read_text_trace(path)

    def test_bad_outcome_rejected(self, tmp_path):
        from repro.trace.stream import read_text_trace

        path = tmp_path / "o.txt"
        path.write_text("0x10 0x20 maybe\n")
        with pytest.raises(IngestError, match="bad outcome"):
            read_text_trace(path)

    def test_tools_accept_text_traces(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "g.txt"
        assert main(["generate", "compress", "-o", str(path), "--length", "500"]) == 0
        assert main(["stats", str(path)]) == 0
        assert "dynamic branches:        500" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content, match",
        [
            (b"0x10 0x14 T\n0x10000000000000000 0x14 T\n", "out of uint64 range"),
            (b"0x10 0x14 T\n-16 0x14 T\n", "out of uint64 range"),
            (b"0x10 0x14 T\n\xff\xfe 0x14 T\n", "bad address"),
        ],
        ids=["65-bit-address", "negative-address", "undecodable-bytes"],
    )
    def test_bad_input_is_a_located_ingest_error(
        self, tmp_path, capsys, content, match
    ):
        from repro.cli import main
        from repro.trace.stream import read_text_trace

        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        with pytest.raises(IngestError, match=match) as info:
            read_text_trace(path)
        assert f"{path}:2:" in str(info.value)
        assert main(["stats", str(path)]) == 2
        assert f"{path}:2:" in capsys.readouterr().err

    def test_missing_file_is_an_ingest_error(self, tmp_path, capsys):
        from repro.cli import main
        from repro.trace.stream import read_text_trace

        directory = tmp_path / "dir.bpt"
        directory.mkdir()
        for path, reader in (
            (tmp_path / "absent.txt", read_text_trace),
            (tmp_path / "absent.bpt", read_trace),
            (directory, read_trace),
        ):
            with pytest.raises(
                IngestError, match="cannot read trace file"
            ) as info:
                reader(path)
            assert str(path) in str(info.value)
            assert main(["stats", str(path)]) == 2
            assert f"{path}: cannot read trace file" in capsys.readouterr().err


class TestLargeRoundTrips:
    """Round-trip fidelity at batch-write / frombuffer-parse scale."""

    @pytest.fixture(scope="class")
    def big_trace(self):
        rng = np.random.default_rng(9)
        n = 100_000
        pcs = rng.integers(0, 500, n).astype(np.uint64) * np.uint64(4)
        pcs += np.uint64(0x10000)
        targets = pcs + rng.integers(-256, 256, n).astype(np.int64).astype(
            np.uint64
        )
        return Trace(pcs, targets, rng.random(n) < 0.6)

    def test_text_round_trip_100k(self, tmp_path, big_trace):
        from repro.trace.stream import read_text_trace, write_text_trace

        path = tmp_path / "big.txt"
        write_text_trace(big_trace, path)
        assert read_text_trace(path) == big_trace

    def test_binary_round_trip_100k(self, tmp_path, big_trace):
        path = tmp_path / "big.bpt"
        write_trace(big_trace, path)
        assert read_trace(path) == big_trace

    def test_text_chunk_boundary_lengths(self, tmp_path):
        # Exercise the join-chunk edges (chunk size 8192 lines).
        from repro.trace.stream import read_text_trace, write_text_trace

        for n in (8191, 8192, 8193):
            trace = trace_from_string("TN" * (n // 2) + "T" * (n % 2))
            path = tmp_path / f"c{n}.txt"
            write_text_trace(trace, path)
            assert read_text_trace(path) == trace
