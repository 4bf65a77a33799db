// MCTB ("MiniC Trace Binary") — the binary on-disk trace container.
//
// A trace file in this format is the interned SoA TraceBuffer
// (trace/buffer.hpp) made durable: a self-describing header, a section table,
// and one codec-chain-encoded payload per SoA column, so parsing is a
// read + validate + unshuffle instead of text decoding. The layout:
//
//   FileHeader        magic "MCTB", version, record/operand/symbol counts,
//                     chunk count, CRC of the section table
//   SectionHeader[]   kind, chunk index, element count, raw/payload sizes,
//                     absolute payload offset, payload CRC32, codec stage ids
//   payloads          each section's column data, run through the shared
//                     support/codec.hpp CodecChain (the same implementation
//                     the checkpoint engine uses)
//
// Sections:
//   Symbols        the SymbolPool: a u32 length array + the arena bytes.
//   RecordChunk c  PackedRecord columns of records [c*chunk, ...): dyn_id
//                  (zigzag-delta vs the previous record — dynamic ids are
//                  monotone), func/bb ids, op_count (op_offset is recomputed
//                  on load), line, opcode. Fixed-stride columns are
//                  byte-plane shuffled before the codec sees them.
//   OperandChunk c the operand columns of those records: the 8-byte value
//                  delta-encoded against the last value seen for the same
//                  operand name (addresses are near-monotone per variable,
//                  so deltas are tiny), zigzag-folded and plane-shuffled;
//                  plus name ids, index, bits, flags.
//
// Chunks are self-contained (delta predictors reset per chunk) and land in
// disjoint slots of the output arrays, so the parallel read decodes them
// concurrently with no merge or concat step. Every decode path validates
// magic/version/bounds/CRC and throws ac::TraceFormatError on malformed
// input — corrupt bytes must never become UB.
//
// Both ends of the container are streaming. The writer emits header +
// placeholder section table, then encodes and flushes one section at a time
// through a batched sink, and patches the table in place once payload sizes
// are known — peak encode memory is one chunk plus codec scratch, never the
// whole container, and the emitted bytes are identical for every sink. The
// reader decodes chunks into the preallocated TraceBuffer slots through
// per-worker scratch arenas that are reused across every chunk a worker
// claims, and reports consumed payload ranges through ParseProgress so
// mmap'd input pages can be released behind the in-order frontier, exactly
// like the text path.
//
// The same section framing, prefixed with the "MCTA" magic, carries the
// checkpoint engine's logs (see mctb_frame below): one self-describing frame
// per appended record, one CRC over its header and payload.
#pragma once

#include <string>
#include <string_view>

#include "support/codec.hpp"
#include "trace/buffer.hpp"
#include "trace/reader.hpp"

namespace ac::trace {

/// MCTB write knobs. The default chain (rle+lz) compresses the shuffled
/// columns well while keeping decode memcpy-dominated; pass CodecChain{}
/// ("raw") for the fastest possible parse at larger file size.
struct MctbOptions {
  CodecChain codec = CodecChain::parse("rle+lz");
  /// Records per chunk — the parallel-decode granule.
  std::size_t chunk_records = std::size_t{1} << 16;
};

/// True when `bytes` starts with the MCTB magic (the FileSource sniff).
bool is_mctb(std::string_view bytes);

/// Serialize `buf` as an MCTB container. Runs the streaming writer against an
/// in-memory sink, so the bytes are identical to what write_mctb_file emits.
std::string mctb_to_bytes(const TraceBuffer& buf, const MctbOptions& opts = {});

/// Streaming serialize into a caller-owned string whose capacity survives
/// across calls (RemoteSink re-encodes one staging chunk per flush and must
/// not pay a fresh container allocation each time). Same bytes as
/// mctb_to_bytes.
void mctb_encode_into(const TraceBuffer& buf, const MctbOptions& opts, std::string& out);

/// Stream `buf` to `path` as an MCTB container: placeholder header + section
/// table first, each section encoded and flushed chunk-at-a-time through a
/// batched file writer, then the table patched in place (seek-back) once the
/// payload sizes are known. Peak memory is one chunk + codec scratch. The
/// write is crash-durable: bytes land in a same-directory temp file which is
/// fsync'd, renamed over `path`, and the directory entry fsync'd — a kill at
/// any point leaves either the old file or the complete new one. Returns the
/// container size in bytes. Throws ac::Error on I/O failure.
std::uint64_t write_mctb_file(const TraceBuffer& buf, const std::string& path,
                              const MctbOptions& opts = {});

/// fsync the directory holding `path`, so an entry just created or renamed
/// there survives power loss, not only process death. Throws ac::Error when
/// the directory cannot be opened or the fsync fails. write_mctb_file and the
/// checkpoint engine's log rotation and log creation all sync through here.
void fsync_parent_dir(const std::string& path);

/// Decode knobs for read_mctb.
struct MctbReadOptions {
  /// Worker count for chunk decode (0 = hardware default, <=1 = serial).
  int num_threads = 0;
  /// Fires per consumed payload byte range, strictly in chunk order — the
  /// madvise frontier for mmap-backed input.
  ParseProgress progress;
};

/// Validate + decode an MCTB container. Chunks are decoded on
/// `opts.num_threads` workers straight into their disjoint slots of the
/// result arrays — no concat step — each worker reusing one scratch arena
/// across every chunk it claims. `opts.progress` fires per decoded chunk with
/// the consumed payload byte range. Throws ac::TraceFormatError on any
/// malformed input.
TraceBuffer read_mctb(std::string_view bytes, const MctbReadOptions& opts = {});

// --- MCTB record framing ----------------------------------------------------
//
// A standalone record frame for append-only streams: each of the checkpoint
// engine's logs (L1, L2 and the L3 archive) is a sequence of these, and a
// frame is an engine record's only envelope. Layout per frame:
//
//   u32 magic "MCTA"
//   SectionHeader   kind (caller-defined record kind), chunk = caller `seq`,
//                   count = 1, aux = caller u64, raw_size = payload bytes,
//                   payload_off = offset of the payload within the frame,
//                   payload_size, CRC32, codec stage ids (self-description
//                   of the chain used *inside* the payload — the frame
//                   itself carries the payload verbatim).
//   payload
//
// The CRC covers every frame byte but its own field: the header fields a log
// walk reads (kind, seq, aux, the sizes, the codec ids) and the payload. (A
// container section's CRC covers its payload alone, because the container's
// table CRC covers the section headers.) Frames are self-delimiting, so a
// reader walks an append-only stream frame by frame and stops cleanly at a
// torn tail.

/// Magic "MCTA" little-endian — distinguishes a framed record stream from
/// both an MCTB container and the v1 `[len][crc][bytes]` archive format.
constexpr std::uint32_t kMctbFrameMagic = 0x4154434Du;

/// Bytes a frame adds around its payload: the magic plus the section header.
constexpr std::size_t kMctbFrameHeaderBytes = 61;

/// Build one frame around `payload` and seal its CRC. `codec` is recorded in
/// the header as self-description; the payload bytes are carried verbatim.
std::string mctb_frame(std::uint32_t kind, std::uint32_t seq, std::uint64_t aux,
                       std::string_view payload, const CodecChain& codec);

/// A parsed frame; `payload` views into the walked bytes.
struct MctbFrameView {
  std::uint32_t kind = 0;
  std::uint32_t seq = 0;
  std::uint64_t aux = 0;
  CodecChain codec;
  std::uint32_t crc = 0;  ///< over the frame's header and payload
  std::string_view payload;
  std::size_t frame_size = 0;  ///< total frame bytes, including magic + header
};

/// Parse the frame header at `pos` without verifying the CRC (the header walk
/// over a checkpoint log). Returns false — never throws — on bad magic,
/// truncation, or a malformed header: the walk's stop condition.
bool read_mctb_frame_header(std::string_view bytes, std::size_t pos, MctbFrameView& out);

/// Full frame parse: the header plus the CRC over header and payload. Returns
/// false on any torn or corrupt frame.
bool read_mctb_frame(std::string_view bytes, std::size_t pos, MctbFrameView& out);

}  // namespace ac::trace
