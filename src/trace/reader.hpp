// Trace parsing.
//
// The fast path parses into the compact interned TraceBuffer (trace/buffer.hpp)
// straight off the input bytes — a single cursor walk, no intermediate line
// vector, no per-record heap traffic:
//  * read_trace_buffer — sequential zero-copy parse.
//  * read_trace_buffer_parallel — the §V-A decomposition on the same layout:
//    the input is partitioned at block-header boundaries, workers parse chunks
//    into private buffers and bulk-merge their symbols into the shared pool,
//    and a consumer splices each finished chunk into the output in order
//    while later chunks still parse (pipelined — no concat barrier).
//
// Binary MCTB traces are parsed by trace/mctb.hpp; FileSource sniffs the
// magic and dispatches. Both parses are pinned by golden data
// (tests/golden/vm_trace_digests.txt) and by the writer fixpoint: the text
// re-rendered from a parsed buffer is byte-identical to its input.
#pragma once

#include <functional>
#include <string>

#include "trace/buffer.hpp"

namespace ac::trace {

/// Byte range of the input the parse has fully consumed; FileSource uses it
/// to madvise() parsed pages out of the resident set, so peak RSS during a
/// file parse is the compact representation plus one in-flight segment, not
/// representation + whole file.
using ParseProgress = std::function<void(std::size_t begin, std::size_t end)>;

/// Zero-copy sequential parse of a whole trace into the interned SoA buffer.
/// Large inputs are consumed in block-aligned segments: the final array sizes
/// are extrapolated from the first segment's record/operand density (no
/// counting pre-pass, no doubling spikes), and `progress` fires per segment.
TraceBuffer read_trace_buffer(std::string_view text, const ParseProgress& progress = {});

/// Zero-copy parallel parse, pipelined producer/consumer: workers parse
/// block-aligned chunks into private buffers (merging symbols into the shared
/// pool as they finish) while the calling thread splices each completed chunk
/// into the output in order — there is no concat barrier after the parse.
/// Falls back to serial for small inputs. `num_threads` 0 = runtime default.
/// `progress` fires per chunk, in input order.
TraceBuffer read_trace_buffer_parallel(std::string_view text, int num_threads = 0,
                                       const ParseProgress& progress = {});

/// Slurp a regular file. Throws ac::Error when `path` cannot be opened, is
/// not a regular file (a directory, a pipe), or the read comes up short.
std::string read_file_bytes(const std::string& path);

}  // namespace ac::trace
