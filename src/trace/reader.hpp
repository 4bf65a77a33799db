// Trace parsing.
//
// read_trace_buffer parses LLVM-Tracer text into the compact interned
// TraceBuffer (trace/buffer.hpp) straight off the input bytes — a single
// cursor walk per chunk, no intermediate line vector, no per-record heap
// traffic. It is the paper's §V-A decomposition: the input is cut at
// instruction-block headers, workers parse the chunks into private buffers,
// and the calling thread merges each chunk's symbols and splices its records
// into the output in input order while later chunks still parse. One thread
// is the same driver run inline, each chunk parsing straight into the
// output. Symbols are interned in input order either way, so every thread
// count yields the same buffer, symbol ids included.
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
/// file parse is the compact representation plus the chunks in flight, not
/// representation + whole file.
using ParseProgress = std::function<void(std::size_t begin, std::size_t end)>;

/// Zero-copy parse of a whole trace into the interned SoA buffer on
/// `threads` workers (<= 1: inline on the calling thread, block-aligned
/// chunks of at most 8 MiB parsed straight into the output). The output
/// arrays are sized once, from the first chunk's record/operand density, and
/// `progress` fires per chunk in input order. A malformed header, operand
/// line or numeric field throws TraceFormatError; the error is the first bad
/// block's at any thread count.
TraceBuffer read_trace_buffer(std::string_view text, int threads = 1,
                              const ParseProgress& progress = {});

}  // namespace ac::trace
