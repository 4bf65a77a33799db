// Checkpoint payload codecs — the engine-facing face of the shared
// byte-stream codec layer (support/codec.hpp), plus the cell serialization
// that is specific to checkpoints.
//
// The codec machinery itself (Raw/XorDelta/Rle/Lz stages, CodecChain
// stacking) lives in support/codec.hpp so the checkpoint engine and the
// binary trace container (trace/mctb.hpp) share exactly one implementation.
//
// Cell spans are serialized byte-plane-shuffled (all payload bytes 0, then
// all bytes 1, ..., then all kind tags — the Blosc/HDF5 shuffle filter):
// after XOR the high-byte planes of a double array are almost entirely
// zero, handing RLE kilobyte-long runs instead of isolated zero pairs.
//
// Every decode path validates its input and throws ac::CheckpointError on
// truncated payloads, malformed tokens, bad codec ids, or a decoded-size
// mismatch — corrupt bytes must never become UB. (The shared layer throws
// ac::CodecError; the cell entry points below translate it.)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/image.hpp"
#include "support/codec.hpp"

namespace ac::ckpt {

/// Serialize a cell span byte-plane-shuffled: payload plane 0 of every cell,
/// then plane 1, ..., plane 7, then every kind tag. 9 bytes per cell.
std::string cells_to_bytes(const Cell* cells, std::size_t count);

/// Inverse of cells_to_bytes; throws CheckpointError when the size is not a
/// multiple of the cell stride.
std::vector<Cell> cells_from_bytes(std::string_view bytes);

/// Chain-encode a cell span. `base`/`base_count` are the corresponding cells
/// of the last full image (aligned element-for-element with `cells`); pass
/// nullptr/0 when there is no base — XOR then degrades to identity.
std::string encode_cells(const CodecChain& chain, const Cell* cells, std::size_t count,
                         const Cell* base, std::size_t base_count);

/// Inverse of encode_cells: decode `payload` back into exactly
/// `expect_cells` cells using the same base alignment. Throws CheckpointError
/// on malformed payloads (codec failures included).
std::vector<Cell> decode_cells(const CodecChain& chain, std::string_view payload,
                               std::size_t expect_cells, const Cell* base,
                               std::size_t base_count);

}  // namespace ac::ckpt
